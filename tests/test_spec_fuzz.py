"""Mutated spec documents through the command line and the library.

Each example takes a valid spec and applies one or two mutations: drop a
key or list item; swap a value for one of another type, a malformed
literal or a sibling's value; pad a key with a zero; append a key
separator.  It checks that `totime spec` exits 0, or exits 2 with exactly
one `error:` line; that every spec it accepts builds a profile,
round-trips through spec_to_json and echoes no boolean where an integer
belongs; that an accepted chain of at most 64 times solves with exit 0
to 5; and that a chain longer than `gamespec.MAX_CHAIN_SIZE` exits 2,
sizes being drawn on both sides of it.  Payoff history files, meet partition
files and the `--tol`, `--budget`, `--axioms` and `--samples` flags are
mutated the same way; a flag value is passed as `--flag=value` or as an
argument of its own, where one that looks like an option is a usage error
that must also end in one `error:` line.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from totime import cli
from totime import timeorder as to
from totime.gamespec import MAX_CHAIN_SIZE, build_profile, parse_spec, spec_to_json

# json.dumps cannot write an integer past Python's 4,300-digit limit, so the
# mutation writes this marker and the dumped text swaps in the digits
BIG_MARKER = "<5000-digit integer>"
BIG_INT = "7" * 5000

PAYOFF_CD = {"rho": "1/2", "table": {"C,C": "1", "C,D": "0", "D,C": "2", "D,D": "-1/3"}}

BASES = [
    {"domain": {"kind": "chain", "size": 6},
     "players": [{"id": "p1", "actions": ["C", "D"]}, {"id": "p2", "actions": ["C", "D"]}],
     "strategies": [{"kind": "grim", "player": "p1", "cooperate": "C", "punish": "D",
                     "delta": "2", "trigger_actions": ["D"]},
                    {"kind": "constant", "player": "p2", "action": "D"}],
     "payoff": PAYOFF_CD, "seed": 3},
    {"domain": {"kind": "chain", "size": 3},
     "players": [{"id": "p1", "actions": ["a", "b"]}, {"id": "p2", "actions": ["a", "b"]}],
     "strategies": [{"kind": "table", "player": "p1",
                     "entries": {"0": "a", "1|a,a": "b", "2|a,a;b,a": "a", "1|b,a": "a"}},
                    {"kind": "constant", "player": "p2", "action": "a"}]},
    {"domain": {"kind": "chain", "size": 8},
     "players": [{"id": "p1", "actions": ["x", "y"]}, {"id": "p2", "actions": ["x"]},
                 {"id": "p3", "actions": ["x", "y", "z"]}],
     "strategies": [{"kind": "table", "player": "p1", "seed": 5},
                    {"kind": "table", "player": "p2"},
                    {"kind": "grim", "player": "p3", "cooperate": "x", "punish": "z",
                     "delta": 1}],
     "seed": 11},
    {"domain": {"kind": "dense", "lo": "-1", "hi": "1/2"},
     "players": [{"id": "p1", "actions": ["C", "D"]}, {"id": "p2", "actions": ["C", "D"]}],
     "strategies": [{"kind": "grim", "player": "p1", "cooperate": "C", "punish": "D",
                     "delta": "1/4"},
                    {"kind": "grim", "player": "p2", "cooperate": "C", "punish": "D",
                     "delta": "0.125"}],
     "payoff": PAYOFF_CD},
    {"domain": {"kind": "dense", "lo": "0", "hi": "2"},
     "players": [{"id": "p1", "actions": ["C", "D"]}, {"id": "p2", "actions": ["C", "D"]}],
     "strategies": [{"kind": "halving", "player": "p1", "cycle": ["C", "D"]},
                    {"kind": "constant", "player": "p2", "action": "C"}]},
    {"domain": {"kind": "dense", "lo": "0", "hi": "1"},
     "players": [{"id": "p1", "actions": ["0", "1"]}],
     "strategies": [{"kind": "gallery", "player": "p1", "name": "multi"}]},
]

LITERALS = ["1/0", "nan", "1e5000", "-1e-5000", "1/2", "0", "00", "-1", "2", BIG_MARKER]
OTHERS = ["1|a", "a,b", "C;D", "", "x", "C", "D", "a", None, True, False, 0, 1, -1, 2, 1.5,
          [], {}, [1, "C"], [["C"]], ["C"], {"0": "a", "00": "b"}]
OPS = ["drop", "literal", "literal", "other", "sibling", "pad", "separator"]
CHAIN_SIZES = [MAX_CHAIN_SIZE - 1, MAX_CHAIN_SIZE, MAX_CHAIN_SIZE + 1, 10**12]


def _slots(node):
    """Every (container, key) pair under node, the root's own keys first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    out = []
    for k in list(keys):
        out.append((node, k))
        if isinstance(node[k], (dict, list)):
            out.extend(_slots(node[k]))
    return out


def _mutate(draw, doc, focus):
    """Apply one or two mutations to doc, half of them inside doc[focus]
    when that is a non-empty container, and return the JSON text."""
    for _ in range(draw(st.sampled_from([1, 1, 2]))):
        inner = doc.get(focus)
        slots = _slots(inner if isinstance(inner, (dict, list)) and inner
                       and draw(st.booleans()) else doc)
        if not slots:
            break
        box, key = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(OPS))
        if op == "drop":
            del box[key]
        elif op in ("literal", "other"):
            values = LITERALS if op == "literal" else OTHERS
            box[key] = copy.deepcopy(draw(st.sampled_from(values)))
        elif op == "sibling":  # e.g. punish <- cooperate, or one list item <- another
            other = draw(st.sampled_from(list(box.keys() if isinstance(box, dict)
                                              else range(len(box)))))
            box[key] = copy.deepcopy(box[other])
        elif op == "pad" and isinstance(key, str):
            box["0" + key] = copy.deepcopy(box[key])
        elif op == "separator" and isinstance(box[key], str):
            box[key] += draw(st.sampled_from([",", ";", "|", "|a", ",C", " "]))
    return json.dumps(doc).replace(json.dumps(BIG_MARKER), BIG_INT)


@st.composite
def mutated_specs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    if doc["domain"]["kind"] == "chain" and draw(st.booleans()):
        doc["domain"]["size"] = draw(st.sampled_from(CHAIN_SIZES))
    # half the mutations land in the strategy specs, where most checks are
    return _mutate(draw, doc, "strategies")


def _too_long(text) -> bool:
    """Whether the document declares a chain past MAX_CHAIN_SIZE."""
    try:
        domain = json.loads(text).get("domain")
    except ValueError:  # BIG_INT passes json's 4,300-digit limit
        return False
    return (isinstance(domain, dict) and domain.get("kind") == "chain"
            and type(domain.get("size")) is int and domain["size"] > MAX_CHAIN_SIZE)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # the argument parser's usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _check(text, path):
    path.write_text(text)
    code, out, err = _run(["spec", str(path)])
    assert code == 2 or not _too_long(text), out
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert code == 0 and err == ""
    spec = parse_spec(text)
    echoed = json.loads(out)
    assert echoed == spec_to_json(spec)
    # JSON booleans are not integers: none is echoed where an integer belongs
    ints = [echoed["seed"], *(s["seed"] for s in echoed["strategies"] if "seed" in s)]
    if echoed["domain"]["kind"] == "chain":
        ints.append(echoed["domain"]["size"])
    assert all(type(x) is int for x in ints), echoed
    assert parse_spec(spec_to_json(spec)) == spec
    profile = build_profile(spec)
    assert [s.player for s in profile] == list(spec.players)
    if to.is_chain(spec.domain) and spec.domain.size <= 64:
        code, out, err = _run(["solve", str(path), "--budget", "64"])
        assert code in range(6), (code, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_specs())
def test_mutated_specs_exit_0_or_2_and_every_accepted_spec_builds(tmp_path_factory, within,
                                                                  text):
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    within(5, _check, text, path)


# -- payoff history files and meet partition files -----------------------------

# (spec, history) pairs: a chain and two dense domains, with instants and
# open and closed ends
HISTORY_BASES = [
    (BASES[0], {"p1": [{"lo": "0", "hi": "1", "action": "C"},
                       {"lo": "2", "hi": "5", "action": "D"}],
                "p2": [{"lo": "0", "hi": "5", "action": "D"}]}),
    (BASES[3], {"p1": [{"lo": "-1", "hi": "-1/2", "hi_closed": False, "action": "C"},
                       {"lo": "-1/2", "hi": "-1/2", "action": "D"},
                       {"lo": "-1/2", "hi": "1/2", "lo_closed": False, "action": "C"}],
                "p2": [{"lo": "-1", "hi": "1/2", "action": "D"}]}),
    (dict(BASES[4], payoff=PAYOFF_CD),
     {"p1": [{"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True, "action": "C"},
             {"lo": "1", "hi": "2", "lo_closed": False, "hi_closed": True, "action": "D"}],
      "p2": [{"lo": "0", "hi": "2", "action": "C"}]}),
]

# pairs of partitions of one subgame
PARTITION_BASES = [
    ({"domain": {"kind": "chain", "size": 6}, "start": 0,
      "blocks": [{"lo": "0", "hi": "2"}, {"lo": "3", "hi": "5"}]},
     {"domain": {"kind": "chain", "size": 6}, "start": 0,
      "blocks": [{"lo": "0", "hi": "0"}, {"lo": "1", "hi": "4"}, {"lo": "5", "hi": "5"}]}),
    ({"domain": {"kind": "dense", "lo": "-1", "hi": "1/2"}, "start": "-1/2",
      "blocks": [{"lo": "-1/2", "hi": "0", "hi_closed": False}, {"lo": "0", "hi": "0"},
                 {"lo": "0", "hi": "1/2", "lo_closed": False}]},
     {"domain": {"kind": "dense", "lo": "-1", "hi": "1/2"}, "start": "-1/2",
      "blocks": [{"lo": "-1/2", "hi": "-1/4"},
                 {"lo": "-1/4", "hi": "1/2", "lo_closed": False}]}),
    ({"domain": {"kind": "dense", "lo": "3", "hi": "13/2"}, "start": "3",
      "blocks": [{"lo": "3", "hi": "4", "lo_closed": True, "hi_closed": True},
                 {"lo": "4", "hi": "13/2", "lo_closed": False, "hi_closed": True}]},
     {"domain": {"kind": "dense", "lo": "3", "hi": "13/2"}, "start": "3",
      "blocks": [{"lo": "3", "hi": "4", "hi_closed": False},
                 {"lo": "4", "hi": "13/2"}]}),
]


@st.composite
def mutated_histories(draw):
    spec, history = draw(st.sampled_from(HISTORY_BASES))
    return json.dumps(spec), _mutate(draw, copy.deepcopy(history), draw(st.sampled_from(["p1", "p2"])))


@st.composite
def mutated_partition_pairs(draw):
    pair = list(copy.deepcopy(draw(st.sampled_from(PARTITION_BASES))))
    k = draw(st.integers(0, 1))
    texts = [json.dumps(part) for part in pair]
    texts[k] = _mutate(draw, pair[k], "blocks")
    return texts


def _exits_0_or_2(argv, files):
    for path, text in files:
        path.write_text(text)
    code, out, err = _run(argv)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 0 and err == "", (code, err)
        json.loads(out)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_histories())
def test_mutated_payoff_histories_exit_0_or_2(tmp_path_factory, within, texts):
    base = tmp_path_factory.getbasetemp()
    spec, hist = base / "spec.json", base / "history.json"
    within(5, _exits_0_or_2, ["payoff", str(spec), str(hist)], zip([spec, hist], texts))


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_partition_pairs())
def test_mutated_meet_partitions_exit_0_or_2(tmp_path_factory, within, texts):
    base = tmp_path_factory.getbasetemp()
    paths = [base / "part1.json", base / "part2.json"]
    within(5, _exits_0_or_2, ["meet", *map(str, paths)], zip(paths, texts))


# -- command-line flags ------------------------------------------------------

# Each flag is mutated on commands that read it; the files are bases above.
# Positive --budget and --samples values stay at or below 64, so that no
# case starts a long walk, except values past the flag's cap, which are
# refused before any work starts.
CAPS = {"--budget": cli.MAX_BUDGET, "--samples": cli.MAX_SAMPLES}
FLAG_RUNS = {
    "--budget": [("solve", BASES[4]), ("solve", BASES[3])],
    "--samples": [("check", BASES[3]), ("check", BASES[0])],
    "--axioms": [("check", BASES[3]), ("check", BASES[0])],
    "--tol": [("payoff", *HISTORY_BASES[1]), ("payoff", *HISTORY_BASES[0])],
}
# the exit codes of a run that accepts its flags
VERDICT_EXITS = {"solve": range(6), "check": range(3), "payoff": range(1)}
HUGE = ["9" * 5000, "1" + "0" * 4400]
COUNT_BODIES = ["0", "00", "007", "1_0", "\u0663", "1e1", "1.5", "1/2", "0x10", "nan",
                "inf", "x", "", " ", str(cli.MAX_BUDGET + 1), str(cli.MAX_SAMPLES + 1),
                "1000000000000", *HUGE]
TOL_BODIES = ["1e-9", "1/1000", "0.001", "1e-4299", "1e-5000", "1e4299", "1e5000", "0",
              "1/0", "1/" + "9" * 5000, "0." + "0" * 4298 + "1", "abc", "nan", "", *HUGE]
AXIOM_ITEMS = ["1", "2", "3", "4", "5", "0", "6", "-1", "+2", " 3 ", "x", "", "05", "1.0",
               *HUGE]


def _int_or_none(text):
    try:
        return int(text)
    except ValueError:
        return None


@st.composite
def mutated_flags(draw):
    flag = draw(st.sampled_from(sorted(FLAG_RUNS)))
    if flag == "--axioms":
        text = ",".join(draw(st.lists(st.sampled_from(AXIOM_ITEMS), min_size=1, max_size=4)))
    else:
        bodies = TOL_BODIES if flag == "--tol" else COUNT_BODIES
        body = draw(st.one_of(st.integers(0, 64).map(str), st.sampled_from(bodies)))
        text = (draw(st.sampled_from(["", "", "-", "+", " "])) + body
                + draw(st.sampled_from(["", "", ",", " ", "x", "0"])))
        if flag != "--tol":
            n = _int_or_none(text)
            assume(n is None or n <= 64 or n > CAPS[flag])
    # --flag=text, or text as its own argument, which the parser refuses
    # when it looks like an option, such as "-1,1"
    argv = draw(st.sampled_from([[f"{flag}={text}"], [flag, text]]))
    return flag, text, argv, draw(st.sampled_from(FLAG_RUNS[flag]))


def _flag_exits(base, flag, text, argv, run):
    command, *docs = run
    paths = [base / f"flag{k}.json" for k in range(len(docs))]
    for path, doc in zip(paths, docs):
        path.write_text(json.dumps(doc))
    code, out, err = _run([command, *map(str, paths), *argv])
    if out == "":
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)
    else:
        assert code in VERDICT_EXITS[command], (code, err)
        assert not any(line.startswith("error:") for line in err.splitlines()), err
        json.loads(out)
    if flag in CAPS:
        n = _int_or_none(text)
        refused = n is None or n < 1 or n > CAPS[flag]
        assert (out == "") == refused, (text, code, err)
    elif flag == "--axioms":
        items = [_int_or_none(a) for a in text.split(",") if a.strip()]
        assert (out == "") == any(a not in (1, 2, 3, 4, 5) for a in items), (text, err)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_flags())
def test_mutated_flags_exit_0_or_2(tmp_path_factory, within, case):
    flag, text, argv, run = case
    within(5, _flag_exits, tmp_path_factory.getbasetemp(), flag, text, argv, run)
