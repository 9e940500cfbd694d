"""Game spec parsing, certified payoffs, and the command-line surface."""

import json
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import cli, gamespec
from totime import timeorder as to
from totime.axioms import check_inertiality
from totime.errors import AlphabetMismatchError, BadParametersError, SchemaError
from totime.gamespec import (
    MAX_CHAIN_SIZE,
    MAX_DENSE_PAYOFF_BITS,
    MAX_PAYOFF_BITS,
    build_profile,
    evaluate_payoff,
    exp_neg_enclosure,
    parse_spec,
    spec_to_json,
)
from totime.histories import PiecewiseHistory, empty_prefix, history_to_json
from totime.solver import solve_chain
from totime.timeorder import DenseInterval, FiniteChain, Interval


def chain_spec_dict():
    return {
        "domain": {"kind": "chain", "size": 3},
        "players": [{"id": "p", "actions": ["a"]}],
        "strategies": [{"kind": "constant", "player": "p", "action": "a"}],
        "payoff": {"rho": "1", "table": {"a": "1"}},
        "seed": 0,
    }


def grim_spec_dict():
    return {
        "domain": {"kind": "dense", "lo": "0", "hi": "1"},
        "players": [
            {"id": "p1", "actions": ["C", "D"]},
            {"id": "p2", "actions": ["C", "D"]},
        ],
        "strategies": [
            {"kind": "grim", "player": "p1", "cooperate": "C",
             "punish": "D", "delta": "1/4"},
            {"kind": "grim", "player": "p2", "cooperate": "C",
             "punish": "D", "delta": "1/4"},
        ],
        "payoff": {
            "rho": "1/2",
            "table": {"C,C": "1", "C,D": "0", "D,C": "0", "D,D": "0"},
        },
        "seed": 0,
    }


# -- parsing and validation ----------------------------------------------------


def test_parse_minimal_chain_spec():
    spec = parse_spec(json.dumps(chain_spec_dict()))
    assert spec.domain == FiniteChain(3)
    assert spec.players == ("p",)
    assert spec.alphabets["p"] == ("a",)
    assert spec.rho == 1
    assert spec.payoff_table[("a",)] == {"p": Fraction(1)}


def test_unknown_action_reports_path():
    bad = chain_spec_dict()
    bad["strategies"][0]["action"] = "X"
    with pytest.raises(AlphabetMismatchError) as e:
        parse_spec(json.dumps(bad))
    assert "strategies[0]" in str(e.value)
    assert "'X'" in str(e.value)


@pytest.mark.parametrize("action", ["C,D", "C;D", "1|C"])
def test_action_with_key_separator_rejected(action):
    bad = grim_spec_dict()
    bad["players"][1]["actions"] = ["C", action]
    with pytest.raises(SchemaError) as e:
        parse_spec(json.dumps(bad))
    assert "players[1].actions[1]" in str(e.value)


def test_duplicate_player_rejected():
    bad = grim_spec_dict()
    bad["players"][1]["id"] = "p1"
    with pytest.raises(SchemaError) as e:
        parse_spec(json.dumps(bad))
    assert "players[1].id" in str(e.value)


def test_incomplete_payoff_table_rejected():
    bad = grim_spec_dict()
    del bad["payoff"]["table"]["D,D"]
    with pytest.raises(SchemaError) as e:
        parse_spec(json.dumps(bad))
    assert "payoff.table" in str(e.value)
    assert "missing 1" in str(e.value)


def test_bad_rational_rejected():
    bad = grim_spec_dict()
    bad["payoff"]["rho"] = "fast"
    with pytest.raises(SchemaError) as e:
        parse_spec(json.dumps(bad))
    assert "payoff.rho" in str(e.value)


def test_canonical_round_trip_is_identity():
    for doc in (chain_spec_dict(), grim_spec_dict()):
        spec = parse_spec(json.dumps(doc))
        again = parse_spec(json.dumps(spec_to_json(spec)))
        assert again == spec
        assert spec_to_json(again) == spec_to_json(spec)


def test_random_table_profile_is_seed_deterministic():
    doc = {
        "domain": {"kind": "chain", "size": 4},
        "players": [{"id": "p", "actions": ["x", "y"]}],
        "strategies": [{"kind": "table", "player": "p", "seed": 0}],
        "seed": 7,
    }
    spec = parse_spec(json.dumps(doc))
    h1 = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players))
    h2 = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players))
    assert h1.history == h2.history
    h3 = solve_chain(build_profile(spec, seed=8),
                     empty_prefix(spec.domain, spec.players))
    results = {tuple(h.history.eval(t) for t in range(4)) for h in (h1, h3)}
    # a different seed is allowed to coincide, but the draw must be lawful
    for combo in results:
        assert all(a in ("x", "y") for pair in combo for a in pair)


# -- certified exponentials and payoffs ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=64),
    den=st.integers(min_value=1, max_value=16),
    k=st.sampled_from([6, 12]),
)
def test_exp_neg_enclosure_brackets_true_value(num, den, k):
    x = Fraction(num, den)
    eps = Fraction(1, 10**k)
    lo, hi = exp_neg_enclosure(x, eps)
    assert hi - lo <= eps
    assert lo <= Fraction(math.exp(-float(x))) + Fraction(1, 10**10)
    assert hi >= Fraction(math.exp(-float(x))) - Fraction(1, 10**10)
    assert 0 <= lo <= hi <= 1


def taylor_exp_neg(x: Fraction, terms: int = 40) -> tuple[Fraction, Fraction]:
    """Alternating-series bracket of e^{-x} for 0 < x <= 1 (test-local oracle)."""
    assert 0 < x <= 1
    s = Fraction(0)
    term = Fraction(1)
    lo = hi = None
    for n in range(terms):
        s += term
        if n % 2 == 0:
            hi = s
        else:
            lo = s
        term *= -x / (n + 1)
    return lo, hi


def test_chain_payoff_is_exact():
    spec = parse_spec(json.dumps(chain_spec_dict()))
    res = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players))
    vec = evaluate_payoff(res.history, spec)
    # 1 + 1/2 + 1/4 at discount 1/(1+rho) = 1/2
    assert vec.lo["p"] == vec.hi["p"] == Fraction(7, 4)
    assert vec.width("p") == 0


def test_dense_payoff_enclosure_matches_series_oracle():
    spec = parse_spec(json.dumps(grim_spec_dict()))
    h = PiecewiseHistory.build(
        spec.domain, spec.players,
        {p: [(Interval(Fraction(0), Fraction(1)), "C")] for p in spec.players},
    )
    tol = Fraction(1, 10**9)
    vec = evaluate_payoff(h, spec, tol=tol)
    # all-C forever: (1/rho)(1 - e^{-rho}) = 2 (1 - e^{-1/2})
    e_lo, e_hi = taylor_exp_neg(Fraction(1, 2))
    assert vec.hi["p1"] - vec.lo["p1"] <= tol
    assert vec.lo["p1"] <= 2 * (1 - e_lo)
    assert vec.hi["p1"] >= 2 * (1 - e_hi)
    assert vec.lo["p1"] == vec.lo["p2"]


def test_dense_payoff_two_segments_rho_zero():
    doc = grim_spec_dict()
    doc["payoff"]["rho"] = "0"
    spec = parse_spec(json.dumps(doc))
    h = PiecewiseHistory.build(
        spec.domain, spec.players,
        {
            "p1": [
                (to.make_interval(spec.domain, 0, Fraction(3, 4), True, False), "C"),
                (to.make_interval(spec.domain, Fraction(3, 4), 1), "D"),
            ],
            "p2": [(Interval(Fraction(0), Fraction(1)), "C")],
        },
    )
    vec = evaluate_payoff(h, spec)
    # (C,C) pays 1 on [0, 3/4), (D,C) pays 0 afterwards: exact at rho = 0
    assert vec.lo["p1"] == vec.hi["p1"] == Fraction(3, 4)


@pytest.mark.parametrize("x,eps", [(Fraction(-1, 2), Fraction(1, 10**9)),
                                   (Fraction(1, 2), Fraction(0))])
def test_exp_neg_enclosure_rejects_negative_x_and_eps(x, eps, within):
    with pytest.raises(ValueError):
        within(5, exp_neg_enclosure, x, eps)


@pytest.mark.parametrize("tol", [Fraction(0), Fraction(-1, 10)])
def test_payoff_rejects_non_positive_tolerance(tol, within):
    spec = parse_spec(json.dumps(grim_spec_dict()))
    h = PiecewiseHistory.build(
        spec.domain, spec.players,
        {p: [(Interval(Fraction(0), Fraction(1)), "C")] for p in spec.players},
    )
    with pytest.raises(BadParametersError):
        within(5, evaluate_payoff, h, spec, tol=tol)


def test_exact_payoff_is_formatted_once_per_player(monkeypatch):
    """lo and hi of a chain payoff are one Fraction; past 4,300 digits each
    formatting is a Decimal conversion, so it runs once per player."""
    spec = parse_spec(chain_grim_spec_dict())
    h = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players)).history
    vec = evaluate_payoff(h, spec)
    calls = []
    format_point = to.format_point
    monkeypatch.setattr(to, "format_point", lambda t: calls.append(t) or format_point(t))
    out = vec.to_json()
    assert calls == [vec.lo["p1"], vec.lo["p2"]]
    assert out == {p: {"lo": str(vec.lo[p]), "hi": str(vec.hi[p])} for p in spec.players}


def below_zero_payoff_spec_dict(rho):
    return {"domain": {"kind": "dense", "lo": "-1", "hi": "1"},
            "players": [{"id": "p", "actions": ["a"]}],
            "strategies": [{"kind": "constant", "player": "p", "action": "a"}],
            "payoff": {"rho": rho, "table": {"a": "1"}}}


def constant_history(spec):
    return PiecewiseHistory.build(
        spec.domain, spec.players,
        {p: [(to.full_interval(spec.domain), spec.alphabets[p][0])] for p in spec.players})


# e^{-rho lo} on [-1, 1] needs 2 ceil(3 rho / 2) bits: 250,002 at rho 83,334,
# one step past the cap, where the payoff would take about 5 s
@pytest.mark.parametrize("rho", ["83334", "1e4000"])
def test_dense_payoff_below_zero_past_the_bit_cap_is_refused(rho, within):
    spec = parse_spec(below_zero_payoff_spec_dict(rho))
    with pytest.raises(SchemaError, match=r"^payoff\.rho: the payoff on a dense domain "
                                          r"from -1 at this rho needs about \d+ bits, "
                                          rf"more than {MAX_DENSE_PAYOFF_BITS}$"):
        within(5, evaluate_payoff, constant_history(spec), spec)
    assert MAX_DENSE_PAYOFF_BITS == 250_000


def test_dense_payoff_bit_cap_is_exact(monkeypatch):
    # on [-1, 1], 2 ceil(3 rho / 2) is 30 at rho 10 and 32 at rho 21/2
    monkeypatch.setattr(gamespec, "MAX_DENSE_PAYOFF_BITS", 30)
    spec = parse_spec(below_zero_payoff_spec_dict("10"))
    assert evaluate_payoff(constant_history(spec), spec).lo["p"] > 0
    spec = parse_spec(below_zero_payoff_spec_dict("21/2"))
    with pytest.raises(SchemaError, match="needs about 32 bits, more than 30$"):
        evaluate_payoff(constant_history(spec), spec)


def stretches_history(spec, n):
    """p alternating a and b over n equal stretches of [-1, 1]."""
    cuts = [Fraction(-1) + Fraction(2 * k, n) for k in range(n + 1)]
    return PiecewiseHistory.build(spec.domain, spec.players, {"p": [
        (Interval(a, b, True, k == n - 1), "ab"[k % 2])
        for k, (a, b) in enumerate(zip(cuts, cuts[1:]))]})


def two_action_spec(rho):
    doc = below_zero_payoff_spec_dict(rho)
    doc["players"][0]["actions"] = ["a", "b"]
    doc["payoff"]["table"] = {"a": "1", "b": "-1/2"}
    return parse_spec(doc)


def test_dense_payoff_bit_cap_counts_every_stretch(monkeypatch):
    # on [-1, 1] at rho 10 each stretch's enclosure needs 2 ceil(3 rho / 2) = 30 bits
    monkeypatch.setattr(gamespec, "MAX_DENSE_PAYOFF_BITS", 60)
    spec = two_action_spec("10")
    assert evaluate_payoff(stretches_history(spec, 2), spec).lo["p"] > 0
    with pytest.raises(SchemaError, match="needs about 90 bits, more than 60$"):
        evaluate_payoff(stretches_history(spec, 3), spec)


def test_dense_payoff_of_two_stretches_at_the_one_stretch_cap_is_refused(within):
    """At rho 83,333 one stretch (2 amp = 250,000 bits) stays accepted; each
    further one added about 3 s of enclosure, so two are refused at once."""
    spec = two_action_spec("83333")
    with pytest.raises(SchemaError, match=r"^payoff\.rho: .* needs about 500000 bits, "
                                          rf"more than {MAX_DENSE_PAYOFF_BITS}$"):
        within(1, evaluate_payoff, stretches_history(spec, 2), spec)


# -- command line ---------------------------------------------------------------


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_solve_check_oracle_spec(tmp_path, capsys):
    spec_path = write_json(tmp_path / "chain.json", chain_spec_dict())
    assert cli.main(["solve", spec_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "unique"

    assert cli.main(["oracle", spec_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 1

    assert cli.main(["check", spec_path, "--axioms", "1,2,3,5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checked_axioms"] == [1, 2, 3, 5]

    assert cli.main(["spec", spec_path]) == 0
    first = capsys.readouterr().out
    echoed = write_json(tmp_path / "echo.json", json.loads(first))
    assert cli.main(["spec", echoed]) == 0
    assert capsys.readouterr().out == first  # canonical form is a fixed point


def test_cli_solve_out_then_payoff(tmp_path, capsys):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = str(tmp_path / "hist.json")
    assert cli.main(["solve", spec_path, "--out", hist_path]) == 0
    capsys.readouterr()
    assert cli.main(["payoff", spec_path, hist_path, "--tol", "1e-9"]) == 0
    out = json.loads(capsys.readouterr().out)
    lo, hi = Fraction(out["p1"]["lo"]), Fraction(out["p1"]["hi"])
    e_lo, e_hi = taylor_exp_neg(Fraction(1, 2))
    assert hi - lo <= Fraction(1, 10**9)
    assert lo <= 2 * (1 - e_lo) and hi >= 2 * (1 - e_hi)


def test_cli_payoff_zero_tol_exits_2(tmp_path, capsys, within):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = str(tmp_path / "hist.json")

    def solve_then_payoff():
        assert cli.main(["solve", spec_path, "--out", hist_path]) == 0
        capsys.readouterr()
        return cli.main(["payoff", spec_path, hist_path, "--tol", "0"])

    assert within(5, solve_then_payoff) == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("spec, hist", [
    (grim_spec_dict(), {"p1": [{"lo": "0", "hi": "1/2", "hi_closed": False, "action": "C"},
                               {"lo": "1/2", "hi": "1", "action": "X"}],
                        "p2": [{"lo": "0", "hi": "1", "action": "C"}]}),
    # an instant adds nothing to a dense payoff, but its action is still read
    (grim_spec_dict(), {"p1": [{"lo": "0", "hi": "1/2", "hi_closed": False, "action": "C"},
                               {"lo": "1/2", "hi": "1/2", "action": "X"},
                               {"lo": "1/2", "hi": "1", "lo_closed": False, "action": "C"}],
                        "p2": [{"lo": "0", "hi": "1", "action": "C"}]}),
    (dict(grim_spec_dict(), domain={"kind": "chain", "size": 2}),
     {"p1": [{"lo": "0", "hi": "1", "action": "C"}],
      "p2": [{"lo": "0", "hi": "0", "action": "C"}, {"lo": "1", "hi": "1", "action": "1/0"}]}),
])
def test_cli_payoff_action_outside_alphabet_exits_2(tmp_path, capsys, spec, hist):
    for strategy in spec["strategies"]:
        strategy["delta"] = "1"
    spec_path = write_json(tmp_path / "spec.json", spec)
    hist_path = write_json(tmp_path / "hist.json", hist)
    code, out, err = run_cli(capsys, ["payoff", spec_path, hist_path])
    assert (code, out) == (2, "")
    assert err.startswith("error: history of ") and "not in its alphabet" in err
    assert err.count("\n") == 1


def test_cli_gallery_seed_flag_beats_environment(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run_gallery", lambda name, seed: seen.append(seed) or {})
    monkeypatch.setenv("TOTIME_SEED", "7")
    assert cli.main(["gallery", "no_trace", "--seed", "3"]) == 0
    assert cli.main(["gallery", "no_trace"]) == 0
    monkeypatch.delenv("TOTIME_SEED")
    assert cli.main(["gallery", "no_trace"]) == 0
    assert seen == [3, 7, 0]


def test_cli_zeno_exit_code(tmp_path, capsys):
    doc = {
        "domain": {"kind": "dense", "lo": "0", "hi": "1"},
        "players": [{"id": "p", "actions": ["a", "b"]}],
        "strategies": [{"kind": "halving", "player": "p", "cycle": ["a", "b"]}],
        "seed": 0,
    }
    spec_path = write_json(tmp_path / "zeno.json", doc)
    assert cli.main(["solve", spec_path, "--budget", "64"]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "zeno"
    assert Fraction(out["accumulation"]) == 1


def gallery_spec_dict(name):
    return {
        "domain": {"kind": "dense", "lo": "0", "hi": "1"},
        "players": [{"id": "p1", "actions": ["0", "1"]}],
        "strategies": [{"kind": "gallery", "player": "p1", "name": name}],
        "seed": 0,
    }


def axiom3_reports(tmp_path, capsys, doc, code):
    spec_path = write_json(tmp_path / "spec.json", doc)
    assert cli.main(["check", spec_path, "--axioms", "3"]) == code
    return json.loads(capsys.readouterr().out)["reports"]["3"]


@pytest.mark.parametrize("name", ["multi", "no_trace"])
def test_cli_check_axiom3_on_a_black_box_is_inconclusive(tmp_path, capsys, name):
    # no consistent history is solved for, so the constant fallback would
    # only be compared with itself
    (rep,) = axiom3_reports(tmp_path, capsys, gallery_spec_dict(name), 2)
    assert (rep["passed"], rep["method"]) == (None, "sampled")
    assert "no second consistent history" in rep["details"]


def test_cli_check_axiom3_on_a_unique_grim_solve_passes(tmp_path, capsys):
    reps = axiom3_reports(tmp_path, capsys, grim_spec_dict(), 0)
    assert [(r["passed"], r["method"]) for r in reps] == [(True, "exhaustive")] * 2
    assert all("the solve is unique" in r["details"] for r in reps)


def test_cli_check_axiom3_without_a_unique_solve_is_inconclusive(tmp_path, capsys):
    doc = {
        "domain": {"kind": "dense", "lo": "0", "hi": "1"},
        "players": [{"id": "p", "actions": ["a", "b"]}],
        "strategies": [{"kind": "halving", "player": "p", "cycle": ["a", "b"]}],
    }
    (rep,) = axiom3_reports(tmp_path, capsys, doc, 2)
    assert (rep["passed"], rep["method"]) == (None, "witness-based")
    assert "'zeno'" in rep["details"]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_table_spec_dict(seed):
    return {
        "domain": {"kind": "chain", "size": 6},
        "players": [{"id": "p1", "actions": ["a", "b"]},
                    {"id": "p2", "actions": ["a", "b"]}],
        "strategies": [{"kind": "table", "player": "p1"},
                       {"kind": "table", "player": "p2", "seed": 1}],
        "seed": seed,
    }


@pytest.mark.parametrize("command, make_spec", [
    ("solve", random_table_spec_dict),
    ("oracle", random_table_spec_dict),
    ("check", lambda seed: dict(gallery_spec_dict("no_trace"), seed=seed)),
])
def test_cli_seed_flag_beats_environment_and_spec(tmp_path, capsys, monkeypatch,
                                                  command, make_spec):
    """--seed 3 over TOTIME_SEED=11 over the spec's 5 runs as a spec seed of 3,
    and the three seeds give three different outputs."""
    spec_path = write_json(tmp_path / "spec.json", make_spec(5))
    monkeypatch.setenv("TOTIME_SEED", "11")
    flagged = run_cli(capsys, [command, spec_path, "--seed", "3"])
    from_env = run_cli(capsys, [command, spec_path])
    monkeypatch.delenv("TOTIME_SEED")
    from_spec = run_cli(capsys, [command, spec_path])
    outs = {}
    for seed in (3, 11, 5):
        outs[seed] = run_cli(capsys, [command, write_json(tmp_path / "s.json", make_spec(seed))])
    assert (flagged, from_env, from_spec) == (outs[3], outs[11], outs[5])
    assert len({out for _, out, _ in outs.values()}) == 3


def test_cli_check_fails_axiom_1_on_the_no_trace_rule(tmp_path, capsys):
    spec_path = write_json(tmp_path / "no_trace.json", gallery_spec_dict("no_trace"))
    assert cli.main(["check", spec_path, "--axioms", "1"]) == 1
    (rep,) = json.loads(capsys.readouterr().out)["reports"]["1"]
    assert rep["passed"] is False and rep["method"] == "sampled"
    assert rep["witness"]["stuck_at"] == "0"


def test_cli_check_axiom_4_takes_its_samples_flag(tmp_path, capsys):
    """Axiom 4 on the multi rule is decided by sampling: the CLI's report is
    the library's at the same sample count, seed and constant-0 history.
    Two samples per window find no deviation; the default 32 refute it."""
    spec_path = write_json(tmp_path / "multi.json", gallery_spec_dict("multi"))
    spec = parse_spec(gallery_spec_dict("multi"))
    h = PiecewiseHistory.build(spec.domain, spec.players,
                               {"p1": [(to.full_interval(spec.domain), "0")]})
    verdicts = []
    for samples, code in ((2, 2), (32, 1)):
        assert cli.main(["check", spec_path, "--axioms", "4",
                         "--samples", str(samples)]) == code
        (rep,) = json.loads(capsys.readouterr().out)["reports"]["4"]
        want = check_inertiality(build_profile(spec)[0], Fraction(0), h,
                                 spec.alphabets, samples=samples, seed=0)
        assert rep == want.to_json() and rep["method"] == "sampled"
        verdicts.append(rep["passed"])
    assert verdicts == [None, False]


def entries_spec_dict(entries):
    return {
        "domain": {"kind": "chain", "size": 3},
        "players": [{"id": "p1", "actions": ["a", "b"]},
                    {"id": "p2", "actions": ["a", "b"]}],
        "strategies": [{"kind": "table", "player": "p1", "entries": entries},
                       {"kind": "constant", "player": "p2", "action": "a"}],
        "payoff": {"rho": "1", "table": {"a,a": "1", "a,b": "0", "b,a": "2", "b,b": "0"}},
    }


ENTRIES = {"0": "a", "1|a,a": "b", "2|a,a;b,a": "a", "1|b,a": "a"}


def test_cli_table_entries_solve_oracle_check_payoff(tmp_path, capsys):
    spec_path = write_json(tmp_path / "entries.json", entries_spec_dict(ENTRIES))
    hist_path = str(tmp_path / "hist.json")
    assert cli.main(["solve", spec_path, "--out", hist_path]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert [e["actions"] for e in solved["events"]] == [["a", "a"], ["b", "a"], ["a", "a"]]
    assert cli.main(["oracle", spec_path]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert oracle == {"count": 1, "histories": [solved["history"]]}
    assert cli.main(["check", spec_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(r["passed"] for rs in out["reports"].values() for r in rs)
    assert cli.main(["payoff", spec_path, hist_path]) == 0
    # 1 + 2/2 + 1/4, exact on a chain
    assert json.loads(capsys.readouterr().out)["p1"] == {"lo": "9/4", "hi": "9/4"}


def test_cli_table_entries_spec_round_trip(tmp_path, capsys):
    doc = entries_spec_dict(ENTRIES)
    spec = parse_spec(doc)
    assert parse_spec(spec_to_json(spec)) == spec
    assert spec.strategies[0]["entries"] == dict(sorted(ENTRIES.items()))
    code, first, _ = run_cli(capsys, ["spec", write_json(tmp_path / "a.json", doc)])
    echoed = write_json(tmp_path / "b.json", json.loads(first))
    assert code == 0 and run_cli(capsys, ["spec", echoed]) == (0, first, "")


def test_cli_table_missing_entry_exits_2(tmp_path, capsys):
    entries = {k: v for k, v in ENTRIES.items() if k != "2|a,a;b,a"}
    spec_path = write_json(tmp_path / "entries.json", entries_spec_dict(entries))
    code, out, err = run_cli(capsys, ["solve", spec_path])
    assert (code, out) == (2, "")
    assert err == ("error: table of p1 missing entry for "
                   "(2, (('a', 'a'), ('b', 'a')))\n")


@pytest.mark.parametrize("key, needle", [
    ("3|a,a;a,a;a,a", "has a time outside the chain"),
    ("-1", "has a time outside the chain"),
    ("2|a,a", "needs one action tuple per time before 2"),
    ("1|", "needs one action tuple per time before 1"),
    ("1|a", "needs one action per player in each tuple"),
    ("1|Z,Z,Z", "needs one action per player in each tuple"),
    ("1|Z,a", "action 'Z' not in alphabet of 'p1'"),
    ("2|a,a;a,Z", "action 'Z' not in alphabet of 'p2'"),
    ("x|a,a", "bad table key time"),
    ("00", "repeats the time and prefix of an earlier key"),
    ("+1|a,a", "repeats the time and prefix of an earlier key"),
])
@pytest.mark.parametrize("command", ["spec", "solve", "oracle", "check"])
def test_cli_bad_table_entry_key_exits_2(tmp_path, capsys, command, key, needle):
    spec_path = write_json(tmp_path / "entries.json",
                           entries_spec_dict({**ENTRIES, key: "a"}))
    code, out, err = run_cli(capsys, [command, spec_path])
    assert (code, out) == (2, "")
    assert err.startswith("error: strategies[0].entries: ") and err.count("\n") == 1
    assert repr(key) in err and needle in err


def chain_grim_spec_dict():
    doc = grim_spec_dict()
    doc["domain"] = {"kind": "chain", "size": 4}
    doc["strategies"][0]["delta"] = "2"
    doc["strategies"][1]["delta"] = "1"
    return doc


def chain_table_spec_dict():
    doc = chain_grim_spec_dict()
    doc["strategies"][0] = {"kind": "table", "player": "p1", "seed": 1}
    return doc


def _edit(doc, path, value):
    *keys, last = path
    for k in keys:
        doc = doc[k]
    doc[last] = value


BIG_INT = "9" * 5000


@pytest.mark.parametrize("make, path, value, where", [
    pytest.param(chain_grim_spec_dict, ("strategies", 0, "delta"), "1/2",
                 "strategies[0].delta", id="chain-delta-1/2"),
    pytest.param(chain_grim_spec_dict, ("strategies", 0, "delta"), "0",
                 "strategies[0].delta", id="chain-delta-0"),
    pytest.param(grim_spec_dict, ("strategies", 0, "punish"), "C",
                 "strategies[0].punish", id="cooperate-is-punish"),
    pytest.param(grim_spec_dict, ("strategies", 0, "trigger_actions"), [1, "C"],
                 "strategies[0].trigger_actions", id="trigger-int"),
    pytest.param(grim_spec_dict, ("strategies", 0, "trigger_actions"), [["C"]],
                 "strategies[0].trigger_actions", id="trigger-list"),
    pytest.param(grim_spec_dict, ("strategies", 0, "trigger_actions"), ["X"],
                 "strategies[0].trigger_actions", id="trigger-unknown"),
    pytest.param(grim_spec_dict, ("domain", "hi"), "1e5000", "domain.hi", id="hi-1e5000"),
    pytest.param(grim_spec_dict, ("domain", "hi"), "1e999999999", "domain.hi",
                 id="hi-1e999999999"),
    pytest.param(grim_spec_dict, ("payoff", "rho"), "1e-5000", "payoff.rho",
                 id="rho-1e-5000"),
    pytest.param(grim_spec_dict, ("seed",), BIG_INT, "$", id="seed-5000-digits"),
    pytest.param(grim_spec_dict, ("domain", "lo"), "[" * 100000, "$", id="nested-arrays"),
    # JSON booleans are not integers
    pytest.param(chain_grim_spec_dict, ("domain", "size"), True, "domain.size",
                 id="size-true"),
    pytest.param(chain_table_spec_dict, ("strategies", 0, "seed"), True,
                 "strategies[0].seed", id="table-seed-true"),
    pytest.param(grim_spec_dict, ("seed",), True, "seed", id="seed-true"),
])
@pytest.mark.parametrize("command", ["spec", "solve", "check"])
def test_cli_spec_value_read_once_exits_2(tmp_path, capsys, within, make, path, value,
                                          where, command):
    doc = make()
    _edit(doc, path, value)
    # BIG_INT and the nested arrays go in raw, as JSON that json.loads
    # refuses: an integer past 4,300 digits, arrays past the recursion limit
    text = json.dumps(doc).replace(f'"{BIG_INT}"', BIG_INT).replace(
        '"' + "[" * 100000 + '"', "[" * 100000)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    code, out, err = within(1, run_cli, capsys, [command, str(spec_path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1


@pytest.mark.parametrize("size", [MAX_CHAIN_SIZE + 1, 10**12])
@pytest.mark.parametrize("command", ["spec", "solve", "check", "oracle", "payoff"])
def test_cli_refuses_a_chain_past_the_cap(tmp_path, capsys, within, size, command):
    """Every chain path steps through every time, so a chain longer than
    MAX_CHAIN_SIZE exits 2 before any work starts, through every command
    that reads a spec; one of MAX_CHAIN_SIZE times is read."""
    doc = chain_grim_spec_dict()
    doc["domain"]["size"] = MAX_CHAIN_SIZE
    assert parse_spec(doc).domain == FiniteChain(MAX_CHAIN_SIZE)
    doc["domain"]["size"] = size
    spec_path = write_json(tmp_path / "spec.json", doc)
    hist = [write_json(tmp_path / "hist.json", {})] if command == "payoff" else []
    code, out, err = within(1, run_cli, capsys, [command, spec_path, *hist])
    assert (code, out) == (2, "")
    assert err == f"error: domain.size: chain size must be at most {MAX_CHAIN_SIZE}, got {size}\n"


def wide_spec_dict(width, payoff):
    """Three players of `width` actions each on a two-time chain, with a
    payoff table of one key when `payoff`."""
    players = ("p1", "p2", "p3")
    actions = [f"a{k}" for k in range(width)]
    doc = {"domain": {"kind": "chain", "size": 2},
           "players": [{"id": p, "actions": actions} for p in players],
           "strategies": [{"kind": "constant", "player": p, "action": "a0"} for p in players]}
    if payoff:
        doc["payoff"] = {"rho": "1", "table": {"a0,a0,a0": "1"}}
    return doc


@pytest.mark.parametrize("command, where", [("spec", r"payoff\.table"),
                                            ("oracle", "search space")])
def test_a_wide_spec_is_refused_without_building_the_action_product(
        tmp_path, capsys, command, where):
    """The payoff table's keys are counted against the alphabet product's
    size and the oracle's space is the product of the alphabet sizes, so
    neither builds the 150^3 action tuples (hundreds of MB) to refuse."""
    spec_path = write_json(tmp_path / "wide.json", wide_spec_dict(150, command == "spec"))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, [command, spec_path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert re.match(f"^error: {where}", err) and err.count("\n") == 1
    assert peak < 4 * 2**20


def test_missing_payoff_key_is_named_in_sorted_order():
    doc = wide_spec_dict(3, True)
    doc["players"][1]["actions"] = ["b", "a1", "a0"]
    doc["payoff"]["table"] = {"a0,a0,a0": "1", "a0,a0,a1": "2"}
    with pytest.raises(SchemaError) as e:
        parse_spec(doc)
    assert str(e.value) == "payoff.table: table is missing 25 action tuples, e.g. 'a0,a0,a2'"
    doc["payoff"]["table"]["a0,a0,a2"] = "3"
    with pytest.raises(SchemaError, match="missing 24 action tuples, e.g. 'a0,a1,a0'"):
        parse_spec(doc)
    doc["payoff"]["table"]["a0,a0"] = "3"
    with pytest.raises(SchemaError, match=r"payoff\.table\['a0,a0'\]: key is not an action"):
        parse_spec(doc)


def test_cli_refuses_an_exact_chain_payoff_of_too_many_bits(tmp_path, capsys, within):
    """At rho 1e4000 each chain time adds about 13,000 bits to the exact
    payoff, which over 1,000 times ran for minutes; it is refused first."""
    doc = chain_grim_spec_dict()
    doc["domain"]["size"] = 1000
    doc["payoff"]["rho"] = "1e4000"
    spec = parse_spec(doc)
    h = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players)).history
    spec_path = write_json(tmp_path / "spec.json", doc)
    hist_path = write_json(tmp_path / "hist.json", history_to_json(h))
    code, out, err = within(5, run_cli, capsys, ["payoff", spec_path, hist_path])
    assert (code, out) == (2, "")
    assert err.startswith("error: payoff.rho: the exact payoff of a chain of size 1000 ")
    assert err.count("\n") == 1


def test_cli_refuses_a_dense_payoff_of_too_many_bits(tmp_path, capsys, within):
    """At rho 1e5 on [-1, 1] one constant player's payoff took 7.4 s, and
    each change of action adds an enclosure; past the cap it is refused
    before the first."""
    doc = below_zero_payoff_spec_dict("1e5")
    spec_path = write_json(tmp_path / "spec.json", doc)
    hist_path = write_json(tmp_path / "hist.json",
                           history_to_json(constant_history(parse_spec(doc))))
    code, out, err = within(5, run_cli, capsys, ["payoff", spec_path, hist_path])
    assert (code, out) == (2, "")
    assert err == (f"error: payoff.rho: the payoff on a dense domain from -1 at this rho "
                   f"needs about 300000 bits, more than {MAX_DENSE_PAYOFF_BITS}\n")


def test_chain_payoff_bit_cap_is_exact():
    # one player, c = rho.numerator + rho.denominator = 2^999: 2 * 500 * 1000 bits at size 501
    doc = {"domain": {"kind": "chain", "size": 501},
           "players": [{"id": "p", "actions": ["a"]}],
           "strategies": [{"kind": "constant", "player": "p", "action": "a"}],
           "payoff": {"rho": str(Fraction(1, 2**999 - 1)), "table": {"a": "1"}}}
    assert 2 * 500 * 1000 == MAX_PAYOFF_BITS
    spec = parse_spec(doc)
    h = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players)).history
    vec = evaluate_payoff(h, spec)
    assert vec.lo["p"] == vec.hi["p"] > 1
    doc["domain"]["size"] = 502
    spec = parse_spec(doc)
    h = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players)).history
    with pytest.raises(SchemaError, match=f"size 502 at this rho needs about 1002000 bits, "
                                          f"more than {MAX_PAYOFF_BITS}"):
        evaluate_payoff(h, spec)


def test_gallery_strategy_needs_a_positive_top():
    doc = {"domain": {"kind": "chain", "size": 1},
           "players": [{"id": "p1", "actions": ["0", "1"]}],
           "strategies": [{"kind": "gallery", "player": "p1", "name": "multi"}]}
    with pytest.raises(SchemaError, match="strategies\\[0\\]: gallery"):
        parse_spec(doc)
    doc["domain"]["size"] = 2
    assert build_profile(parse_spec(doc))[0].player == "p1"


def test_cli_meet(tmp_path, capsys):
    domain = {"kind": "chain", "size": 6}
    part1 = {
        "domain": domain, "start": 0,
        "blocks": [{"lo": "0", "hi": "2"}, {"lo": "3", "hi": "5"}],
    }
    part2 = {
        "domain": domain, "start": 0,
        "blocks": [{"lo": "0", "hi": "3"}, {"lo": "4", "hi": "5"}],
    }
    p1 = write_json(tmp_path / "p1.json", part1)
    p2 = write_json(tmp_path / "p2.json", part2)
    assert cli.main(["meet", p1, p2]) == 0
    out = json.loads(capsys.readouterr().out)
    los = [b["lo"] for b in out["blocks"]]
    assert los == ["0", "3", "4"]


def test_cli_meet_of_different_chains_names_both_sizes(tmp_path, capsys):
    def chain(size):
        return write_json(tmp_path / f"c{size}.json",
                          {"domain": {"kind": "chain", "size": size}, "start": 0,
                           "blocks": [{"lo": 0, "hi": size - 1}]})

    code, out, err = run_cli(capsys, ["meet", chain(6), chain(7)])
    assert (code, out) == (2, "")
    assert err == "error: meet of partitions over the chain of size 6 and the chain of size 7\n"


def dense_partition():
    return {"domain": {"kind": "dense", "lo": "0", "hi": "1"}, "start": "0",
            "blocks": [{"lo": "0", "hi": "1/2", "hi_closed": False},
                       {"lo": "1/2", "hi": "1"}]}


def test_cli_meet_dense_partitions(tmp_path, capsys):
    p1 = write_json(tmp_path / "p1.json", dense_partition())
    assert cli.main(["meet", p1, p1]) == 0
    assert [b["lo"] for b in json.loads(capsys.readouterr().out)["blocks"]] == ["0", "1/2"]


def test_cli_meet_without_domain_exits_2(tmp_path, capsys):
    doc = dense_partition()
    del doc["domain"]
    p1 = write_json(tmp_path / "p1.json", doc)
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith("error: domain: ")


def test_cli_meet_chain_start_not_an_integer_exits_2(tmp_path, capsys):
    doc = {"domain": {"kind": "chain", "size": 4}, "start": "x",
           "blocks": [{"lo": "0", "hi": "3"}]}
    p1 = write_json(tmp_path / "p1.json", doc)
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith("error: start: 'x' is not an integer")


def test_cli_meet_dense_start_with_zero_denominator_exits_2(tmp_path, capsys):
    doc = dense_partition()
    doc["start"] = "1/0"
    p1 = write_json(tmp_path / "p1.json", doc)
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith("error: start: '1/0' is not an exact rational")


def test_cli_meet_partition_that_is_not_an_object_exits_2(tmp_path, capsys):
    p1 = write_json(tmp_path / "p1.json", [dense_partition()])
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith("error: $: ")


@pytest.mark.parametrize("blocks, path", [
    (None, "blocks"), ("0..1", "blocks"), ([{"lo": "0"}], "blocks[0].hi"),
    ([{"lo": "0", "hi": "1/2", "hi_closed": "false"}, {"lo": "1/2", "hi": "1"}],
     "blocks[0].hi_closed"),
    ([{"lo": "0", "hi": "1", "lo_closed": 1}], "blocks[0].lo_closed"),
], ids=["missing", "not-a-list", "bad-block", "string-hi-closed", "int-lo-closed"])
def test_cli_meet_bad_blocks_exit_2(tmp_path, capsys, blocks, path):
    doc = dense_partition()
    doc["blocks"] = blocks
    if blocks is None:
        del doc["blocks"]
    p1 = write_json(tmp_path / "p1.json", doc)
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("flags, needle", [
    (["--axioms", "1,x"], "--axioms"),
    (["--axioms", "7"], "unknown axiom 7"),
    (["--samples", "-3"], "--samples"),
    (["--samples", "0"], "--samples"),
    (["--samples", "100001"], "--samples must be at most 100000, got 100001"),
    (["--samples", "1000000000000"], "--samples must be at most 100000, got 1000000000000"),
], ids=["axiom-not-a-number", "unknown-axiom", "negative-samples", "zero-samples",
        "samples-past-cap", "samples-10e12"])
def test_cli_check_bad_flags_exit_2(tmp_path, capsys, within, flags, needle):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    assert within(5, cli.main, ["check", spec_path] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and needle in captured.err


@pytest.mark.parametrize("argv, needle", [
    (["check", "SPEC", "--axioms", "-1,1"], "argument --axioms: expected one argument"),
    (["payoff", "SPEC", "SPEC", "--tol", "-1e-9"], "argument --tol: expected one argument"),
    (["gallery", "nope"], "argument name: invalid choice"),
    ([], "the following arguments are required: command"),
], ids=["axioms-like-an-option", "tol-like-an-option", "unknown-gallery", "no-command"])
def test_cli_usage_errors_print_one_error_line(tmp_path, capsys, argv, needle):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    with pytest.raises(SystemExit) as exit_:
        cli.main([spec_path if a == "SPEC" else a for a in argv])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert needle in captured.err


def test_cli_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["check", "-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: totime check")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_cli_solve_budget_below_1_exits_2(tmp_path, capsys, budget):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    code, out, err = run_cli(capsys, ["solve", spec_path, f"--budget={budget}"])
    assert (code, out, err) == (2, "", f"error: --budget must be at least 1, got {budget}\n")


@pytest.mark.parametrize("budget", ["16385", "99999999999999999"])
def test_cli_solve_budget_past_the_cap_exits_2(tmp_path, capsys, within, budget):
    """A Zeno solve grows its event times by a bit per event, so a budget of
    10^17 would run until killed; the cap refuses it before the spec is read."""
    doc = {
        "domain": {"kind": "dense", "lo": "-1", "hi": "2"},
        "players": [{"id": "p", "actions": ["a", "b"]}],
        "strategies": [{"kind": "halving", "player": "p", "cycle": ["a", "b"]}],
    }
    spec_path = write_json(tmp_path / "halving.json", doc)
    want = (2, "", f"error: --budget must be at most {cli.MAX_BUDGET}, got {budget}\n")
    for path in (spec_path, str(tmp_path / "missing.json")):
        assert within(5, run_cli, capsys, ["solve", path, f"--budget={budget}"]) == want
    assert cli.MAX_BUDGET == 16384


def test_cli_bad_spec_exits_2(tmp_path, capsys):
    bad = chain_spec_dict()
    bad["strategies"][0]["action"] = "X"
    spec_path = write_json(tmp_path / "bad.json", bad)
    assert cli.main(["solve", spec_path]) == 2
    assert "strategies[0]" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["abc", "nan", "1/0"])
def test_cli_payoff_bad_tol_exits_2(tmp_path, capsys, tol):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = str(tmp_path / "hist.json")
    assert cli.main(["solve", spec_path, "--out", hist_path]) == 0
    capsys.readouterr()
    assert cli.main(["payoff", spec_path, hist_path, "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--tol" in err


def test_cli_malformed_spec_json_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "broken.json"
    spec_path.write_text('{"domain": {"kind": "chain",')
    assert cli.main(["solve", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "broken.json" in err


def test_cli_malformed_history_json_exits_2(tmp_path, capsys):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = tmp_path / "hist.json"
    hist_path.write_text("[not json")
    assert cli.main(["payoff", spec_path, str(hist_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "hist.json" in err


def grim_history():
    piece = {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True, "action": "C"}
    return {"p1": [dict(piece)], "p2": [dict(piece)]}


@pytest.mark.parametrize("edit, path", [
    (lambda h: h["p1"][0].pop("action"), "p1[0].action"),
    (lambda h: h.pop("p1"), "p1"),
    (lambda h: h["p2"][0].update(hi="x"), "p2[0].hi"),
    (lambda h: h["p1"][0].update(lo="1/0"), "p1[0].lo"),
    (lambda h: h["p1"][0].pop("lo"), "p1[0].lo"),
    (lambda h: h["p1"].__setitem__(0, "0..1"), "p1[0]"),
    (lambda h: h["p2"][0].update(lo="1", hi="0"), "p2[0]"),
    (lambda h: h["p1"][0].update(hi_closed="false"), "p1[0].hi_closed"),
    (lambda h: h["p2"][0].update(lo_closed=None), "p2[0].lo_closed"),
    (lambda h: h["p1"][0].update(action=1), "p1[0].action"),
    (lambda h: h["p2"][0].update(action=True), "p2[0].action"),
], ids=["no-action", "no-player", "bad-hi", "zero-denominator", "no-lo", "not-an-object",
        "empty-interval", "string-hi-closed", "null-lo-closed", "int-action", "bool-action"])
def test_cli_payoff_history_of_wrong_shape_exits_2(tmp_path, capsys, edit, path):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist = grim_history()
    edit(hist)
    hist_path = write_json(tmp_path / "hist.json", hist)
    assert cli.main(["payoff", spec_path, hist_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")


def test_cli_payoff_history_that_is_not_an_object_exits_2(tmp_path, capsys):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = write_json(tmp_path / "hist.json", [grim_history()])
    assert cli.main(["payoff", spec_path, hist_path]) == 2
    assert capsys.readouterr().err.startswith("error: $: ")


def test_cli_payoff_well_formed_history_exits_0(tmp_path, capsys):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = write_json(tmp_path / "hist.json", grim_history())
    assert cli.main(["payoff", spec_path, hist_path]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"p1", "p2"}


@pytest.mark.parametrize("argv", [["solve", None], ["gallery", "no_trace"]])
def test_cli_bad_seed_environment_exits_2(tmp_path, capsys, monkeypatch, argv):
    spec_path = write_json(tmp_path / "chain.json", chain_spec_dict())
    monkeypatch.setenv("TOTIME_SEED", "x")
    assert cli.main([a if a is not None else spec_path for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "TOTIME_SEED" in err


def test_cli_payoff_400_changes_prints_short_bounds(tmp_path, capsys, within):
    """The bounds share one 2^p denominator instead of squaring up digits."""
    doc = grim_spec_dict()
    doc["domain"]["hi"] = "10"
    doc["payoff"] = {"rho": "2",
                     "table": {"C,C": "3", "C,D": "-2", "D,C": "5/3", "D,D": "1/7"}}
    spec_path = write_json(tmp_path / "spec.json", doc)

    def alternating(cuts):
        pts = [Fraction(0)] + cuts + [Fraction(10)]
        return [{"lo": str(a), "hi": str(b), "lo_closed": True, "hi_closed": b == 10,
                 "action": "CD"[i % 2]} for i, (a, b) in enumerate(zip(pts, pts[1:]))]

    hist = {"p1": alternating([Fraction(i, 40) for i in range(1, 400, 2)]),
            "p2": alternating([Fraction(i, 40) for i in range(2, 400, 2)])}
    hist_path = write_json(tmp_path / "hist.json", hist)
    assert within(5, cli.main, ["payoff", spec_path, hist_path, "--tol", "1e-40"]) == 0
    out = json.loads(capsys.readouterr().out)
    for bounds in out.values():
        lo, hi = Fraction(bounds["lo"]), Fraction(bounds["hi"])
        assert 0 <= hi - lo <= Fraction(1, 10**40)
        assert len(bounds["lo"]) < 300 and len(bounds["hi"]) < 300
