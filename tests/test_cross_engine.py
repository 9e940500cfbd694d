"""The engines agree on generated spec documents.

A `hypothesis` strategy writes spec JSON: a chain, or a dense domain with
shifted, negative or non-unit endpoints; one to three players; constant,
grim, table (seeded or by explicit `entries`) and halving strategies; a
payoff block.  For each spec it checks that:

- the spec round-trips: parse_spec(spec_to_json(s)) == s;
- a unique solve is consistent, and on a dense domain passes verify_unique;
- on a chain, solve_chain equals the one survivor of oracle_enumerate and
  a naive reference that builds each prefix from scratch and asks
  Strategy.respond.  The solver and the oracle ask on the engine's
  snapshots, whose action tuples are a view of the engine's own list; the
  reference's prefixes carry none, so strategies read them off the pieces,
  and the comparison checks the snapshots against a plain encoding;
- no_trace, zeno and budget outcomes carry no history;
- `totime solve --out` followed by `totime payoff --tol` gives an
  enclosure no wider than the tolerance.
"""

import contextlib
import io
import itertools
import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from totime import cli
from totime import timeorder as to
from totime.axioms import is_consistent
from totime.gamespec import build_profile, parse_spec, spec_to_json
from totime.histories import HistoryPrefix, PiecewiseHistory, empty_prefix
from totime.solver import UNIQUE, oracle_enumerate, solve_chain, solve_dense, verify_unique
from totime.timeorder import Interval

DENSE = [("0", "1"), ("-1", "2"), ("-7/3", "-1/2"), ("3", "13/2"), ("1/4", "5/4")]
LETTERS = ["C", "D", "x"]
DENSE_DELTAS = ["1/4", "1/3", "2/5", "1", "3"]
BUDGET = 64
ENTRIES_LIMIT = 200  # the most keys an explicit table is written with


@st.composite
def strategy_specs(draw, domain, players, alphabets, i):
    """One strategy spec for players[i]."""
    player, alpha = players[i], alphabets[i]
    chain = domain["kind"] == "chain"
    kinds = ["constant", "halving"] + ["grim"] * (len(alpha) > 1) + ["table"] * 2 * chain
    kind = draw(st.sampled_from(kinds))
    out = {"kind": kind, "player": player}
    if kind == "constant":
        out["action"] = draw(st.sampled_from(alpha))
    elif kind == "halving":
        out["cycle"] = draw(st.lists(st.sampled_from(alpha), min_size=1, max_size=3))
    elif kind == "grim":
        out["cooperate"], out["punish"] = draw(st.permutations(alpha))[:2]
        out["delta"] = (str(draw(st.integers(1, 3))) if chain
                        else draw(st.sampled_from(DENSE_DELTAS)))
        others = sorted({a for j, al in enumerate(alphabets) if j != i for a in al})
        if others and draw(st.booleans()):
            out["trigger_actions"] = draw(st.lists(st.sampled_from(others), min_size=1,
                                                   max_size=2, unique=True))
    else:
        tuples = list(itertools.product(*alphabets))
        keys = sum(len(tuples) ** t for t in range(domain["size"]))
        if keys > ENTRIES_LIMIT or draw(st.booleans()):
            out["seed"] = draw(st.integers(0, 99))
        else:  # an entry for every prefix, so every solve finds one
            rng = random.Random(draw(st.integers(0, 2**16)))
            out["entries"] = {
                f"{t}|{';'.join(map(','.join, seq))}" if t else "0": rng.choice(alpha)
                for t in range(domain["size"]) for seq in itertools.product(tuples, repeat=t)}
    return out


@st.composite
def spec_docs(draw):
    if draw(st.booleans()):
        # short chains half the time, where explicit tables fit
        domain = {"kind": "chain", "size": draw(st.integers(1, draw(st.sampled_from([4, 16]))))}
    else:
        lo, hi = draw(st.sampled_from(DENSE))
        domain = {"kind": "dense", "lo": lo, "hi": hi}
    players = [f"p{k}" for k in range(1, draw(st.integers(1, 3)) + 1)]
    alphabets = [draw(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3, unique=True))
                 for _ in players]
    strategies = [draw(strategy_specs(domain, players, alphabets, i))
                  for i in range(len(players))]
    values = st.sampled_from(["0", "1", "-1/3", "2", "5/2"])
    table = {",".join(combo): draw(values) for combo in itertools.product(*alphabets)}
    return {
        "domain": domain,
        "players": [{"id": p, "actions": a} for p, a in zip(players, alphabets)],
        "strategies": strategies,
        "payoff": {"rho": draw(st.sampled_from(["0", "1/2", "1", "3"])), "table": table},
        "seed": draw(st.integers(0, 9)),
    }


def naive_chain_history(profile, domain, players):
    """Forward recursion that builds every prefix from scratch, merging runs
    of equal actions, and asks each strategy's respond."""
    seq = []
    for s in range(domain.size):
        per = []
        for i in range(len(players)):
            runs = []
            for t in range(s):
                if runs and runs[-1][1] == seq[t][i]:
                    runs[-1] = (Interval(runs[-1][0].lo, t), seq[t][i])
                else:
                    runs.append((Interval(t, t), seq[t][i]))
            per.append(tuple(runs))
        pfx = HistoryPrefix(domain, s, tuple(players), tuple(per))
        seq.append(tuple(strategy.respond(s, pfx).action for strategy in profile))
    return PiecewiseHistory.build(domain, players, {
        p: [(Interval(t, t), seq[t][i]) for t in range(domain.size)]
        for i, p in enumerate(players)})


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(doc, tol, tmp):
    spec = parse_spec(doc)
    assert parse_spec(spec_to_json(spec)) == spec
    profile = build_profile(spec)
    pfx = empty_prefix(spec.domain, spec.players)
    if to.is_chain(spec.domain):
        res = solve_chain(profile, pfx)
        tuples = len(list(itertools.product(*spec.alphabets.values())))
        oracle = oracle_enumerate(profile, pfx, spec.alphabets,
                                  limit=tuples ** spec.domain.size)
        assert oracle.count == 1 and oracle.histories == [res.history]
        assert res.history == naive_chain_history(profile, spec.domain, spec.players)
    else:
        res = solve_dense(profile, pfx, event_budget=BUDGET)
    if res.outcome != UNIQUE:
        assert res.history is None, res.outcome
        return
    assert is_consistent(res.history, profile).consistent is True
    if not to.is_chain(spec.domain):
        assert verify_unique(profile, pfx, res, event_budget=BUDGET)

    spec_path, hist_path = tmp / "spec.json", tmp / "history.json"
    spec_path.write_text(json.dumps(doc))
    code, _, err = _run(["solve", str(spec_path), "--budget", str(BUDGET),
                         "--out", str(hist_path)])
    assert code == 0, err
    code, out, err = _run(["payoff", str(spec_path), str(hist_path), "--tol", tol])
    assert code == 0, err
    for enclosure in json.loads(out).values():
        width = (to.parse_rational(enclosure["hi"], "hi")
                 - to.parse_rational(enclosure["lo"], "lo"))
        assert 0 <= width <= to.parse_rational(tol, "tol")


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(spec_docs(), st.sampled_from(["1/1000", "1e-9", "1e-30"]))
def test_engines_agree_on_generated_specs(tmp_path_factory, within, doc, tol):
    within(10, _check, doc, tol, tmp_path_factory.getbasetemp())
