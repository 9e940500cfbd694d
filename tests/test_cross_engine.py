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
- solving again from the strict library prefix of a unique history at a
  drawn cut gives that history back, by the solver and, on a chain, by
  the oracle and the naive reference, and the history is consistent from
  the cut;
- no_trace, zeno and budget outcomes carry no history;
- `totime solve --out` followed by `totime payoff --tol` gives an
  enclosure no wider than the tolerance.

Two more tiers draw what the spec documents above keep small: the
gallery's black boxes on dense domains, whose sampled consistency verdict
and witness must match a plain loop over the same points, and seeded
tables on chains of up to 200 times, whose actions change at most times,
with the oracle's `limit` lifted.
"""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from totime import cli
from totime import timeorder as to
from totime.axioms import _rand_fraction, is_consistent
from totime.gamespec import build_profile, parse_spec, spec_to_json
from totime.histories import (
    HistoryPrefix,
    PiecewiseHistory,
    chain_actions,
    empty_prefix,
    prefix,
)
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


def naive_chain_history(profile, domain, players, start=()):
    """Forward recursion from the action tuples `start` that builds every
    prefix from scratch, merging runs of equal actions, and asks each
    strategy's respond."""
    seq = list(start)
    for s in range(len(seq), domain.size):
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


def agree_on_chain(profile, spec, pfx):
    """The solve from pfx, after checking that the oracle, with its limit
    lifted, and the naive reference find the same history."""
    res = solve_chain(profile, pfx)
    tuples = len(list(itertools.product(*spec.alphabets.values())))
    oracle = oracle_enumerate(profile, pfx, spec.alphabets,
                              limit=tuples ** (spec.domain.size - pfx.cut))
    assert oracle.count == 1 and oracle.histories == [res.history]
    start = chain_actions(pfx.per_player, pfx.cut)
    assert res.history == naive_chain_history(profile, spec.domain, spec.players, start)
    return res


def agree_from_prefix(profile, spec, h, t):
    """Every engine solves the strict library prefix of h at t back to h,
    and h is consistent from t."""
    pfx = prefix(h, t)
    if to.is_chain(spec.domain):
        assert agree_on_chain(profile, spec, pfx).history == h
    else:
        res = solve_dense(profile, pfx, event_budget=BUDGET)
        assert (res.outcome, res.history) == (UNIQUE, h), res.diagnosis
    assert is_consistent(h, profile, t).consistent is True


def cuts(h):
    """Every time of a chain; on a dense domain, every change time of h and
    the midpoint of every stretch between them."""
    if to.is_chain(h.domain):
        return list(h.domain.points())
    times = h.change_times()
    return times + [(a + b) / 2 for a, b in zip(times, times[1:])]


def _check(doc, tol, tmp, data):
    spec = parse_spec(doc)
    assert parse_spec(spec_to_json(spec)) == spec
    profile = build_profile(spec)
    pfx = empty_prefix(spec.domain, spec.players)
    if to.is_chain(spec.domain):
        res = agree_on_chain(profile, spec, pfx)
    else:
        res = solve_dense(profile, pfx, event_budget=BUDGET)
    if res.outcome != UNIQUE:
        assert res.history is None, res.outcome
        return
    assert is_consistent(res.history, profile).consistent is True
    if not to.is_chain(spec.domain):
        assert verify_unique(profile, pfx, res, event_budget=BUDGET)
    agree_from_prefix(profile, spec, res.history, data.draw(st.sampled_from(cuts(res.history))))

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
@given(spec_docs(), st.sampled_from(["1/1000", "1e-9", "1e-30"]), st.data())
def test_engines_agree_on_generated_specs(tmp_path_factory, within, doc, tol, data):
    within(10, _check, doc, tol, tmp_path_factory.getbasetemp(), data)


# -- black boxes: the gallery's strategies on dense domains --------------------


@st.composite
def gallery_cases(draw):
    """A gallery spec on a dense domain with a positive top, a history of
    "0"/"1" pieces on a grid of 16 (instants included, and half the time
    all 0s before all 1s, as the consistent histories of `multi` are), a
    start time, a sample count and a seed."""
    lo, hi = map(Fraction, draw(st.sampled_from([d for d in DENSE if Fraction(d[1]) > 0])))
    spec = parse_spec({
        "domain": {"kind": "dense", "lo": str(lo), "hi": str(hi)},
        "players": [{"id": "p1", "actions": ["0", "1"]}],
        "strategies": [{"kind": "gallery", "player": "p1",
                        "name": draw(st.sampled_from(["no_trace", "multi"]))}],
    })
    grid = [lo + (hi - lo) * Fraction(k, 16) for k in range(17)]
    bounds = [grid[k] for k in sorted(draw(st.sets(st.integers(1, 15), max_size=4)))]
    actions = draw(st.lists(st.sampled_from("01"), min_size=2 * len(bounds) + 1,
                            max_size=2 * len(bounds) + 1))
    if draw(st.booleans()):
        actions.sort()
    pieces, start, closed = [], lo, True
    for k, x in enumerate(bounds):
        pieces.append((Interval(start, x, closed, False), actions[2 * k]))
        if draw(st.booleans()):  # an instant at x, then an open-started run
            pieces.append((Interval(x, x), actions[2 * k + 1]))
        start, closed = x, not pieces[-1][0].is_singleton
    pieces.append((Interval(start, hi, closed, True), actions[-1]))
    h = PiecewiseHistory.build(spec.domain, spec.players, {"p1": pieces})
    t = draw(st.sampled_from([lo, *h.change_times(), *grid[1::3]]))
    return spec, h, t, draw(st.integers(1, 16)), draw(st.integers(0, 99))


def naive_sampled(strategy, h, t, samples, seed):
    """is_consistent's sampled (verdict, witness time, checked) by a plain
    loop over the same points, the change times of h from t, t itself and
    the seeded samples in [t, top], each asked of the strategy on a prefix
    that intersects every piece with the window below the point."""
    rng = random.Random(seed)
    top = h.domain.top
    points = {p for p in h.change_times() if p >= t} | {t}
    points |= {t + (top - t) * _rand_fraction(rng) for _ in range(samples)}
    for checked, s in enumerate(sorted(points)):
        window = to.before(h.domain, s)
        pieces = () if window is None else tuple(
            (cut, a) for iv, a in h.per_player[0]
            if (cut := to.intersect(iv, window)) is not None)
        pfx = HistoryPrefix(h.domain, s, h.players, (pieces,))
        if strategy.respond(s, pfx).action != h.eval(s)[0]:
            return False, s, checked
    return True, None, len(points)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gallery_cases())
def test_sampled_consistency_of_black_boxes_equals_a_plain_loop(within, case):
    spec, h, t, samples, seed = case
    profile = build_profile(spec)
    rep = within(5, is_consistent, h, profile, t, samples=samples, seed=seed)
    assert rep.method == "sampled"
    assert (rep.consistent, rep.witness_time, rep.checked) \
        == naive_sampled(profile[0], h, t, samples, seed)


# -- seeded tables on long chains ---------------------------------------------


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.integers(100, 200), st.integers(1, 2), st.integers(2, 3), st.integers(0, 99),
       st.data())
def test_engines_agree_on_long_seeded_table_chains(within, n, n_players, letters, seed, data):
    players = [f"p{k}" for k in range(1, n_players + 1)]
    spec = parse_spec({
        "domain": {"kind": "chain", "size": n},
        "players": [{"id": p, "actions": LETTERS[:letters]} for p in players],
        "strategies": [{"kind": "table", "player": p, "seed": k}
                       for k, p in enumerate(players)],
        "seed": seed,
    })
    profile = build_profile(spec)
    res = within(10, agree_on_chain, profile, spec, empty_prefix(spec.domain, spec.players))
    h = res.history
    assert all(len(pp) > n // 4 for pp in h.per_player)  # actions change at most times
    assert is_consistent(h, profile).consistent is True
    within(10, agree_from_prefix, profile, spec, h, data.draw(st.integers(0, n - 1)))
