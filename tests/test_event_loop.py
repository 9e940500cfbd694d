"""The dense event loop against the order logic it no longer re-derives.

`generic_union` is the interval union the engine used before abutting
pieces were joined first; it stays here as the oracle.  The guards count
exact `Fraction` ordering comparisons, `strictly_precedes` calls and
point formatting on a Zeno solve, whose event times carry denominators
near 2^budget, so the costly comparisons cannot creep back unnoticed.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import cli, solver
from totime import timeorder as to
from totime.gamespec import build_profile, parse_spec
from totime.histories import empty_prefix, history_to_json
from totime.solver import ZENO, solve_dense
from totime.strategies import make_constant, make_halving_hold, make_scripted
from totime.timeorder import DenseInterval, FiniteChain, Interval

CHAIN = FiniteChain(8)
DENSE = DenseInterval(Fraction(-1), Fraction(3))
GRID = [Fraction(k, 2) for k in range(-2, 7)]  # -1, -1/2, ..., 3


def generic_union(domain, a, b):
    """Union of two connected intervals, deciding order before adjacency."""
    if to.strictly_precedes(a, b) and not to.abuts(domain, a, b):
        return None
    if to.strictly_precedes(b, a) and not to.abuts(domain, b, a):
        return None
    if a.lo < b.lo or (a.lo == b.lo and a.lo_closed):
        lo, lo_closed = a.lo, a.lo_closed or (a.lo == b.lo and b.lo_closed)
    else:
        lo, lo_closed = b.lo, b.lo_closed
    if a.hi > b.hi or (a.hi == b.hi and a.hi_closed):
        hi, hi_closed = a.hi, a.hi_closed or (a.hi == b.hi and b.hi_closed)
    else:
        hi, hi_closed = b.hi, b.hi_closed
    return Interval(lo, hi, lo_closed, hi_closed)


@st.composite
def chain_intervals(draw):
    lo = draw(st.integers(0, CHAIN.top))
    return Interval(lo, draw(st.integers(lo, CHAIN.top)))


@st.composite
def dense_intervals(draw):
    lo = draw(st.sampled_from(GRID))
    hi = draw(st.sampled_from([x for x in GRID if x >= lo]))
    if lo == hi:  # a singleton is closed on both ends
        return Interval(lo, hi)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def assert_union_matches(domain, a, b, probes):
    got = to._try_union(domain, a, b)
    assert got == generic_union(domain, a, b)
    if got is not None:
        for x in probes:
            assert got.contains(x) == (a.contains(x) or b.contains(x))


@settings(max_examples=400, deadline=None)
@given(chain_intervals(), chain_intervals())
def test_try_union_matches_generic_union_on_chains(a, b):
    assert_union_matches(CHAIN, a, b, CHAIN.points())


@settings(max_examples=600, deadline=None)
@given(dense_intervals(), dense_intervals())
def test_try_union_matches_generic_union_on_dense(a, b):
    probes = GRID + [x + Fraction(1, 4) for x in GRID]
    assert_union_matches(DENSE, a, b, probes)


H = Fraction(1, 2)


@pytest.mark.parametrize("domain, a, b", [
    (CHAIN, Interval(0, 2), Interval(3, 5)),                       # abutting
    (CHAIN, Interval(1, 4), Interval(3, 6)),                       # overlapping
    (CHAIN, Interval(1, 6), Interval(2, 3)),                       # nested
    (CHAIN, Interval(0, 1), Interval(3, 4)),                       # disjoint
    (CHAIN, Interval(2, 2), Interval(3, 3)),                       # singletons
    (DENSE, Interval(0, H, True, False), Interval(H, 1)),          # abutting
    (DENSE, Interval(0, H), Interval(H, 1, False, False)),         # abutting
    (DENSE, Interval(H, H), Interval(H, 1, False, True)),          # singleton + open
    (DENSE, Interval(0, H, False, False), Interval(H, H)),         # open + singleton
    (DENSE, Interval(0, H, True, False), Interval(H, 1, False, True)),  # gap at 1/2
    (DENSE, Interval(0, H), Interval(H, 1)),                       # touch at 1/2
    (DENSE, Interval(0, 1, False, False), Interval(H, 2)),         # overlapping
    (DENSE, Interval(-1, 3, False, False), Interval(0, 1)),        # nested
    (DENSE, Interval(0, H), Interval(1, 2)),                       # disjoint
    (DENSE, Interval(H, H), Interval(H, H)),                       # equal singletons
])
@pytest.mark.parametrize("swap", [False, True])
def test_try_union_named_cases_in_both_orders(domain, a, b, swap):
    if swap:
        a, b = b, a
    probes = CHAIN.points() if domain is CHAIN else GRID + [x + Fraction(1, 4) for x in GRID]
    assert_union_matches(domain, a, b, probes)


def halving_profile(domain):
    return [make_halving_hold("p1", ("C", "D"), domain),
            make_constant("p2", "C", ("C", "D"), domain)]


def test_halving_solve_pays_no_redundant_order_logic(monkeypatch):
    """1,024 events: at most 8 ordering comparisons per event, no
    strictly_precedes, and only the trailing gaps subtracted at the end."""
    domain = DenseInterval(Fraction(-1), Fraction(2))
    profile = halving_profile(domain)
    pfx = empty_prefix(domain, ("p1", "p2"))
    calls = {"cmp": [], "sub": [], "precedes": []}

    def count(owner, name, key):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda a, b: calls[key].append(1) or original(a, b))

    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        count(Fraction, name, "cmp")
        count(to.Point, name, "cmp")  # event times are Points
    count(Fraction, "__sub__", "sub")
    count(to, "strictly_precedes", "precedes")
    res = solve_dense(profile, pfx, event_budget=1024)
    monkeypatch.undo()
    assert res.outcome == ZENO and res.accumulation == 2
    assert res.events_consumed == 1024
    assert len(calls["cmp"]) <= 8 * res.events_consumed
    assert calls["precedes"] == []
    assert len(calls["sub"]) <= 8


def test_to_json_formats_each_event_point_once(monkeypatch):
    domain = DenseInterval(Fraction(0), Fraction(1))
    res = solve_dense(halving_profile(domain), empty_prefix(domain, ("p1", "p2")),
                      event_budget=256)
    calls = []
    fmt = to.format_point
    monkeypatch.setattr(to, "format_point", lambda t: calls.append(t) or fmt(t))
    res.to_json()
    # one string per event time, plus the horizon (p2's hold), p1's last
    # hold and the accumulation point; formatting per field takes 3 per event
    assert len(calls) <= res.events_consumed + 3


def plain_rendering(res):
    """SolveResult.to_json spelled out field by field, with no memo."""
    out = {
        "outcome": res.outcome,
        "events_consumed": res.events_consumed,
        "events": [
            {"time": to.format_point(t), "kind": kind, "actions": list(actions),
             "holds": [None if h is None else to.format_point(h) for h in holds]}
            for t, kind, actions, holds in res.events
        ],
    }
    if res.history is not None:
        out["history"] = history_to_json(res.history)
    if res.diagnosis is not None:
        out["diagnosis"] = res.diagnosis
    if res.accumulation is not None:
        out["accumulation"] = to.format_point(res.accumulation)
    if res.accumulation_bounds is not None:
        out["accumulation_bounds"] = [to.format_point(t) for t in res.accumulation_bounds]
    return out


ZENO_DOMAINS = [("0", "1"), ("-1", "2"), ("1/2", "3"), ("-2", "-1/2")]


@pytest.mark.parametrize("budget", [64, 1024])
@pytest.mark.parametrize("lo, hi", ZENO_DOMAINS)
def test_cli_zeno_solve_is_the_plain_rendering(tmp_path, capsys, lo, hi, budget):
    doc = {
        "domain": {"kind": "dense", "lo": lo, "hi": hi},
        "players": [{"id": p, "actions": ["C", "D"]} for p in ("p1", "p2")],
        "strategies": [{"kind": "halving", "player": "p1", "cycle": ["C", "D"]},
                       {"kind": "constant", "player": "p2", "action": "C"}],
    }
    path = tmp_path / "zeno.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", str(path), "--budget", str(budget)]) == 4
    stdout = capsys.readouterr().out
    spec = parse_spec(doc)
    res = solve_dense(build_profile(spec), empty_prefix(spec.domain, spec.players),
                      event_budget=budget)
    assert stdout == json.dumps(plain_rendering(res), indent=2) + "\n"
    assert json.loads(stdout)["accumulation"] == hi


@pytest.mark.parametrize("seed", range(4))
def test_jittered_dense_solve_is_the_plain_rendering(seed):
    """Jitter puts fresh midpoint objects among the holds and event times."""
    rng = random.Random(seed)
    domain = DenseInterval(Fraction(-3, 2), Fraction(5, 2))
    points = sorted({Fraction(rng.randrange(1, 64), 16) - Fraction(3, 2)
                     for _ in range(12)} - {domain.lo, domain.hi})
    bounds = [domain.lo] + points + [domain.hi]
    pieces = [(Interval(a, b, True, b == domain.hi), "CD"[k % 2])
              for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    profile = [make_scripted("p1", domain, pieces),
               make_constant("p2", "C", ("C", "D"), domain)]
    res = solve_dense(profile, empty_prefix(domain, ("p1", "p2")),
                      jitter=random.Random(seed))
    assert res.outcome == solver.UNIQUE
    assert json.dumps(res.to_json(), indent=2) == json.dumps(plain_rendering(res), indent=2)
