"""Incremental prefixes and bisected lookups against their plain definitions.

The oracles below are the definitions the engine used to evaluate
literally: a prefix intersects every piece with the window, a lookup scans
the pieces from the first, a chain payoff sums rho_hat**t per time.  The
guards count calls, not time, so the quadratic rebuild cannot come back
unnoticed.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from totime import solver
from totime import timeorder as to
from totime.errors import MissingEntryError
from totime.gamespec import build_profile, evaluate_payoff, parse_spec
from totime.histories import (
    HistoryPrefix,
    PiecewiseHistory,
    chain_actions,
    empty_prefix,
    index_after,
    piece_at,
    prefix,
)
from totime.strategies import Response, make_scripted
from totime.timeorder import DenseInterval, FiniteChain, Interval

GRID = 16
ALPHABET = ("a", "b")


@st.composite
def dense_histories(draw):
    """Histories on shifted, negative and non-unit domains, with instants."""
    lo = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    width = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    domain = DenseInterval(lo, lo + width)
    players = tuple(f"p{i}" for i in range(draw(st.integers(1, 3))))
    action = st.sampled_from(ALPHABET)
    per = {}
    for p in players:
        cuts = sorted(draw(st.sets(st.integers(1, GRID - 1), max_size=10)))
        pieces, start, closed = [], lo, True
        for c in cuts:
            x = lo + width * Fraction(c, GRID)
            pieces.append((Interval(start, x, closed, False), draw(action)))
            if draw(st.booleans()):  # an instant at x, then an open-started run
                pieces.append((Interval(x, x), draw(action)))
                start, closed = x, False
            else:
                start, closed = x, True
        pieces.append((Interval(start, domain.hi, closed, True), draw(action)))
        per[p] = pieces
    return PiecewiseHistory.build(domain, players, per)


@st.composite
def chain_histories(draw):
    domain = FiniteChain(draw(st.integers(1, 30)))
    players = tuple(f"p{i}" for i in range(draw(st.integers(1, 3))))
    per = {
        p: [(to.singleton(t), draw(st.sampled_from(ALPHABET))) for t in domain.points()]
        for p in players
    }
    return PiecewiseHistory.build(domain, players, per)


def query_points(h: PiecewiseHistory) -> list:
    """Every piece boundary (instants at the cut) plus a grid finer than the pieces'."""
    d = h.domain
    if to.is_chain(d):
        return list(d.points())
    return sorted(set(h.change_times())
                  | {d.lo + (d.hi - d.lo) * Fraction(k, 4 * GRID) for k in range(4 * GRID + 1)})


def prefix_by_definition(h: PiecewiseHistory, t, include: bool) -> HistoryPrefix:
    window = to.at_or_before(h.domain, t) if include else to.before(h.domain, t)
    per = []
    for pp in h.per_player:
        cut = [] if window is None else [(to.intersect(iv, window), a) for iv, a in pp]
        per.append(tuple((iv, a) for iv, a in cut if iv is not None))
    return HistoryPrefix(h.domain, t, h.players, tuple(per), include)


def linear_piece_at(pieces, t):
    for iv, a in pieces:
        if iv.contains(t):
            return iv, a
    return None


def linear_piece_after(pieces, t):
    for iv, a in pieces:
        if (iv.contains(t) and iv.hi > t) or (iv.lo == t and not iv.lo_closed) or iv.lo > t:
            return iv, a
    return None


def linear_scripted(pieces, t, right_limit: bool):
    """The scripted strategy's answer by a scan from the first piece."""
    if right_limit:
        hit = linear_piece_after(pieces, t)
        if hit is None:
            raise MissingEntryError(f"nothing after {t}")
        return Response(hit[1], hit[0].hi)
    hit = linear_piece_at(pieces, t)
    if hit is None:
        raise MissingEntryError(f"undefined at {t}")
    return Response(hit[1], t if hit[0].hi == t else hit[0].hi)


def piece_after(pieces, t):
    k = index_after(pieces, t)
    return None if k is None else pieces[k]


def outcome(fn):
    try:
        return fn()
    except MissingEntryError:
        return MissingEntryError


# -- differential ------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_histories(), chain_histories()), st.booleans())
def test_prefix_equals_window_intersection(h, include):
    for t in query_points(h):
        assert prefix(h, t, include) == prefix_by_definition(h, t, include)


@settings(max_examples=80, deadline=None)
@given(dense_histories())
def test_bisected_lookups_equal_linear_scan(h):
    for t in query_points(h):
        for pp in h.per_player:
            assert piece_at(pp, t) == linear_piece_at(pp, t)
            assert piece_after(pp, t) == linear_piece_after(pp, t)
            # a partial script: lookups outside it must still agree
            part = pp[: len(pp) // 2]
            assert piece_at(part, t) == linear_piece_at(part, t)
            assert piece_after(part, t) == linear_piece_after(part, t)


@settings(max_examples=60, deadline=None)
@given(dense_histories())
def test_scripted_respond_equals_linear_scan(h):
    for p, pp in zip(h.players, h.per_player):
        strategy = make_scripted(p, h.domain, pp)
        for t in query_points(h):
            for include in (False, True):
                pfx = prefix(h, t, include)
                got = outcome(lambda: strategy.respond(t, pfx))
                assert got == outcome(lambda: linear_scripted(pp, t, include))


@settings(max_examples=60, deadline=None)
@given(chain_histories(), st.data())
def test_chain_actions_equal_pointwise_eval(h, data):
    assert chain_actions(h.per_player, h.domain.size) == [h.eval(t) for t in h.domain.points()]
    end = data.draw(st.integers(0, h.domain.size))
    assert chain_actions(h.per_player, end) == [h.eval(t) for t in range(end)]


def chain_spec(h: PiecewiseHistory, rho: Fraction, values: list) -> dict:
    combos = [()]
    for _ in h.players:
        combos = [c + (a,) for c in combos for a in ALPHABET]
    return {
        "domain": {"kind": "chain", "size": h.domain.size},
        "players": [{"id": p, "actions": list(ALPHABET)} for p in h.players],
        "strategies": [{"kind": "constant", "player": p, "action": "a"} for p in h.players],
        "payoff": {"rho": str(rho),
                   "table": {",".join(c): str(values[k % len(values)])
                             for k, c in enumerate(combos)}},
    }


@settings(max_examples=60, deadline=None)
@given(chain_histories(),
       st.fractions(min_value=0, max_value=3, max_denominator=7),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=9),
                min_size=1, max_size=8))
def test_chain_payoff_equals_per_time_sum(h, rho, values):
    spec = parse_spec(json.dumps(chain_spec(h, rho, values)))
    rho_hat = Fraction(1) / (1 + rho)
    want = {p: sum((rho_hat**t * spec.payoff_table[h.eval(t)][p]
                    for t in h.domain.points()), Fraction(0))
            for p in h.players}
    vec = evaluate_payoff(h, spec)
    assert vec.lo == vec.hi == want


# -- guards against the per-query rebuild -------------------------------------


def grim_chain_spec(n: int) -> dict:
    return {
        "domain": {"kind": "chain", "size": n},
        "players": [{"id": p, "actions": ["C", "D"]} for p in ("p1", "p2")],
        "strategies": [{"kind": "grim", "player": p, "cooperate": "C",
                        "punish": "D", "delta": "1"} for p in ("p1", "p2")],
    }


def test_solve_chain_builds_no_prefix_from_scratch(monkeypatch):
    calls = []
    original = solver.seq_to_prefix
    monkeypatch.setattr(solver, "seq_to_prefix",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    spec = parse_spec(json.dumps(grim_chain_spec(400)))
    res = solver.solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players))
    assert calls == []
    assert res.events_consumed == 400
    assert res.history.per_player == ((((Interval(0, 399), "C"),),) * 2)


def test_prefix_intersects_only_the_pieces_at_the_cut(monkeypatch):
    domain = DenseInterval(-3, 5)
    step = Fraction(8, 400)
    pieces = [(Interval(-3 + k * step, -3 + (k + 1) * step, True, k == 399), "ab"[k % 2])
              for k in range(400)]
    h = PiecewiseHistory.build(domain, ("p1", "p2"), {"p1": pieces, "p2": pieces})
    cases = [(t, include) for t in (Fraction(-3), Fraction(1), -3 + 201 * step, Fraction(5))
             for include in (False, True)]
    want = {case: prefix_by_definition(h, *case) for case in cases}
    calls = []
    original = to.intersect
    monkeypatch.setattr(to, "intersect", lambda a, b: calls.append(1) or original(a, b))
    for case in cases:
        calls.clear()
        assert prefix(h, *case) == want[case]
        assert len(calls) <= 2 * len(h.players)
