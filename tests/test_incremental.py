"""Incremental prefixes and bisected lookups against their plain definitions.

The oracles below are the definitions the engine used to evaluate
literally: a prefix intersects every piece with the window, a lookup scans
the pieces from the first, a chain payoff (`per_time_sum`) grows one
Fraction weight rho_hat**t per time, the reference of the engine's one
integer pass, and change times are the sorted set of every piece bound.
`bisect_index_after` is `index_after` before it took a cursor hint, and
`old_canonical_pieces` (the sorting history builder with its own check
and merge loops) is the oracle of the one linear tiling check that
`canonical_pieces` and the walks' finish share.  The prefix guards count
calls, not time, and require library prefixes to view the history's own
pieces, so the quadratic rebuild cannot come back unnoticed; the
payoff guards cap time on long chains and many dyadic points, and refuse
any hash of a time point.  The dense walk's snapshots
are checked against the tuples they replace and against the finished
history's prefixes, and must share the walk's own piece lists.  The
records built without validation (`timeorder._interval`,
`histories._snapshot`) must read like validated ones, and a count guard
keeps the dense walk from validating more than its committed stretches.
"""

import dataclasses
import json
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import histories, solver, strategies
from totime import timeorder as to
from totime.axioms import is_consistent
from totime.errors import CoverageGapError, CoverageOverlapError, MissingEntryError
from totime.gamespec import MAX_CHAIN_SIZE, build_profile, evaluate_payoff, parse_spec
from totime.histories import (
    HistoryPrefix,
    PiecewiseHistory,
    canonical_pieces,
    chain_actions,
    empty_prefix,
    index_after,
    piece_at,
    prefix,
)
from totime.strategies import (
    Response,
    Strategy,
    make_constant,
    make_grim_trigger,
    make_random_table,
    make_scripted,
    make_table,
)
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


def bisect_index_after(pieces, t):
    for k in range(histories._scan_start(pieces, t), len(pieces)):
        iv = pieces[k][0]
        if (iv.contains(t) and iv.hi > t) or (iv.lo == t and not iv.lo_closed) or iv.lo > t:
            return k
    return None


@settings(max_examples=80, deadline=None)
@given(dense_histories(), st.randoms(use_true_random=False))
def test_hinted_index_after_equals_bisect(h, rnd):
    times = query_points(h)
    shuffled = list(times)
    rnd.shuffle(shuffled)
    for pp in h.per_player:
        for pieces in (pp, pp[: len(pp) // 2]):  # a partial script leaves gaps
            for walk in (times, shuffled):
                hint = 0
                for t in walk:
                    want = bisect_index_after(pieces, t)
                    assert index_after(pieces, t, hint) == want
                    # a stale or out-of-range hint is checked, never trusted
                    assert index_after(pieces, t, rnd.randrange(len(pieces) + 3)) == want
                    hint = want if want is not None else hint


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


def per_time_sum(h: PiecewiseHistory, spec) -> dict:
    """The chain payoff as the engine once summed it: one Fraction weight
    rho_hat**t, grown by one product per time, and one sum per player."""
    rho_hat = Fraction(1, 1) / (1 + spec.rho)
    lo = {p: Fraction(0) for p in spec.players}
    weight = Fraction(1)
    for t in h.domain.points():
        u = spec.payoff_table[h.eval(t)]
        for p in spec.players:
            lo[p] += weight * u[p]
        weight *= rho_hat
    return lo


NEAR_MILLION = st.integers(10**6 - 3, 10**6 + 3)
RHOS = st.one_of(
    st.just(Fraction(0)),
    st.integers(1, 5).map(Fraction),
    st.fractions(min_value=0, max_value=3, max_denominator=7),
    st.builds(Fraction, NEAR_MILLION, st.integers(1, 7)),
    st.builds(Fraction, st.integers(1, 7), NEAR_MILLION),
)
# table values whose denominators differ, small and near 10^6
TABLE_VALUES = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.builds(Fraction, st.integers(-10**6, 10**6), NEAR_MILLION),
)


@settings(max_examples=120, deadline=None)
@given(chain_histories(), RHOS, st.lists(TABLE_VALUES, min_size=1, max_size=8))
def test_chain_payoff_equals_per_time_sum(h, rho, values):
    spec = parse_spec(json.dumps(chain_spec(h, rho, values)))
    vec = evaluate_payoff(h, spec)
    assert vec.lo == vec.hi == per_time_sum(h, spec)


def test_chain_payoff_raises_on_the_first_missing_tuple_in_time_order():
    domain = FiniteChain(4)
    h = PiecewiseHistory.build(domain, ("p0",), {"p0": [(Interval(0, 1), "b"),
                                                         (Interval(2, 3), "a")]})
    spec = parse_spec(json.dumps(chain_spec(h, Fraction(1, 2), [Fraction(1)])))
    spec = dataclasses.replace(spec, payoff_table={})
    with pytest.raises(KeyError) as missing:
        evaluate_payoff(h, spec)
    assert missing.value.args == (("b",),)


def test_long_chain_payoff_is_one_integer_pass(within):
    """20,000 times at rho = 1/4 with rational values: the per-time Fraction
    sum takes about 50 s, one integer pass about 0.2 s (Python 3.11, 2 vCPUs)."""
    n = 20_000
    pieces = [(Interval(k, min(k + 99, n - 1)), "ab"[(k // 100) % 2]) for k in range(0, n, 100)]
    h = PiecewiseHistory.build(FiniteChain(n), ("p0", "p1"),
                               {"p0": pieces, "p1": [(Interval(0, n - 1), "a")]})
    values = [Fraction(3, 7), Fraction(-1, 3), Fraction(5, 11), Fraction(2)]
    spec = parse_spec(json.dumps(chain_spec(h, Fraction(1, 4), values)))
    vec = within(2, evaluate_payoff, h, spec)
    assert vec.lo == vec.hi
    for p in h.players:  # a float sum agrees to rounding
        approx = sum(float(spec.payoff_table[h.eval(t)][p]) * 0.8**t for t in range(n))
        assert float(vec.lo[p]) == pytest.approx(approx, rel=1e-12)


# -- change times ----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_histories(), chain_histories()))
def test_change_times_are_every_bound_sorted(h):
    bounds = {t for pp in h.per_player for iv, _ in pp for t in (iv.lo, iv.hi)}
    assert h.change_times() == sorted(bounds)


def halving_history(n: int) -> PiecewiseHistory:
    """One player on [0, 1], cut at the n points (2^k - 1)/2^k, whose hashes
    repeat with period 61 in k."""
    cuts = [Fraction(2**k - 1, 2**k) for k in range(1, n + 1)]
    pieces = [(Interval(a, b, True, False), "ab"[k % 2])
              for k, (a, b) in enumerate(zip([Fraction(0), *cuts], cuts))]
    pieces.append((Interval(cuts[-1], Fraction(1)), "ab"[n % 2]))
    return PiecewiseHistory.build(DenseInterval(0, 1), ("p0",), {"p0": pieces})


def test_change_times_at_halving_points(within):
    h = halving_history(4096)
    times = within(1, h.change_times)
    assert len(times) == 4098 and times[0] == 0 and times[-1] == 1


def test_payoff_and_sampled_consistency_hash_no_point(monkeypatch):
    h = halving_history(64)
    script = make_scripted("p0", h.domain, h.per_player[0])
    no_holds = Strategy("p0", lambda t, p: Response(script.respond(t, p).action, None),
                        name="no_holds", black_box=True)
    want_check = is_consistent(h, [no_holds], samples=8)
    assert want_check.consistent and want_check.method == "sampled"
    spec = parse_spec(json.dumps({
        "domain": {"kind": "dense", "lo": "0", "hi": "1"},
        "players": [{"id": "p0", "actions": list(ALPHABET)}],
        "strategies": [{"kind": "constant", "player": "p0", "action": "a"}],
        "payoff": {"rho": "1/3", "table": {"a": "1/2", "b": "-2"}},
    }))
    want = evaluate_payoff(h, spec)

    def refuse(_):
        raise AssertionError("a time point was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    monkeypatch.setattr(to.Point, "__hash__", refuse)
    assert h.change_times()[:2] == [0, Fraction(1, 2)]
    assert evaluate_payoff(h, spec) == want
    assert is_consistent(h, [no_holds], samples=8) == want_check


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
    assert calls == [1]  # the walk's start state at cut 0, and no rebuild per time
    assert res.events_consumed == 2  # one stretch to the top, then the top
    assert res.history.per_player == ((((Interval(0, 399), "C"),),) * 2)


def oracle_profiles(domain, players):
    """Each chain family the oracle asks, for every player."""
    on_path = {(t, (("C",) * len(players),) * t): "C" for t in range(domain.size)}
    return {
        "constant": [make_constant(p, "C", ("C", "D"), domain) for p in players],
        "grim": [make_grim_trigger(p, "C", "D", 1, ("C", "D"), domain) for p in players],
        "scripted": [make_scripted(p, domain, [(Interval(0, domain.size - 1), "C")])
                     for p in players],
        "table": [make_table(p, domain, on_path) for p in players],
        "seeded table": [make_random_table(p, domain, ("C", "D"), i)
                         for i, p in enumerate(players)],
    }


def test_oracle_builds_at_most_one_prefix_from_scratch(monkeypatch):
    calls = []
    original = solver.seq_to_prefix
    monkeypatch.setattr(solver, "seq_to_prefix",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    domain, players = FiniteChain(8), ("p1", "p2")
    alphabets = {p: ("C", "D") for p in players}
    for name, profile in oracle_profiles(domain, players).items():
        calls.clear()
        res = solver.oracle_enumerate(profile, empty_prefix(domain, players), alphabets)
        assert res.count == 1, name
        assert len(calls) <= 1, name


def test_one_action_grim_oracle_is_linear(within):
    # rebuilding the prefix for every query took 84 s (2 vCPUs, Python 3.11)
    domain = FiniteChain(8000)
    profile = [make_grim_trigger("p1", "C", "D", 1, ("C", "D"), domain)]
    res = within(5, solver.oracle_enumerate, profile, empty_prefix(domain, ("p1",)),
                 {"p1": ("C",)})
    assert res.count == 1
    assert res.histories[0].per_player == (((Interval(0, 7999), "C"),),)


def test_one_player_constant_chain_solve_is_linear(within):
    # copying the action-tuple prefix at every time took 1.7 s (2 vCPUs, Python 3.11)
    domain = FiniteChain(20000)
    res = within(1, solver.solve_chain, [make_constant("p1", "C", ("C",), domain)],
                 empty_prefix(domain, ("p1",)))
    assert res.events_consumed == 2  # a constant holds to the top
    assert res.history.per_player == (((Interval(0, 19999), "C"),),)


@pytest.mark.parametrize("first, events", [("grim", 2), ("constant", 3)])
def test_grim_chain_at_the_size_cap_solves_per_change_of_action(first, events):
    """Every strategy holds given the committed tuple, so the solve commits
    one stretch per change of action.  A step per time took 0.95 s for
    grim/grim at this size (2 vCPUs, Python 3.11)."""
    domain, players = FiniteChain(MAX_CHAIN_SIZE), ("p1", "p2")
    p1 = (make_grim_trigger("p1", "C", "D", 1, ("C", "D"), domain) if first == "grim"
          else make_constant("p1", "D", ("C", "D"), domain))
    profile = [p1, make_grim_trigger("p2", "C", "D", 3, ("C", "D"), domain)]
    start = time.perf_counter()
    res = solver.solve_chain(profile, empty_prefix(domain, players))
    assert time.perf_counter() - start < 0.1
    assert res.events_consumed == events
    top = MAX_CHAIN_SIZE - 1
    grim_c = ((Interval(0, top), "C"),)
    assert res.history.per_player == (
        (grim_c, grim_c) if first == "grim"
        else (((Interval(0, top), "D"),), ((Interval(0, 2), "C"), (Interval(3, top), "D"))))


def test_chain_whose_actions_change_at_every_time_is_linear(within):
    """A chain snapshot views a player's pieces once there are more than
    `solver.CHAIN_COPY_PIECES` of them.  Copying them at every time took
    2.8, 2.9 and 3.0 s to solve, check and run the oracle on this chain,
    against 0.15-0.19 s each with views (2 vCPUs, Python 3.11)."""
    n = 32000
    domain = FiniteChain(n)
    profile = [Strategy("p1", lambda t, p: Response("ab"[t % 2]))]
    pfx = empty_prefix(domain, ("p1",))

    def run():
        res = solver.solve_chain(profile, pfx)
        return (res, is_consistent(res.history, profile),
                solver.oracle_enumerate(profile, pfx, {"p1": ("a", "b")}, limit=2**n))

    res, rep, oracle = within(2, run)
    assert len(res.history.per_player[0]) == n
    assert rep.consistent is True
    assert oracle.histories == [res.history]


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


def test_prefix_views_the_history_s_own_pieces():
    """A prefix copies no piece: at a cut inside a piece, at a piece
    boundary and at an instant, both ways, and at both ends of the domain,
    each player's pieces are a view of h's own tuple that equals, hashes
    and reprs like the intersection of every piece with the window."""
    k, mid = 12_800, 6_400
    domain = DenseInterval(-1, 2)
    x = [-1 + Fraction(3 * j, k) for j in range(k + 1)]
    pieces = [(Interval(x[j], x[j + 1], j != mid, j == k - 1), "ab"[j % 2]) for j in range(k)]
    pieces.append((Interval(x[mid], x[mid]), "c"))
    h = PiecewiseHistory.build(domain, ("p1", "p2"),
                               {"p1": pieces, "p2": [(Interval(-1, 2), "a")]})
    assert len(h.per_player[0]) == k + 1
    for t in (x[100] + Fraction(1, 3 * k), x[200], x[mid], x[0], x[k]):
        for include in (False, True):
            got, want = prefix(h, t, include), prefix_by_definition(h, t, include)
            for pp, own in zip(got.per_player, h.per_player):
                assert type(pp) is histories.PiecesView and pp._pieces is own
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


# -- the walk's finish ---------------------------------------------------------


def old_canonical_pieces(domain, pieces, cover):
    """canonical_pieces as it was with its own loops: normalise and sort,
    check the start, every raw pair and the end, then merge."""
    items = []
    for iv, action in pieces:
        norm = to.make_interval(domain, iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
        if norm is not None:
            items.append((norm, action))
    items.sort(key=lambda p: to._sort_key(p[0]))
    if not items:
        raise CoverageGapError("no pieces for a nonempty time set")
    first = items[0][0]
    if first.lo != cover.lo or first.lo_closed != cover.lo_closed:
        raise CoverageGapError(f"coverage starts at {first.lo}, expected {cover.lo}")
    for (a, _), (b, _) in zip(items, items[1:]):
        if to.abuts(domain, a, b):
            continue
        if to.intersect(a, b) is not None:
            raise CoverageOverlapError(f"pieces {a} and {b} overlap")
        raise CoverageGapError(f"gap between {a} and {b}")
    last = items[-1][0]
    if last.hi != cover.hi or last.hi_closed != cover.hi_closed:
        raise CoverageGapError(f"coverage ends at {last.hi}, expected {cover.hi}")
    merged = [items[0]]
    for iv, action in items[1:]:
        prev_iv, prev_action = merged[-1]
        if action == prev_action:
            merged[-1] = (to._try_union(domain, prev_iv, iv), action)
        else:
            merged.append((iv, action))
    return tuple(merged)


def finish_outcome(fn):
    try:
        return fn()
    except (CoverageGapError, CoverageOverlapError) as e:
        return type(e), str(e)


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_histories(), chain_histories()), st.data())
def test_walked_pieces_equal_canonical_pieces(h, data):
    """The one tiling check, on pieces in time order (as a walk leaves
    them) and through canonical_pieces, against the old two-loop builder:
    on h's pieces split at a seam (a caller's unmerged prefix), and on
    those with a piece dropped (a seeded gap), repeated (an overlap) or
    moved (unsorted).  Values, error types and messages must agree."""
    cover = to.full_interval(h.domain)
    for pp in h.per_player:
        k = data.draw(st.integers(0, len(pp) - 1))
        iv, a = pp[k]
        if to.is_chain(h.domain) or iv.is_singleton:
            split = pp
        else:
            mid = (iv.lo + iv.hi) / 2
            split = pp[:k] + ((Interval(iv.lo, mid, iv.lo_closed, False), a),
                              (Interval(mid, iv.hi, True, iv.hi_closed), a)) + pp[k + 1:]
        got = PiecewiseHistory.from_walk(h.domain, ("p",), [split]).per_player[0]
        assert got == canonical_pieces(h.domain, split, cover) \
            == old_canonical_pieces(h.domain, split, cover) == pp
        j = data.draw(st.integers(0, len(split) - 1))
        for pieces in (split[:j] + split[j + 1:], split[:j + 1] + split[j:]):
            want = finish_outcome(lambda: old_canonical_pieces(h.domain, pieces, cover))
            assert finish_outcome(lambda: histories._tiled(h.domain, pieces, cover)) == want
            assert finish_outcome(lambda: canonical_pieces(h.domain, pieces, cover)) == want
        unsorted = list(split)
        unsorted.insert(data.draw(st.integers(0, len(split) - 1)), unsorted.pop(j))
        assert finish_outcome(lambda: canonical_pieces(h.domain, unsorted, cover)) \
            == finish_outcome(lambda: old_canonical_pieces(h.domain, unsorted, cover))


@pytest.mark.parametrize("pieces, error", [
    ([(Interval(0, Fraction(1, 4), True, False), "C")], CoverageGapError),
    ([(Interval(0, Fraction(3, 4)), "D")], CoverageOverlapError),
    ([(Interval(0, Fraction(1, 2), False, False), "C")], CoverageGapError),
])
def test_solve_from_a_prefix_that_does_not_tile_raises(pieces, error):
    """A seeded gap, an overlap, or an open start below the cut 1/2."""
    domain = DenseInterval(0, 1)
    pfx = HistoryPrefix(domain, Fraction(1, 2), ("p1",), (tuple(pieces),))
    try:
        solver.solve_dense([make_constant("p1", "C", ("C", "D"), domain)], pfx)
    except error:
        return
    raise AssertionError(f"no {error.__name__}")


# -- the dense walk's snapshots ------------------------------------------------


def recording(strategy, seen: list):
    """strategy, also keeping every prefix it is handed with a copy of its
    pieces taken then."""

    def respond(t, p):
        seen.append((p, tuple(map(tuple, p.per_player))))
        return strategy.respond(t, p)

    return dataclasses.replace(strategy, respond=respond)


def test_pieces_view_reads_like_the_tuple_it_replaces():
    iv = [Interval(k, k + 1, True, False) for k in range(6)]
    for n in range(5):
        pieces = [(iv[k], "ab"[k % 2]) for k in range(n)]
        want = tuple(pieces)
        view = histories.PiecesView(pieces)
        # later growth: a merge replaces the last piece, then appends follow
        if pieces:
            pieces[-1] = (Interval(pieces[-1][0].lo, 99), "z")
        pieces.extend([(iv[5], "c")] * 3)
        assert view == want and want == view and not view != want
        assert hash(view) == hash(want)
        assert len(view) == n and bool(view) == bool(want)
        assert list(view) == list(want) and list(reversed(view)) == list(reversed(want))
        for k in range(-n - 2, n + 2):
            if -n <= k < n:
                assert view[k] == want[k]
            else:
                with pytest.raises(IndexError):
                    view[k]
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2)):
            assert view[cut] == want[cut] and type(view[cut]) is tuple
        assert all(p in view for p in want) and (iv[5], "c") not in view
        assert view != pieces and view != list(want)
        snap, plain = (HistoryPrefix(DenseInterval(0, 9), n, ("p",), (pp,))
                       for pp in (view, want))
        assert snap == plain and hash(snap) == hash(plain)


@settings(max_examples=60, deadline=None)
@given(dense_histories(), st.sampled_from([None, 1, 2]))
def test_kept_snapshots_read_as_at_their_cut(h, jitter):
    """A strategy that keeps every snapshot of a solve, in which the constant
    player's last piece merges at every event, reads each one as it was at
    its cut, equal to the finished history's prefix there; and all
    snapshots share the walk's piece lists, so no event copied pieces."""
    seen: list = []
    players = h.players + ("z",)
    profile = [recording(make_scripted(p, h.domain, h.pieces_for(p)), seen)
               for p in h.players]
    profile.append(recording(make_constant("z", "a", ALPHABET, h.domain), seen))
    rng = None if jitter is None else random.Random(jitter)
    res = solver.solve_dense(profile, empty_prefix(h.domain, players), jitter=rng)
    assert res.outcome == solver.UNIQUE
    assert res.history.per_player[:-1] == h.per_player
    for p, copied in seen:
        assert p.per_player == copied
        assert histories.prefix_equal(p, prefix(res.history, p.cut, p.cut_included))
    assert all(type(pp) is histories.PiecesView for p, _ in seen for pp in p.per_player)
    lists = [{id(p.per_player[i]._pieces) for p, _ in seen} for i in range(len(players))]
    assert [len(ids) for ids in lists] == [1] * len(players)


@settings(max_examples=60, deadline=None)
@given(chain_histories(), st.integers(0, 99))
def test_chain_snapshots_read_like_library_prefixes(h, seed):
    """Every chain snapshot that the solver, the consistency check and the
    oracle hand out equals, hashes and reprs like the finished history's
    prefix at its cut, kept or not, and encodes to the same action tuples
    through a view of the engine's own list."""
    seen: list = []
    players = h.players + ("z",)
    profile = [recording(make_scripted(p, h.domain, h.pieces_for(p)), seen)
               for p in h.players]
    profile.append(recording(make_random_table("z", h.domain, ALPHABET, seed), seen))
    pfx = empty_prefix(h.domain, players)
    res = solver.solve_chain(profile, pfx)
    assert res.history.per_player[:-1] == h.per_player
    assert is_consistent(res.history, profile).consistent is True
    oracle = solver.oracle_enumerate(profile, pfx, {p: ALPHABET for p in players},
                                     limit=10**100)
    assert oracle.histories == [res.history]
    assert len(seen) == 3 * len(players) * h.domain.size
    for p, copied in seen:
        want = prefix(res.history, p.cut)
        assert p == want and hash(p) == hash(want) and repr(p) == repr(want)
        assert p.per_player == copied
        got = strategies.encode_chain_prefix(p)
        assert type(got) is histories.PiecesView
        assert got == strategies.encode_chain_prefix(want) == tuple(got)


# -- trusted records -----------------------------------------------------------


def test_dense_walk_validates_only_the_committed_stretches(monkeypatch):
    """A 512-event walk, grim against a script of 511 stretches that
    alternate C and D, solved and verified by six jittered re-walks, runs
    Interval's checks at most once per event (the committed stretch, whose
    end comes from the step) and builds every snapshot without
    HistoryPrefix.__init__."""
    domain, players = DenseInterval(-1, 2), ("p1", "p2")
    queries: list = []
    width = Fraction(3, 511)
    cuts = [-1 + width * k for k in range(512)]
    script = [(Interval(a, b, True, k == 510), "CD"[k % 2])
              for k, (a, b) in enumerate(zip(cuts, cuts[1:]))]
    profile = [recording(make_scripted("p1", domain, script), queries),  # one query per event
               make_grim_trigger("p2", "C", "D", width, ("C", "D"), domain)]
    pfx = empty_prefix(domain, players)
    checks, inits = [], []
    post_init, init = Interval.__post_init__, HistoryPrefix.__init__
    monkeypatch.setattr(Interval, "__post_init__",
                        lambda self: checks.append(1) or post_init(self))
    monkeypatch.setattr(HistoryPrefix, "__init__",
                        lambda self, *a, **k: inits.append(1) or init(self, *a, **k))
    res = solver.solve_dense(profile, pfx)
    assert res.events_consumed == 512
    assert solver.verify_unique(profile, pfx, res)
    assert len(queries) >= 7 * 512
    assert len(checks) <= len(queries) + 8
    assert inits == []


def same_record(got, cls):
    """got equals, hashes, prints, pickles and replaces like cls(...) of its
    own fields, and has the same instance dict."""
    want = cls(**{f.name: getattr(got, f.name) for f in dataclasses.fields(cls)})
    assert type(got) is cls and vars(got) == vars(want)
    for x in (got, pickle.loads(pickle.dumps(got)), dataclasses.replace(got)):
        assert type(x) is cls
        assert x == want and want == x and not x != want
        assert hash(x) == hash(want) and repr(x) == repr(want)


def split_pieces(h: PiecewiseHistory) -> list[list]:
    """Each player's pieces of h with every long piece cut in two abutting
    halves, so that appending them in order merges back to h's pieces."""
    out = []
    for pp in h.per_player:
        split = []
        for iv, a in pp:
            if iv.is_singleton or (to.is_chain(h.domain) and iv.hi == iv.lo + 1):
                split.append((iv, a))
                continue
            mid = (iv.lo + iv.hi) // 2 if to.is_chain(h.domain) else (iv.lo + iv.hi) / 2
            split.append((to.make_interval(h.domain, iv.lo, mid, iv.lo_closed, True), a))
            split.append((to.make_interval(h.domain, mid, iv.hi, False, iv.hi_closed), a))
        out.append(split)
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_histories(), chain_histories()), st.booleans())
def test_trusted_records_read_like_validated_ones(h, include):
    """Intervals from `_append_piece`'s merges, `make_interval`, `intersect`
    and the walks, and the snapshots of `_snapshot` (library prefixes and
    the walks'), equal, hash, print, pickle and replace like the validated
    records of the same fields."""
    for pp, split in zip(h.per_player, split_pieces(h)):
        merged: list = []
        for iv, a in split:
            histories._append_piece(h.domain, merged, iv, a)
        assert tuple(merged) == pp
        for iv, _ in merged + split:
            same_record(iv, Interval)
    for t in query_points(h):
        window = to.at_or_before(h.domain, t) if include else to.before(h.domain, t)
        if window is None:
            continue
        same_record(window, Interval)
        for pp in h.per_player:
            for iv, _ in pp:
                cut = to.intersect(iv, window)
                if cut is not None:
                    same_record(cut, Interval)
        same_record(prefix(h, t, include), HistoryPrefix)
    seen: list = []
    profile = [recording(make_scripted(p, h.domain, h.pieces_for(p)), seen)
               for p in h.players]
    pfx = empty_prefix(h.domain, h.players)
    solve = solver.solve_chain if to.is_chain(h.domain) else solver.solve_dense
    res = solve(profile, pfx)
    assert res.history == h
    for pp in res.history.per_player:
        for iv, _ in pp:
            same_record(iv, Interval)
    for p, _ in seen:
        same_record(p, HistoryPrefix)


def test_public_interval_still_validates():
    for lo, hi, lo_closed, hi_closed in [(1, 0, True, True), (0, 0, False, True),
                                         (0, 0, True, False), (Fraction(1, 2), 0, True, True),
                                         (to.Point(1, 3), to.Point(1, 3), False, False)]:
        with pytest.raises(ValueError):
            Interval(lo, hi, lo_closed, hi_closed)
