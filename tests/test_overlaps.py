"""The one merge of two sorted interval lists, against all-pairs references.

`timeorder.overlaps` is the only pairwise walk over two piece or block
lists in the engine: `partitions.meet2`, `partitions.refines` and
`axioms.disagreement_set` all run on it.  The all-pairs loops they
replaced stay here as the references of the differential tests, over
chain and dense tilings of shifted, negative and non-unit domains with
instants and open and closed ends.  The guards count `intersect` calls
and run axiom 3 on two 12,800-piece histories under a time cap that the
all-pairs loop, about 1.9 s at 1,600 pieces and quadratic, cannot meet.
"""

import contextlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from totime import timeorder as to
from totime.axioms import check_initial_uniqueness, disagreement_set
from totime.histories import PiecewiseHistory
from totime.partitions import meet2, partition_from_blocks, refines
from totime.timeorder import DenseInterval, FiniteChain, Interval

DOMAINS = [
    FiniteChain(1), FiniteChain(2), FiniteChain(7),
    DenseInterval(0, 1), DenseInterval(-1, 2), DenseInterval(Fraction(-7, 3), Fraction(-1, 2)),
    DenseInterval(3, Fraction(13, 2)),
]
ACTIONS = ["a", "b", "c"]


# -- the all-pairs references --------------------------------------------------


def all_pairs_meet(p, q):
    """Every nonempty pairwise intersection, sorted by time."""
    cuts = [cut for a in p.blocks for b in q.blocks if (cut := to.intersect(a, b)) is not None]
    return tuple(sorted(cuts, key=lambda iv: (iv.lo, not iv.lo_closed)))


def all_pairs_refines(fine, coarse):
    for b in fine.blocks:
        holders = [c for c in coarse.blocks if to.contains_interval(c, b)]
        if len(holders) != 1:
            return False
    return True


def all_pairs_disagreement(h, g, player=None):
    out = []
    for i in range(len(h.players)):
        if player is not None and h.players[i] != player:
            continue
        for iv, a in h.per_player[i]:
            for jv, b in g.per_player[i]:
                if a != b:
                    out.append(to.intersect(iv, jv))
    return to.make_interval_set(h.domain, out)


# -- generated tilings ---------------------------------------------------------


@st.composite
def tilings(draw, domain, start):
    """Sorted disjoint intervals covering the times of the domain from start."""
    top = domain.top
    if to.is_chain(domain):
        cuts = sorted(draw(st.sets(st.integers(start + 1, top), max_size=4))) if start < top else []
        bounds = [start, *cuts, top + 1]
        return [Interval(a, b - 1) for a, b in zip(bounds, bounds[1:])]
    if start == top:
        return [to.singleton(top)]
    steps = sorted(draw(st.sets(st.integers(1, 11), max_size=4)))
    out, lo, lo_closed = [], start, True
    if draw(st.booleans()):  # an instant at the start
        out.append(to.singleton(start))
        lo_closed = False
    for x in [start + (top - start) * Fraction(k, 12) for k in steps]:
        end = draw(st.sampled_from(["left", "right", "instant"]))
        out.append(to.make_interval(domain, lo, x, lo_closed, end == "left"))
        if end == "instant":
            out.append(to.singleton(x))
        lo, lo_closed = x, end == "right"
    if draw(st.booleans()):  # an instant at the top
        out += [to.make_interval(domain, lo, top, lo_closed, False), to.singleton(top)]
    else:
        out.append(to.make_interval(domain, lo, top, lo_closed, True))
    return out


@st.composite
def starts(draw, domain):
    if to.is_chain(domain):
        return draw(st.integers(0, domain.top))
    k = draw(st.sampled_from([0, 0, 1, 5, 12]))
    return to.as_point(domain.lo + (domain.hi - domain.lo) * Fraction(k, 12))


@st.composite
def partition_pairs(draw):
    """Two partitions of one domain, from one start or (sometimes) two."""
    domain = draw(st.sampled_from(DOMAINS))
    s = draw(starts(domain))
    s2 = draw(starts(domain)) if draw(st.booleans()) else s
    p = partition_from_blocks(domain, s, draw(tilings(domain, s)))
    q = partition_from_blocks(domain, s2, draw(tilings(domain, s2)))
    return p, q


@st.composite
def history_pairs(draw):
    """Two histories of one game: equal, one with some actions changed, or
    drawn apart."""
    domain = draw(st.sampled_from(DOMAINS))
    players = ("p1", "p2")[:draw(st.integers(1, 2))]

    def history():
        return PiecewiseHistory.build(domain, players, {
            p: [(iv, draw(st.sampled_from(ACTIONS)))
                for iv in draw(tilings(domain, domain.min))]
            for p in players})

    h = history()
    how = draw(st.sampled_from(["equal", "changed", "apart"]))
    if how == "equal":
        return h, h
    if how == "apart":
        return h, history()
    return h, PiecewiseHistory.build(domain, players, {
        p: [(iv, draw(st.sampled_from(ACTIONS)) if draw(st.booleans()) else a)
            for iv, a in h.pieces_for(p)]
        for p in players})


@contextlib.contextmanager
def counting_intersect():
    """Count timeorder.intersect calls, the merge's only comparison of pairs."""
    calls = [0]
    real = to.intersect

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    to.intersect = counted
    try:
        yield calls
    finally:
        to.intersect = real


# -- differential tests and call-count guards ----------------------------------


@settings(max_examples=300, deadline=None)
@given(partition_pairs())
def test_meet2_and_refines_match_all_pairs(pair):
    p, q = pair
    for fine, coarse in [(p, q), (q, p), (p, p)]:
        with counting_intersect() as calls:
            got = refines(fine, coarse)
        assert got == all_pairs_refines(fine, coarse)
        assert calls[0] <= len(fine.blocks) + len(coarse.blocks)
    if p.start != q.start:
        return
    with counting_intersect() as calls:
        m = meet2(p, q)
    assert calls[0] <= len(p.blocks) + len(q.blocks)
    assert m.blocks == all_pairs_meet(p, q)
    assert refines(m, p) and refines(m, q)
    assert refines(p, m) == all_pairs_refines(p, m)


@settings(max_examples=300, deadline=None)
@given(history_pairs())
def test_disagreement_set_matches_all_pairs(pair):
    h, g = pair
    for player in (None, *h.players):
        with counting_intersect() as calls:
            got = disagreement_set(h, g, player)
        assert got == all_pairs_disagreement(h, g, player)
        named = [i for i, p in enumerate(h.players) if player in (None, p)]
        assert calls[0] <= sum(len(h.per_player[i]) + len(g.per_player[i]) for i in named)
    assert disagreement_set(h, h).is_empty


def alternating(domain, k, odd_at=None):
    """k pieces cycling a, b on the dense domain; piece odd_at plays c."""
    cuts = [domain.lo + (domain.hi - domain.lo) * Fraction(i, k) for i in range(k + 1)]
    pieces = [(to.make_interval(domain, cuts[i], cuts[i + 1], True, i == k - 1),
               "c" if i == odd_at else "ab"[i % 2]) for i in range(k)]
    return PiecewiseHistory.build(domain, ("p1",), {"p1": pieces})


def test_initial_uniqueness_is_linear_in_pieces(within):
    domain = DenseInterval(-1, 2)
    k = 12_800
    h, g = alternating(domain, k), alternating(domain, k, odd_at=k - 2)
    with counting_intersect() as calls:
        rep = within(5, check_initial_uniqueness, "p1", domain.lo, h, g)
    assert calls[0] <= 2 * k
    assert rep.passed is True
    (piece,) = rep.witness["disagreement"]
    assert (piece["lo"], piece["hi"]) == (to.format_point(domain.hi - Fraction(6, k)),
                                          to.format_point(domain.hi - Fraction(3, k)))
