"""Change partitions, well-orderedness, and common refinements (meets)."""

import itertools
import random
from fractions import Fraction

import pytest

from totime import timeorder as to
from totime.errors import (
    DomainMismatchError,
    EmptyFamilyError,
    PointNotInDomainError,
    StartMismatchError,
)
from totime.histories import PiecewiseHistory
from totime.partitions import (
    HARMONIC_ASCENDING,
    HARMONIC_DESCENDING,
    OrderedPartition,
    RuleFamily,
    block_leq,
    change_partition,
    is_well_ordered,
    meet2,
    meetN,
    partition_from_blocks,
    refines,
)
from totime.timeorder import DenseInterval, FiniteChain, Interval

UNIT = DenseInterval(0, 1)


def random_chain_history(rng, size, n_actions=2):
    domain = FiniteChain(size)
    actions = [str(k) for k in range(n_actions)]
    pieces = [(Interval(t, t), rng.choice(actions)) for t in range(size)]
    return PiecewiseHistory.build(domain, ("p1",), {"p1": pieces})


def random_dense_history(rng, n_cuts=3):
    cuts = sorted({Fraction(rng.randrange(1, 64), 64) for _ in range(n_cuts)})
    bounds = [Fraction(0)] + cuts + [Fraction(1)]
    pieces = []
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        last = b == 1
        pieces.append((Interval(a, b, True, last), str(rng.randrange(3))))
    return PiecewiseHistory.build(UNIT, ("p1",), {"p1": pieces})


def test_block_order_is_interval_order():
    a = Interval(0, Fraction(1, 2), True, False)
    b = Interval(Fraction(1, 2), 1)
    assert block_leq(a, b) and block_leq(a, a)
    assert not block_leq(b, a)


def test_change_partition_blocks_are_maximal_constant_runs():
    h = PiecewiseHistory.build(UNIT, ("p1",), {"p1": [
        (Interval(0, Fraction(1, 2), True, False), "a"),
        (Interval(Fraction(1, 2), Fraction(1, 2)), "b"),
        (Interval(Fraction(1, 2), 1, False, True), "a"),
    ]})
    part = change_partition(h, "p1", Fraction(0))
    assert len(part.blocks) == 3
    assert part.blocks[1].is_singleton
    # restricting after the cut drops earlier material
    tail = change_partition(h, "p1", Fraction(3, 4))
    assert tail.blocks[0].lo == Fraction(3, 4)


def brute_force_partition(values):
    """Maximal constant runs of a chain map, by scanning — the oracle."""
    runs = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            runs.append((start, i - 1))
            start = i
    return runs


def test_change_partition_matches_chain_brute_force():
    rng = random.Random(5)
    for _ in range(200):
        size = rng.randrange(1, 7)
        h = random_chain_history(rng, size)
        values = [h.eval_player("p1", t) for t in range(size)]
        part = change_partition(h, "p1", 0)
        got = [(b.lo, b.hi) for b in part.blocks]
        assert got == brute_force_partition(values)


def connected_subsets(size):
    for lo in range(size):
        for hi in range(lo, size):
            yield lo, hi


def test_blocks_are_exactly_the_maximal_constant_connected_subsets():
    """A block is a connected subset that is constant and cannot be
    extended while staying constant — checked against all candidates."""
    rng = random.Random(6)
    for _ in range(100):
        size = rng.randrange(1, 6)
        h = random_chain_history(rng, size)
        values = [h.eval_player("p1", t) for t in range(size)]
        part = change_partition(h, "p1", 0)
        blocks = {(b.lo, b.hi) for b in part.blocks}
        for lo, hi in connected_subsets(size):
            constant = len({values[t] for t in range(lo, hi + 1)}) == 1
            left_ext = lo > 0 and values[lo - 1] == values[lo]
            right_ext = hi < size - 1 and values[hi + 1] == values[hi]
            maximal = constant and not left_ext and not right_ext
            assert ((lo, hi) in blocks) == maximal


def test_partition_invariants_random_dense():
    rng = random.Random(7)
    for _ in range(100):
        h = random_dense_history(rng)
        part = change_partition(h, "p1", Fraction(0))
        # disjoint cover, totally ordered by the block order
        for a, b in zip(part.blocks, part.blocks[1:]):
            assert to.intersect(a, b) is None
            assert block_leq(a, b) and not block_leq(b, a)
        assert part.blocks[0].lo == 0
        assert part.blocks[-1].hi == 1


def test_harmonic_families():
    desc = RuleFamily(HARMONIC_DESCENDING)
    asc = RuleFamily(HARMONIC_ASCENDING)
    assert desc.block(1) == Interval(Fraction(1, 2), 1, False, True)
    assert asc.block(1) == Interval(0, Fraction(1, 2), True, False)
    r1 = is_well_ordered(desc)
    assert not r1.well_ordered and r1.method == "analytic"
    assert r1.witness is not None
    r2 = is_well_ordered(asc)
    assert r2.well_ordered and r2.method == "analytic"


def test_finite_partitions_report_well_ordered():
    part = partition_from_blocks(UNIT, Fraction(0), [
        Interval(0, Fraction(1, 2), True, False),
        Interval(Fraction(1, 2), 1),
    ])
    rep = is_well_ordered(part)
    assert rep.well_ordered and rep.method == "finite"


def brute_meet(parts):
    """Common refinement via explicit choice functions over the family."""
    domain = parts[0].domain
    out = []
    for combo in itertools.product(*[p.blocks for p in parts]):
        inter = combo[0]
        for block in combo[1:]:
            if inter is None:
                break
            inter = to.intersect(inter, block)
        if inter is not None:
            out.append(inter)
    out.sort(key=lambda iv: (iv.lo, not iv.lo_closed))
    return tuple(out)


def random_partition(rng, start=Fraction(0)):
    cuts = sorted({Fraction(rng.randrange(1, 32), 32) for _ in range(rng.randrange(0, 4))})
    cuts = [c for c in cuts if c > start]
    bounds = [start] + cuts + [Fraction(1)]
    blocks = []
    for a, b in zip(bounds, bounds[1:]):
        blocks.append(Interval(a, b, True, b == 1))
    return partition_from_blocks(UNIT, start, blocks)


def test_meet2_matches_choice_function_brute_force():
    rng = random.Random(8)
    for _ in range(200):
        p, q = random_partition(rng), random_partition(rng)
        m = meet2(p, q)
        assert m.blocks == brute_meet([p, q])
        assert refines(m, p) and refines(m, q)
        assert is_well_ordered(m).well_ordered


def test_meetN_matches_brute_force_and_folds():
    rng = random.Random(9)
    for _ in range(100):
        parts = [random_partition(rng) for _ in range(3)]
        m = meetN(parts)
        assert m.blocks == brute_meet(parts)
    with pytest.raises(EmptyFamilyError):
        meetN([])


def test_meet_requires_same_start():
    p = random_partition(random.Random(1))
    q = random_partition(random.Random(2), start=Fraction(1, 32))
    with pytest.raises(StartMismatchError):
        meet2(p, q)


def test_meet_names_the_domains_when_they_differ():
    def chain(size):
        return partition_from_blocks(FiniteChain(size), 0, [Interval(0, size - 1)])

    with pytest.raises(DomainMismatchError,
                       match="^meet of partitions over the chain of size 6 "
                             "and the chain of size 7$"):
        meet2(chain(6), chain(7))
    half = partition_from_blocks(DenseInterval(0, Fraction(1, 2)), 0,
                                 [Interval(0, Fraction(1, 2))])
    with pytest.raises(DomainMismatchError, match=r"^meet of partitions over \[0, 1/2\] "
                                                  r"and the chain of size 6$"):
        meet2(half, chain(6))
    # domains are compared first, so different starts on different domains
    # still name the domains
    late = partition_from_blocks(FiniteChain(7), 1, [Interval(1, 6)])
    with pytest.raises(DomainMismatchError, match="size 6 and the chain of size 7$"):
        meet2(chain(6), late)
    with pytest.raises(StartMismatchError, match="^meet of partitions with starts 0 and 1$"):
        meet2(chain(7), late)


def test_meet_is_commutative_associative_idempotent():
    rng = random.Random(10)
    for _ in range(50):
        p, q, r = (random_partition(rng) for _ in range(3))
        assert meet2(p, q).blocks == meet2(q, p).blocks
        assert meet2(meet2(p, q), r).blocks == meet2(p, meet2(q, r)).blocks
        assert meet2(p, p).blocks == p.blocks


def test_partition_start_must_lie_in_the_domain():
    with pytest.raises(PointNotInDomainError):
        partition_from_blocks(UNIT, Fraction(2), [Interval(0, 1)])
