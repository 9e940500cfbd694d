"""Change partitions, the block order, well-orderedness, and partition meets.

A change partition splits the subgame times into maximal connected blocks
on which one player's action is constant.  Blocks of any such partition
are totally ordered by the block order (S <= R iff S = R or every time in
S precedes every time in R); finite partitions are trivially well-ordered,
so genuine well-order failures live in the synthetic infinite rule
families used as checker fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DomainMismatchError, EmptyFamilyError, StartMismatchError, UnknownNameError
from . import timeorder as to
from .histories import PiecewiseHistory, canonical_pieces
from .timeorder import Interval, TimeDomain, TimePoint


def block_leq(s: Interval, r: Interval) -> bool:
    """Block order: S <= R iff S = R or every point of S precedes every point of R."""
    return s == r or to.strictly_precedes(s, r)


@dataclass(frozen=True)
class OrderedPartition:
    """A finite partition of the subgame times T^start, sorted by block order."""

    domain: TimeDomain
    start: TimePoint
    blocks: tuple[Interval, ...]

    def to_json(self) -> dict:
        return {
            "start": to.format_point(self.start),
            "blocks": [b.to_json() for b in self.blocks],
        }


def partition_from_blocks(
    domain: TimeDomain, start: TimePoint, blocks: Sequence[Interval]
) -> OrderedPartition:
    """Validate that the blocks tile T^start and sort them by block order."""
    cover = to.from_t(domain, to.require_point(domain, start))
    tagged = [(b, str(i)) for i, b in enumerate(blocks)]
    # reuse the coverage validator; distinct tags disable run merging
    tiled = canonical_pieces(domain, tagged, cover)
    return OrderedPartition(domain, start, tuple(iv for iv, _ in tiled))


def change_partition(h: PiecewiseHistory, player: str, t: TimePoint) -> OrderedPartition:
    """Maximal connected blocks of T^t on which the player's action is constant."""
    to.require_point(h.domain, t)
    window = to.from_t(h.domain, t)
    inside = [(cut, a) for iv, a in h.pieces_for(player)
              if (cut := to.intersect(iv, window)) is not None]
    pieces = canonical_pieces(h.domain, inside, window)
    return OrderedPartition(h.domain, t, tuple(iv for iv, _ in pieces))


HARMONIC_DESCENDING = "harmonic_descending"
HARMONIC_ASCENDING = "harmonic_ascending"


@dataclass(frozen=True)
class RuleFamily:
    """A countably infinite partition of [0, 1] given by a closed-form rule.

    harmonic_descending: blocks (1/(n+1), 1/n] for n >= 1, plus {0}.
    harmonic_ascending:  blocks [1 - 1/n, 1 - 1/(n+1)) for n >= 1, plus {1}.
    Test fixtures for the well-order checker; never produced by the engine.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in (HARMONIC_DESCENDING, HARMONIC_ASCENDING):
            raise UnknownNameError(f"unknown rule family {self.kind!r}")

    def block(self, n: int) -> Interval:
        if n < 1:
            raise ValueError("rule family blocks are indexed from 1")
        if self.kind == HARMONIC_DESCENDING:
            return Interval(Fraction(1, n + 1), Fraction(1, n), False, True)
        return Interval(1 - Fraction(1, n), 1 - Fraction(1, n + 1), True, False)


@dataclass(frozen=True)
class WellOrderReport:
    well_ordered: bool
    method: str  # "finite" | "analytic"
    witness: Optional[dict] = None


def is_well_ordered(p: Union[OrderedPartition, RuleFamily], probe: int = 100) -> WellOrderReport:
    """Decide well-orderedness of a partition under the block order.

    Finite partitions are well-ordered outright.  For rule families the
    verdict is analytic, backed by a probe of the first `probe` blocks; a
    negative verdict carries a witness subfamily with no minimum block.
    """
    if isinstance(p, OrderedPartition):
        return WellOrderReport(True, "finite")
    if p.kind == HARMONIC_ASCENDING:
        # blocks are indexed by n in increasing block order; any nonempty
        # subfamily's least index yields its minimum
        for n in range(1, probe):
            assert to.strictly_precedes(p.block(n), p.block(n + 1))
        return WellOrderReport(True, "analytic")
    # descending: the subfamily of all rule blocks (anchor excluded) has
    # infimum 0 but no minimal block
    for n in range(1, probe):
        assert to.strictly_precedes(p.block(n + 1), p.block(n))
    witness = {
        "subfamily": "all blocks (1/(n+1), 1/n], n >= 1",
        "reason": "block(n+1) < block(n) for every n; no earliest block",
        "probe_blocks": [p.block(n).to_json() for n in range(1, 6)],
    }
    return WellOrderReport(False, "analytic", witness)


def _domain_text(d: TimeDomain) -> str:
    return (f"the chain of size {d.size}" if to.is_chain(d)
            else f"[{to.format_point(d.lo)}, {to.format_point(d.hi)}]")


def meet2(p: OrderedPartition, q: OrderedPartition) -> OrderedPartition:
    """Coarsest common refinement of two partitions of the same subgame:
    the nonempty pairwise intersections, in block order, by one merge."""
    if p.domain != q.domain:
        raise DomainMismatchError(f"meet of partitions over {_domain_text(p.domain)} "
                                  f"and {_domain_text(q.domain)}")
    if p.start != q.start:
        raise StartMismatchError(f"meet of partitions with starts {p.start!r} and {q.start!r}")
    cuts = tuple(cut for _, _, cut in to.overlaps(p.blocks, q.blocks))
    return OrderedPartition(p.domain, p.start, cuts)


def meetN(parts: Sequence[OrderedPartition]) -> OrderedPartition:
    """Left fold of meet2 over a nonempty finite family."""
    if not parts:
        raise EmptyFamilyError("meet of an empty family of partitions")
    acc = parts[0]
    for nxt in parts[1:]:
        acc = meet2(acc, nxt)
    return acc


def refines(fine: OrderedPartition, coarse: OrderedPartition) -> bool:
    """Every block of `fine` lies inside exactly one block of `coarse`.

    The coarse blocks are disjoint, so that holds when each fine block
    equals its cut with every coarse block it meets, which it then meets
    alone, and the merge yields one cut per fine block.
    """
    cuts = [(i, cut) for i, _, cut in to.overlaps(fine.blocks, coarse.blocks)]
    return len(cuts) == len(fine.blocks) and all(cut == fine.blocks[i] for i, cut in cuts)
