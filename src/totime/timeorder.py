"""Time domains, points, intervals, and exact order-theoretic queries.

Two domain shapes are supported: a finite chain ``{0, 1, ..., n-1}`` of
integer indices (discrete, well-ordered time) and a closed rational
interval ``[lo, hi]`` (dense, complete time).  All coordinates are exact:
chain points are ``int``, dense points are ``fractions.Fraction``.  No
floating point enters any comparison, infimum, or supremum.

Dense points are often dyadic, and the hashes of dyadic rationals collide
(``hash((2**k - 1) / 2**k)`` repeats with period 61 in k), so hot paths
must not key dicts or sets by point value; ``PiecewiseHistory.change_times``
and ``axioms._sampled_consistent`` still do.  Exact ordering comparisons
of such points are also far dearer than equality tests, which is why
``_try_union`` tests adjacency first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import EmptySetError, PointNotInDomainError, SchemaError

TimePoint = Union[int, Fraction]


def format_point(t: TimePoint) -> str:
    """Render a time point as an exact decimal-free string ("3", "1/2")."""
    return str(t)


def parse_point(text: str) -> Fraction:
    """Parse an exact rational string such as "1/2", "3", or "0.25"."""
    return Fraction(str(text))


@dataclass(frozen=True)
class FiniteChain:
    """Discrete time axis ``{0, ..., size-1}`` (well-ordered)."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("FiniteChain needs size >= 1")

    @property
    def min(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.size - 1

    def contains(self, t: TimePoint) -> bool:
        return isinstance(t, int) and not isinstance(t, bool) and 0 <= t < self.size

    def points(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class DenseInterval:
    """Continuous time axis ``[lo, hi]`` with rational, closed endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError("DenseInterval needs lo < hi")

    @property
    def min(self) -> Fraction:
        return self.lo

    @property
    def top(self) -> Fraction:
        return self.hi

    def contains(self, t: TimePoint) -> bool:
        if isinstance(t, bool):
            return False
        return isinstance(t, (int, Fraction)) and self.lo <= t <= self.hi


TimeDomain = Union[FiniteChain, DenseInterval]


def is_chain(domain: TimeDomain) -> bool:
    return isinstance(domain, FiniteChain)


def domain_min(domain: TimeDomain) -> TimePoint:
    """The least element of the domain."""
    return domain.min


def domain_top(domain: TimeDomain) -> TimePoint:
    """The greatest element of the domain (both shapes are bounded)."""
    return domain.top


def require_point(domain: TimeDomain, t: TimePoint) -> TimePoint:
    if not domain.contains(t):
        raise PointNotInDomainError(f"time {t!r} not in domain {domain!r}")
    return t


@dataclass(frozen=True)
class Interval:
    """A nonempty order-convex subset of the domain.

    Chain intervals are kept in canonical closed form with ``int``
    endpoints; dense intervals may be open or closed on either side.
    A singleton is ``lo == hi`` with both ends closed.
    """

    lo: TimePoint
    hi: TimePoint
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo < self.hi:
            return
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both ends")

    def contains(self, t: TimePoint) -> bool:
        if self.lo < t < self.hi:
            return True
        # a degenerate interval is closed on both ends, so lo_closed decides t == lo
        if t == self.lo:
            return self.lo_closed
        if t == self.hi:
            return self.hi_closed
        return False

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def to_json(self) -> dict:
        return {
            "lo": format_point(self.lo),
            "hi": format_point(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }


def _point_from_json(obj: dict, key: str, domain: TimeDomain, path: str) -> TimePoint:
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing")
    try:
        return int(str(obj[key])) if is_chain(domain) else parse_point(obj[key])
    except (ValueError, ZeroDivisionError):
        kind = "an integer" if is_chain(domain) else "an exact rational"
        raise SchemaError(f"{path}.{key}", f"{obj[key]!r} is not {kind}") from None


def interval_from_json(obj: dict, domain: TimeDomain, path: str = "$") -> Interval:
    """Parse {"lo", "hi", "lo_closed", "hi_closed"}; a malformed or empty
    interval raises SchemaError naming `path`, its place in the document."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "interval must be an object")
    lo = _point_from_json(obj, "lo", domain, path)
    hi = _point_from_json(obj, "hi", domain, path)
    iv = make_interval(
        domain, lo, hi, bool(obj.get("lo_closed", True)), bool(obj.get("hi_closed", True))
    )
    if iv is None:
        raise SchemaError(path, f"empty interval from {lo} to {hi}")
    return iv


def make_interval(
    domain: TimeDomain,
    lo: TimePoint,
    hi: TimePoint,
    lo_closed: bool = True,
    hi_closed: bool = True,
) -> Optional[Interval]:
    """Build an interval, normalizing chain endpoints to closed form.

    Returns None when the described set is empty.
    """
    if is_chain(domain):
        if not lo_closed:
            lo, lo_closed = lo + 1, True
        if not hi_closed:
            hi, hi_closed = hi - 1, True
        if lo > hi:
            return None
        return Interval(int(lo), int(hi), True, True)
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def full_interval(domain: TimeDomain) -> Interval:
    return Interval(domain.min, domain.top, True, True)


def singleton(t: TimePoint) -> Interval:
    return Interval(t, t, True, True)


def before(domain: TimeDomain, t: TimePoint) -> Optional[Interval]:
    """The set of times strictly below t, or None when t is the minimum."""
    if t == domain.min:
        return None
    return make_interval(domain, domain.min, t, True, False)


def at_or_before(domain: TimeDomain, t: TimePoint) -> Interval:
    return make_interval(domain, domain.min, t, True, True)


def from_t(domain: TimeDomain, t: TimePoint, include: bool = True) -> Optional[Interval]:
    """The subgame time set: all times >= t (or > t when include=False)."""
    if not include and t == domain.top:
        return None
    return make_interval(domain, t, domain.top, include, True)


def intersect(a: Interval, b: Interval) -> Optional[Interval]:
    """Exact intersection of two intervals; None when empty."""
    if a.lo > b.lo:
        lo, lo_closed = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lo_closed = b.lo, b.lo_closed
    else:
        lo, lo_closed = a.lo, a.lo_closed and b.lo_closed
    if a.hi < b.hi:
        hi, hi_closed = a.hi, a.hi_closed
    elif b.hi < a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed and b.hi_closed
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def strictly_precedes(a: Interval, b: Interval) -> bool:
    """True iff every point of a is strictly below every point of b."""
    if a.hi < b.lo:
        return True
    if a.hi == b.lo:
        return not (a.hi_closed and b.lo_closed)
    return False


def abuts(domain: TimeDomain, a: Interval, b: Interval) -> bool:
    """True iff a ends exactly where b begins: disjoint with no gap."""
    if is_chain(domain):
        return a.hi + 1 == b.lo
    return a.hi == b.lo and (a.hi_closed != b.lo_closed)


def contains_interval(outer: Interval, inner: Interval) -> bool:
    """True iff inner is a subset of outer."""
    lo_ok = outer.lo < inner.lo or (
        outer.lo == inner.lo and (outer.lo_closed or not inner.lo_closed)
    )
    hi_ok = outer.hi > inner.hi or (
        outer.hi == inner.hi and (outer.hi_closed or not inner.hi_closed)
    )
    return lo_ok and hi_ok


def _sort_key(iv: Interval):
    return (iv.lo, not iv.lo_closed, iv.hi, iv.hi_closed)


def _try_union(domain: TimeDomain, a: Interval, b: Interval) -> Optional[Interval]:
    """Union of two intervals when connected (overlapping or abutting).

    Abutting pieces, the common case when merging sorted stretches, are
    joined after one equality test and no ordering comparison.
    """
    if abuts(domain, a, b):
        return Interval(a.lo, b.hi, a.lo_closed, b.hi_closed)
    if abuts(domain, b, a):
        return Interval(b.lo, a.hi, b.lo_closed, a.hi_closed)
    if strictly_precedes(a, b) or strictly_precedes(b, a):
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


@dataclass(frozen=True)
class IntervalSet:
    """A canonical finite union of intervals: sorted, disjoint, non-adjacent."""

    pieces: tuple[Interval, ...]

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def contains(self, t: TimePoint) -> bool:
        return any(p.contains(t) for p in self.pieces)

    def to_json(self) -> list:
        return [p.to_json() for p in self.pieces]


def make_interval_set(domain: TimeDomain, intervals: Iterable[Optional[Interval]]) -> IntervalSet:
    """Canonicalize a collection of intervals into an IntervalSet.

    Overlapping or abutting pieces are merged; the result is idempotent
    under re-canonicalization.
    """
    items = sorted((iv for iv in intervals if iv is not None), key=_sort_key)
    merged: list[Interval] = []
    for iv in items:
        if merged:
            u = _try_union(domain, merged[-1], iv)
            if u is not None:
                merged[-1] = u
                continue
        merged.append(iv)
    return IntervalSet(tuple(merged))


def inf_set(domain: TimeDomain, s: IntervalSet) -> TimePoint:
    """Greatest lower bound of s within the domain (need not belong to s)."""
    if s.is_empty:
        raise EmptySetError("inf of empty interval set")
    return s.pieces[0].lo


def sup_set(domain: TimeDomain, s: IntervalSet) -> TimePoint:
    """Least upper bound of s within the domain."""
    if s.is_empty:
        raise EmptySetError("sup of empty interval set")
    return s.pieces[-1].hi


def successor(domain: TimeDomain, t: TimePoint) -> Optional[TimePoint]:
    """Least element above t when one exists (finite chains only)."""
    require_point(domain, t)
    if is_chain(domain):
        return t + 1 if t < domain.top else None
    return None
