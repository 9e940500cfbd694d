"""Time domains, points, intervals, and exact order-theoretic queries.

Two domain shapes are supported: a finite chain ``{0, 1, ..., n-1}`` of
integer indices (discrete, well-ordered time) and a closed rational
interval ``[lo, hi]`` (dense, complete time).  All coordinates are exact:
chain points are ``int``, dense points are ``Point``.  No floating point
enters any comparison, infimum, or supremum.

``Point`` is a ``Fraction`` with the same value, hash, ``str`` and
``repr``, whose comparisons and ``+ - * /`` take exact fast paths for
``Point``, ``Fraction`` and ``int`` operands instead of the generic
``numbers.Rational`` dispatch; the solver and the axiom walks mostly
compare points.  Every dense point is made a ``Point`` where it enters
the engine (``point_from_json``, ``DenseInterval``, ``make_interval`` and
the strategy constructors), so callers may still pass ``int`` or ``Fraction``.

``_point`` and ``_interval`` are trusted constructors for hot paths: they
build a ``Point`` or an ``Interval`` from parts the caller has just shown
valid (coprime terms; a nonempty interval) without normalising or
validating.  The public ``Interval(...)`` always validates.

``parse_rational`` is the one reader of exact rational literals in spec,
history and partition documents and on the command line.

Dense points are often dyadic, and the hashes of dyadic rationals collide
(``hash((2**k - 1) / 2**k)`` repeats with period 61 in k), so hot paths
must not key dicts or sets by point value.  Exact ordering comparisons
of such points are also far dearer than equality tests, which is why
``_try_union`` tests adjacency first; when both denominators are big and
one divides the other, ``Point`` orders them by one division instead of
two big products.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import EmptySetError, PointNotInDomainError, SchemaError


_new = object.__new__
_set = object.__setattr__


def _point(n: int, d: int) -> "Point":
    """The Point n/d for coprime n and d > 0, without normalising."""
    p = _new(Point)
    p._numerator = n
    p._denominator = d
    return p


# The kernels reduce as Fraction's _add, _mul and _div do, so their results
# equal Fraction's; an int operand n enters as n/1.


def _add(na: int, da: int, nb: int, db: int) -> "Point":
    g = gcd(da, db)
    if g == 1:
        return _point(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _point(t, s * db)
    return _point(t // g2, s * (db // g2))


def _sub(na: int, da: int, nb: int, db: int) -> "Point":
    return _add(na, da, -nb, db)


def _mul(na: int, da: int, nb: int, db: int) -> "Point":
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _point(na * nb, db * da)


def _div(na: int, da: int, nb: int, db: int) -> "Point":
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({na * db}, 0)")
    if nb < 0:
        nb, db = -nb, -db
    return _mul(na, da, db, nb)


def _as_result(r):
    """A rational result of Fraction's own arithmetic, as a Point."""
    return _point(r._numerator, r._denominator) if type(r) is Fraction else r


def _arithmetic(kernel, forward_fallback, reverse_fallback):
    """a op b and b op a for a Point a: `kernel` for Point, Fraction and int
    operands, Fraction's own methods for any other."""

    def forward(a, b):
        tb = type(b)
        if tb is Point or tb is Fraction:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if tb is int:
            return kernel(a._numerator, a._denominator, b, 1)
        return _as_result(forward_fallback(a, b))

    def reverse(a, b):
        tb = type(b)
        if tb is Point or tb is Fraction:
            return kernel(b._numerator, b._denominator, a._numerator, a._denominator)
        if tb is int:
            return kernel(b, 1, a._numerator, a._denominator)
        return _as_result(reverse_fallback(a, b))

    return forward, reverse


# Past this size a division with a small quotient costs less than a big
# product; below it comparisons cross-multiply whatever the denominators.
_BIG = 1 << 256


def _ordering(op, fallback):
    """a op b for a Point a: cross-multiplied for Point, Fraction and int
    operands (denominators are positive), Fraction's own method for any other.

    When both denominators pass _BIG and one divides the other, as the
    powers of one base that geometric accumulation makes always do, the
    other numerator is scaled by their quotient instead: a divmod and one
    product rather than two big products.
    """

    def compare(a, b):
        tb = type(b)
        if tb is Point or tb is Fraction:
            da, db = a._denominator, b._denominator
            if da > _BIG and db > _BIG:
                q, r = divmod(db, da) if da <= db else divmod(da, db)
                if not r:
                    return (op(a._numerator * q, b._numerator) if da <= db
                            else op(a._numerator, b._numerator * q))
            return op(a._numerator * db, b._numerator * da)
        if tb is int:
            return op(a._numerator, b * a._denominator)
        return fallback(a, b)

    return compare


class Point(Fraction):
    """An exact dense time point.

    Equal in value, hash, ``str`` and ``repr`` to the ``Fraction`` it
    holds.  Comparisons, ``+ - * /`` (both ways) and negation with a
    ``Point``, ``Fraction`` or ``int`` operand work on the numerators and
    denominators directly, and the arithmetic returns a ``Point``; any
    other operand (``bool``, ``float``, ``Decimal``, ...) gets
    ``Fraction``'s own method.  Other operators are inherited and return
    a plain ``Fraction``.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    # defining __eq__ would otherwise set __hash__ to None
    __hash__ = Fraction.__hash__

    def __eq__(a, b):
        tb = type(b)
        if tb is Point or tb is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if tb is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __ne__(a, b):
        tb = type(b)
        if tb is Point or tb is Fraction:
            return a._numerator != b._numerator or a._denominator != b._denominator
        if tb is int:
            return a._numerator != b or a._denominator != 1
        return Fraction.__ne__(a, b)

    __lt__ = _ordering(operator.lt, Fraction.__lt__)
    __le__ = _ordering(operator.le, Fraction.__le__)
    __gt__ = _ordering(operator.gt, Fraction.__gt__)
    __ge__ = _ordering(operator.ge, Fraction.__ge__)

    __add__, __radd__ = _arithmetic(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _arithmetic(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _arithmetic(_mul, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _arithmetic(_div, Fraction.__truediv__,
                                            Fraction.__rtruediv__)

    def __neg__(a):
        return _point(-a._numerator, a._denominator)


TimePoint = Union[int, Point]


def as_point(t) -> Point:
    """t (an int, Fraction or Point) as a Point."""
    return t if type(t) is Point else Point(t)


def format_point(t: TimePoint) -> str:
    """Render a time point, or any exact rational, as an exact decimal-free
    string ("3", "1/2").

    Exact at any size: str() of an int past Python's 4,300-digit
    conversion limit raises, so such a point is rendered through Decimal,
    which is exact for integers and has no such limit.
    """
    try:
        return str(t)
    except ValueError:
        n, d = Decimal(t.numerator), Decimal(t.denominator)
        return str(n) if d == 1 else f"{n}/{d}"


# The most digits plus exponent a rational literal may have: Python's default
# limit on int <-> str conversion, so every value read prints back and no
# huge power of ten is ever built.
MAX_DIGITS = 4300

_RATIONAL = re.compile(r"\s*([-+]?)(?=[0-9]|\.[0-9])([0-9]*)"
                       r"(?:/(0*[1-9][0-9]*)|(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?)\s*")


def parse_rational(value, path: str, integer: bool = False) -> TimePoint:
    """The exact rational a JSON value spells, as a Point: a string such as
    "1/2", "-3", "0.25" or "1e-9", or a JSON number; with integer=True,
    the int an integral one spells.

    Anything else raises SchemaError naming `path`, the value's place in
    the document: so does a zero denominator, and a literal whose digits
    plus exponent pass MAX_DIGITS, which is refused before any integer is
    built (it bounds the digits of the numerator and the denominator).
    """
    text = str(value)
    kind = "an integer" if integer else "an exact rational"
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise SchemaError(path, f"{value!r} is not {kind}")
    sign, num, den, dec, exp = m.groups("")
    shift = -len(dec)
    if exp:  # int() counts leading zeros; six exponent digits already pass MAX_DIGITS
        shift += int(exp.lstrip("+-").lstrip("0")[:6] or 0) * (-1 if exp[0] == "-" else 1)
    if len(num) + len(den) + len(dec) + abs(shift) > MAX_DIGITS:
        raise SchemaError(path, f"{text[:40]!r} has more than {MAX_DIGITS} digits "
                                f"counting the exponent")
    n, d = int(sign + num + dec) * 10**max(shift, 0), int(den or 1) * 10**max(-shift, 0)
    g = gcd(n, d)
    if not integer:
        return _point(n // g, d // g)
    if d != g:
        raise SchemaError(path, f"{value!r} is not {kind}")
    return n // g


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

    lo: Point
    hi: Point

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))
        if not self.lo < self.hi:
            raise ValueError("DenseInterval needs lo < hi")

    @property
    def min(self) -> Point:
        return self.lo

    @property
    def top(self) -> Point:
        return self.hi

    def contains(self, t: TimePoint) -> bool:
        if isinstance(t, bool):
            return False
        return isinstance(t, (int, Fraction)) and self.lo <= t <= self.hi


TimeDomain = Union[FiniteChain, DenseInterval]


def is_chain(domain: TimeDomain) -> bool:
    return isinstance(domain, FiniteChain)


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


def _interval(lo: TimePoint, hi: TimePoint, lo_closed: bool, hi_closed: bool) -> Interval:
    """The Interval of these fields without __init__ or __post_init__, for
    callers that have just shown it nonempty; equal, hashed, printed and
    pickled like Interval(lo, hi, lo_closed, hi_closed).  Setting the
    fields one by one keeps the compact instance dict of Interval(...)."""
    iv = _new(Interval)
    _set(iv, "lo", lo)
    _set(iv, "hi", hi)
    _set(iv, "lo_closed", lo_closed)
    _set(iv, "hi_closed", hi_closed)
    return iv


def point_from_json(obj: dict, key: str, domain: TimeDomain, path: str,
                    memo: Optional[dict] = None) -> TimePoint:
    """obj[key] as a point of the domain; a missing or malformed one raises
    SchemaError naming `path`, the key's place in the document.  A string
    is parsed once per `memo`, a dict from the strings read so far."""
    if key not in obj:
        raise SchemaError(path, "missing")
    value = obj[key]
    if memo is None or type(value) is not str:
        return parse_rational(value, path, integer=is_chain(domain))
    t = memo.get(value)
    if t is None:
        t = memo[value] = parse_rational(value, path, integer=is_chain(domain))
    return t


def interval_from_json(obj: dict, domain: TimeDomain, path: str = "$",
                       memo: Optional[dict] = None) -> Interval:
    """Parse {"lo", "hi", "lo_closed", "hi_closed"}; a malformed or empty
    interval raises SchemaError naming `path`, its place in the document.
    `memo` is point_from_json's."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "interval must be an object")
    lo = point_from_json(obj, "lo", domain, f"{path}.lo", memo)
    hi = point_from_json(obj, "hi", domain, f"{path}.hi", memo)
    for key in ("lo_closed", "hi_closed"):  # JSON booleans; a missing flag is closed
        if not isinstance(obj.get(key, True), bool):
            raise SchemaError(f"{path}.{key}", f"{obj[key]!r} is not a boolean")
    iv = make_interval(domain, lo, hi, obj.get("lo_closed", True), obj.get("hi_closed", True))
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
        return _interval(int(lo), int(hi), True, True)
    lo = as_point(lo)
    hi = as_point(hi)
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return _interval(lo, hi, lo_closed, hi_closed)


def full_interval(domain: TimeDomain) -> Interval:
    return _interval(domain.min, domain.top, True, True)


def singleton(t: TimePoint) -> Interval:
    return _interval(t, t, True, True)


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
    return _interval(lo, hi, lo_closed, hi_closed)


def overlaps(xs: Sequence[Interval], ys: Sequence[Interval]) -> Iterator[tuple[int, int, Interval]]:
    """Each (i, j, xs[i] ∩ ys[j]) that is nonempty, in time order, for two
    lists of disjoint intervals sorted by time.

    A two-pointer merge: after each pair it drops whichever interval ends
    first, which meets no later interval of the other list, so it calls
    intersect at most len(xs) + len(ys) - 1 times.
    """
    i = j = 0
    while i < len(xs) and j < len(ys):
        a, b = xs[i], ys[j]
        cut = intersect(a, b)
        if cut is not None:
            yield i, j, cut
        if a.hi < b.hi or (a.hi == b.hi and (not a.hi_closed or b.hi_closed)):
            i += 1
        else:
            j += 1


def strictly_precedes(a: Interval, b: Interval) -> bool:
    """True iff every point of a is strictly below every point of b."""
    if a.hi < b.lo:
        return True
    if a.hi == b.lo:
        return not (a.hi_closed and b.lo_closed)
    return False


def abuts(domain: TimeDomain, a: Interval, b: Interval) -> bool:
    """True iff a ends exactly where b begins: disjoint with no gap."""
    if isinstance(domain, FiniteChain):  # is_chain, inline: a merge asks at every event
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
        return _interval(a.lo, b.hi, a.lo_closed, b.hi_closed)
    if abuts(domain, b, a):
        return _interval(b.lo, a.hi, b.lo_closed, a.hi_closed)
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
    return _interval(lo, hi, lo_closed, hi_closed)


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
