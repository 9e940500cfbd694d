"""The dense time point type against plain `Fraction`, and its propagation.

`timeorder.Point` must behave exactly like the `Fraction` it holds, only
faster: every comparison, operator, hash, rendering and container use is
checked against plain `Fraction` on mixed int / Fraction / Point operands.
The guard then counts `Fraction`'s slow comparisons over dense solves and
checks; any parse boundary that lets a plain `Fraction` into the engine
makes that count non-zero.
"""

import bisect
import operator
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import timeorder as to
from totime.axioms import is_consistent
from totime.gamespec import build_profile, parse_spec
from totime.histories import empty_prefix
from totime.solver import UNIQUE, solve_dense, verify_unique
from totime.strategies import make_scripted
from totime.timeorder import Interval, Point

BIG = 2**1100  # event times of long Zeno solves reach about 1,234 bits

integers = st.integers(-12, 12) | st.integers(-BIG, BIG)
fractions = st.builds(Fraction, integers, st.integers(1, 12) | st.integers(1, BIG))
points = st.one_of(fractions.map(Point), integers.map(Point))
operands = st.one_of(integers, fractions, points)

COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


def plain(x):
    """The value as the standard library holds it: Point becomes Fraction."""
    return Fraction(x) if type(x) is Point else x


def outcome(op, x, y):
    try:
        return op(x, y)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=400, deadline=None)
@given(points, operands)
def test_operators_match_fraction(p, y):
    for a, b in ((p, y), (y, p)):
        pa, pb = plain(a), plain(b)
        for op in COMPARISONS:
            assert op(a, b) is op(pa, pb), op
        for op in ARITHMETIC:
            got, want = outcome(op, a, b), outcome(op, pa, pb)
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
                continue
            assert got == want and str(got) == str(want), op
            assert type(got) is Point, op
    for v in (p, y):
        pv = plain(v)
        assert -v == -pv and type(-v) is type(v)
        assert hash(v) == hash(pv)
        assert str(v) == str(pv) and repr(v) == repr(pv)


@settings(max_examples=150, deadline=None)
@given(st.lists(operands, min_size=1, max_size=12), operands)
def test_containers_match_fraction(xs, y):
    ps = [plain(x) for x in xs]
    assert min(xs) == min(ps) and max(xs) == max(ps)
    order = sorted(range(len(xs)), key=xs.__getitem__)
    assert order == sorted(range(len(ps)), key=ps.__getitem__)
    rows = [(xs[i], i) for i in order]
    plain_rows = [(ps[i], i) for i in order]
    for find in (bisect.bisect_left, bisect.bisect_right):
        assert find(rows, y, key=lambda r: r[0]) == find(plain_rows, plain(y),
                                                          key=lambda r: r[0])
    table = {x: i for i, x in enumerate(xs)}
    assert {p: table[p] for p in ps} == {x: table[plain(x)] for x in xs}
    for x in xs:
        back = pickle.loads(pickle.dumps(x))
        assert back == x and type(back) is type(x) and str(back) == str(x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(operands, st.booleans()))
def test_as_point_equals_the_point_constructor(x):
    got, want = to.as_point(x), Point(x)
    assert type(got) is Point and got == want and hash(got) == hash(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("other", [True, False, 0.5, -2.0, float("inf"),
                                   float("nan"), Decimal("0.25"), 1j])
def test_other_operands_get_fractions_own_methods(other):
    p = Point(1, 4)
    f = Fraction(1, 4)
    for op in COMPARISONS + ARITHMETIC:
        for a, b, pa, pb in ((p, other, f, other), (other, p, other, f)):
            try:
                want = op(pa, pb)
            except (TypeError, ZeroDivisionError) as e:
                with pytest.raises(type(e)):
                    op(a, b)
                continue
            got = op(a, b)
            assert str(got) == str(want) and type(got) in (type(want), Point)


# -- big points: ordering by the quotient of the denominators -------------------

PAST_GATE = 2**257  # both denominators past this take the divisibility test


@st.composite
def big_pairs(draw):
    """Two values whose denominators both pass the gate and are equal, one
    divides the other, or (almost always) neither; each numerator is
    coprime to its denominator, or zero, so the fractions keep them."""
    d = draw(st.integers(PAST_GATE, 2**700))
    m = draw(st.integers(1, 2**80))
    kind = draw(st.sampled_from(["equal", "a divides b", "b divides a", "unrelated"]))
    da, db = {"equal": (d, d), "a divides b": (d, d * m), "b divides a": (d * m, d),
              "unrelated": (d, draw(st.integers(PAST_GATE, 2**700)))}[kind]

    def value(den):
        if draw(st.integers(0, 9)) == 0:
            return Fraction(0)
        f = Fraction(1 + den * draw(st.integers(-2**40, 2**40)), den)
        assert f.denominator == den
        return f

    a, b = value(da), value(db)
    # Point against Point, and mixed Point / Fraction operands either way
    wrap = draw(st.sampled_from([(Point, Point), (Point, Fraction), (Fraction, Point)]))
    return wrap[0](a), wrap[1](b)


@settings(max_examples=400, deadline=None)
@given(big_pairs())
def test_big_point_ordering_matches_fraction(pair):
    a, b = pair
    pa, pb = plain(a), plain(b)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        assert op(a, b) is op(pa, pb), op
        assert op(b, a) is op(pb, pa), op


def test_consecutive_halving_points_compare_fast(within):
    k = 200_000
    a = Point(2**k - 1, 2**k)
    b = Point(2**(k + 1) - 1, 2**(k + 1))

    def compare():
        return all(a < b and not b <= a for _ in range(2_500))

    assert within(1, compare)


# -- the guard -----------------------------------------------------------------


def dense_spec(lo, hi, strategies):
    return parse_spec({
        "domain": {"kind": "dense", "lo": lo, "hi": hi},
        "players": [{"id": "p1", "actions": ["C", "D"]},
                    {"id": "p2", "actions": ["C", "D"]}],
        "strategies": strategies,
    })


def grim(player, delta):
    return {"kind": "grim", "player": player, "cooperate": "C", "punish": "D",
            "delta": delta}


def grim_duel(lo, hi):
    spec = dense_spec(lo, hi, [grim("p1", "1/8"), grim("p2", "1/4")])
    return spec, build_profile(spec)


def scripted(lo, hi):
    """Grim against a script built from plain Fraction pieces, as a library
    caller builds one: two stretches around an instantaneous deviation."""
    spec = dense_spec(lo, hi, [grim("p1", "1/8"),
                               {"kind": "constant", "player": "p2", "action": "C"}])
    profile = build_profile(spec)
    a, b = Fraction(lo), Fraction(hi)
    m = (a + b) / 2
    profile[1] = make_scripted("p2", spec.domain, [
        (Interval(a, m, True, False), "C"),
        (Interval(m, m), "D"),
        (Interval(m, b, False, True), "C"),
    ])
    return spec, profile


@pytest.mark.parametrize("make", [grim_duel, scripted])
@pytest.mark.parametrize("lo, hi", [("-1", "1"), ("0", "5/2")], ids=["negative", "nonunit"])
def test_dense_paths_make_no_slow_fraction_comparison(monkeypatch, make, lo, hi):
    spec, profile = make(lo, hi)
    calls = {"_richcmp": 0, "__eq__": 0}

    def counting(name):
        slow = getattr(Fraction, name)

        def wrapper(*args):
            calls[name] += 1
            return slow(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Fraction, name, counting(name))
    pfx = empty_prefix(spec.domain, spec.players)
    result = solve_dense(profile, pfx)
    assert result.outcome == UNIQUE
    assert verify_unique(profile, pfx, result)
    assert is_consistent(result.history, profile).consistent is True
    assert calls == {"_richcmp": 0, "__eq__": 0}
