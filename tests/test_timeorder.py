"""Interval algebra on chain and dense domains."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from totime import timeorder as to
from totime.errors import EmptySetError, PointNotInDomainError, SchemaError
from totime.solver import ZENO, SolveResult
from totime.timeorder import DenseInterval, FiniteChain, Interval

CHAIN = FiniteChain(4)
UNIT = DenseInterval(0, 1)


def test_domain_basics():
    assert CHAIN.min == 0 and CHAIN.top == 3
    assert UNIT.min == 0 and UNIT.top == 1
    assert CHAIN.contains(3) and not CHAIN.contains(4)
    assert UNIT.contains(Fraction(1, 3)) and not UNIT.contains(Fraction(3, 2))
    assert to.is_chain(CHAIN) and not to.is_chain(UNIT)


def test_require_point():
    with pytest.raises(PointNotInDomainError):
        to.require_point(CHAIN, 4)
    with pytest.raises(PointNotInDomainError):
        to.require_point(UNIT, Fraction(-1, 2))


def test_point_formatting_roundtrip():
    assert to.format_point(Fraction(1, 2)) == "1/2"
    assert to.parse_rational("1/2", "$") == Fraction(1, 2)
    assert to.parse_rational("0.25", "$") == Fraction(1, 4)
    assert to.format_point(3) == "3"


@pytest.mark.parametrize("text", [
    "1/2", "-3", "0.25", "1e-9", ".5", "1.", " 7/14 ", "+2E3", "-1.5e-3", "3/007",
    "00012.500e+02", "1e4299", "1e-4298", "1/" + "7" * 4299, 0.5, 3,
], ids=lambda v: str(v)[:20])
def test_parse_rational_reads_what_fraction_reads(text):
    assert to.parse_rational(text, "$") == Fraction(str(text))


@pytest.mark.parametrize("text, needle", [
    ("1/0", "is not an exact rational"), ("1/00", "is not an exact rational"),
    ("nan", "is not an exact rational"), ("inf", "is not an exact rational"),
    ("1 / 2", "is not an exact rational"), ("1_000", "is not an exact rational"),
    (True, "is not an exact rational"), (None, "is not an exact rational"),
    ("1e5000", "more than 4300 digits"), ("1e999999999", "more than 4300 digits"),
    ("1e-" + "9" * 5000, "more than 4300 digits"), (".1e-4299", "more than 4300 digits"),
    ("1" * 4301, "more than 4300 digits"), ("0" * 4301, "more than 4300 digits"),
    ("1e" + "0" * 100000 + "x", "is not an exact rational"),
], ids=lambda v: str(v)[:20])
def test_parse_rational_rejects_with_the_path_before_building(text, needle, within):
    with pytest.raises(SchemaError) as e:
        within(1, to.parse_rational, text, "domain.hi")
    assert str(e.value).startswith("domain.hi: ") and needle in str(e.value)


def test_parse_rational_integer_and_a_long_exponent_with_leading_zeros():
    assert to.parse_rational("6/3", "$", integer=True) == 2
    assert type(to.parse_rational("4", "$", integer=True)) is int
    assert to.parse_rational("1e-" + "0" * 6000 + "5", "$") == Fraction(1, 10**5)
    with pytest.raises(SchemaError, match="'1/2' is not an integer"):
        to.parse_rational("1/2", "$", integer=True)


def test_format_point_and_solve_json_render_points_past_the_str_limit():
    big = Fraction(10**5000 + 1, 3**9000)  # 5,001 and 4,295 digits
    text = to.format_point(big)
    assert text == f"{Decimal(big.numerator)}/{Decimal(big.denominator)}"
    assert len(text) > 9000 and to.format_point(-big).startswith("-1000")
    assert to.format_point(10**5000) == "1" + "0" * 5000
    result = SolveResult(ZENO, events=[(big, "at", ("C",), (None,))],
                         accumulation=big, events_consumed=1)
    out = result.to_json()
    assert out["events"][0]["time"] == out["accumulation"] == text


def test_interval_contains_respects_endpoints():
    iv = Interval(Fraction(1, 4), Fraction(3, 4), lo_closed=False, hi_closed=True)
    assert not iv.contains(Fraction(1, 4))
    assert iv.contains(Fraction(1, 2))
    assert iv.contains(Fraction(3, 4))
    assert Interval(1, 1).is_singleton


def test_make_interval_chain_normalizes_open_endpoints():
    # (0, 3) on a chain is the closed interval [1, 2]
    iv = to.make_interval(CHAIN, 0, 3, lo_closed=False, hi_closed=False)
    assert iv == Interval(1, 2)
    assert to.make_interval(CHAIN, 1, 1, lo_closed=False, hi_closed=True) is None


def test_before_and_from_t():
    assert to.before(CHAIN, 0) is None
    assert to.before(CHAIN, 2) == Interval(0, 1)
    b = to.before(UNIT, Fraction(1, 2))
    assert b.lo == 0 and b.hi == Fraction(1, 2) and not b.hi_closed
    f = to.from_t(UNIT, Fraction(1, 2), include=False)
    assert not f.lo_closed and f.hi == 1


def test_intersect_tie_cases():
    a = Interval(0, Fraction(1, 2), True, False)
    b = Interval(Fraction(1, 2), 1, True, True)
    assert to.intersect(a, b) is None
    c = Interval(0, Fraction(1, 2), True, True)
    assert to.intersect(c, b) == Interval(Fraction(1, 2), Fraction(1, 2))


def test_strictly_precedes_and_abuts():
    a = Interval(0, Fraction(1, 2), True, False)
    b = Interval(Fraction(1, 2), 1)
    assert to.strictly_precedes(a, b)
    assert to.abuts(UNIT, a, b)
    assert to.abuts(CHAIN, Interval(0, 1), Interval(2, 3))
    assert not to.abuts(UNIT, Interval(0, Fraction(1, 2)), b)  # both closed at 1/2


def test_interval_set_canonicalization_is_idempotent():
    s = to.make_interval_set(UNIT, [
        Interval(Fraction(1, 2), 1),
        Interval(0, Fraction(1, 2), True, False),
        None,
    ])
    assert len(s.pieces) == 1
    assert s.pieces[0] == Interval(0, 1)
    again = to.make_interval_set(UNIT, s.pieces)
    assert again == s


def test_inf_sup_and_empty():
    s = to.make_interval_set(UNIT, [Interval(Fraction(1, 4), Fraction(1, 2), False, True)])
    assert to.inf_set(UNIT, s) == Fraction(1, 4)  # not attained, still the inf
    assert to.sup_set(UNIT, s) == Fraction(1, 2)
    empty = to.make_interval_set(UNIT, [])
    assert empty.is_empty
    with pytest.raises(EmptySetError):
        to.inf_set(UNIT, empty)


def test_successor():
    assert to.successor(CHAIN, 1) == 2
    assert to.successor(CHAIN, 3) is None
    assert to.successor(UNIT, Fraction(1, 2)) is None


frac = st.fractions(min_value=0, max_value=1, max_denominator=64)


@given(frac, frac, frac, frac, st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_intersect_agrees_with_membership(a, b, c, d, alc, ahc, blc, bhc):
    if a > b:
        a, b = b, a
    if c > d:
        c, d = d, c
    try:
        x = Interval(a, b, alc, ahc)
        y = Interval(c, d, blc, bhc)
    except Exception:
        return
    inter = to.intersect(x, y)
    for k in range(9):
        t = Fraction(k, 8)
        joint = x.contains(t) and y.contains(t)
        assert joint == (inter is not None and inter.contains(t))


@given(st.lists(st.tuples(frac, frac, st.booleans(), st.booleans()), max_size=6))
def test_interval_set_membership_is_union(raws):
    ivs = []
    for a, b, lc, hc in raws:
        if a > b:
            a, b = b, a
        try:
            ivs.append(Interval(a, b, lc, hc))
        except Exception:
            continue
    s = to.make_interval_set(UNIT, ivs)
    for k in range(17):
        t = Fraction(k, 16)
        assert s.contains(t) == any(iv.contains(t) for iv in ivs)
    # canonical: sorted, disjoint, non-adjacent
    for p, q in zip(s.pieces, s.pieces[1:]):
        assert to.strictly_precedes(p, q)
        assert not to.abuts(UNIT, p, q)
