"""Certified payoff enclosures against independent oracles.

Dense payoffs are checked against a `decimal` evaluation of the same
discounted integral with an explicit rounding-error bound, on domains with
shifted, negative and non-unit endpoints and on histories with singleton
pieces.  The fixed-point exponential is cross-checked against the exact
`Fraction` algorithm it replaced, kept here as an oracle, and the chained
exponentials a dense payoff multiplies out of it against `decimal`.
"""

import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import gamespec
from totime.gamespec import evaluate_payoff, exp_neg_enclosure, parse_spec
from totime.histories import PiecewiseHistory
from totime.timeorder import Interval

ACTIONS = ("C", "D")
COMBOS = [f"{a},{b}" for a in ACTIONS for b in ACTIONS]
PREC = 100  # decimal digits of the oracle


def exact_fraction_exp_neg(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """The exact-Fraction enclosure of e^{-x}, x >= 0 (test-local oracle).

    Halves x into [0, 1], brackets e^{-y} by alternating Taylor partial sums
    and squares the bracket back up; retries with a tighter inner tolerance
    until hi - lo <= eps.
    """
    if x == 0:
        return Fraction(1), Fraction(1)
    halvings, y = 0, x
    while y > 1:
        y /= 2
        halvings += 1
    inner = eps / (2 ** (halvings + 1))
    while True:
        term = total = lo = hi = Fraction(1)
        j = 0
        while term > inner:
            j += 1
            term = term * y / j
            total += -term if j % 2 else term
            if j % 2:
                lo = total
            else:
                hi = total
        if j % 2 == 0:
            lo = total - term
        lo = max(lo, Fraction(0))
        for _ in range(halvings):
            lo, hi = lo * lo, hi * hi
        if hi - lo <= eps:
            return lo, hi
        inner /= 4


def _dec(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def decimal_payoff(h: PiecewiseHistory, spec, prec: int = PREC) -> tuple[dict, Fraction]:
    """Per-player discounted payoff in `decimal` at `prec` digits, and its error bound.

    With d = 10^(1-prec) / 2 the relative rounding of one operation and
    X = max |rho t| over the change times: rounding rho t moves e^{-rho t}
    by a relative 2 X d at most and `Decimal.exp` is correctly rounded, so
    each exponential is off by a relative (1 + 3X) d; the difference, the
    coefficient u / rho and the product add 4 d, giving a per-segment error
    of (6 + 3X) d |u/rho| (E_a + E_b); the n additions add n d times the
    same sum.  `err` doubles d to absorb the second-order terms.
    """
    times = h.change_times()
    segments = [(a, b, spec.payoff_table[h.eval(a + (b - a) / 2)])
                for a, b in zip(times, times[1:])]
    rho = spec.rho
    if rho == 0:
        exact = {p: sum((u[p] * (b - a) for a, b, u in segments), Fraction(0))
                 for p in spec.players}
        return exact, Fraction(0)
    with localcontext() as ctx:
        ctx.prec = prec
        exps = {t: (-_dec(rho * t)).exp() for t in times}
        acc = {p: Decimal(0) for p in spec.players}
        scale = Fraction(0)
        for a, b, u in segments:
            for p in spec.players:
                coef = u[p] / rho
                acc[p] += _dec(coef) * (exps[a] - exps[b])
                scale += abs(coef) * (Fraction(exps[a]) + Fraction(exps[b]))
    big_x = max(abs(rho * t) for t in times)
    err = Fraction(1, 10 ** (prec - 1)) * (7 + 3 * big_x + len(segments)) * scale
    return {p: Fraction(v) for p, v in acc.items()}, err


def make_spec(lo: Fraction, hi: Fraction, rho: Fraction, table: dict):
    return parse_spec(json.dumps({
        "domain": {"kind": "dense", "lo": str(lo), "hi": str(hi)},
        "players": [{"id": p, "actions": list(ACTIONS)} for p in ("p1", "p2")],
        "strategies": [{"kind": "constant", "player": p, "action": "C"}
                       for p in ("p1", "p2")],
        "payoff": {"rho": str(rho), "table": table},
    }))


def pieces_from_cuts(lo, hi, cuts, instants, actions):
    """Pieces of [lo, hi] cut at `cuts`; a cut in `instants` gets its own singleton."""
    pts = [lo, *cuts, hi]
    out = []
    for i, (a, b) in enumerate(zip(pts, pts[1:])):
        out.append((Interval(a, b, i == 0 or a not in instants, b == hi),
                    actions[i % len(actions)]))
        if b in instants:
            out.append((Interval(b, b), actions[(i + 1) % len(actions)]))
    return out


def assert_certified(h, spec, tol, prec=PREC):
    vec = evaluate_payoff(h, spec, tol=tol)
    want, err = decimal_payoff(h, spec, prec)
    for p in spec.players:
        assert vec.hi[p] - vec.lo[p] <= tol
        assert vec.lo[p] - err <= want[p] <= vec.hi[p] + err
        assert err < tol / 10**6  # the oracle is far sharper than the enclosure


# -- negative-time domains ------------------------------------------------------


@pytest.mark.parametrize("lo,hi", [(Fraction(-1), Fraction(1)),
                                   (Fraction(-2), Fraction(-1, 2))])
@pytest.mark.parametrize("rho", [Fraction(1, 4), Fraction(1), Fraction(2)])
def test_negative_domain_payoff_is_certified(lo, hi, rho):
    spec = make_spec(lo, hi, rho, {"C,C": "3", "C,D": "-2", "D,C": "5/3", "D,D": "1/7"})
    third = (hi - lo) / 3
    h = PiecewiseHistory.build(spec.domain, spec.players, {
        "p1": pieces_from_cuts(lo, hi, [lo + third, lo + 2 * third], {lo + third}, "CD"),
        "p2": pieces_from_cuts(lo, hi, [(lo + hi) / 2], set(), "DC"),
    })
    for tol in (Fraction(1, 10**9), Fraction(1, 10**40)):
        assert_certified(h, spec, tol)


# -- properties -------------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7]))


@st.composite
def player_pieces(draw, lo, hi):
    grid = [lo + (hi - lo) * Fraction(i, 24) for i in range(1, 24)]
    cuts = sorted(draw(st.sets(st.sampled_from(grid), max_size=6)))
    instants = draw(st.sets(st.sampled_from(cuts), max_size=len(cuts))) if cuts else set()
    actions = draw(st.sampled_from(["CD", "DC"]))
    return pieces_from_cuts(lo, hi, cuts, instants, actions)


@st.composite
def payoff_cases(draw):
    lo = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3, 4])))
    hi = lo + Fraction(draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 3])))
    rho = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1),
                                Fraction(3, 2), Fraction(2)]))
    table = {c: {p: str(draw(rationals)) for p in ("p1", "p2")} for c in COMBOS}
    spec = make_spec(lo, hi, rho, table)
    h = PiecewiseHistory.build(spec.domain, spec.players,
                               {p: draw(player_pieces(lo, hi)) for p in ("p1", "p2")})
    tol = Fraction(1, 10 ** draw(st.sampled_from([6, 20, 40, 60])))
    return h, spec, tol


@settings(max_examples=80, deadline=None)
@given(payoff_cases())
def test_dense_payoff_encloses_decimal_oracle(case):
    assert_certified(*case)


@settings(max_examples=60, deadline=None)
@given(
    x=st.sampled_from([1, 2, 3, 5, 12]).flatmap(
        lambda d: st.builds(Fraction, st.integers(0, 64 * d), st.just(d))),
    k=st.sampled_from([1, 6, 20, 40, 60]),
)
def test_fixed_point_exponential_overlaps_exact_fraction_oracle(x, k):
    eps = Fraction(1, 10**k)
    lo, hi = exp_neg_enclosure(x, eps)
    old_lo, old_hi = exact_fraction_exp_neg(x, eps)
    assert 0 <= lo <= hi <= 1 and hi - lo <= eps
    assert max(lo, old_lo) <= min(hi, old_hi)


# -- chained exponentials ----------------------------------------------------------


def decimal_exp_neg(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """e^{-x} in `decimal` at `prec` digits, and a bound on its error: the
    rounding of x moves it by a relative x d, d = 10^(1-prec), and the
    correctly rounded exp adds d."""
    with localcontext() as ctx:
        ctx.prec = prec
        ref = Fraction((-_dec(x)).exp())
    return ref, ref * (1 + 2 * x) / 10 ** (prec - 1)


gap_lists = st.one_of(
    # a dyadic grid: few distinct gaps, each repeated
    st.lists(st.integers(1, 6), min_size=1, max_size=60).map(
        lambda ks: [Fraction(k, 64) for k in ks]),
    # all distinct random rationals
    st.lists(st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
             min_size=1, max_size=30, unique=True),
)


@settings(max_examples=80, deadline=None)
@given(x0=st.builds(Fraction, st.integers(0, 40), st.sampled_from([1, 3, 1024])),
       gaps=gap_lists, p=st.sampled_from([8, 30, 60, 140, 300]))
def test_chained_exponentials_bracket_a_decimal_reference(x0, gaps, p):
    """Every bracket of the chain is at most 3 wide at p bits and contains
    e^{-x} for x = x0 plus the gaps so far."""
    x, one = x0, 1 << p
    for k, (lo, hi) in enumerate(gamespec._exp_neg_chain(x0, gaps, p)):
        if k:
            x += gaps[k - 1]
        ref, err = decimal_exp_neg(x, PREC)
        assert 0 <= lo <= hi <= one and hi - lo <= 3
        assert Fraction(lo, one) <= ref + err and ref - err <= Fraction(hi, one)


@st.composite
def many_change_cases(draw):
    """Histories of up to 120 changes: on a dyadic grid, where gaps repeat,
    or at all-distinct points; on domains from below 0; with instants; at
    rates up to e^{rho |lo|} = e^{200}."""
    lo = Fraction(draw(st.integers(-4, 4)), 2)
    hi = lo + draw(st.sampled_from([Fraction(1), Fraction(5, 2), Fraction(10)]))
    rho = draw(st.sampled_from([Fraction(1, 4), Fraction(2), Fraction(7, 3)]
                               + [Fraction(100), Fraction(200)] * (lo < 0)))
    if draw(st.booleans()):
        grid = [lo + (hi - lo) * Fraction(i, 512) for i in range(1, 512)]
    else:
        grid = sorted({lo + (hi - lo) * Fraction(draw(st.integers(1, 10**6 - 1)), 10**6)
                       for _ in range(120)})
    table = {c: {p: str(draw(rationals)) for p in ("p1", "p2")} for c in COMBOS}
    spec = make_spec(lo, hi, rho, table)
    pieces = {}
    for p in ("p1", "p2"):
        cuts = sorted(draw(st.sets(st.sampled_from(grid), max_size=60)))
        instants = draw(st.sets(st.sampled_from(cuts), max_size=8)) if cuts else set()
        pieces[p] = pieces_from_cuts(lo, hi, cuts, instants, draw(st.sampled_from(["CD", "DC"])))
    h = PiecewiseHistory.build(spec.domain, spec.players, pieces)
    return h, spec, Fraction(1, 10 ** draw(st.sampled_from([9, 40]))), 400 if rho >= 100 else PREC


@settings(max_examples=40, deadline=None)
@given(many_change_cases())
def test_dense_payoff_of_many_changes_encloses_decimal_oracle(case):
    assert_certified(*case)


def test_dense_payoff_calls_the_kernel_once_per_distinct_gap(monkeypatch):
    """400 changes on a grid of 4,096 steps over [0, 10] at rho 2, as in the
    benchmark's largest payoff: one kernel call at the domain's start, one
    for the factor e^{-rho c} and one per distinct gap, where one per change
    time used to be made."""
    rng = random.Random(7)
    step = Fraction(10, 4096)
    cuts = [step * g for g in sorted(rng.sample(range(1, 4096), 400))]
    spec = make_spec(Fraction(0), Fraction(10), Fraction(2), {c: "1/3" for c in COMBOS})
    h = PiecewiseHistory.build(spec.domain, spec.players, {
        "p1": pieces_from_cuts(Fraction(0), Fraction(10), cuts, set(), "CD"),
        "p2": [(Interval(0, 10), "C")]})
    times = h.change_times()
    gaps = {b - a for a, b in zip(times, times[1:])}
    calls = []
    kernel = gamespec._exp_neg_fixed
    monkeypatch.setattr(gamespec, "_exp_neg_fixed", lambda x, p: calls.append(x) or kernel(x, p))
    tol = Fraction(1, 10**40)
    vec = evaluate_payoff(h, spec, tol=tol)
    assert len(times) == 402 and len(gaps) < 100
    assert len(calls) <= len(gaps) + 2
    assert all(vec.hi[p] - vec.lo[p] <= tol for p in spec.players)
