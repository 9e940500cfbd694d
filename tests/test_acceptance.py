"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
"PASS criterion N: ..." / "FAIL criterion N: ..." line (visible under
``pytest -s`` or in captured output).
"""

import functools
import itertools
import json
import random
from fractions import Fraction

from totime import timeorder as to
from totime.axioms import (
    check_frictionality,
    check_inertiality,
    check_initial_uniqueness,
    check_traceability,
    check_well_orderedness,
    is_consistent,
)
from totime.gallery import run_gallery
from totime.gamespec import evaluate_payoff, parse_spec
from totime.histories import PiecewiseHistory, empty_prefix, prefix_equal
from totime.histories import prefix as history_prefix
from totime.partitions import (
    HARMONIC_DESCENDING,
    OrderedPartition,
    RuleFamily,
    block_leq,
    change_partition,
    is_well_ordered,
    meet2,
    meetN,
    partition_from_blocks,
)
from totime.solver import (
    oracle_enumerate,
    seq_to_prefix,
    solve_chain,
    solve_dense,
    verify_unique,
)
from totime.strategies import (
    make_constant,
    make_grim_trigger,
    make_halving_hold,
    make_random_table,
    make_scripted,
)
from totime.timeorder import DenseInterval, FiniteChain, Interval

UNIT = DenseInterval(0, 1)


def report(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {n}: {label}")
                raise
            print(f"PASS criterion {n}: {label}")
        return run
    return deco


# -- criteria 1 and 2: uniqueness oracle and Axioms 1-3 on chains ---------------

N_CHAIN_INSTANCES = 1000
PAIRS_PER_INSTANCE = 5


def chain_instance(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 4)
    size = rng.randrange(1, 5)
    domain = FiniteChain(size)
    players = tuple(f"p{i + 1}" for i in range(n))
    alphabets = {
        p: tuple(str(k) for k in range(rng.randrange(2, 4))) for p in players
    }
    profile = [
        make_random_table(p, domain, alphabets[p], seed * 8 + i)
        for i, p in enumerate(players)
    ]
    return domain, players, alphabets, profile


def sampled_pairs(seed, domain, players, alphabets):
    """>= 5 (t, prefix) pairs per instance: random cut, random strict prefix."""
    rng = random.Random(seed ^ 0x5EED)
    pairs = []
    for _ in range(PAIRS_PER_INSTANCE):
        t = rng.randrange(domain.size)
        seq = tuple(
            tuple(rng.choice(alphabets[p]) for p in players) for _ in range(t)
        )
        pairs.append((t, seq_to_prefix(domain, players, seq, t)))
    return pairs


@report(1, "oracle count is 1 and the survivor equals solve_chain, "
           f"{N_CHAIN_INSTANCES} instances x {PAIRS_PER_INSTANCE} prefixes")
def test_criterion_1_uniqueness_oracle():
    for seed in range(N_CHAIN_INSTANCES):
        domain, players, alphabets, profile = chain_instance(seed)
        for t, pfx in sampled_pairs(seed, domain, players, alphabets):
            res = solve_chain(profile, pfx)
            oracle = oracle_enumerate(profile, pfx, alphabets)
            assert oracle.count == 1, (seed, t)
            assert oracle.histories[0] == res.history, (seed, t)


@report(2, "Axioms 1-3 pass exhaustively at every sampled (t, prefix)")
def test_criterion_2_axioms_1_to_3_on_chains():
    for seed in range(N_CHAIN_INSTANCES):
        domain, players, alphabets, profile = chain_instance(seed)
        for t, pfx in sampled_pairs(seed, domain, players, alphabets):
            h = solve_chain(profile, pfx).history
            assert prefix_equal(history_prefix(h, t), pfx)
            for strategy in profile:
                r1 = check_traceability(strategy, t, h)
                assert r1.passed is True and r1.method == "exhaustive"
                r2 = check_well_orderedness(strategy.player, t, [h])
                assert r2.passed is True
                r3 = check_initial_uniqueness(strategy.player, t, h, h)
                assert r3.passed is True
            rep = is_consistent(h, profile, t=t)
            assert rep.consistent and rep.method == "exhaustive"


# -- criterion 3: inertial profiles solve uniquely ------------------------------


def inertial_profile(seed):
    rng = random.Random(seed)
    domain = FiniteChain(rng.randrange(2, 5)) if seed % 2 == 0 else UNIT
    players = ("p1", "p2")
    alphabets = {p: ("C", "D") for p in players}
    profile = []
    for p in players:
        if rng.random() < 0.5:
            profile.append(make_constant(p, rng.choice("CD"), "CD", domain))
        else:
            coop = rng.choice("CD")
            punish = "D" if coop == "C" else "C"
            delta = rng.randrange(1, 3) if to.is_chain(domain) \
                else rng.choice([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
            profile.append(make_grim_trigger(p, coop, punish, delta, "CD", domain))
    return domain, players, alphabets, profile


@report(3, "inertial profiles solve uniquely, verify under permuted query "
           "orders, and pass Axioms 1-3")
def test_criterion_3_inertiality_implies_unique():
    for seed in range(100):
        domain, players, alphabets, profile = inertial_profile(seed)
        pfx = empty_prefix(domain, players)
        if to.is_chain(domain):
            res = solve_chain(profile, pfx)
            assert verify_unique(profile, pfx, res, alphabets)
        else:
            res = solve_dense(profile, pfx)
            assert res.outcome == "unique", seed
            assert verify_unique(profile, pfx, res, runs=6, seed=seed)
        h = res.history
        t0 = domain.min
        for strategy in profile:
            r4 = check_inertiality(strategy, t0, h, alphabets,
                                   samples=12, seed=seed)
            assert r4.passed is True, (seed, strategy.name)
            assert check_traceability(strategy, t0, h).passed is True
            assert check_well_orderedness(strategy.player, t0, [h]).passed is True
            assert check_initial_uniqueness(strategy.player, t0, h, h).passed is True


# -- criterion 4: frictional profiles ------------------------------------------


def frictional_profile(seed):
    """p1 scripted at default z with finitely many singleton deviations."""
    rng = random.Random(seed)
    z, dev = ("C", "D") if seed % 2 == 0 else ("D", "C")
    cuts = sorted({Fraction(rng.randrange(1, 32), 32)
                   for _ in range(rng.randrange(0, 4))})
    pieces = []
    lo = Fraction(0)
    for c in cuts:
        pieces.append((Interval(lo, c, lo == 0, False), z))
        pieces.append((to.singleton(c), dev))
        lo = c
    pieces.append((Interval(lo, Fraction(1), lo == 0, True), z))
    scripted = make_scripted("p1", UNIT, pieces, default_action=z)
    constant = make_constant("p2", "C", "CD", UNIT)
    return [scripted, constant], z, cuts


@report(4, "frictional profiles pass Axioms 2-3 and frictionality; the "
           "interval-defection fixture fails with the offending piece")
def test_criterion_4_frictionality():
    for seed in range(100):
        profile, z, cuts = frictional_profile(seed)
        pfx = empty_prefix(UNIT, ("p1", "p2"))
        res = solve_dense(profile, pfx)
        assert res.outcome == "unique", seed
        h = res.history
        for t in cuts:
            assert h.eval_player("p1", t) != z
        for strategy in profile:
            p = strategy.player
            assert check_well_orderedness(p, Fraction(0), [h]).passed is True
            assert check_initial_uniqueness(p, Fraction(0), h, h).passed is True
            default = strategy.default_action or "C"
            r5 = check_frictionality(p, default, Fraction(0), h)
            assert r5.passed is True, (seed, p)

    # a whole interval of defection violates Axiom 5
    bad = PiecewiseHistory.build(UNIT, ("p1",), {"p1": [
        (Interval(Fraction(0), Fraction(1, 4), True, False), "C"),
        (Interval(Fraction(1, 4), Fraction(1, 2)), "D"),
        (Interval(Fraction(1, 2), Fraction(1), False, True), "C"),
    ]})
    r5 = check_frictionality("p1", "C", Fraction(0), bad)
    assert r5.passed is False
    assert r5.witness["interval"] == Interval(
        Fraction(1, 4), Fraction(1, 2)).to_json()


# -- criterion 5: change partitions are maximal-run covers ----------------------


def random_chain_history(rng):
    size = rng.randrange(1, 7)
    pieces = [(Interval(t, t), str(rng.randrange(3))) for t in range(size)]
    return PiecewiseHistory.build(FiniteChain(size), ("p1",), {"p1": pieces})


def random_dense_history(rng):
    cuts = sorted({Fraction(rng.randrange(1, 64), 64)
                   for _ in range(rng.randrange(0, 4))})
    bounds = [Fraction(0)] + cuts + [Fraction(1)]
    pieces = [(Interval(a, b, True, b == 1), str(rng.randrange(3)))
              for a, b in zip(bounds, bounds[1:])]
    return PiecewiseHistory.build(UNIT, ("p1",), {"p1": pieces})


@report(5, "change partitions are totally ordered disjoint covers by "
           "maximal constant runs, 1000 random histories")
def test_criterion_5_change_partition_lemma():
    rng = random.Random(2024)
    for k in range(1000):
        chain = k % 2 == 0
        h = random_chain_history(rng) if chain else random_dense_history(rng)
        t0 = 0 if chain else Fraction(0)
        part = change_partition(h, "p1", t0)
        blocks = part.blocks
        # disjoint, totally ordered, covering [t0, top]
        assert blocks[0].lo == t0 and blocks[0].lo_closed
        assert blocks[-1].hi == h.domain.top and blocks[-1].hi_closed
        for a, b in zip(blocks, blocks[1:]):
            assert to.intersect(a, b) is None
            assert block_leq(a, b) and not block_leq(b, a)
            if chain:
                assert b.lo == a.hi + 1
            else:
                assert b.lo == a.hi if a.hi_closed != b.lo_closed else None
        # maximal constant runs: adjacent blocks differ in value
        values = [h.eval_player("p1", b.lo if b.lo_closed
                                else b.lo + (b.hi - b.lo) / 2) for b in blocks]
        for v, w in zip(values, values[1:]):
            assert v != w
        if chain:
            size = h.domain.size
            vals = [h.eval_player("p1", t) for t in range(size)]
            for lo in range(size):
                for hi in range(lo, size):
                    constant = len(set(vals[lo:hi + 1])) == 1
                    maximal = (constant
                               and not (lo > 0 and vals[lo - 1] == vals[lo])
                               and not (hi < size - 1 and vals[hi + 1] == vals[hi]))
                    assert ((lo, hi) in {(b.lo, b.hi) for b in blocks}) == maximal


# -- criterion 6: meets match the choice-function brute force -------------------


def brute_meet(parts):
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


def random_partition(rng):
    cuts = sorted({Fraction(rng.randrange(1, 32), 32)
                   for _ in range(rng.randrange(0, 4))})
    bounds = [Fraction(0)] + cuts + [Fraction(1)]
    blocks = [Interval(a, b, True, b == 1) for a, b in zip(bounds, bounds[1:])]
    return partition_from_blocks(UNIT, Fraction(0), blocks)


@report(6, "meet2/meetN equal the brute-force common refinement; finite "
           "meets are well-ordered; harmonic-descending has no minimum")
def test_criterion_6_partition_meets():
    rng = random.Random(66)
    for k in range(500):
        if k % 2 == 0:
            parts = [random_partition(rng), random_partition(rng)]
            m = meet2(*parts)
        else:
            parts = [random_partition(rng) for _ in range(3)]
            m = meetN(parts)
        assert m.blocks == brute_meet(parts)
        rep = is_well_ordered(m)
        assert rep.well_ordered and rep.method == "finite"

    desc = RuleFamily(HARMONIC_DESCENDING)
    rep = is_well_ordered(desc)
    assert rep.well_ordered is False and rep.method == "analytic"
    assert rep.witness is not None
    probes = [to.interval_from_json(b, UNIT) for b in rep.witness["probe_blocks"]]
    assert len(probes) >= 3
    for late, early in zip(probes[1:], probes):
        # strictly decreasing chain of blocks: no earliest element
        assert to.strictly_precedes(late, early)


# -- criterion 7: counterexample gallery ----------------------------------------


@report(7, "gallery: multi shows two verified histories and an Axiom 3 "
           "failure at 1/2; no_trace fails; chain analogues are unique; "
           "halving holds accumulate at exactly 1; all seed-deterministic")
def test_criterion_7_gallery():
    multi = run_gallery("multi", seed=0)
    assert len(multi["histories"]) == 2
    assert all(c["consistent"] for c in multi["consistency"])
    # the two histories agree strictly before the cut 1/2
    assert multi["histories"][0]["p1"][0]["action"] == \
        multi["histories"][1]["p1"][0]["action"]
    assert multi["axiom3_at_0"]["passed"] is True
    half = multi["axiom3_at_half"]
    assert half["passed"] is False
    assert Fraction(half["witness"]["infimum"]) == Fraction(1, 2)

    no_trace = run_gallery("no_trace", seed=0)
    assert no_trace["traceability"]["passed"] is False
    assert no_trace["traceability"]["witness"]["transcript"]

    contrast = run_gallery("discrete_contrast", seed=0)
    for case in contrast["cases"]:
        assert case["oracle_count"] == 1 and case["matches"] is True

    profile = [make_halving_hold("p1", ("a", "b"), UNIT)]
    res = solve_dense(profile, empty_prefix(UNIT, ("p1",)), event_budget=64)
    assert res.outcome == "zeno"
    assert res.accumulation == 1

    for name in ("multi", "no_trace", "discrete_contrast",
                 "inertia_demo", "friction_demo"):
        first = json.dumps(run_gallery(name, seed=3), sort_keys=True)
        again = json.dumps(run_gallery(name, seed=3), sort_keys=True)
        assert first == again


# -- criterion 8: payoffs --------------------------------------------------------


CHAIN_PAYOFF_SPEC = {
    "domain": {"kind": "chain", "size": 3},
    "players": [{"id": "p", "actions": ["a"]}],
    "strategies": [{"kind": "constant", "player": "p", "action": "a"}],
    "payoff": {"rho": "1", "table": {"a": "1"}},
}

DENSE_PAYOFF_SPEC = {
    "domain": {"kind": "dense", "lo": "0", "hi": "1"},
    "players": [{"id": "p", "actions": ["a", "b"]}],
    "strategies": [{"kind": "constant", "player": "p", "action": "a"}],
    "payoff": {"rho": "1", "table": {"a": "1", "b": "0"}},
}


def taylor_exp_neg(x, terms):
    """Alternating-series bracket of e^{-x}, 0 < x <= 1 (test-local oracle)."""
    s, term, lo, hi = Fraction(0), Fraction(1), None, None
    for n in range(terms):
        s += term
        if n % 2 == 0:
            hi = s
        else:
            lo = s
        term *= -x / (n + 1)
    return lo, hi


def riemann_bracket(n=10**6):
    """Step-function bounds for integral of e^{-t} over [0, 1/2].

    With step h the upper/lower sums are geometric: U = h (1 - X) / (1 - x)
    and L = U x, where X = e^{-1/2} and x = e^{-h}; both are bracketed by
    the alternating Taylor oracle, so the returned bounds are certified.
    """
    h = Fraction(1, 2 * n)
    x_lo, x_hi = taylor_exp_neg(h, 8)
    big_lo, big_hi = taylor_exp_neg(Fraction(1, 2), 40)
    upper = h * (1 - big_lo) / (1 - x_hi)
    lower = h * (1 - big_hi) / (1 - x_lo) * x_lo
    return lower, upper


@report(8, "chain payoff equals 7/4 exactly; dense two-piece payoff "
           "encloses 1 - e^(-1/2) within 1e-9, inside the Riemann bracket")
def test_criterion_8_payoffs():
    spec = parse_spec(json.dumps(CHAIN_PAYOFF_SPEC))
    res = solve_chain(
        [make_constant("p", "a", ["a"], spec.domain)],
        empty_prefix(spec.domain, spec.players),
    )
    vec = evaluate_payoff(res.history, spec)
    assert vec.lo["p"] == vec.hi["p"] == Fraction(7, 4)

    spec = parse_spec(json.dumps(DENSE_PAYOFF_SPEC))
    h = PiecewiseHistory.build(spec.domain, spec.players, {"p": [
        (Interval(Fraction(0), Fraction(1, 2), True, False), "a"),
        (Interval(Fraction(1, 2), Fraction(1)), "b"),
    ]})
    tol = Fraction(1, 10**9)
    vec = evaluate_payoff(h, spec, tol=tol)
    assert vec.width("p") <= tol
    lower, upper = riemann_bracket()
    assert upper - lower <= Fraction(1, 10**6)  # the oracle itself is tight
    assert lower <= vec.lo["p"] <= vec.hi["p"] <= upper
