"""Consistency checking and the five axiom checkers."""

from fractions import Fraction

import pytest

from totime import timeorder as to
from totime.axioms import (
    _sampled_consistent,
    check_frictionality,
    check_inertiality,
    check_initial_uniqueness,
    check_traceability,
    check_well_orderedness,
    disagreement_set,
    is_consistent,
)
from totime.errors import PrefixMismatchError, SetOutsideSubgameError
from totime.histories import PiecewiseHistory, empty_prefix
from totime.solver import solve_chain, solve_dense
from totime.strategies import (
    Response,
    Strategy,
    make_constant,
    make_gallery,
    make_grim_trigger,
    make_scripted,
)
from totime.timeorder import DenseInterval, FiniteChain, Interval

UNIT = DenseInterval(0, 1)
HALF = Fraction(1, 2)


def chain_rule(player, rule):
    def chain_respond(t, seq):
        return rule([a[0] for a in seq])

    def respond(t, p):
        from totime.strategies import encode_chain_prefix

        return Response(chain_respond(t, encode_chain_prefix(p)), None)

    return Strategy(player, respond, name="rule",
                    chain_respond=chain_respond)


def chain_history(values):
    domain = FiniteChain(len(values))
    pieces = [(Interval(t, t), v) for t, v in enumerate(values)]
    return PiecewiseHistory.build(domain, ("p1",), {"p1": pieces})


def unit_history(pieces):
    return PiecewiseHistory.build(UNIT, ("p1",), {"p1": pieces})


ALL_ZERO = [(to.full_interval(UNIT), "0")]


# -- is_consistent --------------------------------------------------------------


def test_constant_profile_constant_history_consistent():
    profile = [make_constant("p1", "C", ("C", "D"), UNIT)]
    h = unit_history([(to.full_interval(UNIT), "C")])
    rep = is_consistent(h, profile)
    assert rep.consistent and rep.method == "witness-based"


def test_chain_consistency_matches_rule():
    s = chain_rule("p1", lambda past: "1" if all(a == "0" for a in past) else "0")
    good = chain_history(["1", "0", "0"])
    bad = chain_history(["0", "0", "0"])
    assert is_consistent(good, [s]).consistent
    rep = is_consistent(bad, [s])
    assert rep.consistent is False
    assert rep.witness_time == 0  # the empty prefix already demands 1
    assert rep.method == "exhaustive"
    # time 1 violates as well: the all-zero prefix demands 1 there
    only_1 = to.make_interval_set(FiniteChain(3), [Interval(1, 1)])
    rep1 = is_consistent(bad, [s], t=0, target=only_1)
    assert rep1.consistent is False and rep1.witness_time == 1


def test_consistency_on_target_subset():
    s = chain_rule("p1", lambda past: "1" if all(a == "0" for a in past) else "0")
    bad = chain_history(["0", "0", "0"])
    late = to.make_interval_set(FiniteChain(3), [Interval(2, 2)])
    # at t=2 the prefix (0,0) still demands 1, so even the subset fails
    assert is_consistent(bad, [s], t=0, target=late).consistent is False
    with pytest.raises(SetOutsideSubgameError):
        is_consistent(bad, [s], t=2,
                      target=to.make_interval_set(FiniteChain(3), [Interval(0, 1)]))


def test_dense_walk_catches_wrong_piece():
    grim = make_grim_trigger("p1", "C", "D", Fraction(1, 4), ("C", "D"), UNIT)
    wrong = unit_history([(Interval(0, HALF, True, False), "C"),
                          (Interval(HALF, 1), "D")])
    rep = is_consistent(wrong, [grim])
    assert rep.consistent is False and rep.witness_time == HALF


def test_sampled_consistency_for_black_box():
    mu = make_gallery("multi", Fraction(1))
    h0 = unit_history(ALL_ZERO)
    rep = is_consistent(h0, [mu])
    assert rep.consistent and rep.method == "sampled"
    h_bad = unit_history([(Interval(0, 1), "1")])
    assert is_consistent(h_bad, [mu]).consistent is False


def test_walk_falls_back_to_sampling_with_the_callers_settings():
    # not black boxes, but they never give a hold: the walk hands the check
    # to sampling at its first query, with is_consistent's samples and seed
    h = unit_history([(Interval(0, 1), "C")])
    silent = Strategy("p1", lambda t, p: Response("C"), name="silent")
    rep = is_consistent(h, [silent], samples=2)
    assert rep.consistent is True and rep.method == "sampled"
    assert rep.checked == 4  # the ends 0 and 1 and two samples
    split = Strategy("p1", lambda t, p: Response("C" if t <= HALF else "D"), name="split")
    full = to.make_interval_set(UNIT, [to.full_interval(UNIT)])
    for seed in (0, 5):
        want = _sampled_consistent([split], h, 0, full, 2, seed)
        assert want.consistent is False
        assert is_consistent(h, [split], samples=2, seed=seed) == want


def test_walk_handles_singleton_pieces():
    pieces = [(Interval(0, HALF, True, False), "C"),
              (Interval(HALF, HALF), "D"),
              (Interval(HALF, 1, False, True), "C")]
    s = make_scripted("p1", UNIT, pieces)
    rep = is_consistent(unit_history(pieces), [s])
    assert rep.consistent and rep.method == "witness-based"


def test_walk_accepts_a_right_limit_hold_at_zero():
    # the instant at -1/2 is followed by a run that ends at time 0, so the
    # right-limit re-query there holds until exactly 0
    domain = DenseInterval(-1, 1)
    p1 = [(Interval(-1, -HALF, True, False), "C"), (Interval(-HALF, -HALF), "D"),
          (Interval(-HALF, 0, False, False), "C"), (Interval(0, 1), "D")]
    profile = [make_scripted("p1", domain, p1),
               make_constant("p2", "C", ("C", "D"), domain)]
    res = solve_dense(profile, empty_prefix(domain, ("p1", "p2")))
    assert res.outcome == "unique"
    assert res.history.pieces_for("p1") == tuple(p1)
    rep = is_consistent(res.history, profile)
    assert rep.consistent is True, rep.diagnosis


# -- Axiom 1 --------------------------------------------------------------------


def test_traceability_chain_always_passes():
    s = chain_rule("p1", lambda past: "1" if all(a == "0" for a in past) else "0")
    rep = check_traceability(s, 0, chain_history(["0", "0", "0"]))
    assert rep.passed and rep.method == "exhaustive"


def test_traceability_dense_structured():
    grim = make_grim_trigger("p1", "C", "D", Fraction(1, 4), ("C", "D"), UNIT)
    h = unit_history([(to.full_interval(UNIT), "C")])
    rep = check_traceability(grim, Fraction(0), h)
    assert rep.passed and rep.method == "witness-based"


def test_traceability_no_trace_fails_with_transcript():
    nt = make_gallery("no_trace", Fraction(1))
    rep = check_traceability(nt, Fraction(0), unit_history(ALL_ZERO))
    assert rep.passed is False and rep.method == "sampled"
    assert rep.witness["transcript"]  # contradiction probes recorded


def test_traceability_multi_finds_a_completion():
    mu = make_gallery("multi", Fraction(1))
    rep = check_traceability(mu, Fraction(0), unit_history(ALL_ZERO))
    assert rep.passed and "history" in rep.witness


# -- Axiom 2 --------------------------------------------------------------------


def test_well_orderedness_on_piecewise_histories():
    h = unit_history([(Interval(0, HALF, True, False), "a"),
                      (Interval(HALF, 1), "b")])
    rep = check_well_orderedness("p1", Fraction(0), [h])
    assert rep.passed


# -- Axiom 3 --------------------------------------------------------------------


def multi_pair():
    h0 = unit_history(ALL_ZERO)
    h1 = unit_history([(Interval(0, HALF), "0"),
                       (Interval(HALF, 1, False, True), "1")])
    return h0, h1


def test_initial_uniqueness_multi_pair():
    h0, h1 = multi_pair()
    assert check_initial_uniqueness("p1", Fraction(0), h0, h1).passed
    rep = check_initial_uniqueness("p1", HALF, h0, h1)
    assert rep.passed is False
    assert rep.witness["infimum"] == "1/2"  # unattained infimum at the cut


def test_initial_uniqueness_requires_equal_prefixes():
    h0, _ = multi_pair()
    other = unit_history([(Interval(0, 1), "1")])
    with pytest.raises(PrefixMismatchError):
        check_initial_uniqueness("p1", HALF, h0, other)


def test_disagreement_set_exact():
    h0, h1 = multi_pair()
    d = disagreement_set(h0, h1)
    assert len(d.pieces) == 1
    piece = d.pieces[0]
    assert piece.lo == HALF and not piece.lo_closed and piece.hi == 1


def test_initial_uniqueness_chain():
    g = chain_history(["1", "0", "0"])
    assert check_initial_uniqueness("p1", 0, g, g).passed


# -- Axiom 4 --------------------------------------------------------------------


def test_inertiality_chain_pass():
    s = chain_rule("p1", lambda past: "0")
    assert check_inertiality(s, 0, chain_history(["0", "0", "0"])).passed


def test_inertiality_constant_and_grim_pass():
    h = unit_history([(to.full_interval(UNIT), "C")])
    const = make_constant("p1", "C", ("C", "D"), UNIT)
    grim = make_grim_trigger("p1", "C", "D", Fraction(1, 4), ("C", "D"), UNIT)
    for s in (const, grim):
        rep = check_inertiality(s, Fraction(0), h,
                                alphabets={"p1": ("C", "D")})
        assert rep.passed and rep.method == "witness-based"


def test_inertiality_multi_refuted_on_dense():
    mu = make_gallery("multi", Fraction(1))
    rep = check_inertiality(mu, Fraction(0), unit_history(ALL_ZERO),
                            alphabets={"p1": ("0", "1")})
    assert rep.passed is False and rep.method == "sampled"
    assert len(rep.witness["counterexamples"]) >= 3


def test_inertiality_bad_declared_witness_fails():
    const = make_constant("p1", "C", ("C", "D"), UNIT)
    # sabotage the declared window: claim D is held although C is played
    const.inertial_witness = lambda t, p: (Fraction(1), "D")
    rep = check_inertiality(const, Fraction(0),
                            unit_history([(to.full_interval(UNIT), "C")]),
                            alphabets={"p1": ("C", "D")})
    assert rep.passed is False


# -- Axiom 5 --------------------------------------------------------------------


def test_frictionality_singleton_deviation_passes():
    h = unit_history([(Interval(0, HALF, True, False), "C"),
                      (Interval(HALF, HALF), "D"),
                      (Interval(HALF, 1, False, True), "C")])
    rep = check_frictionality("p1", "C", Fraction(0), h)
    assert rep.passed and "count 1" in rep.details


def test_frictionality_interval_deviation_fails():
    h = unit_history([(Interval(0, HALF, True, False), "C"),
                      (Interval(HALF, 1), "D")])
    rep = check_frictionality("p1", "C", Fraction(0), h)
    assert rep.passed is False
    assert rep.witness["interval"]["lo"] == "1/2"


def test_frictionality_chain_always_passes():
    rep = check_frictionality("p1", "0", 0, chain_history(["1", "1", "1"]))
    assert rep.passed


def test_frictionality_respects_bound():
    h = unit_history([(Interval(0, HALF, True, False), "D"),
                      (Interval(HALF, 1), "C")])
    # deviation lives entirely before the window [1/2, 1]
    assert check_frictionality("p1", "C", HALF, h).passed
    assert check_frictionality("p1", "C", Fraction(0), h, s=HALF).passed is False
