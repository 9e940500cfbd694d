"""Chain recursion, the dense event loop, the enumeration oracle, Zeno."""

import random
from fractions import Fraction

import pytest

from totime import timeorder as to
from totime.axioms import is_consistent
from totime.errors import MissingWitnessError, SearchSpaceTooLargeError
from totime.histories import PiecewiseHistory, empty_prefix, prefix
from totime.solver import (
    BUDGET,
    NO_TRACE,
    UNIQUE,
    ZENO,
    oracle_enumerate,
    solve_chain,
    solve_dense,
    verify_unique,
)
from totime.strategies import (
    Strategy,
    Response,
    encode_chain_prefix,
    make_constant,
    make_gallery,
    make_grim_trigger,
    make_halving_hold,
    make_random_table,
    make_scripted,
)
from totime.timeorder import DenseInterval, FiniteChain, Interval

UNIT = DenseInterval(0, 1)


def rule_strategy(player, idx, rule):
    """Chain strategy computed from the full visible prefix."""

    def respond(t, p):
        return Response(rule(t, encode_chain_prefix(p)), None)

    return Strategy(player, respond, name="rule")


def test_solve_chain_constant_profile():
    domain = FiniteChain(3)
    profile = [make_constant("p1", "a", ("a", "b"), domain)]
    res = solve_chain(profile, empty_prefix(domain, ("p1",)))
    assert res.outcome == UNIQUE
    assert [res.history.eval_player("p1", t) for t in range(3)] == ["a"] * 3


def test_solve_chain_all_previous_zero():
    domain = FiniteChain(3)
    s = rule_strategy("p1", 0, lambda t, seq: "1" if all(a[0] == "0" for a in seq) else "0")
    res = solve_chain([s], empty_prefix(domain, ("p1",)))
    assert tuple(res.history.eval_player("p1", t) for t in range(3)) == ("1", "0", "0")
    oracle = oracle_enumerate([s], empty_prefix(domain, ("p1",)), {"p1": ("0", "1")})
    assert oracle.count == 1 and oracle.histories[0] == res.history


def test_solve_chain_copycats():
    domain = FiniteChain(2)

    def copy_other(other_idx, default):
        return lambda t, seq: default if t == 0 else seq[t - 1][other_idx]

    a = rule_strategy("p1", 0, copy_other(1, "a"))
    b = rule_strategy("p2", 1, copy_other(0, "b"))
    res = solve_chain([a, b], empty_prefix(domain, ("p1", "p2")))
    assert res.history.eval(0) == ("a", "b")
    assert res.history.eval(1) == ("b", "a")
    oracle = oracle_enumerate([a, b], empty_prefix(domain, ("p1", "p2")),
                              {"p1": ("a", "b"), "p2": ("a", "b")})
    assert oracle.count == 1 and oracle.histories[0] == res.history


def test_oracle_space_limit():
    domain = FiniteChain(4)
    profile = [make_random_table(p, domain, tuple("abc"), seed=i)
               for i, p in enumerate(("p1", "p2", "p3"))]
    with pytest.raises(SearchSpaceTooLargeError):
        oracle_enumerate(profile, empty_prefix(domain, ("p1", "p2", "p3")),
                         {p: tuple("abc") for p in ("p1", "p2", "p3")},
                         limit=100)


def test_solve_dense_constant():
    profile = [make_constant("p1", "C", ("C", "D"), UNIT)]
    res = solve_dense(profile, empty_prefix(UNIT, ("p1",)))
    assert res.outcome == UNIQUE
    assert res.history.pieces_for("p1") == ((Interval(0, 1), "C"),)


def test_solve_dense_grim_pair_events():
    """Given the committed (C, C), no trigger is played, so each grim holds
    to the top: one stretch and the closing instant."""
    delta = Fraction(1, 4)
    profile = [make_grim_trigger(p, "C", "D", delta, ("C", "D"), UNIT)
               for p in ("p1", "p2")]
    pfx = empty_prefix(UNIT, ("p1", "p2"))
    res = solve_dense(profile, pfx)
    assert res.outcome == UNIQUE
    assert res.events == [(0, "at", ("C", "C"), (1, 1)), (1, "at", ("C", "C"), (1, 1))]
    assert res.history.pieces_for("p1") == ((Interval(0, 1), "C"),)
    assert verify_unique(profile, pfx, res)


def grim_duel(delta, domain=DenseInterval(-1, 2)):
    profile = [make_grim_trigger(p, "C", "D", delta, ("C", "D"), domain)
               for p in ("p1", "p2")]
    return profile, empty_prefix(domain, ("p1", "p2"))


def test_grim_duel_at_a_tiny_lag_solves_in_two_events(within):
    """At delta 1/10000 on [-1, 2] an unconditional hold of t + delta took
    30,001 events, past the default budget; the hold given (C, C) is the top."""
    profile, pfx = grim_duel(Fraction(1, 10000))

    def solve_and_check():
        res = solve_dense(profile, pfx)
        assert res.outcome == UNIQUE and res.events_consumed == 2
        assert res.history.pieces_for("p2") == ((Interval(-1, 2), "C"),)
        assert verify_unique(profile, pfx, res)
        assert is_consistent(res.history, profile).consistent is True

    within(2, solve_and_check)


def test_no_defection_duel_events_do_not_depend_on_delta():
    consumed = {solve_dense(*grim_duel(delta)).events_consumed
                for delta in (Fraction(1, 100), Fraction(1, 128), Fraction(1, 10000))}
    assert consumed == {2}


def test_a_conditional_hold_the_tuple_does_not_justify_is_refused():
    """p1's unconditional holds are honest, but its hold given any tuple
    claims the top while it switches to b at 1/2.  p2's change at 3/4 makes
    the solver ask p1 inside that claim, and the history that keeps a to the
    top as claimed fails the consistency walk there."""
    half, three_q = Fraction(1, 2), Fraction(3, 4)

    def respond(t, p):
        return Response("a", half) if t < half else Response("b", UNIT.top)

    liar = Strategy("p1", respond, name="liar", hold_given=lambda t, p, actions: UNIT.top)
    script = [(Interval(0, three_q, True, False), "x"), (Interval(three_q, 1), "y")]
    profile = [liar, make_scripted("p2", UNIT, script)]
    res = solve_dense(profile, empty_prefix(UNIT, ("p1", "p2")))
    assert res.outcome == NO_TRACE
    assert res.diagnosis == "strategy of p1 held 'a' until 1 but answered 'b' at 3/4"
    h = PiecewiseHistory.build(UNIT, ("p1", "p2"), {"p1": [(Interval(0, 1), "a")],
                                                    "p2": script})
    report = is_consistent(h, profile)
    assert report.consistent is False and report.witness_time == three_q


def test_solve_dense_scripted_deviation_triggers_punishment():
    half = Fraction(1, 2)
    grim = make_grim_trigger("p1", "C", "D", Fraction(1, 4), ("C", "D"), UNIT)
    dev = make_scripted("p2", UNIT, [
        (Interval(0, half, True, False), "C"),
        (Interval(half, half), "D"),
        (Interval(half, 1, False, True), "C"),
    ], default_action="C")
    res = solve_dense([grim, dev], empty_prefix(UNIT, ("p1", "p2")))
    assert res.outcome == UNIQUE
    assert res.history.pieces_for("p1") == (
        (Interval(0, Fraction(3, 4), True, False), "C"),
        (Interval(Fraction(3, 4), 1), "D"),
    )


@pytest.mark.parametrize("delta", [Fraction(1, 4), Fraction(1, 10000)])
@pytest.mark.parametrize("closed", [True, False])
def test_grim_punishes_a_scripted_defector_from_the_first_trigger_plus_delta(delta, closed):
    """The defector plays D from 1/3 on, from the instant 1/3 or just after
    it.  Grim's hold given (C, D) there is 1/3 + delta, and the top after."""
    third, domain = Fraction(1, 3), DenseInterval(-1, 2)
    grim = make_grim_trigger("p1", "C", "D", delta, ("C", "D"), domain)
    dev = make_scripted("p2", domain, [(Interval(-1, third, True, not closed), "C"),
                                       (Interval(third, 2, closed, True), "D")])
    profile, pfx = [grim, dev], empty_prefix(domain, ("p1", "p2"))
    res = solve_dense(profile, pfx)
    assert res.outcome == UNIQUE and res.events_consumed == (4 if closed else 5)
    assert res.history.pieces_for("p1") == (
        (Interval(-1, third + delta, True, False), "C"), (Interval(third + delta, 2), "D"))
    assert verify_unique(profile, pfx, res)
    assert is_consistent(res.history, profile).consistent is True


def test_solve_dense_rejects_black_box():
    with pytest.raises(MissingWitnessError):
        solve_dense([make_gallery("multi", Fraction(1))],
                    empty_prefix(UNIT, ("p1",)))


def test_solve_dense_no_trace_on_broken_hold():
    """A strategy that promises a hold and then reneges mid-hold is caught
    when another player's event forces a re-query inside the window."""

    def respond(t, p):
        if t == 0:
            return Response("a", Fraction(3, 4))
        return Response("b", Fraction(1))

    bad = Strategy("p1", respond, name="reneger")
    other = make_scripted("p2", UNIT, [
        (Interval(0, Fraction(1, 2), True, False), "x"),
        (Interval(Fraction(1, 2), 1), "y"),
    ])
    res = solve_dense([bad, other], empty_prefix(UNIT, ("p1", "p2")))
    assert res.outcome == NO_TRACE
    assert "held" in res.diagnosis


def test_zeno_accumulates_at_one_exactly():
    s = make_halving_hold("p1", ("0", "1"), UNIT)
    res = solve_dense([s], empty_prefix(UNIT, ("p1",)), event_budget=64)
    assert res.outcome == ZENO
    assert res.accumulation == 1
    assert res.events_consumed >= 64


def test_zeno_with_non_geometric_gaps_reports_bounds_not_a_point():
    """Gaps 1/k^2 shrink without a common ratio: the limit pi^2/6 is not
    known exactly, so only the enclosure (last event time, horizon] is given."""
    domain = DenseInterval(0, 2)

    def respond(t, p):
        k = len(p.per_player[0])  # one piece per earlier event
        return Response("ab"[k % 2], t + Fraction(1, (k + 1) ** 2))

    s = Strategy("p1", respond, name="basel")
    res = solve_dense([s], empty_prefix(domain, ("p1",)), event_budget=32)
    last = sum(Fraction(1, k * k) for k in range(1, 33))
    assert res.outcome == ZENO
    assert res.accumulation is None
    assert res.accumulation_bounds == (last, 2)
    assert last < Fraction(16449, 10000) < 2  # pi^2/6 = 1.64493...
    out = res.to_json()
    assert "accumulation" not in out
    assert out["accumulation_bounds"] == [str(last), "2"]


def test_budget_without_accumulation():
    """Uniform small holds exhaust the budget without gap shrinkage."""

    def respond(t, p):
        return Response("a", min(t + Fraction(1, 1000), Fraction(1)))

    s = Strategy("p1", respond, name="plodder")
    res = solve_dense([s], empty_prefix(UNIT, ("p1",)), event_budget=32)
    assert res.outcome == BUDGET


def test_resolving_from_cut_reproduces_tail():
    delta = Fraction(1, 4)
    profile = [make_grim_trigger(p, "C", "D", delta, ("C", "D"), UNIT)
               for p in ("p1", "p2")]
    res = solve_dense(profile, empty_prefix(UNIT, ("p1", "p2")))
    mid = prefix(res.history, Fraction(1, 2))
    res2 = solve_dense(profile, mid)
    assert res2.outcome == UNIQUE and res2.history == res.history


def test_verify_unique_rejects_forged_history():
    domain = FiniteChain(3)
    s = rule_strategy("p1", 0, lambda t, seq: "1" if all(a[0] == "0" for a in seq) else "0")
    pfx = empty_prefix(domain, ("p1",))
    res = solve_chain([s], pfx)
    forged = PiecewiseHistory.build(domain, ("p1",),
                                    {"p1": [(Interval(0, 2), "0")]})
    res.history = forged
    assert not verify_unique([s], pfx, res, alphabets={"p1": ("0", "1")})


def test_verify_unique_dense_under_permutations_and_jitter():
    profile = [
        make_grim_trigger("p1", "C", "D", Fraction(1, 4), ("C", "D"), UNIT),
        make_constant("p2", "C", ("C", "D"), UNIT),
        make_constant("p3", "D", ("C", "D"), UNIT),
    ]
    pfx = empty_prefix(UNIT, ("p1", "p2", "p3"))
    res = solve_dense(profile, pfx)
    assert res.outcome == UNIQUE
    assert verify_unique(profile, pfx, res, runs=6, seed=3)
    # p3 defects constantly, so grim punishes from delta on
    assert res.history.pieces_for("p1") == (
        (Interval(0, Fraction(1, 4), True, False), "C"),
        (Interval(Fraction(1, 4), 1), "D"),
    )


def test_solve_chain_from_nonempty_prefix():
    domain = FiniteChain(4)
    s = rule_strategy("p1", 0, lambda t, seq: "1" if all(a[0] == "0" for a in seq) else "0")
    base = PiecewiseHistory.build(domain, ("p1",), {"p1": [
        (Interval(0, 1), "0"), (Interval(2, 3), "0")]})
    pfx = prefix(base, 2)
    res = solve_chain([s], pfx)
    # prefix (0,0) means "all previous zero" still holds at t=2
    assert [res.history.eval_player("p1", t) for t in range(4)] == ["0", "0", "1", "0"]
    oracle = oracle_enumerate([s], pfx, {"p1": ("0", "1")})
    assert oracle.count == 1 and oracle.histories[0] == res.history
