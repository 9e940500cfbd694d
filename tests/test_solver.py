"""Chain recursion, the dense event loop, the enumeration oracle, Zeno."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from totime import timeorder as to
from totime.axioms import is_consistent
from totime.errors import MissingWitnessError
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


def test_oracle_walks_a_space_of_any_size():
    # 27^4 candidates; the walk asks each strategy once per time
    domain = FiniteChain(4)
    players = ("p1", "p2", "p3")
    profile = [make_random_table(p, domain, tuple("abc"), seed=i)
               for i, p in enumerate(players)]
    pfx = empty_prefix(domain, players)
    oracle = oracle_enumerate(profile, pfx, {p: tuple("abc") for p in players})
    assert oracle.count == 1 and oracle.histories == [solve_chain(profile, pfx).history]


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
    """The halving's certificate stops the walk at its second event."""
    s = make_halving_hold("p1", ("0", "1"), UNIT)
    assert s.certificate == (Fraction(1, 2), Fraction(1, 2))
    res = solve_dense([s], empty_prefix(UNIT, ("p1",)), event_budget=64)
    assert res.outcome == ZENO
    assert res.accumulation == 1
    assert res.events_consumed == 2
    assert res.diagnosis == ("strategy of p1 certifies each hold as 1/2*t + 1/2: "
                             "event times accumulate at 1")


def test_non_geometric_gaps_exhaust_the_budget():
    """Gaps 1/k^2 shrink towards pi^2/6, but no certificate names the limit,
    so the walk reports `budget`, noting that the gaps shrink."""
    domain = DenseInterval(0, 2)

    def respond(t, p):
        k = len(p.per_player[0])  # one piece per earlier event
        return Response("ab"[k % 2], t + Fraction(1, (k + 1) ** 2))

    s = Strategy("p1", respond, name="basel")
    res = solve_dense([s], empty_prefix(domain, ("p1",)), event_budget=32)
    assert res.outcome == BUDGET
    assert res.events_consumed == 32
    assert res.accumulation is None
    assert res.diagnosis == "event budget exhausted while the event gaps shrink"
    assert "accumulation" not in res.to_json()


def four_piece_script():
    """One player on [0, 1] cut at 1/2, 3/4 and 7/8: the gaps halve, but
    the history is unique and four pieces long."""
    cuts = [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(1)]
    return make_scripted("p1", UNIT, [(Interval(a, b, True, b == 1), "ab"[k % 2])
                                      for k, (a, b) in enumerate(zip(cuts, cuts[1:]))])


@pytest.mark.parametrize("budget", range(1, 9))
def test_four_piece_script_is_never_zeno(budget):
    res = solve_dense([four_piece_script()], empty_prefix(UNIT, ("p1",)),
                      event_budget=budget)
    assert res.outcome == (UNIQUE if budget >= 5 else BUDGET)
    assert res.accumulation is None


@pytest.mark.parametrize("cycle", [("C",), ("C", "C", "D"), ("C", "D", "C"), ("D", "D")])
@pytest.mark.parametrize("budget", [1, 2, 3, 64])
def test_stuck_halving_cycles_are_never_zeno(cycle, budget):
    """A cycle with two equal cyclic neighbours merges a stretch into its
    last piece and then plays one action for good, so it declares no
    certificate.  Where it stops changing at its second event, a forced
    certificate certifies nothing either: the walk sees that."""
    s = make_halving_hold("p1", cycle, UNIT)
    assert s.certificate is None
    pfx = empty_prefix(UNIT, ("p1",))
    forced = [replace(s, certificate=(Fraction(1, 2), Fraction(1, 2)))]
    for strategy in [s] + forced * (cycle[0] == cycle[1 % len(cycle)]):
        res = solve_dense([strategy], pfx, event_budget=budget)
        assert (res.outcome, res.events_consumed) == (BUDGET, budget)


@pytest.mark.parametrize("other", ["grim", "script"])
def test_halving_against_an_uncertified_strategy_is_not_certified(other):
    """Both opponents hold to the top, so the event times are the
    certified halving's, but only one of the two players certifies them."""
    domain = DenseInterval(-1, 2)
    opponent = (make_grim_trigger("p2", "C", "D", Fraction(1, 4), ("C", "D"), domain,
                                  trigger_actions=["D"])
                if other == "grim"
                else make_scripted("p2", domain, [(Interval(-1, 2), "C")]))
    assert opponent.certificate is None
    profile = [make_halving_hold("p1", ("C", "E"), domain), opponent]
    res = solve_dense(profile, empty_prefix(domain, ("p1", "p2")), event_budget=256)
    assert (res.outcome, res.events_consumed) == (BUDGET, 256)


@pytest.mark.parametrize("cert", [
    (Fraction(1, 3), Fraction(2, 3)),  # fixed point 1, but not the answered holds
    (Fraction(1, 2), Fraction(1, 4)),  # the holds of a horizon at 1/2
    (Fraction(1, 2), Fraction(3, 4)),  # a fixed point past the top
    (Fraction(1), Fraction(0)),        # not a contraction
])
def test_a_certificate_that_disagrees_with_its_holds_certifies_nothing(cert):
    s = replace(make_halving_hold("p1", ("C", "D"), UNIT), certificate=cert)
    res = solve_dense([s], empty_prefix(UNIT, ("p1",)), event_budget=64)
    assert (res.outcome, res.events_consumed) == (BUDGET, 64)


def test_a_constant_hold_below_the_limit_certifies_nothing():
    """An a = 0 hold must reach the fixed point.  Here p2 holds to 1/2, as
    its certificate says, and at 1/2 the halving changes action with the
    certified hold 3/4; the walk goes on to the instant 1/2, where p2's
    hold gives out, instead of claiming a limit at 1."""
    constant = make_constant("p2", "C", ("C", "D"), UNIT)
    assert constant.certificate == (0, 1)
    halving = make_halving_hold("p1", ("C", "D"), UNIT)
    pfx = empty_prefix(UNIT, ("p1", "p2"))
    assert solve_dense([halving, constant], pfx, event_budget=64).outcome == ZENO
    half = Fraction(1, 2)
    low = Strategy("p2", lambda t, p: Response("C", half), certificate=(Fraction(0), half))
    res = solve_dense([halving, low], pfx, event_budget=64)
    assert res.outcome == NO_TRACE and res.events[-1][0] == half


def test_halving_keeps_its_hold_when_another_player_cuts_its_stretch_short():
    """Grim cuts the halving's stretch short when it starts punishing, and
    a re-query inside the halving's own hold keeps that hold instead of
    turning the cycle, so the walk runs on (to the budget: grim declares no
    certificate) where it used to end as no_trace after 3 events."""
    domain = DenseInterval(-1, 2)
    profile = [make_halving_hold("p1", ("C", "D"), domain),
               make_grim_trigger("p2", "C", "D", Fraction(1, 4), ("C", "D"), domain)]
    pfx = empty_prefix(domain, ("p1", "p2"))
    assert solve_dense(profile, pfx).outcome != NO_TRACE
    res = solve_dense(profile, pfx, event_budget=64)
    assert (res.outcome, res.events_consumed) == (BUDGET, 64)
    # p1 turns to D at 1/2, holding to 5/4; grim punishes from 3/4 on, and
    # p1 answers the re-query at 3/4 with the same action and hold
    c, kind, actions, holds = res.events[2]
    assert (c, kind, actions, holds[0]) == (Fraction(3, 4), "at", ("D", "D"), Fraction(5, 4))


def test_hold_given_is_skipped_once_the_hold_reaches_the_top():
    """Grim against a defector punishes from 1/4 on; its unconditional hold
    is then the top, which no conditional hold can lengthen."""
    calls = []
    grim = make_grim_trigger("p1", "C", "D", Fraction(1, 4), ("C", "D"), UNIT)
    given = grim.hold_given
    grim = replace(grim, hold_given=lambda t, p, a: calls.append(t) or given(t, p, a))
    profile = [grim, make_constant("p2", "D", ("C", "D"), UNIT)]
    res = solve_dense(profile, empty_prefix(UNIT, ("p1", "p2")))
    assert res.outcome == UNIQUE
    assert [e[0] for e in res.events] == [0, Fraction(1, 4), 1]
    assert calls == [0]
    assert is_consistent(res.history, profile).consistent is True
    assert calls == [0, 0]


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
