"""Chain solves that commit stretches agree with a walk of one time per step.

When every strategy of a chain profile has a hold given the committed
tuple (grim, constant), `solve_chain` commits each tuple up to the least
of those holds; otherwise it asks every time.  Over generated profiles
that mix grim (random integer lag, default or custom triggers), constant
and seeded-table strategies, from the empty prefix and from library
prefixes with and without a trigger, the solve must equal a reference
that asks every strategy at every time on a prefix it builds itself, pass
the exhaustive consistency check and be the oracle's one survivor; and a
solve of holding strategies takes at most one event per time at which
some action changes, plus the first and the top.  The checkers keep
asking every time, so a hold that lies is caught.
"""

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from totime.axioms import EXHAUSTIVE, is_consistent
from totime.histories import (
    HistoryPrefix,
    PiecewiseHistory,
    chain_actions,
    empty_prefix,
    prefix,
)
from totime.solver import oracle_enumerate, solve_chain, verify_unique
from totime.strategies import (
    Response,
    Strategy,
    make_constant,
    make_grim_trigger,
    make_random_table,
)
from totime.timeorder import FiniteChain, Interval

LETTERS = ("C", "D", "x")


def per_time_history(profile, domain, players, start):
    """Forward recursion from the action tuples `start`, one time per step,
    on prefixes of plain piece tuples that carry no action list."""
    seq = list(start)
    runs = [[] for _ in players]
    for t, actions in enumerate(seq):
        for pieces, a in zip(runs, actions):
            if pieces and pieces[-1][1] == a:
                pieces[-1] = (Interval(pieces[-1][0].lo, t), a)
            else:
                pieces.append((Interval(t, t), a))
    for s in range(len(seq), domain.size):
        pfx = HistoryPrefix(domain, s, tuple(players), tuple(map(tuple, runs)))
        actions = tuple(strategy.respond(s, pfx).action for strategy in profile)
        seq.append(actions)
        for pieces, a in zip(runs, actions):
            if pieces and pieces[-1][1] == a:
                pieces[-1] = (Interval(pieces[-1][0].lo, s), a)
            else:
                pieces.append((Interval(s, s), a))
    return PiecewiseHistory.build(domain, players, {
        p: list(pieces) for p, pieces in zip(players, runs)}), seq


@st.composite
def chain_cases(draw):
    """(profile, alphabets, start prefix, its action tuples) on a chain of
    at most 60 times."""
    n = draw(st.integers(1, 60))
    domain = FiniteChain(n)
    players = [f"p{i + 1}" for i in range(draw(st.integers(1, 3)))]
    alphabets = {p: LETTERS[:draw(st.integers(2, 3))] for p in players}
    profile, quiet = [], {}  # quiet[p]: p's actions that trigger no grim of another
    for p in players:
        alpha = alphabets[p]
        kind = draw(st.sampled_from(["grim", "constant", "table"]))
        if kind == "grim":
            cooperate, punish = draw(st.permutations(alpha))[:2]
            others = sorted({a for q in players if q != p for a in alphabets[q]})
            triggers = None
            if others and draw(st.booleans()):
                triggers = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
            profile.append(make_grim_trigger(p, cooperate, punish,
                                             draw(st.integers(1, n + 2)), alpha, domain,
                                             trigger_actions=triggers))
            for q in players:
                if q != p:
                    keep = [cooperate] if triggers is None else [
                        a for a in LETTERS if a not in triggers]
                    quiet[q] = [a for a in quiet.get(q, alphabets[q]) if a in keep]
        elif kind == "constant":
            profile.append(make_constant(p, draw(st.sampled_from(alpha)), alpha, domain))
        else:
            profile.append(make_random_table(p, domain, alpha, draw(st.integers(0, 99))))
    start = draw(st.sampled_from(["empty", "quiet", "any"]) if n > 1 else st.just("empty"))
    if start == "empty":
        return profile, alphabets, empty_prefix(domain, players), ()
    k = draw(st.integers(1, n - 1))
    # a quiet prefix falls back to the whole alphabet where no action avoids every trigger
    choices = [quiet.get(p) or alphabets[p] if start == "quiet" else alphabets[p]
               for p in players]
    seq = [tuple(draw(st.sampled_from(c)) for c in choices) for _ in range(k)]
    full = seq + seq[-1:] * (n - k)  # a complete history to take the library prefix of
    h = PiecewiseHistory.build(domain, players, {
        p: [(Interval(t, t), full[t][i]) for t in range(n)] for i, p in enumerate(players)})
    return profile, alphabets, prefix(h, k), tuple(seq)


def watched(strategy):
    """The strategy, asserting at each query that the snapshot's list of
    action tuples, which only seeded tables read, matches its pieces."""
    def respond(t, p):
        assert tuple(p.actions) == tuple(chain_actions(p.per_player, t))
        return strategy.respond(t, p)

    return dataclasses.replace(strategy, respond=respond)


@settings(max_examples=300, deadline=None)
@given(chain_cases())
def test_stretch_walk_agrees_with_a_step_per_time(case):
    profile, alphabets, pfx, start = case
    domain, players, k = pfx.domain, pfx.players, pfx.cut
    res = solve_chain([watched(s) for s in profile], pfx)
    want, seq = per_time_history(profile, domain, players, start)
    assert res.history == want
    rep = is_consistent(res.history, profile, k)
    assert (rep.consistent, rep.method, rep.checked) == (True, EXHAUSTIVE, domain.size - k)
    # what verify_unique runs on a chain, with the oracle's space limit lifted;
    # verify_unique itself refuses a space above 10^7
    space = len(list(itertools.product(*alphabets.values()))) ** (domain.size - k)
    oracle = oracle_enumerate(profile, pfx, alphabets, limit=space)
    assert oracle.count == 1 and oracle.histories == [res.history]
    if space <= 10**7:
        assert verify_unique(profile, pfx, res, alphabets)
    if all(s.hold_given is not None for s in profile):
        changes = sum(seq[s] != seq[s - 1] for s in range(k + 1, domain.size))
        assert res.events_consumed <= changes + 2
    else:
        assert res.events_consumed == domain.size - k
        assert all(holds == (None,) * len(players) for *_, holds in res.events)


def test_a_chain_hold_that_lies_fails_both_checkers():
    domain = FiniteChain(6)
    liar = Strategy("p1", lambda t, p: Response("ab"[t % 2]), name="liar",
                    hold_given=lambda t, p, actions: domain.top)
    pfx = empty_prefix(domain, ("p1",))
    res = solve_chain([liar], pfx)
    assert res.events_consumed == 2
    assert res.history.per_player == (((Interval(0, 4), "a"), (Interval(5, 5), "b")),)
    rep = is_consistent(res.history, [liar])
    assert (rep.consistent, rep.method, rep.witness_time) == (False, EXHAUSTIVE, 1)
    assert verify_unique([liar], pfx, res, {"p1": ("a", "b")}) is False
