"""Solvers for the unique consistent complete history, plus the oracle.

On finite chains the solution is plain forward recursion: each time's
action tuple is determined by the strategy profile applied to the prefix
built so far.  One chain walk, `_chain_walk`, runs the solver, the chain
consistency check of `axioms` and the enumeration oracle: it grows one
append-only list of merged pieces per player and one of action tuples,
and at each step a caller's step reads one HistoryPrefix snapshot of
them and returns the action tuple to commit and the end of the stretch
it stands on, as a dense walk's step does.  The solver commits up to the
least hold given the committed tuple when every strategy has one (grim,
constant), so it pays per change of action; otherwise, and in both
checkers, a step covers one time.  The oracle's step commits the forced
tuple and counts its copies in the alphabet product, which it never
builds.
On dense domains one event walk, `_walk`, runs the solver, the
consistency walk and the traceability probe of `axioms`: at each event
time a caller's step reads every player's action and the next bound, the
walk commits a constant stretch up to it with `histories._append_piece`,
and an instant gets a singleton piece and a right-limit re-query.  The
solver's and the consistency walk's steps read each player's action and
hold through `_answers`, which prefers a strategy's hold given the tuple
the walk commits.  A solve reports Zeno, with its exact accumulation
point, only where every strategy's limit certificate proves that event
times accumulate (`_zeno_test`); a walk that runs out of events without
one reports `budget`.
Both solvers finish through `PiecewiseHistory.from_walk`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from .errors import (
    MissingWitnessError,
    SearchSpaceTooLargeError,
)
from . import timeorder as to
from .histories import (
    HistoryPrefix,
    Piece,
    PiecesView,
    PiecewiseHistory,
    _append_piece,
    _snapshot,
)
from .strategies import Strategy, encode_chain_prefix
from .timeorder import Interval, TimeDomain, TimePoint

DEFAULT_EVENT_BUDGET = 4096

UNIQUE = "unique"
NO_TRACE = "no_trace"
ZENO = "zeno"
BUDGET = "budget"


# A rendered solve keeps this many events at each end; a Zeno run is
# witnessed by its run into the limit point, not by every event before it.
WITNESS_EDGE = 16


def render_events(events: Sequence[tuple]) -> Iterator[dict]:
    """Yield the JSON object of each (time, kind, actions, holds) event.

    A stretch's hold is the same object as the next event time, so each
    point object is formatted once.  The memo is keyed by id(), not by
    value: dyadic points have colliding hashes, and every point stays alive
    in `events` while the memo exists.
    """
    memo: dict = {}

    def fmt(t):
        s = memo.get(id(t))
        if s is None:
            s = memo[id(t)] = to.format_point(t)
        return s

    for time, kind, actions, holds in events:
        yield {
            "time": fmt(time),
            "kind": kind,
            "actions": list(actions),
            "holds": [None if h is None else fmt(h) for h in holds],
        }


@dataclass
class SolveResult:
    outcome: str
    history: Optional[PiecewiseHistory] = None
    events: list = field(default_factory=list)
    diagnosis: Optional[str] = None
    accumulation: Optional[TimePoint] = None
    events_consumed: int = 0

    def to_json(self) -> dict:
        """The result as JSON, with a bounded witness: past 2 * WITNESS_EDGE
        events, `events` holds the first and the last WITNESS_EDGE of them
        and `events_omitted` counts the rest."""
        from .histories import history_to_json

        events = self.events
        omitted = max(0, len(events) - 2 * WITNESS_EDGE)
        if omitted:
            events = events[:WITNESS_EDGE] + events[-WITNESS_EDGE:]
        out = {
            "outcome": self.outcome,
            "events_consumed": self.events_consumed,
            "events_omitted": omitted,
            "events": list(render_events(events)),
        }
        if self.history is not None:
            out["history"] = history_to_json(self.history)
        if self.diagnosis is not None:
            out["diagnosis"] = self.diagnosis
        if self.accumulation is not None:
            out["accumulation"] = to.format_point(self.accumulation)
        return out


@dataclass
class OracleResult:
    histories: list
    count: int


def _check_profile(profile: Sequence[Strategy], players: Sequence[str]):
    if len(profile) != len(players) or any(
        s.player != p for s, p in zip(profile, players)
    ):
        raise ValueError("profile does not match the player list")


def _chain_commit(per: Sequence[list], s: int, e: int, actions: tuple) -> None:
    """Append chain times s..e to per-player piece lists that end at s - 1."""
    for pieces, a in zip(per, actions):
        if pieces and pieces[-1][1] == a:
            pieces[-1] = (to._interval(pieces[-1][0].lo, e, True, True), a)
        else:
            pieces.append((to._interval(s, e, True, True), a))


def seq_to_prefix(
    domain: TimeDomain, players: Sequence[str], seq: Sequence[tuple], cut: int
) -> HistoryPrefix:
    """Build a chain HistoryPrefix from a sequence of action tuples."""
    per: list[list[Piece]] = [[] for _ in players]
    for s in range(cut):
        _chain_commit(per, s, s, seq[s])
    return HistoryPrefix(domain, cut, tuple(players), tuple(map(tuple, per)))


# A chain snapshot copies a player's pieces into a tuple while they are this
# few, and views the walk's own list past that.  Short tuples are cheaper
# than views (a two-piece view costs about 5x a tuple to build and 3x to
# iterate, 0.26 and 0.67 us against 0.05 and 0.22), so views everywhere made
# grim/grim solve plus check 10-20% slower at n = 50-400; copies everywhere
# made a chain whose actions change at every time quadratic (2.8 s to solve
# 32,000 times, against 0.15 s with views; Python 3.11, 2 vCPUs).
CHAIN_COPY_PIECES = 16


def _chain_walk(pfx: HistoryPrefix, step, close):
    """The chain walk from pfx's cut, shared by solve_chain, the chain
    consistency check and the oracle: the chain twin of `_walk`.

    `step(s, p)` reads the actions at time s from p, one snapshot of the
    times below s: the merged pieces of one append-only list per player (a
    tuple or a view, see CHAIN_COPY_PIECES), and an O(1) view of the first
    s action tuples of the walk's own list, which only ever grows at its
    end.  It returns (actions, r) with s < r to commit the action tuple at
    the times s..r-1, or anything else to stop the walk with that result.
    At the top the walk commits the top alone, whatever r is (a step may
    return r == s there), and returns close(pieces).
    """
    if pfx.cut_included:
        raise ValueError("a chain walk starts from a strict prefix")
    domain, players, top = pfx.domain, pfx.players, pfx.domain.top
    seq = list(encode_chain_prefix(pfx))
    per = [list(pp) for pp in seq_to_prefix(domain, players, seq, pfx.cut).per_player]
    s = pfx.cut
    while s <= top:
        out = step(s, _snapshot(domain, s, players,
                                tuple([tuple(pp) if len(pp) <= CHAIN_COPY_PIECES
                                       else PiecesView(pp) for pp in per]),
                                actions=PiecesView(seq, s)))
        if type(out) is not tuple:
            return out
        actions, r = out
        if s == top or r == s + 1:
            seq.append(actions)  # a step per time: no list of one to build
            r = s + 1
        else:
            seq += [actions] * (r - s)
        _chain_commit(per, s, r - 1, actions)
        s = r
    return close(per)


def solve_chain(profile: Sequence[Strategy], pfx: HistoryPrefix) -> SolveResult:
    """Forward recursion on a finite chain; always yields a unique history.

    Decided once per solve: when every strategy has a `hold_given`, each
    step commits its tuple up to the least of those holds given it, capped
    at the top (a hold at s commits s alone), so a solve pays per change of
    action; otherwise each step commits one time, with holds None.
    """
    _check_profile(profile, pfx.players)
    top = pfx.domain.top
    asks = [strategy.respond for strategy in profile]
    given = [strategy.hold_given for strategy in profile]
    events = []

    if any(hold_given is None for hold_given in given):
        holds = (None,) * len(asks)

        def step(s: int, p: HistoryPrefix) -> tuple:
            actions = tuple([respond(s, p).action for respond in asks])
            events.append((s, "at", actions, holds))
            return actions, s + 1
    else:
        def step(s: int, p: HistoryPrefix) -> tuple:
            actions = tuple([respond(s, p).action for respond in asks])
            holds = tuple([min(hold_given(s, p, actions), top) for hold_given in given])
            events.append((s, "at", actions, holds))
            return actions, max(min(holds), s + 1)

    def close(pieces: list) -> SolveResult:
        history = PiecewiseHistory.from_walk(pfx.domain, pfx.players, pieces)
        return SolveResult(UNIQUE, history, events, events_consumed=len(events))

    return _chain_walk(pfx, step, close)


def _answers(profile: Sequence[Strategy], top: TimePoint,
             order: Optional[Sequence[int]] = None):
    """answer(c, p) -> (actions, holds): the one path from a dense profile
    to each player's action at c and its hold, shared by the solver's and
    the consistency walk's steps.  Strategies are asked in `order`; then a
    strategy with a conditional hold answers hold_given(c, p, actions),
    which stands while every player keeps this tuple, and the rest keep
    their response's hold_until (None when they give none).  Either is
    enough for a walk: the stretch it commits plays exactly that tuple.
    A hold_until already at the top is kept: both walks cap holds there."""
    n = len(profile)
    asks = [(i, profile[i].respond) for i in (range(n) if order is None else order)]
    given = [(i, s.hold_given) for i, s in enumerate(profile) if s.hold_given is not None]

    def answer(c: TimePoint, p: HistoryPrefix) -> tuple[tuple, list]:
        actions: list = [None] * n
        holds: list = [None] * n
        for i, respond in asks:
            res = respond(c, p)
            actions[i] = res.action
            holds[i] = res.hold_until
        actions = tuple(actions)
        for i, hold_given in given:
            if holds[i] != top:
                holds[i] = hold_given(c, p, actions)
        return actions, holds

    return answer


def _zeno_test(profile: Sequence[Strategy], top: TimePoint):
    """Whether a dense walk of `profile` may stop as Zeno, decided once per
    solve: None unless every strategy declares a certificate (a, b), those
    with a > 0 share one map t -> a*t + b with a fixed point L <= top, and
    every a = 0 hold b is at least L.  Else (L, diagnosis, test), where
    test(c, p, actions, holds) holds at an at-event c < L at which each hold
    is its certificate's value and each a > 0 strategy changed action from
    its own last piece.  From such a c, every event r = a*c + b < L again
    changes those actions and nothing else binds, so the walk makes
    infinitely many events below L that accumulate at L."""
    certs = [s.certificate for s in profile]
    if None in certs or not all(0 <= a < 1 for a, b in certs):
        return None
    maps = {cert for cert in certs if cert[0] != 0}
    if len(maps) != 1:
        return None
    [(a, b)] = maps
    limit = b / (1 - a)
    if top < limit or any(cb < limit for ca, cb in certs if ca == 0):
        return None
    moving = [i for i, cert in enumerate(certs) if cert[0] != 0]
    fixed = [(i, cert[1]) for i, cert in enumerate(certs) if cert[0] == 0]

    def test(c: TimePoint, p: HistoryPrefix, actions: tuple, holds: tuple) -> bool:
        for i in moving:
            own = p.per_player[i]
            if not own or own[-1][1] == actions[i]:
                return False
        if not c < limit:
            return False
        hold = a * c + b
        return all(holds[i] == hold for i in moving) and \
            all(holds[i] == cb for i, cb in fixed)

    return limit, (f"strategy of {profile[moving[0]].player} certifies each hold as "
                   f"{a}*t {'-' if b < 0 else '+'} {abs(b)}: event times "
                   f"accumulate at {limit}"), test


def _walk(pfx: HistoryPrefix, step, close):
    """The dense event walk from pfx's cut, shared by solve_dense, the
    consistency walk and the traceability probe.

    `step(c, p)` reads the actions at c from p, a snapshot of the pieces
    committed so far made of O(1) `PiecesView`s of the walk's own lists (a
    step may keep it: later events do not change it), and returns
    (actions, r) with r >= c to commit them on [c, r), or anything else to
    stop the walk with that result.  An r equal to c commits the instant c;
    the step then reads the right limit from a snapshot with
    p.cut_included and returns (actions, r2) for (c, r2).  At the top the
    walk closes with a singleton and returns close(pieces).
    Only equality is tested on r: an ordering comparison of Zeno event
    times, whose denominators grow to 2^budget, costs far more.
    """
    domain, players, top = pfx.domain, pfx.players, pfx.domain.top
    pieces = [list(pp) for pp in pfx.per_player]
    c = pfx.cut

    def commit(iv: Interval, actions: tuple) -> None:
        for pp, a in zip(pieces, actions):
            _append_piece(domain, pp, iv, a)

    def read(included: bool):
        return step(c, _snapshot(domain, c, players, tuple(map(PiecesView, pieces)),
                                 included))

    while True:
        out = read(False)
        if type(out) is not tuple:
            return out
        actions, r = out
        if c == top:
            commit(to.singleton(c), actions)
            return close(pieces)
        closed = r != c
        if not closed:
            commit(to.singleton(c), actions)
            out = read(True)
            if type(out) is not tuple:
                return out
            actions, r = out
        commit(Interval(c, r, closed, False), actions)
        c = r


def solve_dense(
    profile: Sequence[Strategy],
    pfx: HistoryPrefix,
    event_budget: int = DEFAULT_EVENT_BUDGET,
    order: Optional[Sequence[int]] = None,
    jitter: Optional[random.Random] = None,
) -> SolveResult:
    """Event-driven construction of the consistent history on a dense domain.

    Every strategy must supply hold-witnesses; black-box profiles raise
    MissingWitnessError.  The walk stops as `zeno`, at any budget, at the
    first at-event where the profile's limit certificates prove that event
    times accumulate (see `_zeno_test`); without that proof, a walk that
    runs out of events reports `budget`.  `order` permutes the per-event
    query order and `jitter` occasionally advances to a midpoint inside a
    hold; both must leave the canonical result unchanged (see
    verify_unique).
    """
    domain = pfx.domain
    players = pfx.players
    _check_profile(profile, players)
    if pfx.cut_included:
        raise ValueError("solve_dense starts from a strict prefix")
    for s in profile:
        if s.black_box:
            raise MissingWitnessError(f"strategy of {s.player} has no hold-witness")
    top = domain.top
    n = len(players)
    idx = list(order) if order is not None else range(n)
    events = []  # one per query, so len(events) is the events consumed

    def stop(outcome: str, diagnosis: str, **found) -> SolveResult:
        return SolveResult(outcome, None, events, events_consumed=len(events),
                           diagnosis=diagnosis, **found)

    def over_budget(c: TimePoint) -> SolveResult:
        # no certificate stopped the walk, so a limit of its events is unknown
        tail = [e[0] for e in events if e[1] == "at"][-8:] + [c]
        gaps = [b - a for a, b in zip(tail, tail[1:])]
        if len(gaps) >= 3 and all(b < a for a, b in zip(gaps, gaps[1:])):
            return stop(BUDGET, "event budget exhausted while the event gaps shrink")
        return stop(BUDGET, "event budget exhausted")

    answer = _answers(profile, top, idx)
    limit, why, certified_at = _zeno_test(profile, top) or (None, None, None)

    def step(c: TimePoint, p: HistoryPrefix):
        right = p.cut_included
        if not right and len(events) >= event_budget:
            return over_budget(c)
        actions, holds = answer(c, p)
        for i in idx:
            hold = holds[i]
            if hold is None:
                raise MissingWitnessError(
                    f"strategy of {players[i]} returned no hold at {c}"
                )
            if top < hold:
                holds[i] = top
        holds = tuple(holds)
        events.append((c, "after" if right else "at", actions, holds))
        # only an action that changed since the last stretch's query can break its
        # hold; below c the walk played exactly that query's tuple, so a hold
        # given that tuple binds like an unconditional one
        if not right and len(events) > 1 and actions != events[-2][2]:
            _, _, prev_actions, prev_holds = events[-2]
            for i in range(n):
                # equality first: a hold that ended exactly at c has expired
                if actions[i] != prev_actions[i] and prev_holds[i] != c \
                        and prev_holds[i] > c:
                    return stop(NO_TRACE,
                                f"strategy of {players[i]} held {prev_actions[i]!r} "
                                f"until {prev_holds[i]} but answered {actions[i]!r} at {c}")
        r = min(holds)
        if right and r <= c:
            return stop(NO_TRACE, f"instantaneous hold repeated at {c}")
        if r < c:
            return stop(NO_TRACE, f"hold {r} earlier than query time {c}")
        if certified_at is not None and not right and certified_at(c, p, actions, holds):
            return stop(ZENO, why, accumulation=limit)
        if jitter is not None and r != c and jitter.random() < 0.5:
            r = c + (r - c) / 2  # exact, so still above c
        return actions, r

    def close(pieces: list) -> SolveResult:
        history = PiecewiseHistory.from_walk(domain, players, pieces)
        return SolveResult(UNIQUE, history, events, events_consumed=len(events))

    return _walk(pfx, step, close)


def _space_exceeds(base: int, n: int, limit: int) -> bool:
    """Whether base ** n > limit, multiplying one factor at a time and
    stopping once the product passes limit, so a huge power is never built."""
    if base <= 1:
        return base ** n > limit
    space = 1
    for _ in range(n):
        if space > limit:
            break
        space *= base
    return space > limit


def oracle_enumerate(
    profile: Sequence[Strategy],
    pfx: HistoryPrefix,
    alphabets: Mapping[str, Sequence[str]],
    limit: int = 10**7,
) -> OracleResult:
    """Enumerate the consistent completions of a chain prefix, as one step
    of the chain walk; the tests check it against references that rebuild
    every prefix from scratch.

    A strategy answers a prefix with exactly one tuple and consistency is
    pointwise, so every consistent completion plays the forced tuple at each
    time, and a time with none in the alphabet product ends the search.  The
    completions are the copies of that one history, one per choice of a copy
    of the forced tuple at each time: a player's alphabet may repeat an
    action, and each repeat counts.  `limit` bounds the nominal space, the
    product of the alphabet sizes to the power of the times left.
    """
    domain = pfx.domain
    players = pfx.players
    _check_profile(profile, players)
    if not to.is_chain(domain):
        raise SearchSpaceTooLargeError("oracle enumeration requires a finite chain")
    n_times = domain.size - pfx.cut
    base = math.prod(len(alphabets[p]) for p in players)
    if _space_exceeds(base, n_times, limit):
        raise SearchSpaceTooLargeError(
            f"search space {base}^{n_times} exceeds limit {limit}")
    asks = [strategy.respond for strategy in profile]
    copies = [alphabets[p].count for p in players]
    count = 1

    def step(s: int, p: HistoryPrefix):
        nonlocal count
        forced = tuple([respond(s, p).action for respond in asks])
        count *= math.prod(copies_of(a) for copies_of, a in zip(copies, forced))
        return (forced, s + 1) if count else OracleResult([], 0)

    def close(pieces: list) -> OracleResult:
        history = PiecewiseHistory.from_walk(domain, players, pieces)
        return OracleResult([history] * count, count)

    return _chain_walk(pfx, step, close)


def verify_unique(
    profile: Sequence[Strategy],
    pfx: HistoryPrefix,
    result: SolveResult,
    alphabets: Optional[Mapping[str, Sequence[str]]] = None,
    runs: int = 6,
    seed: int = 0,
    event_budget: int = DEFAULT_EVENT_BUDGET,
) -> bool:
    """Cross-check a Unique solve result.

    Chains: the oracle's survivor set must be exactly {h}.  Dense: re-runs
    under permuted query orders and event-time jitter must all reproduce
    the same canonical history.
    """
    if result.outcome != UNIQUE:
        raise ValueError("verify_unique needs a Unique result")
    h = result.history
    if to.is_chain(pfx.domain):
        if alphabets is None:
            raise ValueError("chain verification needs the action alphabets")
        oracle = oracle_enumerate(profile, pfx, alphabets)
        return oracle.count == 1 and oracle.histories[0] == h
    rng = random.Random(seed)
    n = len(pfx.players)
    orders = [list(range(n))]
    while len(orders) < runs:
        perm = list(range(n))
        rng.shuffle(perm)
        orders.append(perm)
    for k, order in enumerate(orders):
        rerun = solve_dense(
            profile, pfx, event_budget=4 * event_budget, order=order,
            jitter=random.Random(seed * 1000 + k),
        )
        if rerun.outcome != UNIQUE or rerun.history != h:
            return False
    return True
