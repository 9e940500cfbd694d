"""Solvers for the unique consistent complete history, plus the oracle.

On finite chains the solution is plain forward recursion: each time's
action tuple is determined by the strategy profile applied to the prefix
built so far.  That prefix is incremental: one append-only list of merged
pieces per player grows by one step per time, and each time takes a single
HistoryPrefix snapshot of it for every strategy.  The enumeration oracle
checks the solver independently: it lists the consistent completions by
a forward search that rejects each block of candidates at its first
inconsistent time, and builds every prefix afresh with seq_to_prefix.
On dense domains one event walk, `_walk`, runs the solver, the
consistency walk and the traceability probe of `axioms`: at each event
time a caller's step reads every player's action and the next bound, the
walk commits a constant stretch up to it, and an instant gets a singleton
piece and a right-limit re-query.  The solver's step reads hold-witnesses;
event times that keep accumulating below the horizon are reported as Zeno
rather than silently truncated.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import (
    MissingWitnessError,
    SearchSpaceTooLargeError,
)
from . import timeorder as to
from .histories import (
    HistoryPrefix,
    Piece,
    PiecewiseHistory,
    splice,
)
from .strategies import Strategy, encode_chain_prefix
from .timeorder import Interval, TimeDomain, TimePoint

DEFAULT_EVENT_BUDGET = 4096

UNIQUE = "unique"
NO_TRACE = "no_trace"
ZENO = "zeno"
BUDGET = "budget"


@dataclass
class SolveResult:
    outcome: str
    history: Optional[PiecewiseHistory] = None
    events: list = field(default_factory=list)
    diagnosis: Optional[str] = None
    accumulation: Optional[TimePoint] = None
    events_consumed: int = 0
    # (lo, hi) enclosing an accumulation point that is not known exactly
    accumulation_bounds: Optional[tuple] = None

    def to_json(self) -> dict:
        from .histories import history_to_json

        # A stretch's hold is the same object as the next event time, so
        # each point object is formatted once.  The memo is keyed by id(),
        # not by value: dyadic points have colliding hashes, and every
        # point stays alive in self.events while the memo exists.
        memo: dict = {}

        def fmt(t):
            s = memo.get(id(t))
            if s is None:
                s = memo[id(t)] = to.format_point(t)
            return s

        out = {
            "outcome": self.outcome,
            "events_consumed": self.events_consumed,
            "events": [
                {
                    "time": fmt(time),
                    "kind": kind,
                    "actions": list(actions),
                    "holds": [None if h is None else fmt(h) for h in holds],
                }
                for time, kind, actions, holds in self.events
            ],
        }
        if self.history is not None:
            out["history"] = history_to_json(self.history)
        if self.diagnosis is not None:
            out["diagnosis"] = self.diagnosis
        if self.accumulation is not None:
            out["accumulation"] = to.format_point(self.accumulation)
        if self.accumulation_bounds is not None:
            out["accumulation_bounds"] = [to.format_point(t) for t in self.accumulation_bounds]
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


def _chain_step(per: Sequence[list], s: int, actions: tuple) -> None:
    """Append chain time s to per-player piece lists that end at s - 1."""
    for pieces, a in zip(per, actions):
        if pieces and pieces[-1][1] == a:
            pieces[-1] = (Interval(pieces[-1][0].lo, s), a)
        else:
            pieces.append((to.singleton(s), a))


def seq_to_prefix(
    domain: TimeDomain, players: Sequence[str], seq: Sequence[tuple], cut: int
) -> HistoryPrefix:
    """Build a chain HistoryPrefix from a sequence of action tuples."""
    per: list[list[Piece]] = [[] for _ in players]
    for s in range(cut):
        _chain_step(per, s, seq[s])
    return HistoryPrefix(domain, cut, tuple(players), tuple(map(tuple, per)))


def _chain_responses(profile: Sequence[Strategy], s: int, seq: Sequence[tuple],
                     per: Sequence[list], domain: TimeDomain, players: tuple):
    """Yield each strategy's action at chain time s, in profile order.

    `per` holds the merged pieces of times below s; the action-tuple prefix
    and the HistoryPrefix are each built at most once for all players.
    """
    past = snapshot = None
    for strategy in profile:
        if strategy.chain_respond is not None:
            if past is None:
                past = tuple(seq[:s])
            yield strategy.chain_respond(s, past)
        else:
            if snapshot is None:
                snapshot = HistoryPrefix(domain, s, players, tuple(map(tuple, per)))
            yield strategy.respond(s, snapshot).action


def solve_chain(profile: Sequence[Strategy], pfx: HistoryPrefix) -> SolveResult:
    """Forward recursion on a finite chain; always yields a unique history."""
    domain = pfx.domain
    players = pfx.players
    _check_profile(profile, players)
    if pfx.cut_included:
        raise ValueError("solve_chain starts from a strict prefix")
    seq = list(encode_chain_prefix(pfx))
    per: list[list[Piece]] = [[] for _ in players]
    for s, actions in enumerate(seq):
        _chain_step(per, s, actions)
    events = []
    for s in range(pfx.cut, domain.size):
        actions = tuple(_chain_responses(profile, s, seq, per, domain, players))
        seq.append(actions)
        _chain_step(per, s, actions)
        events.append((s, "at", actions, tuple(None for _ in players)))
    history = PiecewiseHistory.build(domain, players, dict(zip(players, per)))
    return SolveResult(UNIQUE, history, events, events_consumed=len(events))


def _append_piece(domain, pieces: list, iv: Interval, action: str):
    if pieces:
        prev_iv, prev_action = pieces[-1]
        if prev_action == action and to.abuts(domain, prev_iv, iv):
            pieces[-1] = (Interval(prev_iv.lo, iv.hi, prev_iv.lo_closed, iv.hi_closed),
                          action)
            return
    pieces.append((iv, action))


def _walk(pfx: HistoryPrefix, step, close):
    """The dense event walk from pfx's cut, shared by solve_dense, the
    consistency walk and the traceability probe.

    `step(c, p)` reads the actions at c from p, a snapshot of the pieces
    committed so far, and returns (actions, r) with r >= c to commit them on
    [c, r), or anything else to stop the walk with that result.  An r equal
    to c commits the instant c; the step then reads the right limit from a
    snapshot with p.cut_included and returns (actions, r2) for (c, r2).  At
    the top the walk closes with a singleton and returns close(pieces).
    Only equality is tested on r: an ordering comparison of Zeno event
    times, whose denominators grow to 2^budget, costs far more.
    """
    domain, players = pfx.domain, pfx.players
    pieces = [list(pp) for pp in pfx.per_player]
    c = pfx.cut

    def commit(iv: Interval, actions: tuple) -> None:
        for pp, a in zip(pieces, actions):
            _append_piece(domain, pp, iv, a)

    def read(included: bool):
        return step(c, HistoryPrefix(domain, c, players, tuple(map(tuple, pieces)),
                                     included))

    while True:
        out = read(False)
        if type(out) is not tuple:
            return out
        actions, r = out
        if c == domain.top:
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
    MissingWitnessError.  `order` permutes the per-event query order and
    `jitter` occasionally advances to a midpoint inside a hold; both must
    leave the canonical result unchanged (see verify_unique).
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
        tail = [e[0] for e in events if e[1] == "at"][-8:] + [c]
        gaps = [b - a for a, b in zip(tail, tail[1:])]
        zeno = len(gaps) >= 3 and all(b < a for a, b in zip(gaps, gaps[1:]))
        if not zeno:
            return stop(BUDGET, "event budget exhausted without accumulation")
        diagnosis = "event times accumulate below the horizon"
        if gaps[-2] != 0 and gaps[-3] != 0:
            q1 = Fraction(gaps[-1]) / gaps[-2]
            q2 = Fraction(gaps[-2]) / gaps[-3]
            if q1 == q2 and 0 < q1 < 1:
                return stop(ZENO, diagnosis, accumulation=c + gaps[-1] * q1 / (1 - q1))
        # event times rise strictly below top, so any limit lies in (c, top]
        return stop(ZENO, diagnosis, accumulation_bounds=(c, top))

    def step(c: TimePoint, p: HistoryPrefix):
        right = p.cut_included
        if not right and len(events) >= event_budget:
            return over_budget(c)
        actions: list = [None] * n
        holds: list = [None] * n
        for i in idx:
            res = profile[i].respond(c, p)
            if res.hold_until is None:
                raise MissingWitnessError(
                    f"strategy of {players[i]} returned no hold at {c}"
                )
            actions[i] = res.action
            holds[i] = min(res.hold_until, top)
        actions, holds = tuple(actions), tuple(holds)
        events.append((c, "after" if right else "at", actions, holds))
        if not right and len(events) > 1:
            _, _, prev_actions, prev_holds = events[-2]  # the last stretch's query
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
        if jitter is not None and r != c and jitter.random() < 0.5:
            r = c + (r - c) / 2  # exact, so still above c
        return actions, r

    def close(pieces: list) -> SolveResult:
        history = PiecewiseHistory.build(domain, players, dict(zip(players, pieces)))
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
    """Enumerate the consistent completions of a chain prefix, independently
    of the solver.

    A strategy answers a prefix with exactly one tuple and consistency is
    pointwise, so a candidate that differs from the forced tuple at some
    time fails with every continuation.  The search goes forward in time,
    querying each strategy once per time (chain_respond, or respond on a
    prefix built by seq_to_prefix); survivors come in itertools.product
    order.  `limit` bounds the nominal space, len(tuples) ** times left.
    """
    domain = pfx.domain
    players = pfx.players
    _check_profile(profile, players)
    if not to.is_chain(domain):
        raise SearchSpaceTooLargeError("oracle enumeration requires a finite chain")
    t0 = pfx.cut
    n_times = domain.size - t0
    tuples = list(itertools.product(*[alphabets[p] for p in players]))
    if _space_exceeds(len(tuples), n_times, limit):
        raise SearchSpaceTooLargeError(
            f"search space {len(tuples)}^{n_times} exceeds limit {limit}")
    seq = encode_chain_prefix(pfx)
    steps = []  # per time, the alphabet tuples equal to the forced tuple
    for s in range(t0, domain.size):
        forced = tuple(
            st.chain_respond(s, seq) if st.chain_respond is not None
            else st.respond(s, seq_to_prefix(domain, players, seq, s)).action
            for st in profile
        )
        matches = [t for t in tuples if t == forced]
        if not matches:
            return OracleResult([], 0)
        steps.append(matches)
        seq += (matches[0],)
    histories = [
        splice(pfx, {
            p: [(to.singleton(t0 + k), combo[k][i]) for k in range(n_times)]
            for i, p in enumerate(players)
        })
        for combo in itertools.product(*steps)
    ]
    return OracleResult(histories, len(histories))


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
