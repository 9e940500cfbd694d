"""Solvers for the unique consistent complete history, plus the brute oracle.

On finite chains the solution is plain forward recursion: each time's
action tuple is determined by the strategy profile applied to the prefix
built so far.  That prefix is incremental: one append-only list of merged
pieces per player grows by one step per time, and each time takes a single
HistoryPrefix snapshot of it for every strategy (the enumeration oracle,
which jumps between prefixes, still builds each one with seq_to_prefix).
On dense domains the solver runs an event loop over hold-witnesses: at
each event time it queries every player, commits a constant stretch up to
the earliest hold expiry, and repeats; singleton holds produce
instantaneous pieces followed by a right-limit re-query.  Event times
that keep accumulating below the horizon are reported as Zeno rather than
silently truncated.
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
    top = to.domain_top(domain)
    idx = list(order) if order is not None else list(range(len(players)))
    pieces: list[list[Piece]] = [list(pp) for pp in pfx.per_player]
    c = pfx.cut
    prev_actions: Optional[tuple] = None
    prev_holds: Optional[tuple] = None
    events = []
    stretch_starts = [c]
    consumed = 0

    def query(t: TimePoint, included: bool):
        p = HistoryPrefix(
            domain, t, players, tuple(tuple(pp) for pp in pieces), included
        )
        actions: list = [None] * len(players)
        holds: list = [None] * len(players)
        for i in idx:
            r = profile[i].respond(t, p)
            if r.hold_until is None:
                raise MissingWitnessError(
                    f"strategy of {players[i]} returned no hold at {t}"
                )
            actions[i] = r.action
            holds[i] = min(r.hold_until, top)
        return tuple(actions), tuple(holds)

    def finish() -> SolveResult:
        history = PiecewiseHistory.build(
            domain, players, {p: pieces[i] for i, p in enumerate(players)}
        )
        return SolveResult(UNIQUE, history, events, events_consumed=consumed)

    def over_budget() -> SolveResult:
        tail = stretch_starts[-9:]
        gaps = [b - a for a, b in zip(tail, tail[1:])]
        zeno = len(gaps) >= 3 and all(b < a for a, b in zip(gaps, gaps[1:]))
        if not zeno:
            return SolveResult(BUDGET, None, events, events_consumed=consumed,
                               diagnosis="event budget exhausted without accumulation")
        diagnosis = "event times accumulate below the horizon"
        if gaps[-2] != 0 and gaps[-3] != 0:
            q1 = Fraction(gaps[-1]) / gaps[-2]
            q2 = Fraction(gaps[-2]) / gaps[-3]
            if q1 == q2 and 0 < q1 < 1:
                return SolveResult(ZENO, None, events, events_consumed=consumed,
                                   diagnosis=diagnosis,
                                   accumulation=c + gaps[-1] * q1 / (1 - q1))
        # event times rise strictly below top, so any limit lies in (c, top]
        return SolveResult(ZENO, None, events, events_consumed=consumed,
                           diagnosis=diagnosis, accumulation_bounds=(c, top))

    while True:
        if consumed >= event_budget:
            return over_budget()
        consumed += 1
        actions, holds = query(c, False)
        events.append((c, "at", actions, holds))
        if prev_holds is not None:
            for i in range(len(players)):
                # equality first: a hold that ended exactly at c has expired
                if actions[i] != prev_actions[i] and prev_holds[i] != c \
                        and prev_holds[i] > c:
                    return SolveResult(
                        NO_TRACE, None, events, events_consumed=consumed,
                        diagnosis=(
                            f"strategy of {players[i]} held {prev_actions[i]!r} "
                            f"until {prev_holds[i]} but answered {actions[i]!r} at {c}"
                        ),
                    )
        r = min(holds)
        if r < c:
            return SolveResult(
                NO_TRACE, None, events, events_consumed=consumed,
                diagnosis=f"hold {r} earlier than query time {c}",
            )
        if c == top:
            for i in range(len(players)):
                _append_piece(domain, pieces[i], to.singleton(top), actions[i])
            return finish()
        if r == c:
            # instantaneous actions at c, then a right-limit re-query
            for i in range(len(players)):
                _append_piece(domain, pieces[i], to.singleton(c), actions[i])
            consumed += 1
            actions2, holds2 = query(c, True)
            events.append((c, "after", actions2, holds2))
            r2 = min(holds2)
            if r2 <= c:
                return SolveResult(
                    NO_TRACE, None, events, events_consumed=consumed,
                    diagnosis=f"instantaneous hold repeated at {c}",
                )
            if jitter is not None and jitter.random() < 0.5:
                mid = c + (r2 - c) / 2
                if mid > c:
                    r2 = mid
            iv = Interval(c, r2, False, False)
            for i in range(len(players)):
                _append_piece(domain, pieces[i], iv, actions2[i])
            prev_actions, prev_holds = actions2, holds2
            c = r2
        else:
            if jitter is not None and jitter.random() < 0.5:
                mid = c + (r - c) / 2
                if mid > c:
                    r = mid
            iv = Interval(c, r, True, False)
            for i in range(len(players)):
                _append_piece(domain, pieces[i], iv, actions[i])
            prev_actions, prev_holds = actions, holds
            c = r
        stretch_starts.append(c)


def oracle_enumerate(
    profile: Sequence[Strategy],
    pfx: HistoryPrefix,
    alphabets: Mapping[str, Sequence[str]],
    limit: int = 10**7,
) -> OracleResult:
    """Exhaustively enumerate completions of the prefix and filter pointwise.

    Independent validation of the chain solver: no recursion, no pruning
    beyond the pointwise consistency definition itself.
    """
    domain = pfx.domain
    players = pfx.players
    _check_profile(profile, players)
    if not to.is_chain(domain):
        raise SearchSpaceTooLargeError("oracle enumeration requires a finite chain")
    t0 = pfx.cut
    n_times = domain.size - t0
    tuples = list(itertools.product(*[alphabets[p] for p in players]))
    space = len(tuples) ** n_times
    if space > limit:
        raise SearchSpaceTooLargeError(f"search space {space} exceeds limit {limit}")
    base = encode_chain_prefix(pfx)
    evals = [
        (strategy.chain_respond
         if strategy.chain_respond is not None
         else (lambda s, seq, _st=strategy: _st.respond(
             s, seq_to_prefix(domain, players, seq, s)).action))
        for strategy in profile
    ]
    n_players = len(players)
    # responses depend only on (time, prefix); memoize across candidates
    memo: dict = {}

    def forced(s, seq):
        key = (s, seq)
        v = memo.get(key)
        if v is None:
            v = tuple(evals[i](s, seq) for i in range(n_players))
            memo[key] = v
        return v

    survivors = []
    for combo in itertools.product(tuples, repeat=n_times):
        seq = base
        ok = True
        for k in range(n_times):
            if combo[k] != forced(t0 + k, seq):
                ok = False
                break
            seq = seq + (combo[k],)
        if ok:
            survivors.append(combo)
    histories = []
    for combo in survivors:
        tails = {
            p: [(to.singleton(t0 + k), combo[k][i]) for k in range(n_times)]
            for i, p in enumerate(players)
        }
        histories.append(splice(pfx, tails))
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
