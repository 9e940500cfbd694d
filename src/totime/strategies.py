"""Prefix-dependent strategies and the structured families the solver can run.

A strategy is a pure function from (time, prefix) to a Response.  The
interface is prefix-only by construction, so equal prefixes always yield
equal responses.  Structured families additionally supply hold-witnesses:
a per-query commitment that the returned action stays stable on [t, r) as
long as every player keeps a constant action, which is what makes
dense-time solving computable.  A family may also supply a conditional
hold, `Strategy.hold_given(t, prefix, actions)`: the hold that stands
while every player plays the tuple `actions` on [t, r).  It is at least
the unconditional hold, and a walk, which knows the tuple it commits,
reads it instead; so grim holds to the top while no one defects, and a
walk pays per change of action, not per reaction lag or per time.  On a
chain it is the only hold: responses there carry none, and a chain solve
commits stretches only when every strategy has a `hold_given` (grim,
constant).
A family may also declare a limit certificate, `Strategy.certificate`,
from which a dense walk can tell a Zeno run from its second event
instead of walking its whole event budget.
Black-box strategies (the counterexample gallery) supply no witness and
can only be sampled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    ActionNotInAlphabetError,
    BadParametersError,
    MissingEntryError,
    UnknownNameError,
)
from . import timeorder as to
from .histories import (
    HistoryPrefix,
    Piece,
    PiecesView,
    chain_actions,
    eval_pieces,
    index_after,
    index_at,
)
from .timeorder import DenseInterval, FiniteChain, TimeDomain, TimePoint


@dataclass(frozen=True)
class Response:
    """An action plus an optional hold-witness.

    hold_until = r > t commits the action on [t, r) under all-players-
    constant extensions, whatever constants they are; hold_until = t marks
    an instantaneous (singleton) action; None means no commitment at all
    (black-box, and every chain response: a chain hold comes only through
    `Strategy.hold_given`).  A strategy's `hold_given` narrows the
    extensions to one tuple of constants and may hold longer, and its
    `certificate` (a, b) fixes hold_until to a*t + b below the
    certificate's fixed point, except inside a hold it gave earlier.
    """

    action: str
    hold_until: Optional[TimePoint] = None


# inertial witness: (t, prefix) -> (s, action) with s > t, uniform over
# ALL extensions of the prefix on [t, s)
InertialWitness = Callable[[TimePoint, HistoryPrefix], tuple[TimePoint, str]]
# conditional hold: (t, prefix, actions) -> r >= t, the hold that stands
# while every player plays `actions` (one per player, in prefix order) on
# [t, r); r = t marks an instant, as for hold_until
HoldGiven = Callable[[TimePoint, HistoryPrefix, tuple], TimePoint]
# limit certificate: (a, b) with 0 <= a < 1 and fixed point L = b / (1 - a).
# Every query at t < L answers the hold a*t + b, except one below the hold the
# strategy gave at the start of its own last piece, which keeps that piece's
# action and hold.  With a = 0 the action never
# changes; with a > 0, an action that differs from the strategy's own last
# piece is followed, at the next query a*t + b on the prefix extended by what
# a walk commits up to it, by one that differs from that piece too.
Certificate = tuple[Fraction, Fraction]


@dataclass
class Strategy:
    """A player's strategy: a pure respond function plus the optional
    witnesses, fast paths and limit certificate the engine uses.  On a
    chain, `hold_given` is the strategy's only hold; table, seeded-table,
    scripted and gallery strategies offer none."""

    player: str
    respond: Callable[[TimePoint, HistoryPrefix], Response]
    name: str = "strategy"
    black_box: bool = False
    default_action: Optional[str] = None  # z_i, when frictional
    inertial_witness: Optional[InertialWitness] = None
    hold_given: Optional[HoldGiven] = None
    certificate: Optional[Certificate] = None


def encode_chain_prefix(p: HistoryPrefix) -> Sequence[tuple]:
    """A chain prefix as the sequence of action tuples at times 0..cut-1:
    an O(1) view of the engine's list for the engine's snapshots, else a
    tuple read off the pieces.  Both compare and hash like that tuple."""
    if p.actions is not None:
        return p.actions
    end = p.cut + 1 if p.cut_included else p.cut
    return tuple(chain_actions(p.per_player, end))


def make_constant(player: str, action: str, alphabet: Sequence[str],
                  domain: TimeDomain) -> Strategy:
    """Always play one action; inertial and frictional with z = action.
    Its hold given any tuple is the top on both domains; on a dense domain
    its response holds to the top too, its certificate (0, top)."""
    if action not in alphabet:
        raise ActionNotInAlphabetError(f"{action!r} not in alphabet of {player}")
    top = domain.top
    chain = to.is_chain(domain)
    answer = Response(action, None if chain else top)

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        return answer

    def witness(t: TimePoint, p: HistoryPrefix):
        return top, action

    return Strategy(
        player,
        respond,
        name=f"constant({action})",
        default_action=action,
        inertial_witness=witness,
        hold_given=lambda t, p, actions: top,
        certificate=None if chain else (Fraction(0), top),
    )


def _first_trigger(p: HistoryPrefix, player: str,
                   is_trigger: Callable[[str], bool]) -> Optional[TimePoint]:
    """Earliest time at which any opponent plays a trigger action (infimum)."""
    best: Optional[TimePoint] = None
    for j, other in enumerate(p.players):
        if other == player:
            continue
        for iv, action in p.per_player[j]:
            if is_trigger(action):
                if best is None or iv.lo < best:
                    best = iv.lo
                break  # pieces are sorted; the first hit is the earliest
    return best


def make_grim_trigger(
    player: str,
    cooperate: str,
    punish: str,
    delta: Fraction,
    alphabet: Sequence[str],
    domain: TimeDomain,
    trigger_actions: Optional[Mapping[str, Sequence[str]]] = None,
) -> Strategy:
    """Grim trigger with reaction lag delta.

    Plays `cooperate`; once any opponent has played a trigger action at
    some time r, switches to `punish` from time r + delta onward (the lag
    is what makes the family inertial).  By default every opponent action
    other than `cooperate` triggers.  On both domains its hold given a
    tuple is the top while no trigger is known or committed, so a duel in
    which no one defects is one stretch (two events, with the top's).
    """
    if cooperate == punish:
        raise BadParametersError("cooperate and punish must differ")
    if cooperate not in alphabet or punish not in alphabet:
        raise ActionNotInAlphabetError("grim actions must be in the alphabet")
    delta = to.as_point(delta) if not to.is_chain(domain) else delta
    if delta <= 0:
        raise BadParametersError("delta must be positive")
    if to.is_chain(domain) and (not isinstance(delta, int)):
        raise BadParametersError("chain grim trigger needs an integer delta")
    top = domain.top
    chain = to.is_chain(domain)
    if trigger_actions is None:
        def is_trigger(action: str) -> bool:
            return action != cooperate
    else:
        fires_set = frozenset(trigger_actions)

        def is_trigger(action: str) -> bool:
            return action in fires_set

    last = (None, None)  # the last prefix asked and its punish start

    def punish_start(p: HistoryPrefix) -> Optional[TimePoint]:
        # a walk asks respond, then hold_given, on one snapshot
        nonlocal last
        if last[0] is p:
            return last[1]
        tau = _first_trigger(p, player, is_trigger)
        start = None if tau is None else tau + delta
        last = (p, start)
        return start

    punished = Response(punish, None if chain else top)

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        start = punish_start(p)
        if start is not None and start <= t:
            return punished
        if start is not None:
            return Response(cooperate, None if chain else min(start, top))
        return Response(cooperate, None if chain else min(t + delta, top))

    def witness(t: TimePoint, p: HistoryPrefix):
        start = punish_start(p)
        if start is not None and start <= t:
            return top, punish
        s = min(start, t + delta) if start is not None else t + delta
        return min(s, top), cooperate

    def hold_given(t: TimePoint, p: HistoryPrefix, actions: tuple) -> TimePoint:
        start = punish_start(p)
        if start is not None:
            return top if start <= t else min(start, top)
        # an opponent's trigger in the tuple starts at t (just after t at a
        # right limit), so punishment would start at t + delta
        for other, a in zip(p.players, actions):
            if other != player and is_trigger(a):
                return min(t + delta, top)
        return top

    return Strategy(
        player,
        respond,
        name=f"grim({cooperate}->{punish},d={delta})",
        inertial_witness=witness,
        hold_given=hold_given,
    )


def make_table(
    player: str,
    domain: FiniteChain,
    table: Mapping[tuple, str],
) -> Strategy:
    """Explicit finite-chain strategy: (t, prefix action sequence) -> action."""
    if not to.is_chain(domain):
        raise BadParametersError("table strategies require a finite chain")
    answers = {key: Response(action, None) for key, action in table.items()}

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        key = (t, tuple(encode_chain_prefix(p)))
        if key not in answers:
            raise MissingEntryError(f"table of {player} missing entry for {key!r}")
        return answers[key]

    return Strategy(player, respond, name="table")


def _render_items(seq: Sequence) -> str:
    """The items of seq as its repr shows them: ", ".join(map(repr, seq))."""
    return ", ".join(map(repr, seq))


def make_random_table(
    player: str,
    domain: FiniteChain,
    alphabet: Sequence[str],
    seed: int,
) -> Strategy:
    """A seeded pseudo-random total table over all chain prefixes.

    The action at (t, prefix) is a stable digest of (seed, player, t,
    repr(prefix as a tuple of action tuples)), so replays with the same
    seed are identical across processes.  A query on an engine snapshot
    one action tuple longer than the last query's, over the same engine
    list, as in forward recursion and the consistency walk, appends that
    tuple's repr to the previous rendering instead of rendering the whole
    prefix; the digest still reads all of it.
    """
    if not to.is_chain(domain):
        raise BadParametersError("table strategies require a finite chain")
    if not alphabet:
        raise BadParametersError("empty alphabet")
    answers = tuple(Response(a, None) for a in alphabet)
    # (engine list or None, length, rendered items) of the last query; the
    # list's slots below a view's length never change, so it identifies them
    last = (None, 0, "")

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        nonlocal last
        seq = encode_chain_prefix(p)
        src, n, body = last
        own = seq._pieces if type(seq) is PiecesView else None
        if own is not None and own is src and len(seq) == n + 1:
            body = f"{body}, {seq[-1]!r}" if n else repr(seq[-1])
        else:
            body = _render_items(seq)
        last = (own, len(seq), body)
        text = f"({body},)" if len(seq) == 1 else f"({body})"
        digest = hashlib.sha256(f"{seed}|{player}|{t}|{text}".encode()).digest()
        return answers[int.from_bytes(digest[:8], "big") % len(answers)]

    return Strategy(player, respond, name=f"random_table(seed={seed})")


def make_scripted(
    player: str,
    domain: TimeDomain,
    pieces: Sequence[Piece],
    default_action: Optional[str] = None,
) -> Strategy:
    """Replay a fixed piecewise map regardless of the prefix.

    Used to freeze opponents at a given history and to inject scripted
    deviations.  Supplies exact hold-witnesses (the end of the current
    constant run), including right-limit queries after singleton pieces.
    """
    chain = to.is_chain(domain)
    if not chain:  # library callers may pass int or Fraction ends
        pieces = [(to.make_interval(domain, iv.lo, iv.hi, iv.lo_closed, iv.hi_closed), a)
                  for iv, a in pieces]
    script = tuple(sorted(pieces, key=lambda p: to._sort_key(p[0])))
    # a dense query in a piece, or just after an instant before it, holds to
    # the piece's end (an instant's end is the query time itself)
    answers = tuple(Response(a, iv.hi) for iv, a in script)
    hint = 0  # index of the last piece answered, a cursor for forward walks

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        nonlocal hint
        if chain:
            return Response(eval_pieces(script, t), None)
        if p.cut_included and p.cut == t:
            # right-limit query: the action on a small open interval (t, r)
            k = index_after(script, t, hint)
            if k is None:
                raise MissingEntryError(f"script of {player} has nothing after {t}")
            hint = k
            return answers[k]
        k = index_at(script, t, hint)
        if k is None:
            raise MissingEntryError(f"script of {player} undefined at {t}")
        hint = k
        return answers[k]

    return Strategy(
        player,
        respond,
        name="scripted",
        default_action=default_action,
    )


GALLERY_NAMES = ("no_trace", "multi")


def make_gallery(name: str, horizon: Fraction) -> Strategy:
    """Single-player black-box strategies exhibiting the dense pathologies.

    no_trace: play 1 while the own past is identically 0 (and 0 at the
    start), else 0 -- no complete history is consistent with it.
    multi: play 1 once a 1 appears in the past, else 0 -- many complete
    histories are consistent with it.  Both are reconstructions of the
    classic continuous-time counterexamples; neither carries a
    hold-witness.
    """
    horizon = to.as_point(horizon)
    if horizon <= 0:
        raise BadParametersError("horizon must be positive")
    player = "p1"

    def all_zero(p: HistoryPrefix) -> bool:
        return all(action == "0" for iv, action in p.per_player[0])

    def any_one(p: HistoryPrefix) -> bool:
        return any(action == "1" for iv, action in p.per_player[0])

    if name == "no_trace":

        def respond(t: TimePoint, p: HistoryPrefix) -> Response:
            if t == 0 and not p.cut_included:
                return Response("0", None)
            return Response("1" if all_zero(p) else "0", None)

    elif name == "multi":

        def respond(t: TimePoint, p: HistoryPrefix) -> Response:
            return Response("1" if any_one(p) else "0", None)

    else:
        raise UnknownNameError(f"unknown gallery strategy {name!r}")

    return Strategy(player, respond, name=f"gallery({name})", black_box=True)


def make_halving_hold(player: str, action_cycle: Sequence[str],
                      domain: DenseInterval) -> Strategy:
    """Zeno fixture: each query holds only half the remaining time.

    Cycles through `action_cycle` by change count, the number of its own
    pieces in the prefix.  When every two cyclically adjacent entries
    differ, each answer changes action, so event times accumulate at the
    horizon, and it certifies that with (1/2, top/2): its holds are
    t -> (t + top) / 2, whose fixed point is the top.  Otherwise a stretch
    can merge into its last piece, its action stops changing and it
    declares no certificate.

    On a dense domain it keeps its holds when another player cuts a stretch
    short: below the hold of its own last piece, (last.lo + top) / 2, it
    answers that piece's action and that hold, and the cycle moves on only
    past it.  A walk that queries it exactly at its holds never sees this.
    """
    cycle = tuple(action_cycle)
    top = domain.top
    dense = not to.is_chain(domain)
    certified = dense and all(x != y for x, y in zip(cycle, cycle[1:] + cycle[:1]))

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        own = p.per_player[p.players.index(player)]
        if dense and own:
            last, action = own[-1]
            hold = (last.lo + top) / 2
            if t < hold:
                return Response(action, hold)
        # change count so far = number of own pieces in the prefix
        action = cycle[len(own) % len(cycle)]
        if t >= top:
            return Response(action, top)
        return Response(action, (t + top) / 2)

    return Strategy(player, respond, name="halving_hold",
                    certificate=(Fraction(1, 2), top / 2) if certified else None)
