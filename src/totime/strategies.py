"""Prefix-dependent strategies and the structured families the solver can run.

A strategy is a pure function from (time, prefix) to a Response.  The
interface is prefix-only by construction, so equal prefixes always yield
equal responses.  Structured families additionally supply hold-witnesses:
a per-query commitment that the returned action stays stable on [t, r) as
long as every player keeps a constant action, which is what makes
dense-time solving computable.  Black-box strategies (the counterexample
gallery) supply no witness and can only be sampled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    ActionNotInAlphabetError,
    BadParametersError,
    MissingEntryError,
    UnknownNameError,
)
from . import timeorder as to
from .histories import HistoryPrefix, Piece, chain_actions, eval_pieces, index_after, index_at
from .timeorder import DenseInterval, FiniteChain, TimeDomain, TimePoint


@dataclass(frozen=True)
class Response:
    """An action plus an optional hold-witness.

    hold_until = r > t commits the action on [t, r) under all-players-
    constant extensions; hold_until = t marks an instantaneous (singleton)
    action; None means no commitment at all (black-box).
    """

    action: str
    hold_until: Optional[TimePoint] = None


# inertial witness: (t, prefix) -> (s, action) with s > t, uniform over
# ALL extensions of the prefix on [t, s)
InertialWitness = Callable[[TimePoint, HistoryPrefix], tuple[TimePoint, str]]


@dataclass
class Strategy:
    """A player's strategy: a pure respond function plus the optional
    witnesses and fast paths the engine uses."""

    player: str
    respond: Callable[[TimePoint, HistoryPrefix], Response]
    name: str = "strategy"
    black_box: bool = False
    default_action: Optional[str] = None  # z_i, when frictional
    inertial_witness: Optional[InertialWitness] = None
    # fast path for finite chains: (t, tuple-of-action-tuples) -> action
    chain_respond: Optional[Callable[[int, tuple], str]] = None


def encode_chain_prefix(p: HistoryPrefix) -> tuple:
    """A chain prefix as the tuple of action tuples at times 0..cut-1."""
    end = p.cut + 1 if p.cut_included else p.cut
    return tuple(chain_actions(p.per_player, end))


def _wrap_chain(strategy: Strategy, domain: FiniteChain):
    """Derive respond from chain_respond for table-style strategies."""

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        return Response(strategy.chain_respond(t, encode_chain_prefix(p)), None)

    return respond


def make_constant(player: str, action: str, alphabet: Sequence[str],
                  domain: TimeDomain) -> Strategy:
    """Always play one action; inertial and frictional with z = action."""
    if action not in alphabet:
        raise ActionNotInAlphabetError(f"{action!r} not in alphabet of {player}")
    top = to.domain_top(domain)
    hold = None if to.is_chain(domain) else top

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        return Response(action, hold)

    def witness(t: TimePoint, p: HistoryPrefix):
        return top, action

    return Strategy(
        player,
        respond,
        name=f"constant({action})",
        default_action=action,
        inertial_witness=witness,
        chain_respond=(lambda t, seq: action) if to.is_chain(domain) else None,
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
    other than `cooperate` triggers.
    """
    if cooperate == punish:
        raise BadParametersError("cooperate and punish must differ")
    if cooperate not in alphabet or punish not in alphabet:
        raise ActionNotInAlphabetError("grim actions must be in the alphabet")
    delta = Fraction(delta) if not to.is_chain(domain) else delta
    if delta <= 0:
        raise BadParametersError("delta must be positive")
    if to.is_chain(domain) and (not isinstance(delta, int)):
        raise BadParametersError("chain grim trigger needs an integer delta")
    top = to.domain_top(domain)
    chain = to.is_chain(domain)
    if trigger_actions is None:
        def is_trigger(action: str) -> bool:
            return action != cooperate
    else:
        fires_set = frozenset(trigger_actions)

        def is_trigger(action: str) -> bool:
            return action in fires_set

    def punish_start(p: HistoryPrefix) -> Optional[TimePoint]:
        tau = _first_trigger(p, player, is_trigger)
        return None if tau is None else tau + delta

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        start = punish_start(p)
        if start is not None and start <= t:
            return Response(punish, None if chain else top)
        if start is not None:
            return Response(cooperate, None if chain else min(start, top))
        return Response(cooperate, None if chain else min(t + delta, top))

    def witness(t: TimePoint, p: HistoryPrefix):
        start = punish_start(p)
        if start is not None and start <= t:
            return top, punish
        s = min(start, t + delta) if start is not None else t + delta
        return min(s, top), cooperate

    return Strategy(
        player,
        respond,
        name=f"grim({cooperate}->{punish},d={delta})",
        inertial_witness=witness,
    )


def make_table(
    player: str,
    domain: FiniteChain,
    table: Mapping[tuple, str],
) -> Strategy:
    """Explicit finite-chain strategy: (t, prefix action sequence) -> action."""
    if not to.is_chain(domain):
        raise BadParametersError("table strategies require a finite chain")
    tbl = dict(table)

    def chain_respond(t: int, seq: tuple) -> str:
        key = (t, seq)
        if key not in tbl:
            raise MissingEntryError(f"table of {player} missing entry for {key!r}")
        return tbl[key]

    strategy = Strategy(player, None, name="table", chain_respond=chain_respond)
    strategy.respond = _wrap_chain(strategy, domain)
    return strategy


def _is_action_tuple(item) -> bool:
    """A tuple of str: two equal ones have equal reprs, which 1 == True lacks."""
    return type(item) is tuple and all(type(a) is str for a in item)


def _render_items(seq: tuple) -> str:
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
    prefix), so replays with the same seed are identical across processes.
    A query whose prefix extends the previous one by one action tuple, as
    in forward recursion and the consistency walk, appends that tuple's
    repr to the previous rendering instead of rendering the whole prefix;
    the digest still reads all of it.
    """
    if not alphabet:
        raise BadParametersError("empty alphabet")
    actions = tuple(alphabet)
    # (prefix, its rendered items) of the last query, read and written
    # whole; only prefixes of action tuples are kept, so an equal prefix
    # always renders the same
    last = ((), "")

    def chain_respond(t: int, seq: tuple) -> str:
        nonlocal last
        if type(seq) is tuple:
            prev, body = last
            if len(seq) == len(prev) + 1 and _is_action_tuple(seq[-1]) \
                    and seq[:-1] == prev:
                body = f"{body}, {seq[-1]!r}" if prev else repr(seq[-1])
                last = (seq, body)
            else:
                body = _render_items(seq)
                last = (seq, body) if all(map(_is_action_tuple, seq)) else ((), "")
            text = f"({body},)" if len(seq) == 1 else f"({body})"
        else:
            text = repr(seq)
        payload = f"{seed}|{player}|{t}|{text}".encode()
        digest = hashlib.sha256(payload).digest()
        return actions[int.from_bytes(digest[:8], "big") % len(actions)]

    strategy = Strategy(
        player, None, name=f"random_table(seed={seed})",
        chain_respond=chain_respond,
    )
    strategy.respond = _wrap_chain(strategy, domain)
    return strategy


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
    script = tuple(sorted(pieces, key=lambda p: to._sort_key(p[0])))
    hint = 0  # index of the last piece answered, a cursor for forward walks

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        nonlocal hint
        if to.is_chain(domain):
            return Response(eval_pieces(script, t), None)
        if p.cut_included and p.cut == t:
            # right-limit query: the action on a small open interval (t, r)
            k = index_after(script, t)
            if k is None:
                raise MissingEntryError(f"script of {player} has nothing after {t}")
            hint = k
            iv, action = script[k]
            return Response(action, iv.hi)
        k = index_at(script, t, hint)
        if k is None:
            raise MissingEntryError(f"script of {player} undefined at {t}")
        hint = k
        iv, action = script[k]
        return Response(action, t if iv.hi == t else iv.hi)

    return Strategy(
        player,
        respond,
        name="scripted",
        default_action=default_action,
        chain_respond=(lambda t, seq: eval_pieces(script, t)) if to.is_chain(domain) else None,
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
    horizon = Fraction(horizon)
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

    Cycles through `action_cycle` by change count, so event times
    accumulate at the horizon and the solver must report Zeno.
    """
    cycle = tuple(action_cycle)
    top = to.domain_top(domain)

    def respond(t: TimePoint, p: HistoryPrefix) -> Response:
        # change count so far = number of own pieces in the prefix
        k = len(p.per_player[p.players.index(player)])
        action = cycle[k % len(cycle)]
        if t >= top:
            return Response(action, top)
        return Response(action, (t + top) / 2)

    return Strategy(player, respond, name="halving_hold")
