"""Complete histories and prefixes as per-player piecewise-constant maps.

A complete history assigns every time an action tuple; here each player's
map is a finite list of (interval, action) pieces that partitions the
whole domain.  Prefixes cover exactly the times strictly below a cut
(optionally including the cut itself, which the dense solver uses for
right-limit re-queries after instantaneous pieces).

Pieces are sorted, so a lookup bisects over piece starts (a walk forward
in time passes the last index as a hint and skips the bisect), and a
prefix takes one bisect per player and copies nothing: each player's
pieces are an O(1) `PiecesView` of h's own tuple, whose last item is the
one piece the cut shortens.  The dense walk hands out the same views of
its own growing lists.  The chain walk (`solver._chain_walk`, which runs
the chain solver, checker and oracle) extends one append-only piece list
per player and one of action tuples by the stretch each step commits (one
time, or up to a hold in the solver), and at each step copies a player's
pieces into a tuple while they are few and views them past that
(`solver.CHAIN_COPY_PIECES` says why).

Piece lists grow by one merging append, `_append_piece`, and are checked
by one linear tiling check, `_tiled`, which `canonical_pieces` runs after
its sort and `PiecewiseHistory.from_walk` on the pieces a walk leaves.
The JSON reader, `history_from_json`, parses each distinct endpoint
string once per document, and sorts and tiles the pieces that
`timeorder.interval_from_json` has already normalised, with no second
normalising pass.

The engine builds its snapshots with `_snapshot`, a trusted constructor of
`HistoryPrefix` in the idiom of `timeorder._interval`: no dataclass
`__init__`, and the same fields, ==, hash and repr.
"""

from __future__ import annotations

import io
import csv
from bisect import bisect_left
from collections import abc
from heapq import merge
from itertools import chain, groupby, islice
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    CoverageGapError,
    CoverageOverlapError,
    CutMismatchError,
    PointNotInDomainError,
    SchemaError,
)
from . import timeorder as to
from .timeorder import Interval, TimeDomain, TimePoint, _interval, _new, _set

Piece = tuple[Interval, str]


def _append_piece(domain: TimeDomain, pieces: list, iv: Interval, action: str) -> None:
    """Append (iv, action) to a list of pieces in time order, merging it
    into the last piece when that has the same action and abuts iv."""
    if pieces:
        prev_iv, prev_action = pieces[-1]
        if prev_action == action and to.abuts(domain, prev_iv, iv):
            pieces[-1] = (_interval(prev_iv.lo, iv.hi, prev_iv.lo_closed, iv.hi_closed),
                          action)
            return
    pieces.append((iv, action))


class PiecesView(abc.Sequence):
    """The first n items of a piece list or tuple (all it holds now by
    default), the last of them optionally replaced by `last`, as a
    read-only sequence that is O(1) to take and reads like the tuple of
    those items: len, truth, iteration, indexing, slicing (to a tuple), ==,
    hash and repr.

    A walk's list may grow later, and `_append_piece` may replace its last
    piece in place when it merges, so the view keeps its length and holds
    its last item by value; every earlier slot never changes.  A library
    prefix passes the piece its cut shortens as `last`.
    """

    __slots__ = ("_pieces", "_n", "_last")

    def __init__(self, pieces: Sequence[Piece], n: Optional[int] = None,
                 last: Optional[Piece] = None):
        self._pieces = pieces
        self._n = n = len(pieces) if n is None else n
        self._last = pieces[n - 1] if last is None and n else last

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return chain(islice(self._pieces, self._n - 1), (self._last,)) if self._n else iter(())

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        n = self._n
        if not -n <= k < n:
            raise IndexError("piece index out of range")
        return self._last if k % n == n - 1 else self._pieces[k % n]

    def __eq__(self, other):
        if isinstance(other, (tuple, PiecesView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _tiled(domain: TimeDomain, pieces: Sequence[Piece], cover: Interval) -> tuple[Piece, ...]:
    """Pieces already in time order, checked in one pass to tile `cover`
    exactly, with equal-action neighbours merged.  Each consecutive pair
    of the given pieces must abut, or CoverageGapError or
    CoverageOverlapError names the two."""
    if not pieces:
        raise CoverageGapError("no pieces for a nonempty time set")
    first = pieces[0][0]
    if first.lo != cover.lo or first.lo_closed != cover.lo_closed:
        raise CoverageGapError(f"coverage starts at {first.lo}, expected {cover.lo}")
    merged: list[Piece] = [pieces[0]]
    for (a, _), (b, action) in zip(pieces, pieces[1:]):
        if not to.abuts(domain, a, b):
            if to.intersect(a, b) is not None:
                raise CoverageOverlapError(f"pieces {a} and {b} overlap")
            raise CoverageGapError(f"gap between {a} and {b}")
        _append_piece(domain, merged, b, action)
    last = pieces[-1][0]
    if last.hi != cover.hi or last.hi_closed != cover.hi_closed:
        raise CoverageGapError(f"coverage ends at {last.hi}, expected {cover.hi}")
    return tuple(merged)


def canonical_pieces(
    domain: TimeDomain,
    pieces: Iterable[Piece],
    cover: Interval,
) -> tuple[Piece, ...]:
    """Sort, validate exact coverage of `cover`, and merge equal-action runs.

    Raises CoverageGapError / CoverageOverlapError when the pieces do not
    tile `cover` exactly.
    """
    items: list[Piece] = []
    for iv, action in pieces:
        norm = to.make_interval(domain, iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
        if norm is not None:
            items.append((norm, action))
    items.sort(key=_piece_key)
    return _tiled(domain, items, cover)


def _piece_key(piece: Piece):
    return to._sort_key(piece[0])


def _scan_start(pieces: Sequence[Piece], t: TimePoint) -> int:
    """Index of the first sorted piece that can cover t or the times just
    after it: every earlier piece ends strictly below t."""
    return max(bisect_left(pieces, t, key=lambda p: p[0].lo) - 1, 0)


def index_at(pieces: Sequence[Piece], t: TimePoint,
             hint: Optional[int] = None) -> Optional[int]:
    """Index of the piece covering t, or None.

    A walk that only moves forward finds t in the piece it found last (the
    `hint`) or in the next one, so those two are tried first; a hint is
    used only once `contains` confirms it, and a miss falls back to the
    bisect over piece starts.
    """
    if hint is not None:
        for k in (hint, hint + 1):
            if k < len(pieces) and pieces[k][0].contains(t):
                return k
    for k in range(_scan_start(pieces, t), len(pieces)):
        if pieces[k][0].contains(t):
            return k
    return None


def piece_at(pieces: Sequence[Piece], t: TimePoint) -> Optional[Piece]:
    """The piece covering t, or None."""
    k = index_at(pieces, t)
    return None if k is None else pieces[k]


def index_after(pieces: Sequence[Piece], t: TimePoint,
                hint: Optional[int] = None) -> Optional[int]:
    """Index of the first piece covering times just after t (or starting
    above t), or None.

    Those are exactly the pieces that end above t.  As in index_at, a
    forward walk's `hint` and the piece after it are tried first; the hint
    is used only when the piece before it ends at or below t, and a miss
    falls back to the bisect over piece starts.
    """
    if hint is not None and (hint == 0 or (hint <= len(pieces)
                                           and pieces[hint - 1][0].hi <= t)):
        for k in (hint, hint + 1):
            if k < len(pieces) and pieces[k][0].hi > t:
                return k
    for k in range(_scan_start(pieces, t), len(pieces)):
        if pieces[k][0].hi > t:
            return k
    return None


def eval_pieces(pieces: Sequence[Piece], t: TimePoint) -> str:
    hit = piece_at(pieces, t)
    if hit is None:
        raise PointNotInDomainError(f"time {t} not covered by pieces")
    return hit[1]


def chain_actions(per_player: Sequence[Sequence[Piece]], end: int) -> list[tuple]:
    """The action tuples at chain times 0..end-1, walking each player's pieces once."""
    columns = []
    for pieces in per_player:
        col: list[str] = []
        for iv, action in pieces:
            if len(col) >= end or iv.lo != len(col):
                break
            col.extend([action] * (min(iv.hi + 1, end) - iv.lo))
        if len(col) < end:
            raise PointNotInDomainError(f"time {len(col)} not covered by pieces")
        columns.append(col)
    return list(zip(*columns))


def chain_stretches(per_player: Sequence[Sequence[Piece]]) -> tuple[list[int], list[tuple]]:
    """The first time of each stretch of chain times on which no player's
    piece changes, and the action tuple played on it.

    The stretches start at the pieces' starts; each player's pieces tile
    the chain, so the piece holding stretch s is the first that ends at or
    after s, and each player's pieces are walked once.
    """
    starts = sorted({iv.lo for pieces in per_player for iv, _ in pieces})
    columns = []
    for pieces in per_player:
        col, i = [], 0
        for s in starts:
            while pieces[i][0].hi < s:
                i += 1
            col.append(pieces[i][1])
        columns.append(col)
    return starts, list(zip(*columns))


def stretch_actions(per_player: Sequence[Sequence[Piece]],
                    times: Sequence[TimePoint]) -> list[tuple]:
    """The action tuple on each open stretch between consecutive dense `times`.

    `times` is sorted and holds every piece boundary, so each stretch lies
    inside one piece per player; each player's pieces are walked once.
    """
    columns = []
    for pieces in per_player:
        col, i = [], 0
        for a in times[:-1]:
            while pieces[i][0].hi <= a:
                i += 1
            col.append(pieces[i][1])
        columns.append(col)
    return list(zip(*columns))


@dataclass(frozen=True)
class PiecewiseHistory:
    """A complete history h: every player's pieces partition the domain."""

    domain: TimeDomain
    players: tuple[str, ...]
    per_player: tuple[tuple[Piece, ...], ...]

    @staticmethod
    def build(
        domain: TimeDomain,
        players: Sequence[str],
        pieces_by_player: Mapping[str, Iterable[Piece]],
    ) -> "PiecewiseHistory":
        cover = to.full_interval(domain)
        per = tuple(
            canonical_pieces(domain, pieces_by_player[p], cover) for p in players
        )
        return PiecewiseHistory(domain, tuple(players), per)

    @staticmethod
    def from_walk(
        domain: TimeDomain,
        players: Sequence[str],
        per_player: Sequence[Sequence[Piece]],
    ) -> "PiecewiseHistory":
        """The history of per-player pieces already in time order, as the
        chain and dense walks leave them, checked in one pass without
        build's normalise and sort."""
        cover = to.full_interval(domain)
        return PiecewiseHistory(domain, tuple(players),
                                tuple(_tiled(domain, pp, cover) for pp in per_player))

    def pieces_for(self, player: str) -> tuple[Piece, ...]:
        return self.per_player[self.players.index(player)]

    def eval(self, t: TimePoint) -> tuple[str, ...]:
        """The action tuple at time t."""
        to.require_point(self.domain, t)
        return tuple(eval_pieces(pp, t) for pp in self.per_player)

    def eval_player(self, player: str, t: TimePoint) -> str:
        to.require_point(self.domain, t)
        return eval_pieces(self.pieces_for(player), t)

    def change_times(self) -> list[TimePoint]:
        """All piece boundary coordinates in order, for exact spot checks.

        Each player's bounds are already sorted, so they are merged and
        repeats dropped by equality, never hashed.  A dense piece ends where
        the next starts, so the starts and the top are all of them.
        """
        runs = [[iv.lo for iv, _ in pp] for pp in self.per_player]
        if to.is_chain(self.domain):  # a chain piece ends one time before the next starts
            runs += [[iv.hi for iv, _ in pp] for pp in self.per_player]
        else:
            runs.append([self.domain.hi])
        return [t for t, _ in groupby(merge(*runs))]


@dataclass(frozen=True)
class HistoryPrefix:
    """The restriction of a history to T_<cut (or T_<=cut when cut_included).

    Each player's pieces are a `PiecesView` in library prefixes, the dense
    walk's snapshots and the chain walk's snapshots of many pieces, and a
    tuple in the chain walk's snapshots of few pieces and in prefixes built
    by hand; the two compare, hash and repr alike.  A chain walk's snapshot
    also carries its action tuples at times below the cut, as a
    `PiecesView` of the walk's own list, in `actions`: it is left out of
    ==, hash and repr, and only `strategies.encode_chain_prefix` reads it.
    """

    domain: TimeDomain
    cut: TimePoint
    players: tuple[str, ...]
    per_player: tuple[Sequence[Piece], ...]
    cut_included: bool = False
    actions: Optional[Sequence[tuple]] = field(default=None, compare=False, repr=False)

    @property
    def is_empty(self) -> bool:
        return all(not pp for pp in self.per_player)

    def window(self) -> Optional[Interval]:
        if self.cut_included:
            return to.at_or_before(self.domain, self.cut)
        return to.before(self.domain, self.cut)

    def pieces_for(self, player: str) -> Sequence[Piece]:
        return self.per_player[self.players.index(player)]

    def eval(self, t: TimePoint) -> tuple[str, ...]:
        w = self.window()
        if w is None or not w.contains(t):
            raise PointNotInDomainError(f"time {t} is not below the cut {self.cut}")
        return tuple(eval_pieces(pp, t) for pp in self.per_player)


def _snapshot(domain: TimeDomain, cut: TimePoint, players: tuple[str, ...],
              per_player: tuple[Sequence[Piece], ...], cut_included: bool = False,
              actions: Optional[Sequence[tuple]] = None) -> HistoryPrefix:
    """HistoryPrefix(domain, cut, players, per_player, cut_included, actions)
    without the dataclass __init__, for the engine's own snapshots."""
    p = _new(HistoryPrefix)
    _set(p, "domain", domain)
    _set(p, "cut", cut)
    _set(p, "players", players)
    _set(p, "per_player", per_player)
    _set(p, "cut_included", cut_included)
    _set(p, "actions", actions)
    return p


def empty_prefix(domain: TimeDomain, players: Sequence[str]) -> HistoryPrefix:
    return HistoryPrefix(domain, domain.min, tuple(players), tuple(() for _ in players))


def prefix(h: PiecewiseHistory, t: TimePoint, include: bool = False) -> HistoryPrefix:
    """h restricted to times strictly below t (or <= t when include=True),
    as one O(1) `PiecesView` of h's own pieces per player."""
    to.require_point(h.domain, t)
    window = to.at_or_before(h.domain, t) if include else to.before(h.domain, t)
    per = []
    for pp in h.per_player:
        n, last = 0, None
        if window is not None:
            # pieces ending below the window's end lie wholly inside it; of
            # the one or two that reach the cut, only the last can be cut short
            n = bisect_left(pp, window.hi, key=lambda p: p[0].hi)
            for iv, a in pp[n:n + 2]:
                if (cut := to.intersect(iv, window)) is not None:
                    n, last = n + 1, (cut, a)
        per.append(PiecesView(pp, n, last))
    return _snapshot(h.domain, t, h.players, tuple(per), include)


def prefix_equal(p: HistoryPrefix, q: HistoryPrefix) -> bool:
    """True iff the two prefixes agree at every point of their window."""
    if p.domain != q.domain or p.cut != q.cut or p.cut_included != q.cut_included:
        raise CutMismatchError(
            f"cannot compare prefixes at cuts {p.cut!r}/{q.cut!r} "
            f"over {p.domain!r}/{q.domain!r}"
        )
    return p.players == q.players and p.per_player == q.per_player


def splice(p: HistoryPrefix, tails: Mapping[str, Iterable[Piece]]) -> PiecewiseHistory:
    """Complete history agreeing with p below the cut and with the tails above.

    Each tail must cover exactly the times at or above the cut (strictly
    above when the prefix includes its cut).
    """
    combined = {
        player: list(p.pieces_for(player)) + list(tails[player]) for player in p.players
    }
    return PiecewiseHistory.build(p.domain, p.players, combined)


def history_to_json(h: PiecewiseHistory) -> dict:
    return {
        player: [
            {**iv.to_json(), "action": action} for iv, action in h.pieces_for(player)
        ]
        for player in h.players
    }


def history_from_json(domain: TimeDomain, players: Sequence[str], obj: Mapping) -> PiecewiseHistory:
    """Parse {player: [{lo, hi, lo_closed, hi_closed, action}, ...]}; a
    malformed document raises SchemaError naming the bad entry, e.g. p1[0].action.

    Each distinct endpoint string is parsed once per document (a piece's hi
    is mostly the next one's lo), and each player's pieces, which
    `interval_from_json` has already normalised, are sorted and tiled once."""
    if not isinstance(obj, dict):
        raise SchemaError("$", "history must be an object keyed by player")
    memo: dict = {}
    cover = to.full_interval(domain)
    per = []
    for player in players:
        entries = obj.get(player)
        if not isinstance(entries, list):
            raise SchemaError(player, "missing list of pieces for this player")
        pieces = []
        for k, entry in enumerate(entries):
            path = f"{player}[{k}]"
            iv = to.interval_from_json(entry, domain, path, memo)
            if type(entry.get("action")) is not str:
                raise SchemaError(f"{path}.action", f"{entry['action']!r} is not a string"
                                  if "action" in entry else "missing")
            pieces.append((iv, entry["action"]))
        per.append(_tiled(domain, sorted(pieces, key=_piece_key), cover))
    return PiecewiseHistory(domain, tuple(players), tuple(per))


def history_to_csv(h: PiecewiseHistory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["player", "lo", "hi", "lo_closed", "hi_closed", "action"])
    for player in h.players:
        for iv, action in h.pieces_for(player):
            writer.writerow(
                [player, to.format_point(iv.lo), to.format_point(iv.hi),
                 iv.lo_closed, iv.hi_closed, action]
            )
    return buf.getvalue()
