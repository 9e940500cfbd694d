"""Complete histories and prefixes as per-player piecewise-constant maps.

A complete history assigns every time an action tuple; here each player's
map is a finite list of (interval, action) pieces that partitions the
whole domain.  Prefixes cover exactly the times strictly below a cut
(optionally including the cut itself, which the dense solver uses for
right-limit re-queries after instantaneous pieces).

Pieces are sorted, so a lookup bisects over piece starts (a walk forward
in time passes the last index as a hint and skips the bisect) and a
prefix copies the pieces wholly below its cut, intersecting only the one
or two pieces at the cut; chain solving and checking extend one
append-only piece list per player by a step per time instead.
"""

from __future__ import annotations

import io
import csv
from bisect import bisect_left
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
from .timeorder import Interval, TimeDomain, TimePoint

Piece = tuple[Interval, str]


def canonical_pieces(
    domain: TimeDomain,
    pieces: Iterable[Piece],
    cover: Optional[Interval],
) -> tuple[Piece, ...]:
    """Sort, validate exact coverage of `cover`, and merge equal-action runs.

    Raises CoverageGapError / CoverageOverlapError when the pieces do not
    tile `cover` exactly.  `cover=None` means the empty set (only an empty
    piece list is accepted).
    """
    items: list[Piece] = []
    for iv, action in pieces:
        norm = to.make_interval(domain, iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
        if norm is not None:
            items.append((norm, action))
    items.sort(key=lambda p: to._sort_key(p[0]))
    if cover is None:
        if items:
            raise CoverageOverlapError("pieces supplied for an empty time set")
        return ()
    if not items:
        raise CoverageGapError("no pieces for a nonempty time set")
    first = items[0][0]
    if first.lo != cover.lo or first.lo_closed != cover.lo_closed:
        raise CoverageGapError(f"coverage starts at {first.lo}, expected {cover.lo}")
    for (a, _), (b, _) in zip(items, items[1:]):
        if to.abuts(domain, a, b):
            continue
        if to.intersect(a, b) is not None:
            raise CoverageOverlapError(f"pieces {a} and {b} overlap")
        raise CoverageGapError(f"gap between {a} and {b}")
    last = items[-1][0]
    if last.hi != cover.hi or last.hi_closed != cover.hi_closed:
        raise CoverageGapError(f"coverage ends at {last.hi}, expected {cover.hi}")
    merged: list[Piece] = [items[0]]
    for iv, action in items[1:]:
        prev_iv, prev_action = merged[-1]
        if action == prev_action:
            merged[-1] = (to._try_union(domain, prev_iv, iv), action)
        else:
            merged.append((iv, action))
    return tuple(merged)


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


def index_after(pieces: Sequence[Piece], t: TimePoint) -> Optional[int]:
    """Index of the first piece covering times just after t (or starting
    above t), or None."""
    for k in range(_scan_start(pieces, t), len(pieces)):
        iv = pieces[k][0]
        if (iv.contains(t) and iv.hi > t) or (iv.lo == t and not iv.lo_closed) \
                or iv.lo > t:
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
        """All piece boundary coordinates, for exact spot checks."""
        pts = set()
        for pp in self.per_player:
            for iv, _ in pp:
                pts.add(iv.lo)
                pts.add(iv.hi)
        return sorted(pts)


@dataclass(frozen=True)
class HistoryPrefix:
    """The restriction of a history to T_<cut (or T_<=cut when cut_included)."""

    domain: TimeDomain
    cut: TimePoint
    players: tuple[str, ...]
    per_player: tuple[tuple[Piece, ...], ...]
    cut_included: bool = False

    @property
    def is_empty(self) -> bool:
        return all(not pp for pp in self.per_player)

    def window(self) -> Optional[Interval]:
        if self.cut_included:
            return to.at_or_before(self.domain, self.cut)
        return to.before(self.domain, self.cut)

    def pieces_for(self, player: str) -> tuple[Piece, ...]:
        return self.per_player[self.players.index(player)]

    def eval(self, t: TimePoint) -> tuple[str, ...]:
        w = self.window()
        if w is None or not w.contains(t):
            raise PointNotInDomainError(f"time {t} is not below the cut {self.cut}")
        return tuple(eval_pieces(pp, t) for pp in self.per_player)

    def eval_player(self, player: str, t: TimePoint) -> str:
        return self.eval(t)[self.players.index(player)]


def empty_prefix(domain: TimeDomain, players: Sequence[str]) -> HistoryPrefix:
    return HistoryPrefix(domain, to.domain_min(domain), tuple(players), tuple(() for _ in players))


def prefix(h: PiecewiseHistory, t: TimePoint, include: bool = False) -> HistoryPrefix:
    """h restricted to times strictly below t (or <= t when include=True)."""
    to.require_point(h.domain, t)
    window = to.at_or_before(h.domain, t) if include else to.before(h.domain, t)
    if window is None:
        return HistoryPrefix(h.domain, t, h.players, tuple(() for _ in h.players), include)
    per = []
    for pp in h.per_player:
        # pieces ending below the window's end lie wholly inside it; the one
        # or two pieces that reach the cut are the only ones intersected
        k = bisect_left(pp, window.hi, key=lambda p: p[0].hi)
        ends = [(cut, a) for iv, a in pp[k:k + 2]
                if (cut := to.intersect(iv, window)) is not None]
        per.append(pp[:k] + tuple(ends))
    return HistoryPrefix(h.domain, t, h.players, tuple(per), include)


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
    malformed document raises SchemaError naming the bad entry, e.g. p1[0].action."""
    if not isinstance(obj, dict):
        raise SchemaError("$", "history must be an object keyed by player")
    pieces = {}
    for player in players:
        entries = obj.get(player)
        if not isinstance(entries, list):
            raise SchemaError(player, "missing list of pieces for this player")
        pieces[player] = []
        for k, entry in enumerate(entries):
            path = f"{player}[{k}]"
            iv = to.interval_from_json(entry, domain, path)
            if "action" not in entry:
                raise SchemaError(f"{path}.action", "missing")
            pieces[player].append((iv, str(entry["action"])))
    return PiecewiseHistory.build(domain, players, pieces)


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
