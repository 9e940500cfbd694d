"""Consistency and axiom checkers.

`is_consistent` decides whether a complete history follows a strategy
profile on a target set of times: exhaustively on finite chains, by an
exact hold-witness walk on dense domains, and by boundary-plus-sample
probing when some strategy is a black box (reported as method "sampled").
The dense walk and the traceability probe of black boxes run on the
solver's event walk, with steps that compare with h or probe spans.

The per-player axiom checkers cover traceability (1), well-ordered change
(2), initial uniqueness (3), inertiality (4), and frictionality (5).  Each
returns an AxiomReport whose `passed` field is True/False/None, None
meaning the check was inconclusive at the configured budget — a
first-class outcome for black-box strategies on dense domains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import PrefixMismatchError, SetOutsideSubgameError
from . import timeorder as to
from .histories import (
    HistoryPrefix,
    Piece,
    PiecewiseHistory,
    chain_actions,
    history_to_json,
    index_at,
    prefix as history_prefix,
    prefix_equal,
)
from .partitions import change_partition, is_well_ordered
from .solver import (
    DEFAULT_EVENT_BUDGET,
    NO_TRACE,
    UNIQUE,
    _append_piece,
    _chain_responses,
    _check_profile,
    _chain_step,
    _walk,
    solve_chain,
    solve_dense,
)
from .strategies import Strategy, make_scripted
from .timeorder import Interval, IntervalSet, TimeDomain, TimePoint

EXHAUSTIVE = "exhaustive"
WITNESS_BASED = "witness-based"
SAMPLED = "sampled"


@dataclass
class ConsistencyReport:
    consistent: Optional[bool]
    method: str
    target: Optional[list] = None  # IntervalSet JSON of the checked set
    witness_time: Optional[TimePoint] = None
    diagnosis: Optional[str] = None
    checked: int = 0

    def to_json(self) -> dict:
        return {
            "consistent": self.consistent,
            "method": self.method,
            "target": self.target,
            "witness_time": (
                None if self.witness_time is None else to.format_point(self.witness_time)
            ),
            "diagnosis": self.diagnosis,
            "checked": self.checked,
        }


@dataclass
class AxiomReport:
    axiom: int
    passed: Optional[bool]
    method: str
    witness: Optional[dict] = None
    details: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "method": self.method,
            "witness": self.witness,
            "details": self.details,
        }


def _rand_fraction(rng: random.Random, denom: int = 2**16) -> Fraction:
    return Fraction(rng.randrange(1, denom), denom)


# -- Definition 1: t-consistency ----------------------------------------------


def _chain_consistent(
    profile, h: PiecewiseHistory, t: int, target: IntervalSet
) -> ConsistencyReport:
    domain = h.domain
    seq = chain_actions(h.per_player, domain.size)
    per: list[list[Piece]] = [[] for _ in h.players]
    checked = 0
    for s in range(domain.size):
        if s >= t and target.contains(s):
            wants = _chain_responses(profile, s, seq, per, domain, h.players)
            for i, want in enumerate(wants):
                if seq[s][i] != want:
                    return ConsistencyReport(
                        False, EXHAUSTIVE, target.to_json(), s,
                        f"player {h.players[i]} plays {seq[s][i]!r} at {s}, "
                        f"strategy requires {want!r}",
                        checked,
                    )
            checked += 1
        _chain_step(per, s, seq[s])
    return ConsistencyReport(True, EXHAUSTIVE, target.to_json(), checked=checked)


def _dense_walk(
    profile, h: PiecewiseHistory, t: TimePoint, target: IntervalSet, budget: int,
    samples: int, seed: int,
) -> ConsistencyReport:
    """Check h from t on the solver's event walk, comparing every step with h.

    A step ends at the earliest hold or end of a piece of h.  Until the
    first disagreement the walk's pieces equal h's prefix, so strategies
    see h; h itself is read through one cursor per player.  A strategy
    without a hold hands the rest of the check to sampling.
    """
    top = h.domain.top
    per = h.per_player
    at_c = [0] * len(per)  # index of each player's piece of h at c
    steps = 0  # an at-query and its right-limit re-query are one step

    def report(consistent, c=None, diagnosis=None) -> ConsistencyReport:
        return ConsistencyReport(consistent, WITNESS_BASED, target.to_json(), c,
                                 diagnosis, steps)

    def step(c: TimePoint, p: HistoryPrefix):
        nonlocal steps
        if not p.cut_included:
            if steps >= budget:
                return report(None, diagnosis="verification budget exhausted")
            steps += 1
        resp = [s.respond(c, p) for s in profile]
        actions = tuple(r.action for r in resp)
        if p.cut_included:
            r2 = top
            for i, r in enumerate(resp):
                if r.hold_until is None or r.hold_until <= c:
                    return report(False, c, f"strategy of {h.players[i]} repeats an "
                                            f"instantaneous hold at {c}")
                # h's piece just after c: the piece at c, or the next one if
                # that ends at c
                k = at_c[i] = at_c[i] + (per[i][at_c[i]][0].hi == c)
                iv, a = per[i][k]
                if a != r.action:
                    return report(False, c, f"history plays {a!r} just after {c}, "
                                            f"strategy of {h.players[i]} requires "
                                            f"{r.action!r}")
                r2 = min(r2, r.hold_until, iv.hi)
            return actions, r2
        if any(r.hold_until is None for r in resp):
            return _sampled_consistent(profile, h, c, target, samples, seed)
        for i, pieces in enumerate(per):
            at_c[i] = index_at(pieces, c, at_c[i])
        hval = tuple(per[i][k][1] for i, k in enumerate(at_c))
        if hval != actions:
            return report(False, c, f"history plays {hval!r} at {c}, "
                                    f"strategies require {actions!r}")
        # a hold or a piece of h that ends at c makes c an instant
        end = min(top, *(r.hold_until for r in resp),
                  *(per[i][k][0].hi for i, k in enumerate(at_c)))
        return actions, (end if end > c else c)

    return _walk(history_prefix(h, t), step, lambda pieces: report(True))


def _sampled_consistent(
    profile, h: PiecewiseHistory, t: TimePoint, target: IntervalSet,
    samples: int, seed: int,
) -> ConsistencyReport:
    rng = random.Random(seed)
    points = {p for p in h.change_times() if p >= t and target.contains(p)}
    for iv in target.pieces:
        lo = max(iv.lo, t)
        if lo > iv.hi:
            continue
        points.add(lo)
        for _ in range(max(1, samples // max(1, len(target.pieces)))):
            s = lo + (iv.hi - lo) * _rand_fraction(rng)
            if iv.contains(s) and s >= t:
                points.add(s)
    checked = 0
    for s in sorted(points):
        if not target.contains(s):
            continue
        pfx = history_prefix(h, s, include=False)
        hval = h.eval(s)
        for i in range(len(h.players)):
            got = profile[i].respond(s, pfx).action
            if got != hval[i]:
                return ConsistencyReport(
                    False, SAMPLED, target.to_json(), s,
                    f"history plays {hval[i]!r} at {s}, strategy of "
                    f"{h.players[i]} answers {got!r}",
                    checked,
                )
        checked += 1
    return ConsistencyReport(True, SAMPLED, target.to_json(), checked=checked)


def is_consistent(
    h: PiecewiseHistory,
    profile: Sequence[Strategy],
    t: Optional[TimePoint] = None,
    target: Optional[IntervalSet] = None,
    budget: int = DEFAULT_EVENT_BUDGET,
    samples: int = 64,
    seed: int = 0,
) -> ConsistencyReport:
    """Verify h_i(s) = σ_i's response at h^s for all players and all s in the
    target set (default: every time at or after t; t defaults to min T)."""
    _check_profile(profile, h.players)
    if t is None:
        t = h.domain.min
    to.require_point(h.domain, t)
    window = to.from_t(h.domain, t, include=True)
    full = to.make_interval_set(h.domain, [window])
    if target is None:
        target = full
    else:
        for iv in target.pieces:
            if not to.contains_interval(window, iv):
                raise SetOutsideSubgameError(
                    f"target piece {iv.to_json()} extends below t = {t}"
                )
    if to.is_chain(h.domain):
        return _chain_consistent(profile, h, t, target)
    if target == full and not any(s.black_box for s in profile):
        return _dense_walk(profile, h, t, target, budget, samples, seed)
    return _sampled_consistent(profile, h, t, target, samples, seed)


# -- helpers shared by the axiom checkers --------------------------------------


def _frozen_profile(strategy: Strategy, h: PiecewiseHistory) -> list[Strategy]:
    """Play `strategy` for its own player, script everyone else from h."""
    out = []
    for p in h.players:
        if p == strategy.player:
            out.append(strategy)
        else:
            out.append(make_scripted(p, h.domain, h.pieces_for(p)))
    return out


def _extended(pfx: HistoryPrefix, q: TimePoint, tails) -> HistoryPrefix:
    """The prefix below q: pfx followed by each player's tail pieces."""
    per = []
    for pp, tail in zip(pfx.per_player, tails):
        pp = list(pp)
        for iv, a in tail:
            _append_piece(pfx.domain, pp, iv, a)
        per.append(tuple(pp))
    return HistoryPrefix(pfx.domain, q, pfx.players, tuple(per))


def _observed_alphabets(
    h: PiecewiseHistory, alphabets: Optional[Mapping[str, Sequence[str]]]
) -> list[list[str]]:
    out = []
    for i, p in enumerate(h.players):
        if alphabets is not None and p in alphabets:
            out.append(list(alphabets[p]))
        else:
            out.append(sorted({a for _, a in h.per_player[i]}))
    return out


# -- Axiom 1: traceability ----------------------------------------------------


PROBE_FRACTIONS = tuple(
    Fraction(1, d) for d in (64, 16, 8, 4, 2)
) + (Fraction(3, 4),)


def _probe_trace(
    profile: Sequence[Strategy],
    pfx: HistoryPrefix,
    budget: int,
    rng: random.Random,
) -> AxiomReport:
    """Search for a consistent completion when holds are unavailable.

    Candidate constant pieces are validated by strict re-queries at sampled
    interior times; persistent contradictions arbitrarily close to a point
    (for both the closed-start and the post-instant candidate) are reported
    as a traceability failure with the probe transcript as witness.
    """
    top = pfx.domain.top
    transcript: list[dict] = []
    steps = 0

    def probe_span(c, p, acts, open_start):
        r = top  # every sample lies strictly between c and r
        for _ in range(6):
            span = r - c
            points = sorted({c + span * f for f in PROBE_FRACTIONS}
                            | {c + span * _rand_fraction(rng) for _ in range(4)})
            for s in points:
                iv = Interval(c, s, not open_start, False)
                q = _extended(p, s, [[(iv, a)] for a in acts])
                got = tuple(st.respond(s, q).action for st in profile)
                if got != acts:
                    transcript.append({
                        "from": to.format_point(c),
                        "probe_at": to.format_point(s),
                        "assumed": list(acts),
                        "answered": list(got),
                    })
                    break
            else:
                return r
            if s > points[0]:
                return s
            r = s  # contradiction at the smallest sample: shrink
        return None

    def step(c, p):
        nonlocal steps
        right = p.cut_included
        if not right:
            if steps >= budget:
                return AxiomReport(1, None, SAMPLED, details="probe budget exhausted")
            steps += 1
        acts = tuple(s.respond(c, p).action for s in profile)
        r = None if c == top else probe_span(c, p, acts, open_start=right)
        if r is not None:
            return acts, r
        if not right:
            return acts, c
        return AxiomReport(
            1, False, SAMPLED,
            witness={"stuck_at": to.format_point(c), "transcript": transcript},
            details=f"no constant continuation survives re-query just after {c}",
        )

    def close(pieces):
        h = PiecewiseHistory.build(pfx.domain, pfx.players, dict(zip(pfx.players, pieces)))
        return AxiomReport(1, True, SAMPLED, witness={"history": history_to_json(h)})

    return _walk(pfx, step, close)


def check_traceability(
    strategy: Strategy,
    t: TimePoint,
    h: PiecewiseHistory,
    event_budget: int = DEFAULT_EVENT_BUDGET,
    seed: int = 0,
) -> AxiomReport:
    """Axiom 1 at (t, h): a history extending h's prefix at t exists that is
    consistent with the strategy for its player (opponents replayed from h)."""
    profile = _frozen_profile(strategy, h)
    pfx = history_prefix(h, t, include=False)
    if to.is_chain(h.domain):
        solve_chain(profile, pfx)  # forward recursion cannot fail
        return AxiomReport(1, True, EXHAUSTIVE,
                           details="well-ordered time: forward recursion succeeds")
    if strategy.black_box:
        return _probe_trace(profile, pfx, event_budget, random.Random(seed))
    res = solve_dense(profile, pfx, event_budget=event_budget)
    if res.outcome == UNIQUE:
        return AxiomReport(1, True, WITNESS_BASED,
                           witness={"history": history_to_json(res.history)})
    if res.outcome == NO_TRACE:
        return AxiomReport(1, False, WITNESS_BASED,
                           witness={"events": res.to_json()["events"]},
                           details=res.diagnosis)
    return AxiomReport(1, None, WITNESS_BASED, details=res.diagnosis)


# -- Axiom 2: well-ordered change ---------------------------------------------


def check_well_orderedness(
    player: str,
    t: TimePoint,
    histories: Sequence[PiecewiseHistory],
) -> AxiomReport:
    """Axiom 2: the player's change partition from t on is well-ordered, for
    every history in the sample."""
    method = EXHAUSTIVE
    for h in histories:
        part = change_partition(h, player, t)
        rep = is_well_ordered(part)
        if rep.method == "analytic":
            method = WITNESS_BASED
        if not rep.well_ordered:
            return AxiomReport(2, False, method,
                               witness={"player": player, **(rep.witness or {})})
    return AxiomReport(2, True, method,
                       details="piecewise histories induce finite partitions")


# -- Axiom 3: initial uniqueness ----------------------------------------------


def disagreement_set(
    h: PiecewiseHistory, g: PiecewiseHistory, player: Optional[str] = None
) -> IntervalSet:
    """The exact set of times at which the two histories differ (optionally
    for a single player)."""
    if h.domain != g.domain or h.players != g.players:
        raise ValueError("histories live on different games")
    out = []
    for i in range(len(h.players)):
        if player is not None and h.players[i] != player:
            continue
        for iv, a in h.per_player[i]:
            for jv, b in g.per_player[i]:
                if a != b:
                    out.append(to.intersect(iv, jv))
    return to.make_interval_set(h.domain, out)


def check_initial_uniqueness(
    player: str, t: TimePoint, h: PiecewiseHistory, g: PiecewiseHistory
) -> AxiomReport:
    """Axiom 3 at t: the player's actions in h and g agree on some [t, s).

    Fails when the disagreement set is non-empty with infimum <= t, whether
    or not that infimum is attained.  Requires equal prefixes at t.
    """
    if not prefix_equal(history_prefix(h, t), history_prefix(g, t)):
        raise PrefixMismatchError(f"histories differ strictly before t = {t}")
    d = disagreement_set(h, g, player)
    if d.is_empty:
        return AxiomReport(3, True, EXHAUSTIVE, details="histories coincide")
    inf = to.inf_set(h.domain, d)
    passed = inf > t
    return AxiomReport(
        3, passed, EXHAUSTIVE,
        witness={"player": player, "disagreement": d.to_json(),
                 "infimum": to.format_point(inf)},
    )


# -- Axiom 4: inertiality -----------------------------------------------------


def _random_extension(
    rng: random.Random,
    n_players: int,
    alphabets: Sequence[Sequence[str]],
    lo: TimePoint,
    hi: TimePoint,
) -> list[list[Piece]]:
    """Random piecewise action pieces on [lo, hi), one list per player."""
    cuts = sorted({lo + (hi - lo) * _rand_fraction(rng)
                   for _ in range(rng.randrange(0, 3))} - {hi})
    bounds = [lo] + cuts + [hi]
    out = []
    for i in range(n_players):
        pp = []
        for a, b in zip(bounds, bounds[1:]):
            pp.append((Interval(a, b, True, False), rng.choice(list(alphabets[i]))))
        out.append(pp)
    return out


def _find_deviation(
    strategy: Strategy,
    pfx: HistoryPrefix,
    alphabets: Sequence[Sequence[str]],
    t: TimePoint,
    s: TimePoint,
    action: str,
    samples: int,
    rng: random.Random,
):
    """Sample extensions of pfx on [t, q) for q < s; return (q, answered) if
    the strategy ever deviates from `action`, else None."""
    for _ in range(samples):
        q = t + (s - t) * _rand_fraction(rng)
        ext = _random_extension(rng, len(pfx.players), alphabets, t, q)
        got = strategy.respond(q, _extended(pfx, q, ext)).action
        if got != action:
            return q, got
    return None


def check_inertiality(
    strategy: Strategy,
    t: TimePoint,
    h: PiecewiseHistory,
    alphabets: Optional[Mapping[str, Sequence[str]]] = None,
    samples: int = 32,
    seed: int = 0,
) -> AxiomReport:
    """Axiom 4 at (t, h): the response stays fixed on some window [t, s)
    regardless of what any player does inside it.

    Chains pass exhaustively (the successor bounds the window).  Declared
    witnesses are validated against random extensions; strategies without a
    witness are probed for refutation at shrinking windows and otherwise
    reported inconclusive.
    """
    domain = h.domain
    if to.is_chain(domain):
        return AxiomReport(4, True, EXHAUSTIVE,
                           details="successor time bounds the window; the "
                                   "prefix below t fixes the response there")
    top = domain.top
    if t == top:
        return AxiomReport(4, True, EXHAUSTIVE, details="no time after t")
    rng = random.Random(seed)
    pfx = history_prefix(h, t, include=False)
    alph = _observed_alphabets(h, alphabets)
    a0 = strategy.respond(t, pfx).action
    if strategy.inertial_witness is not None:
        s, a = strategy.inertial_witness(t, pfx)
        if a != a0 or not (t < s <= top):
            return AxiomReport(
                4, False, WITNESS_BASED,
                witness={"window_end": to.format_point(s), "action": a,
                         "response_at_t": a0},
                details="declared witness disagrees with the response at t",
            )
        cex = _find_deviation(strategy, pfx, alph, t, s, a, samples, rng)
        if cex is not None:
            return AxiomReport(
                4, False, WITNESS_BASED,
                witness={"window_end": to.format_point(s),
                         "counterexample_at": to.format_point(cex[0]),
                         "answered": cex[1], "expected": a},
            )
        return AxiomReport(4, True, WITNESS_BASED,
                           witness={"window_end": to.format_point(s), "action": a})
    # no declared witness: probe shrinking windows for a refutation
    s = top
    refutations = []
    for _ in range(8):
        cex = _find_deviation(strategy, pfx, alph, t, s, a0, samples, rng)
        if cex is None:
            return AxiomReport(
                4, None, SAMPLED,
                witness={"window_end": to.format_point(s), "action": a0},
                details="no deviation found by sampling; cannot affirm for an "
                        "undeclared strategy",
            )
        refutations.append(to.format_point(cex[0]))
        s = cex[0]
    return AxiomReport(
        4, False, SAMPLED,
        witness={"counterexamples": refutations, "action": a0},
        details="every sampled window back to t contains a deviation",
    )


# -- Axiom 5: frictionality ---------------------------------------------------


def check_frictionality(
    player: str,
    z: str,
    t: TimePoint,
    h: PiecewiseHistory,
    s: Optional[TimePoint] = None,
) -> AxiomReport:
    """Axiom 5: the player departs from the default z at only finitely many
    times in [t, s] — for piecewise histories, only at single instants."""
    if s is None:
        s = h.domain.top
    if to.is_chain(h.domain):
        return AxiomReport(5, True, EXHAUSTIVE,
                           details="finite time set: count is bounded by |T|")
    window = Interval(t, s)
    count = 0
    for iv, a in h.pieces_for(player):
        if a == z:
            continue
        inter = to.intersect(iv, window)
        if inter is None:
            continue
        if not inter.is_singleton:
            return AxiomReport(
                5, False, EXHAUSTIVE,
                witness={"player": player, "action": a,
                         "interval": inter.to_json()},
            )
        count += 1
    return AxiomReport(5, True, EXHAUSTIVE, details=f"deviation count {count}")
