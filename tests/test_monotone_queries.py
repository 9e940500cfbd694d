"""Queries on monotone walks against the code they replaced.

The random table renders a prefix by extending the previous query's
rendering, and scripted strategies and the consistency walk look pieces
up through a cursor.  `old_dense_walk`, `old_contains` and
`old_interval_error` are the consistency walk and the `Interval` checks as
they were before; they stay here as oracles, next to the plain
`f"...{seq!r}"` payload.  `old_solve_dense` and `old_probe_trace` are the
dense solver and the traceability probe with their own loops, before the
three walks shared one event walk; the differential tests compare the
reports of each old loop with the new code.  The old dense loops read a
strategy's hold given the tuple it answers (`given_hold`), as the walks
do now, so the differentials compare loops, not hold rules.  The guards
count full prefix renders and bisects, so per-query O(prefix) or
O(log pieces) work cannot come back unnoticed.
"""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import histories, strategies
from totime import timeorder as to
from totime.axioms import (
    PROBE_FRACTIONS,
    SAMPLED,
    WITNESS_BASED,
    AxiomReport,
    ConsistencyReport,
    _frozen_profile,
    _rand_fraction,
    _sampled_consistent,
    check_traceability,
    is_consistent,
)
from totime.errors import MissingWitnessError
from totime.gamespec import build_profile, parse_spec
from totime.histories import (
    HistoryPrefix,
    PiecesView,
    PiecewiseHistory,
    _append_piece,
    empty_prefix,
    history_to_json,
    index_after,
    index_at,
    prefix,
)
from totime.solver import (
    BUDGET,
    NO_TRACE,
    UNIQUE,
    ZENO,
    SolveResult,
    _chain_walk,
    seq_to_prefix,
    solve_chain,
    solve_dense,
    verify_unique,
)
from totime.strategies import (
    Response,
    Strategy,
    make_constant,
    make_gallery,
    make_grim_trigger,
    make_halving_hold,
    make_random_table,
    make_scripted,
)
from totime.timeorder import DenseInterval, FiniteChain, Interval

# -- the random table's payload ----------------------------------------------

QUOTED = ("C", "D", "'", '"', "\\", "\n", "é", "it's", 'a"b', "a'b\"c")
ACTION_TUPLES = st.tuples(st.sampled_from(QUOTED), st.sampled_from(QUOTED))
# tuples of non-strings, equal to others whose repr differs (1 == True):
# only an engine list holds them, as a strategy may answer with any value
ODD = st.sampled_from([0, 1, True, False, 1.0])
ITEMS = st.one_of(ACTION_TUPLES, ACTION_TUPLES, ACTION_TUPLES, st.tuples(ODD, ODD))
PAYLOAD_CHAIN = FiniteChain(64)
PAYLOAD_PLAYERS = ("p1", "p2")


@st.composite
def query_ops(draw):
    """Queries that walk an engine list forward, repeat, go back, restart on
    a new list, jump to a new filled list, or ask a library prefix."""
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        op = draw(st.sampled_from(
            ["step"] * 5 + ["repeat", "back", "restart", "jump", "library"]))
        if op == "step":
            ops.append((op, draw(ITEMS)))
        elif op == "back":
            ops.append((op, draw(st.integers(0, 30))))  # clipped to the list
        elif op == "jump":
            ops.append((op, draw(st.lists(ITEMS, max_size=5))))
        elif op == "library":
            ops.append((op, draw(st.lists(ACTION_TUPLES, max_size=5))))
        else:
            ops.append((op,))
    return ops


def run_queries(strategy, ops):
    """Ask the strategy as `ops` say; returns the (t, action tuples) and the
    answer of each query.

    Each engine list is the list of one run of the solver's own chain walk,
    `_chain_walk`, whose step commits each "step" item at its one time and
    ends the run at a restart or jump; a forward query is asked on the
    walk's snapshot.  A query that goes back takes a snapshot of the walk's
    list at an earlier length; a library prefix comes from seq_to_prefix
    and carries no list.
    """
    domain, players = PAYLOAD_CHAIN, PAYLOAD_PLAYERS
    calls, answers = [], []
    todo = iter(ops)

    def ask(t, seq, pfx):
        calls.append((t, seq))
        answers.append(strategy.respond(t, pfx).action)

    def walk(items, forward):
        """Run the walk from a prefix of the raw items, asking at its first
        time only when `forward`; returns the items of the next engine list,
        or None once the ops run out."""
        def step(s, p):
            nonlocal forward
            lst = p.actions._pieces  # the walk's own list, as the random table reads it
            if forward:
                ask(s, tuple(lst), p)
            forward = True
            for op, *arg in todo:
                if op == "step":
                    return arg[0], s + 1
                if op == "repeat":
                    ask(s, tuple(lst), p)
                elif op == "back":
                    k = min(arg[0], s)
                    pfx = replace(seq_to_prefix(domain, players, lst, k),
                                  actions=PiecesView(lst, k))
                    ask(k, tuple(lst[:k]), pfx)
                elif op == "library":
                    seq = tuple(arg[0])
                    ask(len(seq), seq, seq_to_prefix(domain, players, seq, len(seq)))
                else:  # restart or jump: a new engine list
                    return list(arg[0]) if op == "jump" else []
            return None

        start = replace(seq_to_prefix(domain, players, items, len(items)),
                        actions=tuple(items))
        return _chain_walk(start, step, lambda pieces: None)

    items = walk([], False)
    while items is not None:
        items = walk(items, True)
    return calls, answers


class PayloadLog:
    """Stands in for hashlib inside strategies and records what is hashed."""

    def __init__(self):
        self.payloads = []

    def sha256(self, data):
        self.payloads.append(data)
        return hashlib.sha256(data)


def table_answers(seed, player, ops):
    strategy = make_random_table(player, PAYLOAD_CHAIN, ("C", "D", "E"), seed)
    log = PayloadLog()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "hashlib", log)
        calls, answers = run_queries(strategy, ops)
    return calls, log.payloads, answers


def plain_answers(seed, player, calls):
    payloads = [f"{seed}|{player}|{t}|{seq!r}".encode() for t, seq in calls]
    answers = [("C", "D", "E")[int.from_bytes(hashlib.sha256(p).digest()[:8], "big") % 3]
               for p in payloads]
    return payloads, answers


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["p1", "it's", 'q"']), query_ops())
def test_table_payload_equals_plain_repr(seed, player, ops):
    calls, payloads, answers = table_answers(seed, player, ops)
    assert (payloads, answers) == plain_answers(seed, player, calls)


CC, DD, QQ = ("C", "C"), ("D", "D"), ("'", '"')


@pytest.mark.parametrize("seqs", [  # sequences of queries, as query_ops draws them
    [("restart",)],
    [("step", CC)],
    [("step", QQ), ("step", ("\\", "\n"))],
    # an equal prefix on another list, with another repr
    [("jump", [(1, 1)]), ("jump", [(True, True)]), ("step", CC)],
    [("step", (1, 1)), ("restart",), ("step", (True, True)), ("step", CC)],
    [("step", CC), ("step", DD), ("back", 1), ("step", CC)],  # back, then on
    [("step", CC), ("step", DD), ("back", 1), ("repeat",)],   # back one, then forward
    [("step", CC), ("library", [CC, DD]), ("step", DD)],      # a library prefix between
    [("library", [CC]), ("library", [CC, DD]), ("step", CC)],
    [("library", [CC]), ("library", [DD, CC])],  # one longer, not an extension
])
def test_table_payload_edge_cases(seqs):
    calls, payloads, answers = table_answers(7, "p1", seqs)
    assert (payloads, answers) == plain_answers(7, "p1", calls)


def table_table_spec(n: int) -> dict:
    return {
        "domain": {"kind": "chain", "size": n},
        "players": [{"id": p, "actions": ["C", "D"]} for p in ("p1", "p2")],
        "strategies": [{"kind": "table", "player": "p1", "seed": 3},
                       {"kind": "table", "player": "p2", "seed": 4}],
        "seed": 11,
    }


def test_table_renders_the_prefix_once_per_walk(monkeypatch):
    renders = []
    original = strategies._render_items
    monkeypatch.setattr(strategies, "_render_items",
                        lambda seq: renders.append(len(seq)) or original(seq))
    spec = parse_spec(json.dumps(table_table_spec(400)))
    profile = build_profile(spec)
    res = solve_chain(profile, empty_prefix(spec.domain, spec.players))
    assert res.events_consumed == 400
    assert len(renders) <= len(profile)
    renders.clear()
    assert is_consistent(res.history, profile).consistent is True
    assert len(renders) <= len(profile)


# -- the cursor ---------------------------------------------------------------


def old_contains(iv: Interval, t) -> bool:
    if t < iv.lo or t > iv.hi:
        return False
    if t == iv.lo and not iv.lo_closed:
        return False
    if t == iv.hi and not iv.hi_closed:
        return False
    return True


def old_interval_error(lo, hi, lo_closed, hi_closed):
    if lo > hi:
        return f"empty interval: lo={lo} > hi={hi}"
    if lo == hi and not (lo_closed and hi_closed):
        return "degenerate interval must be closed on both ends"
    return None


def linear_index_at(pieces, t):
    return next((k for k, (iv, _) in enumerate(pieces) if old_contains(iv, t)), None)


def linear_index_after(pieces, t):
    for k, (iv, _) in enumerate(pieces):
        if (old_contains(iv, t) and iv.hi > t) or (iv.lo == t and not iv.lo_closed) \
                or iv.lo > t:
            return k
    return None


GRID = 16


def history_on(draw, domain: DenseInterval, players) -> PiecewiseHistory:
    """Random pieces on the domain's grid, some with an instant at a cut."""
    lo, width = domain.lo, domain.hi - domain.lo
    per = {}
    for p in players:
        cuts = sorted(draw(st.sets(st.integers(1, GRID - 1), max_size=8)))
        pieces, start, closed = [], lo, True
        for c in cuts:
            x = lo + width * Fraction(c, GRID)
            pieces.append((Interval(start, x, closed, False), draw(st.sampled_from("CD"))))
            if draw(st.booleans()):
                pieces.append((Interval(x, x), draw(st.sampled_from("CD"))))
                start, closed = x, False
            else:
                start, closed = x, True
        pieces.append((Interval(start, domain.hi, closed, True), draw(st.sampled_from("CD"))))
        per[p] = pieces
    return PiecewiseHistory.build(domain, players, per)


DOMAINS = [DenseInterval(Fraction(3, 2), Fraction(7, 2)),   # shifted
           DenseInterval(Fraction(-1), Fraction(1)),        # negative
           DenseInterval(Fraction(0), Fraction(5, 2))]      # non-unit


@st.composite
def dense_histories(draw):
    domain = draw(st.sampled_from(DOMAINS))
    players = tuple(f"p{i}" for i in range(draw(st.integers(1, 3))))
    return history_on(draw, domain, players)


def query_points(h: PiecewiseHistory) -> list:
    """Every piece boundary plus a grid finer than the pieces'."""
    d = h.domain
    grid = {d.lo + (d.hi - d.lo) * Fraction(k, 4 * GRID) for k in range(4 * GRID + 1)}
    return sorted(set(h.change_times()) | grid)


@settings(max_examples=80, deadline=None)
@given(dense_histories(), st.randoms(use_true_random=False))
def test_cursor_matches_linear_scan(h, rnd):
    times = query_points(h)
    shuffled = list(times)
    rnd.shuffle(shuffled)
    for pp in h.per_player:
        for pieces in (pp, pp[: len(pp) // 2]):  # a partial script leaves gaps
            for walk in (times, shuffled):
                hint = 0
                for t in walk:
                    want = linear_index_at(pieces, t)
                    assert index_at(pieces, t, hint) == want
                    # a stale or out-of-range hint is checked, never trusted
                    assert index_at(pieces, t, rnd.randrange(len(pieces) + 3)) == want
                    hint = want if want is not None else hint
                    assert index_after(pieces, t) == linear_index_after(pieces, t)


POINTS = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=500, deadline=None)
@given(POINTS, POINTS, st.booleans(), st.booleans(), st.lists(POINTS, max_size=8))
def test_interval_checks_match_old(lo, hi, lo_closed, hi_closed, probes):
    want = old_interval_error(lo, hi, lo_closed, hi_closed)
    try:
        iv = Interval(lo, hi, lo_closed, hi_closed)
    except ValueError as e:
        assert str(e) == want
        return
    assert want is None
    for t in probes + [lo, hi]:
        assert iv.contains(t) == old_contains(iv, t)


# -- the consistency walk -----------------------------------------------------


def given_hold(strategy, t, p, actions, hold):
    """The strategy's hold given the tuple `actions`, where it has one, else
    `hold`, its unconditional one (None stays None)."""
    if strategy.hold_given is None or hold is None:
        return hold
    return strategy.hold_given(t, p, actions)


def old_dense_walk(profile, h: PiecewiseHistory, t, target, budget) -> ConsistencyReport:
    """`axioms._dense_walk` before it looked pieces up through a cursor,
    reading holds given the tuple as it does now."""

    def piece_at(pieces, s):
        k = linear_index_at(pieces, s)
        return None if k is None else pieces[k]

    def piece_after(pieces, s):
        k = linear_index_after(pieces, s)
        return None if k is None else pieces[k]

    domain = h.domain
    top = domain.top
    n = len(h.players)
    c = t
    steps = 0
    while steps < budget:
        steps += 1
        pfx = prefix(h, c, include=False)
        resp = [profile[i].respond(c, pfx) for i in range(n)]
        if any(r.hold_until is None for r in resp):
            return _sampled_consistent(profile, h, c, target, 64, 0)
        actions = tuple(r.action for r in resp)
        holds = [min(given_hold(profile[i], c, pfx, actions, resp[i].hold_until), top)
                 for i in range(n)]
        hval = h.eval(c)
        if hval != actions and target.contains(c):
            return ConsistencyReport(
                False, WITNESS_BASED, target.to_json(), c,
                f"history plays {hval!r} at {c}, strategies require {actions!r}",
                steps,
            )
        if c == top:
            return ConsistencyReport(True, WITNESS_BASED, target.to_json(), checked=steps)
        jump = False
        m = top
        for i in range(n):
            if holds[i] <= c:
                jump = True
            else:
                m = min(m, holds[i])
            iv, _ = piece_at(h.per_player[i], c)
            if iv.hi == c:
                jump = True
            else:
                m = min(m, iv.hi)
        if not jump and m > c:
            c = m
            continue
        pfx2 = prefix(h, c, include=True)
        resp2 = [profile[i].respond(c, pfx2) for i in range(n)]
        actions2 = tuple(r.action for r in resp2)
        m2 = top
        for i in range(n):
            hold = given_hold(profile[i], c, pfx2, actions2, resp2[i].hold_until)
            r2 = min(c if hold is None else hold, top)
            if r2 <= c:
                return ConsistencyReport(
                    False, WITNESS_BASED, target.to_json(), c,
                    f"strategy of {h.players[i]} repeats an instantaneous hold at {c}",
                    steps,
                )
            iv, a = piece_after(h.per_player[i], c)
            if a != resp2[i].action:
                return ConsistencyReport(
                    False, WITNESS_BASED, target.to_json(), c,
                    f"history plays {a!r} just after {c}, strategy of "
                    f"{h.players[i]} requires {resp2[i].action!r}",
                    steps,
                )
            m2 = min(m2, r2, iv.hi)
        c = m2
    return ConsistencyReport(None, WITNESS_BASED, target.to_json(),
                             diagnosis="verification budget exhausted", checked=steps)


def old_solve_dense(profile, pfx, event_budget=4096, order=None, jitter=None) -> SolveResult:
    """`solver.solve_dense` with its own event loop, before the walks shared
    one kernel, reading holds given the tuple and stopping at a limit
    certificate as it does now."""
    domain = pfx.domain
    players = pfx.players
    top = domain.top
    idx = list(order) if order is not None else list(range(len(players)))
    pieces = [list(pp) for pp in pfx.per_player]
    c = pfx.cut
    prev_actions = prev_holds = None
    events = []
    stretch_starts = [c]
    consumed = 0

    def query(t, included):
        p = HistoryPrefix(domain, t, players, tuple(tuple(pp) for pp in pieces), included)
        actions = [None] * len(players)
        holds = [None] * len(players)
        for i in idx:
            r = profile[i].respond(t, p)
            if r.hold_until is None:
                raise MissingWitnessError(f"strategy of {players[i]} returned no hold at {t}")
            actions[i] = r.action
            holds[i] = r.hold_until
        actions = tuple(actions)
        return actions, tuple(min(given_hold(profile[i], t, p, actions, holds[i]), top)
                              for i in range(len(players)))

    def finish():
        history = PiecewiseHistory.build(
            domain, players, {p: pieces[i] for i, p in enumerate(players)})
        return SolveResult(UNIQUE, history, events, events_consumed=consumed)

    def over_budget():
        tail = stretch_starts[-9:]
        gaps = [b - a for a, b in zip(tail, tail[1:])]
        shrink = len(gaps) >= 3 and all(b < a for a, b in zip(gaps, gaps[1:]))
        return SolveResult(BUDGET, None, events, events_consumed=consumed,
                           diagnosis="event budget exhausted"
                                     + " while the event gaps shrink" * shrink)

    def certified(holds, actions):
        """The limit certificate rule at c: every strategy declares (a, b)
        with 0 <= a < 1, the a > 0 ones share one map whose fixed point L
        lies in (c, top], every hold at c is a*c + b, every a > 0 strategy
        changed action from its own last piece, and every a = 0 hold b
        reaches L."""
        certs = [s.certificate for s in profile]
        if any(cert is None or not 0 <= cert[0] < 1 for cert in certs):
            return None
        movers = [i for i, (a, b) in enumerate(certs) if a > 0]
        if not movers or len({certs[i] for i in movers}) > 1:
            return None
        a, b = certs[movers[0]]
        limit = b / (1 - a)
        if not c < limit <= top:
            return None
        for i, (ai, bi) in enumerate(certs):
            if holds[i] != ai * c + bi or (ai == 0 and bi < limit):
                return None
            if ai > 0 and (not pieces[i] or pieces[i][-1][1] == actions[i]):
                return None
        sign = "-" if b < 0 else "+"
        return SolveResult(ZENO, None, events, events_consumed=consumed,
                           diagnosis=f"strategy of {players[movers[0]]} certifies each "
                                     f"hold as {a}*t {sign} {abs(b)}: event times "
                                     f"accumulate at {limit}",
                           accumulation=limit)

    while True:
        if consumed >= event_budget:
            return over_budget()
        consumed += 1
        actions, holds = query(c, False)
        events.append((c, "at", actions, holds))
        if prev_holds is not None:
            for i in range(len(players)):
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
            return SolveResult(NO_TRACE, None, events, events_consumed=consumed,
                               diagnosis=f"hold {r} earlier than query time {c}")
        zeno = certified(holds, actions)
        if zeno is not None:
            return zeno
        if c == top:
            for i in range(len(players)):
                _append_piece(domain, pieces[i], to.singleton(top), actions[i])
            return finish()
        if r == c:
            for i in range(len(players)):
                _append_piece(domain, pieces[i], to.singleton(c), actions[i])
            consumed += 1
            actions2, holds2 = query(c, True)
            events.append((c, "after", actions2, holds2))
            r2 = min(holds2)
            if r2 <= c:
                return SolveResult(NO_TRACE, None, events, events_consumed=consumed,
                                   diagnosis=f"instantaneous hold repeated at {c}")
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


def old_probe_trace(profile, pfx, budget, rng) -> AxiomReport:
    """`axioms._probe_trace` with its own loop, before the walks shared one kernel."""
    domain = pfx.domain
    players = pfx.players
    top = domain.top
    n = len(players)
    pieces = [list(pp) for pp in pfx.per_player]
    transcript = []

    def query(t, included, extra=None):
        per = []
        for i in range(n):
            pp = list(pieces[i])
            if extra is not None:
                _append_piece(domain, pp, extra[0], extra[1][i])
            per.append(tuple(pp))
        p = HistoryPrefix(domain, t, players, tuple(per), included)
        return tuple(profile[i].respond(t, p).action for i in range(n))

    def probe_span(c, acts, open_start):
        r = top
        for _ in range(6):
            span = r - c
            if span <= 0:
                return None
            points = sorted({c + span * f for f in PROBE_FRACTIONS}
                            | {c + span * _rand_fraction(rng) for _ in range(4)})
            failed_at = None
            for s in points:
                iv = Interval(c, s, not open_start, False)
                got = query(s, False, (iv, acts))
                if got != acts:
                    transcript.append({"from": to.format_point(c),
                                       "probe_at": to.format_point(s),
                                       "assumed": list(acts), "answered": list(got)})
                    failed_at = s
                    break
            if failed_at is None:
                return r
            if failed_at > points[0]:
                return failed_at
            r = failed_at
        return None

    c = pfx.cut
    steps = 0
    while steps < budget:
        steps += 1
        acts = query(c, False)
        if c == top:
            for i in range(n):
                _append_piece(domain, pieces[i], to.singleton(top), acts[i])
            h = PiecewiseHistory.build(
                domain, players, {p: pieces[i] for i, p in enumerate(players)})
            return AxiomReport(1, True, SAMPLED, witness={"history": history_to_json(h)})
        r = probe_span(c, acts, open_start=False)
        if r is not None:
            iv = Interval(c, r, True, False)
            for i in range(n):
                _append_piece(domain, pieces[i], iv, acts[i])
            c = r
            continue
        for i in range(n):
            _append_piece(domain, pieces[i], to.singleton(c), acts[i])
        acts2 = query(c, True)
        r2 = probe_span(c, acts2, open_start=True)
        if r2 is not None:
            iv = Interval(c, r2, False, False)
            for i in range(n):
                _append_piece(domain, pieces[i], iv, acts2[i])
            c = r2
            continue
        return AxiomReport(
            1, False, SAMPLED,
            witness={"stuck_at": to.format_point(c), "transcript": transcript},
            details=f"no constant continuation survives re-query just after {c}",
        )
    return AxiomReport(1, None, SAMPLED, details="probe budget exhausted")


STRATEGY_KINDS = ["h", "h", "g", "grim", "constant", "halving",
              "over", "instant", "early", "none"]


@st.composite
def walk_cases(draw):
    """A history, a second one on the same game, per-player strategy kinds, a
    start (a grid point or a piece boundary of h, often an instant) and a budget."""
    h = draw(dense_histories())
    g = history_on(draw, h.domain, h.players)
    kinds = [draw(st.sampled_from(STRATEGY_KINDS)) for _ in h.players]
    start = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(3, 4)]))
    t = draw(st.sampled_from([h.domain.lo + (h.domain.hi - h.domain.lo) * start,
                              *h.change_times()]))
    return h, g, kinds, t, draw(st.sampled_from([3, 8, 40, 600]))


def broken_hold(p, domain, pieces, kind):
    """A script whose holds lie: `over` holds to the top through its changes,
    `instant` claims an instant at every query, `early` a hold at the minimum,
    and `none` gives no hold without being a black box."""
    script = make_scripted(p, domain, pieces)
    hold = {"over": lambda t: domain.top, "instant": lambda t: t,
            "early": lambda t: domain.lo, "none": lambda t: None}[kind]
    return Strategy(p, lambda t, q: Response(script.respond(t, q).action, hold(t)),
                    name=f"broken({kind})")


def walk_profile(h, g, kinds):
    out = []
    width = h.domain.hi - h.domain.lo
    for i, (p, kind) in enumerate(zip(h.players, kinds)):
        if kind in ("h", "g"):
            out.append(make_scripted(p, h.domain, (h if kind == "h" else g).per_player[i]))
        elif kind == "grim":
            out.append(make_grim_trigger(p, "C", "D", width / 5, ("C", "D"), h.domain))
        elif kind == "constant":
            out.append(make_constant(p, "C", ("C", "D"), h.domain))
        elif kind == "halving":
            out.append(make_halving_hold(p, ("C", "D"), h.domain))
        elif kind == "forced":  # stuck on C, with the certificate of a halving
            stuck = make_halving_hold(p, ("C",), h.domain)
            out.append(replace(stuck, certificate=(Fraction(1, 2), h.domain.top / 2)))
        else:
            out.append(broken_hold(p, h.domain, g.per_player[i], kind))
    return out


@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_dense_walk_matches_old_walk(case):
    h, g, kinds, t, budget = case
    window = to.make_interval_set(h.domain, [to.from_t(h.domain, t)])
    got = is_consistent(h, walk_profile(h, g, kinds), t, budget=budget)
    want = old_dense_walk(walk_profile(h, g, kinds), h, t, window, budget)
    assert got.to_json() == want.to_json()


@settings(max_examples=200, deadline=None)
@given(walk_cases(), st.randoms(use_true_random=False), st.none() | st.integers(0, 9))
def test_solve_dense_matches_old_solve(case, rnd, jitter):
    """From h's prefix at t, under a shuffled query order and optional jitter."""
    h, g, kinds, t, budget = case
    order = list(range(len(h.players)))
    rnd.shuffle(order)

    def run(solve):
        try:
            return solve(walk_profile(h, g, kinds), prefix(h, t), budget, order,
                         None if jitter is None else random.Random(jitter)).to_json()
        except MissingWitnessError as e:
            return str(e)

    assert run(solve_dense) == run(old_solve_dense)


@settings(max_examples=100, deadline=None)
@given(walk_cases(), st.data())
def test_solve_dense_matches_old_solve_on_certified_profiles(case, data):
    """Profiles that mostly declare certificates, so the walks stop at them
    or are refused them, from h's prefix at t."""
    h, g, _, t, budget = case
    kinds = [data.draw(st.sampled_from(["halving", "halving", "constant", "forced", "h"]))
             for _ in h.players]

    def run(solve):
        return solve(walk_profile(h, g, kinds), prefix(h, t), budget).to_json()

    assert run(solve_dense) == run(old_solve_dense)


def black_box(strategy):
    """The strategy's actions without its holds."""
    respond = strategy.respond
    return Strategy(strategy.player, lambda t, q: Response(respond(t, q).action, None),
                    name=f"black_box({strategy.name})", black_box=True)


@st.composite
def probe_cases(draw):
    """A black-box strategy at (t, h): a gallery strategy for p1, or any
    strategy kind with its holds dropped."""
    domain = draw(st.sampled_from(DOMAINS + [DenseInterval(Fraction(0), Fraction(1))]))
    players = tuple(f"p{i}" for i in range(1, draw(st.integers(1, 3)) + 1))
    h = history_on(draw, domain, players)
    g = history_on(draw, domain, players)
    i = draw(st.integers(0, len(players) - 1))
    kind = draw(st.sampled_from(["no_trace", "multi", *STRATEGY_KINDS]))
    if kind in ("no_trace", "multi"):
        i = 0  # the gallery strategies play p1

    def strategy():
        if kind in ("no_trace", "multi"):
            return make_gallery(kind, domain.hi)
        kinds = ["constant"] * len(players)
        kinds[i] = kind
        return black_box(walk_profile(h, g, kinds)[i])

    t = draw(st.sampled_from([domain.lo, *h.change_times()]))
    return h, strategy, t, draw(st.sampled_from([1, 4, 64])), draw(st.integers(0, 9))


@settings(max_examples=100, deadline=None)
@given(probe_cases())
def test_probe_trace_matches_old_probe(case):
    h, strategy, t, budget, seed = case
    got = check_traceability(strategy(), t, h, event_budget=budget, seed=seed)
    want = old_probe_trace(_frozen_profile(strategy(), h), prefix(h, t), budget,
                           random.Random(seed))
    assert got.to_json() == want.to_json()


def test_dense_walk_matches_old_walk_on_a_failing_history():
    domain = DOMAINS[1]
    half = Fraction(0)
    h = PiecewiseHistory.build(domain, ("p1",), {"p1": [
        (Interval(-1, half, True, False), "C"), (Interval(half, half), "D"),
        (Interval(half, 1, False, True), "C")]})
    g = PiecewiseHistory.build(domain, ("p1",), {"p1": [
        (Interval(-1, half, True, False), "C"), (Interval(half, half), "D"),
        (Interval(half, 1, False, True), "D")]})
    window = to.make_interval_set(domain, [to.full_interval(domain)])
    got = is_consistent(h, walk_profile(h, g, ["g"]))
    want = old_dense_walk(walk_profile(h, g, ["g"]), h, domain.lo, window, 4096)
    assert got.consistent is False and got.witness_time == half
    assert got.to_json() == want.to_json()


# -- bisects per dense run ------------------------------------------------------


def script(rng: random.Random, domain: DenseInterval, pieces: int, first: str):
    """`pieces` pieces on a dyadic grid; about one cut in five is an instant."""
    lo, hi = domain.lo, domain.hi
    cuts = sorted(rng.sample(range(1, 1024), pieces - 1))
    out, start, closed, act = [], lo, True, first
    other = {"C": "D", "D": "C"}
    for g in cuts:
        x = lo + (hi - lo) * Fraction(g, 1024)
        out.append((Interval(start, x, closed, False), act))
        if rng.random() < 0.2:
            out.append((Interval(x, x), other[act]))
            start, closed = x, False
        else:
            act = other[act]
            start, closed = x, True
    out.append((Interval(start, hi, closed, True), act))
    return out


def count_bisects(monkeypatch):
    calls = []
    original = histories._scan_start
    monkeypatch.setattr(histories, "_scan_start",
                        lambda pieces, t: calls.append(1) or original(pieces, t))
    return calls


def count_right_limits(profile):
    calls = []
    for s in profile:
        respond = s.respond

        def counted(t, p, _respond=respond):
            if p.cut_included and p.cut == t:
                calls.append(1)
            return _respond(t, p)

        s.respond = counted
    return calls


@pytest.mark.parametrize("domain", DOMAINS)
def test_scripted_lookups_bisect_once_per_dense_run(monkeypatch, domain):
    rng = random.Random(5)
    players = ("p1", "p2")
    profile = [make_scripted(p, domain, script(rng, domain, 100, "CD"[i]))
               for i, p in enumerate(players)]
    right_limits = count_right_limits(profile)
    bisects = count_bisects(monkeypatch)
    pfx = empty_prefix(domain, players)
    res = solve_dense(profile, pfx)
    assert res.outcome == UNIQUE and res.events_consumed > 100
    assert right_limits  # the scripts have instants, and their right limits
    assert len(bisects) <= len(profile)  # use the cursor too
    assert verify_unique(profile, pfx, res)  # six reruns
    assert len(bisects) <= 7 * len(profile)
    # the walk starts at h's first piece here, so its cursors on h never
    # bisect (from a later start they bisect once per player, at the start)
    # and only each script's lookups count
    bisects.clear()
    right_limits.clear()
    assert is_consistent(res.history, profile).consistent is True
    assert right_limits
    assert len(bisects) <= len(profile)
