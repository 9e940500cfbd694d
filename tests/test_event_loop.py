"""The dense event loop against the order logic it no longer re-derives.

`generic_union` is the interval union the engine used before abutting
pieces were joined first; it stays here as the oracle.  The guards count
exact `Fraction` ordering comparisons, `strictly_precedes` calls and
point formatting on halving solves that walk the whole event budget,
whose event times carry denominators near 2^budget, so the costly
comparisons cannot creep back unnoticed.  A halving whose action cycles
certifies its limit and stops at its second event, so those walks use a
halving stuck on one action (cycle ["C"]), which declares no certificate
and exits 5.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import cli, solver
from totime import timeorder as to
from totime.gamespec import build_profile, parse_spec
from totime.histories import empty_prefix, history_to_json
from totime.solver import BUDGET, solve_dense
from totime.strategies import make_constant, make_halving_hold, make_scripted
from totime.timeorder import DenseInterval, FiniteChain, Interval

CHAIN = FiniteChain(8)
DENSE = DenseInterval(Fraction(-1), Fraction(3))
GRID = [Fraction(k, 2) for k in range(-2, 7)]  # -1, -1/2, ..., 3


def generic_union(domain, a, b):
    """Union of two connected intervals, deciding order before adjacency."""
    if to.strictly_precedes(a, b) and not to.abuts(domain, a, b):
        return None
    if to.strictly_precedes(b, a) and not to.abuts(domain, b, a):
        return None
    if a.lo < b.lo or (a.lo == b.lo and a.lo_closed):
        lo, lo_closed = a.lo, a.lo_closed or (a.lo == b.lo and b.lo_closed)
    else:
        lo, lo_closed = b.lo, b.lo_closed
    if a.hi > b.hi or (a.hi == b.hi and a.hi_closed):
        hi, hi_closed = a.hi, a.hi_closed or (a.hi == b.hi and b.hi_closed)
    else:
        hi, hi_closed = b.hi, b.hi_closed
    return Interval(lo, hi, lo_closed, hi_closed)


@st.composite
def chain_intervals(draw):
    lo = draw(st.integers(0, CHAIN.top))
    return Interval(lo, draw(st.integers(lo, CHAIN.top)))


@st.composite
def dense_intervals(draw):
    lo = draw(st.sampled_from(GRID))
    hi = draw(st.sampled_from([x for x in GRID if x >= lo]))
    if lo == hi:  # a singleton is closed on both ends
        return Interval(lo, hi)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def assert_union_matches(domain, a, b, probes):
    got = to._try_union(domain, a, b)
    assert got == generic_union(domain, a, b)
    if got is not None:
        for x in probes:
            assert got.contains(x) == (a.contains(x) or b.contains(x))


@settings(max_examples=400, deadline=None)
@given(chain_intervals(), chain_intervals())
def test_try_union_matches_generic_union_on_chains(a, b):
    assert_union_matches(CHAIN, a, b, CHAIN.points())


@settings(max_examples=600, deadline=None)
@given(dense_intervals(), dense_intervals())
def test_try_union_matches_generic_union_on_dense(a, b):
    probes = GRID + [x + Fraction(1, 4) for x in GRID]
    assert_union_matches(DENSE, a, b, probes)


H = Fraction(1, 2)


@pytest.mark.parametrize("domain, a, b", [
    (CHAIN, Interval(0, 2), Interval(3, 5)),                       # abutting
    (CHAIN, Interval(1, 4), Interval(3, 6)),                       # overlapping
    (CHAIN, Interval(1, 6), Interval(2, 3)),                       # nested
    (CHAIN, Interval(0, 1), Interval(3, 4)),                       # disjoint
    (CHAIN, Interval(2, 2), Interval(3, 3)),                       # singletons
    (DENSE, Interval(0, H, True, False), Interval(H, 1)),          # abutting
    (DENSE, Interval(0, H), Interval(H, 1, False, False)),         # abutting
    (DENSE, Interval(H, H), Interval(H, 1, False, True)),          # singleton + open
    (DENSE, Interval(0, H, False, False), Interval(H, H)),         # open + singleton
    (DENSE, Interval(0, H, True, False), Interval(H, 1, False, True)),  # gap at 1/2
    (DENSE, Interval(0, H), Interval(H, 1)),                       # touch at 1/2
    (DENSE, Interval(0, 1, False, False), Interval(H, 2)),         # overlapping
    (DENSE, Interval(-1, 3, False, False), Interval(0, 1)),        # nested
    (DENSE, Interval(0, H), Interval(1, 2)),                       # disjoint
    (DENSE, Interval(H, H), Interval(H, H)),                       # equal singletons
])
@pytest.mark.parametrize("swap", [False, True])
def test_try_union_named_cases_in_both_orders(domain, a, b, swap):
    if swap:
        a, b = b, a
    probes = CHAIN.points() if domain is CHAIN else GRID + [x + Fraction(1, 4) for x in GRID]
    assert_union_matches(domain, a, b, probes)


def halving_profile(domain, cycle=("C", "D")):
    return [make_halving_hold("p1", cycle, domain),
            make_constant("p2", "C", ("C", "D"), domain)]


def stuck_profile(domain):
    """The halving's event times, uncertified: its action never changes."""
    return halving_profile(domain, ("C",))


def test_halving_solve_pays_no_redundant_order_logic(monkeypatch):
    """1,024 events: at most 8 ordering comparisons per event, no
    strictly_precedes, and only the trailing gaps subtracted at the end."""
    domain = DenseInterval(Fraction(-1), Fraction(2))
    profile = stuck_profile(domain)
    pfx = empty_prefix(domain, ("p1", "p2"))
    calls = {"cmp": [], "sub": [], "precedes": []}

    def count(owner, name, key):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda a, b: calls[key].append(1) or original(a, b))

    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        count(Fraction, name, "cmp")
        count(to.Point, name, "cmp")  # event times are Points
    count(Fraction, "__sub__", "sub")
    count(to, "strictly_precedes", "precedes")
    res = solve_dense(profile, pfx, event_budget=1024)
    monkeypatch.undo()
    assert res.outcome == BUDGET and res.accumulation is None
    assert res.events_consumed == 1024
    assert len(calls["cmp"]) <= 8 * res.events_consumed
    assert calls["precedes"] == []
    assert len(calls["sub"]) <= 8


def test_to_json_formats_each_event_point_once(monkeypatch):
    domain = DenseInterval(Fraction(0), Fraction(1))
    res = solve_dense(stuck_profile(domain), empty_prefix(domain, ("p1", "p2")),
                      event_budget=256)
    calls = []
    fmt = to.format_point
    monkeypatch.setattr(to, "format_point", lambda t: calls.append(t) or fmt(t))
    rows = list(solver.render_events(res.events))
    # one string per event time, plus the horizon (p2's hold) and p1's
    # last hold; formatting per field takes 3 per event
    assert len(rows) == res.events_consumed
    assert len(calls) <= res.events_consumed + 2
    calls.clear()
    res.to_json()
    # the 32 events shown, one hold at the seam between head and tail, the
    # horizon and p1's last hold
    assert len(calls) <= 2 * solver.WITNESS_EDGE + 3


def plain_event(event):
    """One event's JSON object, with no memo."""
    t, kind, actions, holds = event
    return {"time": to.format_point(t), "kind": kind, "actions": list(actions),
            "holds": [None if h is None else to.format_point(h) for h in holds]}


def plain_rendering(res):
    """SolveResult.to_json spelled out field by field, with no memo.

    Up to 32 events are all shown; past that, `events` holds the first 16
    and the last 16, and `events_omitted` counts the ones in between.
    """
    n = len(res.events)
    shown = range(n) if n <= 32 else [*range(16), *range(n - 16, n)]
    out = {
        "outcome": res.outcome,
        "events_consumed": res.events_consumed,
        "events_omitted": n - len(shown),
        "events": [plain_event(res.events[k]) for k in shown],
    }
    if res.history is not None:
        out["history"] = history_to_json(res.history)
    if res.diagnosis is not None:
        out["diagnosis"] = res.diagnosis
    if res.accumulation is not None:
        out["accumulation"] = to.format_point(res.accumulation)
    return out


ZENO_DOMAINS = [("0", "1"), ("-1", "2"), ("1/2", "3"), ("-2", "-1/2")]


def zeno_doc(lo, hi, cycle=("C", "D")):
    return {
        "domain": {"kind": "dense", "lo": lo, "hi": hi},
        "players": [{"id": p, "actions": ["C", "D"]} for p in ("p1", "p2")],
        "strategies": [{"kind": "halving", "player": "p1", "cycle": list(cycle)},
                       {"kind": "constant", "player": "p2", "action": "C"}],
    }


def stuck_doc(lo, hi):
    return zeno_doc(lo, hi, ("C",))


def cli_solve_is_the_plain_rendering(tmp_path, capsys, doc, budget, code):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", str(path), "--budget", str(budget)]) == code
    stdout = capsys.readouterr().out
    spec = parse_spec(doc)
    res = solve_dense(build_profile(spec), empty_prefix(spec.domain, spec.players),
                      event_budget=budget)
    assert stdout == json.dumps(plain_rendering(res), indent=2) + "\n"
    return json.loads(stdout)


@pytest.mark.parametrize("budget", [64, 1024])
@pytest.mark.parametrize("lo, hi", ZENO_DOMAINS)
def test_cli_zeno_solve_is_the_plain_rendering(tmp_path, capsys, lo, hi, budget):
    out = cli_solve_is_the_plain_rendering(tmp_path, capsys, zeno_doc(lo, hi), budget, 4)
    assert out["accumulation"] == hi


@pytest.mark.parametrize("budget", [64, 1024])
@pytest.mark.parametrize("lo, hi", ZENO_DOMAINS)
def test_cli_budget_solve_is_the_plain_rendering(tmp_path, capsys, lo, hi, budget):
    out = cli_solve_is_the_plain_rendering(tmp_path, capsys, stuck_doc(lo, hi), budget, 5)
    assert out["outcome"] == "budget" and "accumulation" not in out
    assert out["events_consumed"] == budget


@pytest.mark.parametrize("seed", range(4))
def test_jittered_dense_solve_is_the_plain_rendering(seed):
    """Jitter puts fresh midpoint objects among the holds and event times."""
    rng = random.Random(seed)
    domain = DenseInterval(Fraction(-3, 2), Fraction(5, 2))
    points = sorted({Fraction(rng.randrange(1, 64), 16) - Fraction(3, 2)
                     for _ in range(12)} - {domain.lo, domain.hi})
    bounds = [domain.lo] + points + [domain.hi]
    pieces = [(Interval(a, b, True, b == domain.hi), "CD"[k % 2])
              for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    profile = [make_scripted("p1", domain, pieces),
               make_constant("p2", "C", ("C", "D"), domain)]
    res = solve_dense(profile, empty_prefix(domain, ("p1", "p2")),
                      jitter=random.Random(seed))
    assert res.outcome == solver.UNIQUE
    assert json.dumps(res.to_json(), indent=2) == json.dumps(plain_rendering(res), indent=2)


@pytest.mark.parametrize("budget", [31, 32, 33, 64])
def test_to_json_shows_the_first_and_last_events(budget):
    domain = DenseInterval(Fraction(-1), Fraction(2))
    res = solve_dense(stuck_profile(domain), empty_prefix(domain, ("p1", "p2")),
                      event_budget=budget)
    assert len(res.events) == res.events_consumed == budget  # the library keeps all
    out = res.to_json()
    shown = res.events if budget <= 32 else res.events[:16] + res.events[-16:]
    assert out["events"] == [plain_event(e) for e in shown]
    assert out["events_omitted"] == budget - len(shown)


@pytest.mark.parametrize("lo, hi", ZENO_DOMAINS)
def test_cli_zeno_solve_at_the_default_budget_prints_a_bounded_witness(
        tmp_path, capsys, lo, hi):
    """The certified walk stops at its second event, whatever the budget."""
    path = tmp_path / "zeno.json"
    path.write_text(json.dumps(zeno_doc(lo, hi)))
    assert cli.main(["solve", str(path)]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["events_consumed"] == len(out["events"]) == 2
    assert out["events_omitted"] == 0
    assert out["accumulation"] == hi


@pytest.mark.parametrize("lo, hi", ZENO_DOMAINS)
def test_cli_zeno_solve_at_the_budget_cap_stops_at_its_certificate(
        tmp_path, capsys, within, lo, hi):
    """The walk without a certificate would consume all 16,384 events and
    take seconds; the certified one stops at once."""
    path = tmp_path / "zeno.json"
    path.write_text(json.dumps(zeno_doc(lo, hi)))
    argv = ["solve", str(path), "--budget", str(cli.MAX_BUDGET)]
    assert within(5, cli.main, argv) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "zeno" and out["accumulation"] == hi
    assert out["events_consumed"] <= 4
    assert cli.MAX_BUDGET == 16384


@pytest.mark.parametrize("lo, hi", ZENO_DOMAINS)
def test_cli_budget_walk_at_the_default_budget_prints_a_bounded_witness(
        tmp_path, capsys, lo, hi):
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(stuck_doc(lo, hi)))
    assert cli.main(["solve", str(path)]) == 5
    stdout = capsys.readouterr().out
    assert len(stdout.encode()) < 128 * 1024
    out = json.loads(stdout)
    assert out["outcome"] == "budget" and "accumulation" not in out
    assert out["events_consumed"] == solver.DEFAULT_EVENT_BUDGET == 4096
    assert out["events_omitted"] == 4064 and len(out["events"]) == 32


def chain_doc(size):
    return {
        "domain": {"kind": "chain", "size": size},
        "players": [{"id": p, "actions": ["C", "D"]} for p in ("p1", "p2")],
        "strategies": [{"kind": "constant", "player": "p1", "action": "C"},
                       {"kind": "constant", "player": "p2", "action": "D"}],
    }


@pytest.mark.parametrize("doc, budget, code", [
    (zeno_doc("-1", "2"), 20, 4),
    (zeno_doc("1/2", "3"), 1024, 4),
    (chain_doc(40), 4096, 0),
    (stuck_doc("-1", "2"), 1024, 5),
])
def test_cli_solve_trace_holds_every_event(tmp_path, capsys, doc, budget, code):
    path, trace = tmp_path / "spec.json", tmp_path / "t.jsonl"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--budget", str(budget)]
    assert cli.main(argv + ["--trace", str(trace)]) == code
    stdout = capsys.readouterr().out
    assert cli.main(argv) == code
    assert capsys.readouterr().out == stdout  # --trace leaves stdout as it is
    spec = parse_spec(doc)
    res = cli._solve(spec, build_profile(spec), budget)
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert len(lines) == json.loads(stdout)["events_consumed"] == len(res.events)
    assert [json.loads(line) for line in lines] == [plain_event(e) for e in res.events]


@pytest.mark.parametrize("where", ["missing/t.jsonl", "."])
def test_cli_solve_trace_to_an_unwritable_path_exits_2(tmp_path, capsys, where):
    path = tmp_path / "zeno.json"
    path.write_text(json.dumps(zeno_doc("0", "1")))
    assert cli.main(["solve", str(path), "--budget", "8",
                     "--trace", str(tmp_path / where)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
