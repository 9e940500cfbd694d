"""Piecewise histories, prefixes, splicing, and serialization."""

from fractions import Fraction

import pytest

from totime import timeorder as to
from totime.errors import (
    CoverageGapError,
    CoverageOverlapError,
    CutMismatchError,
    SchemaError,
)
from totime.histories import (
    HistoryPrefix,
    PiecewiseHistory,
    canonical_pieces,
    empty_prefix,
    history_from_json,
    history_to_csv,
    history_to_json,
    prefix,
    prefix_equal,
    splice,
)
from totime.timeorder import DenseInterval, FiniteChain, Interval

UNIT = DenseInterval(0, 1)
CHAIN = FiniteChain(3)
HALF = Fraction(1, 2)


def two_piece():
    return PiecewiseHistory.build(UNIT, ("p1",), {
        "p1": [(Interval(0, HALF, True, False), "a"),
               (Interval(HALF, 1), "b")],
    })


def test_canonical_pieces_merges_equal_runs():
    cover = to.full_interval(UNIT)
    pieces = canonical_pieces(UNIT, [
        (Interval(0, HALF, True, False), "a"),
        (Interval(HALF, 1), "a"),
    ], cover)
    assert pieces == ((Interval(0, 1), "a"),)


def test_canonical_pieces_detects_gap_and_overlap():
    cover = to.full_interval(UNIT)
    with pytest.raises(CoverageGapError):
        canonical_pieces(UNIT, [
            (Interval(0, HALF, True, False), "a"),
            (Interval(HALF, 1, False, True), "b"),  # misses the point 1/2
        ], cover)
    with pytest.raises(CoverageOverlapError):
        canonical_pieces(UNIT, [
            (Interval(0, HALF), "a"),
            (Interval(HALF, 1), "b"),
        ], cover)


def test_eval_and_change_times():
    h = two_piece()
    assert h.eval(Fraction(1, 4)) == ("a",)
    assert h.eval(HALF) == ("b",)
    assert h.eval_player("p1", 1) == "b"
    assert h.change_times() == [0, HALF, 1]


def test_prefix_window_semantics():
    h = two_piece()
    p = prefix(h, HALF)
    assert not p.cut_included
    assert p.eval(Fraction(1, 4)) == ("a",)
    with pytest.raises(Exception):
        p.eval(HALF)  # strictly below the cut only
    q = prefix(h, HALF, include=True)
    assert q.eval(HALF) == ("b",)


def test_prefix_equal_requires_same_cut():
    h = two_piece()
    with pytest.raises(CutMismatchError):
        prefix_equal(prefix(h, HALF), prefix(h, Fraction(1, 4)))
    assert prefix_equal(prefix(h, HALF), prefix(h, HALF))


def test_empty_prefix_and_splice_roundtrip():
    h = two_piece()
    p = empty_prefix(UNIT, ("p1",))
    assert p.is_empty
    rebuilt = splice(prefix(h, HALF), {"p1": [(Interval(HALF, 1), "b")]})
    assert rebuilt == h


def test_splice_after_included_cut():
    h = two_piece()
    p = prefix(h, HALF, include=True)
    rebuilt = splice(p, {"p1": [(Interval(HALF, 1, False, True), "b")]})
    assert rebuilt == h


def test_json_roundtrip_and_csv():
    h = two_piece()
    obj = history_to_json(h)
    back = history_from_json(UNIT, ("p1",), obj)
    assert back == h
    csv_text = history_to_csv(h)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "player,lo,hi,lo_closed,hi_closed,action"
    assert len(lines) == 3


@pytest.mark.parametrize("key, flag", [
    ("hi_closed", "false"), ("lo_closed", "true"), ("hi_closed", 0), ("lo_closed", None),
])
def test_json_closedness_flags_must_be_booleans(key, flag):
    obj = history_to_json(two_piece())
    obj["p1"][1][key] = flag
    with pytest.raises(SchemaError) as err:
        history_from_json(UNIT, ("p1",), obj)
    assert err.value.path == f"p1[1].{key}"


def test_json_closedness_flags_default_to_closed():
    obj = {"p1": [{"lo": "0", "hi": "1", "action": "a"}]}
    assert history_from_json(UNIT, ("p1",), obj).pieces_for("p1") == (
        (Interval(0, 1, True, True), "a"),)


def test_json_reader_parses_each_endpoint_string_once(monkeypatch):
    """Each distinct endpoint string is parsed once per document, and the
    pieces, given in any order, tile into the history that build makes of
    them."""
    cuts = [Fraction(k, 64) for k in range(1, 64, 3)]
    pts = [Fraction(0), *cuts, Fraction(1)]
    pieces = {p: [(Interval(a, b, True, b == 1), "ab"[(k + j) % 2])
                  for k, (a, b) in enumerate(zip(pts, pts[1:]))]
              for j, p in enumerate(("p1", "p2"))}
    want = PiecewiseHistory.build(UNIT, ("p1", "p2"), pieces)
    obj = {p: [{**iv.to_json(), "action": a} for iv, a in reversed(pp)]
           for p, pp in pieces.items()}
    strings = {e[k] for pp in obj.values() for e in pp for k in ("lo", "hi")}
    calls = []
    parse = to.parse_rational
    monkeypatch.setattr(to, "parse_rational", lambda v, *a, **k: calls.append(v) or parse(v, *a, **k))
    assert history_from_json(UNIT, ("p1", "p2"), obj) == want
    assert sorted(calls) == sorted(strings)


def test_json_reader_reads_numbers_and_open_chain_bounds():
    obj = {"p1": [{"lo": 0, "hi": "1", "hi_closed": False, "action": "x"},
                  {"lo": "0", "hi": 2, "lo_closed": False, "action": "y"}]}
    assert history_from_json(CHAIN, ("p1",), obj).pieces_for("p1") == (
        (Interval(0, 0), "x"), (Interval(1, 2), "y"))
    obj["p1"][1]["lo"] = True  # a JSON boolean is no point, whatever it equals
    with pytest.raises(SchemaError) as err:
        history_from_json(CHAIN, ("p1",), obj)
    assert err.value.path == "p1[1].lo"


def test_chain_history():
    h = PiecewiseHistory.build(CHAIN, ("p1", "p2"), {
        "p1": [(Interval(0, 0), "x"), (Interval(1, 2), "y")],
        "p2": [(Interval(0, 2), "z")],
    })
    assert h.eval(0) == ("x", "z")
    assert h.eval(2) == ("y", "z")
    p = prefix(h, 2)
    assert p.eval(1) == ("y", "z")
