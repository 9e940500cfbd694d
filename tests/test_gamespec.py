"""Game spec parsing, certified payoffs, and the command-line surface."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import cli
from totime import timeorder as to
from totime.errors import AlphabetMismatchError, BadParametersError, SchemaError
from totime.gamespec import (
    build_profile,
    evaluate_payoff,
    exp_neg_enclosure,
    parse_spec,
    spec_to_json,
)
from totime.histories import PiecewiseHistory, empty_prefix
from totime.solver import solve_chain
from totime.timeorder import DenseInterval, FiniteChain, Interval


def chain_spec_dict():
    return {
        "domain": {"kind": "chain", "size": 3},
        "players": [{"id": "p", "actions": ["a"]}],
        "strategies": [{"kind": "constant", "player": "p", "action": "a"}],
        "payoff": {"rho": "1", "table": {"a": "1"}},
        "seed": 0,
    }


def grim_spec_dict():
    return {
        "domain": {"kind": "dense", "lo": "0", "hi": "1"},
        "players": [
            {"id": "p1", "actions": ["C", "D"]},
            {"id": "p2", "actions": ["C", "D"]},
        ],
        "strategies": [
            {"kind": "grim", "player": "p1", "cooperate": "C",
             "punish": "D", "delta": "1/4"},
            {"kind": "grim", "player": "p2", "cooperate": "C",
             "punish": "D", "delta": "1/4"},
        ],
        "payoff": {
            "rho": "1/2",
            "table": {"C,C": "1", "C,D": "0", "D,C": "0", "D,D": "0"},
        },
        "seed": 0,
    }


# -- parsing and validation ----------------------------------------------------


def test_parse_minimal_chain_spec():
    spec = parse_spec(json.dumps(chain_spec_dict()))
    assert spec.domain == FiniteChain(3)
    assert spec.players == ("p",)
    assert spec.alphabets["p"] == ("a",)
    assert spec.rho == 1
    assert spec.payoff_table[("a",)] == {"p": Fraction(1)}


def test_unknown_action_reports_path():
    bad = chain_spec_dict()
    bad["strategies"][0]["action"] = "X"
    with pytest.raises(AlphabetMismatchError) as e:
        parse_spec(json.dumps(bad))
    assert "strategies[0]" in str(e.value)
    assert "'X'" in str(e.value)


@pytest.mark.parametrize("action", ["C,D", "C;D", "1|C"])
def test_action_with_key_separator_rejected(action):
    bad = grim_spec_dict()
    bad["players"][1]["actions"] = ["C", action]
    with pytest.raises(SchemaError) as e:
        parse_spec(json.dumps(bad))
    assert "players[1].actions[1]" in str(e.value)


def test_duplicate_player_rejected():
    bad = grim_spec_dict()
    bad["players"][1]["id"] = "p1"
    with pytest.raises(SchemaError) as e:
        parse_spec(json.dumps(bad))
    assert "players[1].id" in str(e.value)


def test_incomplete_payoff_table_rejected():
    bad = grim_spec_dict()
    del bad["payoff"]["table"]["D,D"]
    with pytest.raises(SchemaError) as e:
        parse_spec(json.dumps(bad))
    assert "payoff.table" in str(e.value)
    assert "missing 1" in str(e.value)


def test_bad_rational_rejected():
    bad = grim_spec_dict()
    bad["payoff"]["rho"] = "fast"
    with pytest.raises(SchemaError) as e:
        parse_spec(json.dumps(bad))
    assert "payoff.rho" in str(e.value)


def test_canonical_round_trip_is_identity():
    for doc in (chain_spec_dict(), grim_spec_dict()):
        spec = parse_spec(json.dumps(doc))
        again = parse_spec(json.dumps(spec_to_json(spec)))
        assert again == spec
        assert spec_to_json(again) == spec_to_json(spec)


def test_random_table_profile_is_seed_deterministic():
    doc = {
        "domain": {"kind": "chain", "size": 4},
        "players": [{"id": "p", "actions": ["x", "y"]}],
        "strategies": [{"kind": "table", "player": "p", "seed": 0}],
        "seed": 7,
    }
    spec = parse_spec(json.dumps(doc))
    h1 = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players))
    h2 = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players))
    assert h1.history == h2.history
    h3 = solve_chain(build_profile(spec, seed=8),
                     empty_prefix(spec.domain, spec.players))
    results = {tuple(h.history.eval(t) for t in range(4)) for h in (h1, h3)}
    # a different seed is allowed to coincide, but the draw must be lawful
    for combo in results:
        assert all(a in ("x", "y") for pair in combo for a in pair)


# -- certified exponentials and payoffs ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=64),
    den=st.integers(min_value=1, max_value=16),
    k=st.sampled_from([6, 12]),
)
def test_exp_neg_enclosure_brackets_true_value(num, den, k):
    x = Fraction(num, den)
    eps = Fraction(1, 10**k)
    lo, hi = exp_neg_enclosure(x, eps)
    assert hi - lo <= eps
    assert lo <= Fraction(math.exp(-float(x))) + Fraction(1, 10**10)
    assert hi >= Fraction(math.exp(-float(x))) - Fraction(1, 10**10)
    assert 0 <= lo <= hi <= 1


def taylor_exp_neg(x: Fraction, terms: int = 40) -> tuple[Fraction, Fraction]:
    """Alternating-series bracket of e^{-x} for 0 < x <= 1 (test-local oracle)."""
    assert 0 < x <= 1
    s = Fraction(0)
    term = Fraction(1)
    lo = hi = None
    for n in range(terms):
        s += term
        if n % 2 == 0:
            hi = s
        else:
            lo = s
        term *= -x / (n + 1)
    return lo, hi


def test_chain_payoff_is_exact():
    spec = parse_spec(json.dumps(chain_spec_dict()))
    res = solve_chain(build_profile(spec), empty_prefix(spec.domain, spec.players))
    vec = evaluate_payoff(res.history, spec)
    # 1 + 1/2 + 1/4 at discount 1/(1+rho) = 1/2
    assert vec.lo["p"] == vec.hi["p"] == Fraction(7, 4)
    assert vec.width("p") == 0


def test_dense_payoff_enclosure_matches_series_oracle():
    spec = parse_spec(json.dumps(grim_spec_dict()))
    h = PiecewiseHistory.build(
        spec.domain, spec.players,
        {p: [(Interval(Fraction(0), Fraction(1)), "C")] for p in spec.players},
    )
    tol = Fraction(1, 10**9)
    vec = evaluate_payoff(h, spec, tol=tol)
    # all-C forever: (1/rho)(1 - e^{-rho}) = 2 (1 - e^{-1/2})
    e_lo, e_hi = taylor_exp_neg(Fraction(1, 2))
    assert vec.hi["p1"] - vec.lo["p1"] <= tol
    assert vec.lo["p1"] <= 2 * (1 - e_lo)
    assert vec.hi["p1"] >= 2 * (1 - e_hi)
    assert vec.lo["p1"] == vec.lo["p2"]


def test_dense_payoff_two_segments_rho_zero():
    doc = grim_spec_dict()
    doc["payoff"]["rho"] = "0"
    spec = parse_spec(json.dumps(doc))
    h = PiecewiseHistory.build(
        spec.domain, spec.players,
        {
            "p1": [
                (to.make_interval(spec.domain, 0, Fraction(3, 4), True, False), "C"),
                (to.make_interval(spec.domain, Fraction(3, 4), 1), "D"),
            ],
            "p2": [(Interval(Fraction(0), Fraction(1)), "C")],
        },
    )
    vec = evaluate_payoff(h, spec)
    # (C,C) pays 1 on [0, 3/4), (D,C) pays 0 afterwards: exact at rho = 0
    assert vec.lo["p1"] == vec.hi["p1"] == Fraction(3, 4)


@pytest.mark.parametrize("x,eps", [(Fraction(-1, 2), Fraction(1, 10**9)),
                                   (Fraction(1, 2), Fraction(0))])
def test_exp_neg_enclosure_rejects_negative_x_and_eps(x, eps, within):
    with pytest.raises(ValueError):
        within(5, exp_neg_enclosure, x, eps)


@pytest.mark.parametrize("tol", [Fraction(0), Fraction(-1, 10)])
def test_payoff_rejects_non_positive_tolerance(tol, within):
    spec = parse_spec(json.dumps(grim_spec_dict()))
    h = PiecewiseHistory.build(
        spec.domain, spec.players,
        {p: [(Interval(Fraction(0), Fraction(1)), "C")] for p in spec.players},
    )
    with pytest.raises(BadParametersError):
        within(5, evaluate_payoff, h, spec, tol=tol)


# -- command line ---------------------------------------------------------------


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_solve_check_oracle_spec(tmp_path, capsys):
    spec_path = write_json(tmp_path / "chain.json", chain_spec_dict())
    assert cli.main(["solve", spec_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "unique"

    assert cli.main(["oracle", spec_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 1

    assert cli.main(["check", spec_path, "--axioms", "1,2,3,5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checked_axioms"] == [1, 2, 3, 5]

    assert cli.main(["spec", spec_path]) == 0
    first = capsys.readouterr().out
    echoed = write_json(tmp_path / "echo.json", json.loads(first))
    assert cli.main(["spec", echoed]) == 0
    assert capsys.readouterr().out == first  # canonical form is a fixed point


def test_cli_solve_out_then_payoff(tmp_path, capsys):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = str(tmp_path / "hist.json")
    assert cli.main(["solve", spec_path, "--out", hist_path]) == 0
    capsys.readouterr()
    assert cli.main(["payoff", spec_path, hist_path, "--tol", "1e-9"]) == 0
    out = json.loads(capsys.readouterr().out)
    lo, hi = Fraction(out["p1"]["lo"]), Fraction(out["p1"]["hi"])
    e_lo, e_hi = taylor_exp_neg(Fraction(1, 2))
    assert hi - lo <= Fraction(1, 10**9)
    assert lo <= 2 * (1 - e_lo) and hi >= 2 * (1 - e_hi)


def test_cli_payoff_zero_tol_exits_2(tmp_path, capsys, within):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = str(tmp_path / "hist.json")

    def solve_then_payoff():
        assert cli.main(["solve", spec_path, "--out", hist_path]) == 0
        capsys.readouterr()
        return cli.main(["payoff", spec_path, hist_path, "--tol", "0"])

    assert within(5, solve_then_payoff) == 2
    assert "tolerance" in capsys.readouterr().err


def test_cli_gallery_seed_flag_beats_environment(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run_gallery", lambda name, seed: seen.append(seed) or {})
    monkeypatch.setenv("TOTIME_SEED", "7")
    assert cli.main(["gallery", "no_trace", "--seed", "3"]) == 0
    assert cli.main(["gallery", "no_trace"]) == 0
    monkeypatch.delenv("TOTIME_SEED")
    assert cli.main(["gallery", "no_trace"]) == 0
    assert seen == [3, 7, 0]


def test_cli_zeno_exit_code(tmp_path, capsys):
    doc = {
        "domain": {"kind": "dense", "lo": "0", "hi": "1"},
        "players": [{"id": "p", "actions": ["a", "b"]}],
        "strategies": [{"kind": "halving", "player": "p", "cycle": ["a", "b"]}],
        "seed": 0,
    }
    spec_path = write_json(tmp_path / "zeno.json", doc)
    assert cli.main(["solve", spec_path, "--budget", "64"]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "zeno"
    assert Fraction(out["accumulation"]) == 1


def gallery_spec_dict(name):
    return {
        "domain": {"kind": "dense", "lo": "0", "hi": "1"},
        "players": [{"id": "p1", "actions": ["0", "1"]}],
        "strategies": [{"kind": "gallery", "player": "p1", "name": name}],
        "seed": 0,
    }


def axiom3_reports(tmp_path, capsys, doc, code):
    spec_path = write_json(tmp_path / "spec.json", doc)
    assert cli.main(["check", spec_path, "--axioms", "3"]) == code
    return json.loads(capsys.readouterr().out)["reports"]["3"]


@pytest.mark.parametrize("name", ["multi", "no_trace"])
def test_cli_check_axiom3_on_a_black_box_is_inconclusive(tmp_path, capsys, name):
    # no consistent history is solved for, so the constant fallback would
    # only be compared with itself
    (rep,) = axiom3_reports(tmp_path, capsys, gallery_spec_dict(name), 2)
    assert (rep["passed"], rep["method"]) == (None, "sampled")
    assert "no second consistent history" in rep["details"]


def test_cli_check_axiom3_on_a_unique_grim_solve_passes(tmp_path, capsys):
    reps = axiom3_reports(tmp_path, capsys, grim_spec_dict(), 0)
    assert [(r["passed"], r["method"]) for r in reps] == [(True, "exhaustive")] * 2
    assert all("the solve is unique" in r["details"] for r in reps)


def test_cli_check_axiom3_without_a_unique_solve_is_inconclusive(tmp_path, capsys):
    doc = {
        "domain": {"kind": "dense", "lo": "0", "hi": "1"},
        "players": [{"id": "p", "actions": ["a", "b"]}],
        "strategies": [{"kind": "halving", "player": "p", "cycle": ["a", "b"]}],
    }
    (rep,) = axiom3_reports(tmp_path, capsys, doc, 2)
    assert (rep["passed"], rep["method"]) == (None, "witness-based")
    assert "'zeno'" in rep["details"]


def test_cli_meet(tmp_path, capsys):
    domain = {"kind": "chain", "size": 6}
    part1 = {
        "domain": domain, "start": 0,
        "blocks": [{"lo": "0", "hi": "2"}, {"lo": "3", "hi": "5"}],
    }
    part2 = {
        "domain": domain, "start": 0,
        "blocks": [{"lo": "0", "hi": "3"}, {"lo": "4", "hi": "5"}],
    }
    p1 = write_json(tmp_path / "p1.json", part1)
    p2 = write_json(tmp_path / "p2.json", part2)
    assert cli.main(["meet", p1, p2]) == 0
    out = json.loads(capsys.readouterr().out)
    los = [b["lo"] for b in out["blocks"]]
    assert los == ["0", "3", "4"]


def dense_partition():
    return {"domain": {"kind": "dense", "lo": "0", "hi": "1"}, "start": "0",
            "blocks": [{"lo": "0", "hi": "1/2", "hi_closed": False},
                       {"lo": "1/2", "hi": "1"}]}


def test_cli_meet_dense_partitions(tmp_path, capsys):
    p1 = write_json(tmp_path / "p1.json", dense_partition())
    assert cli.main(["meet", p1, p1]) == 0
    assert [b["lo"] for b in json.loads(capsys.readouterr().out)["blocks"]] == ["0", "1/2"]


def test_cli_meet_without_domain_exits_2(tmp_path, capsys):
    doc = dense_partition()
    del doc["domain"]
    p1 = write_json(tmp_path / "p1.json", doc)
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith("error: domain: ")


def test_cli_meet_chain_start_not_an_integer_exits_2(tmp_path, capsys):
    doc = {"domain": {"kind": "chain", "size": 4}, "start": "x",
           "blocks": [{"lo": "0", "hi": "3"}]}
    p1 = write_json(tmp_path / "p1.json", doc)
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith("error: start: 'x' is not an integer")


def test_cli_meet_dense_start_with_zero_denominator_exits_2(tmp_path, capsys):
    doc = dense_partition()
    doc["start"] = "1/0"
    p1 = write_json(tmp_path / "p1.json", doc)
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith("error: start: '1/0' is not an exact rational")


def test_cli_meet_partition_that_is_not_an_object_exits_2(tmp_path, capsys):
    p1 = write_json(tmp_path / "p1.json", [dense_partition()])
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith("error: $: ")


@pytest.mark.parametrize("blocks, path", [
    (None, "blocks"), ("0..1", "blocks"), ([{"lo": "0"}], "blocks[0].hi"),
    ([{"lo": "0", "hi": "1/2", "hi_closed": "false"}, {"lo": "1/2", "hi": "1"}],
     "blocks[0].hi_closed"),
    ([{"lo": "0", "hi": "1", "lo_closed": 1}], "blocks[0].lo_closed"),
], ids=["missing", "not-a-list", "bad-block", "string-hi-closed", "int-lo-closed"])
def test_cli_meet_bad_blocks_exit_2(tmp_path, capsys, blocks, path):
    doc = dense_partition()
    doc["blocks"] = blocks
    if blocks is None:
        del doc["blocks"]
    p1 = write_json(tmp_path / "p1.json", doc)
    assert cli.main(["meet", p1, p1]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("flags, needle", [
    (["--axioms", "1,x"], "--axioms"),
    (["--axioms", "7"], "unknown axiom 7"),
    (["--samples", "-3"], "--samples"),
    (["--samples", "0"], "--samples"),
], ids=["axiom-not-a-number", "unknown-axiom", "negative-samples", "zero-samples"])
def test_cli_check_bad_flags_exit_2(tmp_path, capsys, flags, needle):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    assert cli.main(["check", spec_path] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and needle in captured.err


def test_cli_bad_spec_exits_2(tmp_path, capsys):
    bad = chain_spec_dict()
    bad["strategies"][0]["action"] = "X"
    spec_path = write_json(tmp_path / "bad.json", bad)
    assert cli.main(["solve", spec_path]) == 2
    assert "strategies[0]" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["abc", "nan", "1/0"])
def test_cli_payoff_bad_tol_exits_2(tmp_path, capsys, tol):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = str(tmp_path / "hist.json")
    assert cli.main(["solve", spec_path, "--out", hist_path]) == 0
    capsys.readouterr()
    assert cli.main(["payoff", spec_path, hist_path, "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--tol" in err


def test_cli_malformed_spec_json_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "broken.json"
    spec_path.write_text('{"domain": {"kind": "chain",')
    assert cli.main(["solve", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "broken.json" in err


def test_cli_malformed_history_json_exits_2(tmp_path, capsys):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = tmp_path / "hist.json"
    hist_path.write_text("[not json")
    assert cli.main(["payoff", spec_path, str(hist_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "hist.json" in err


def grim_history():
    piece = {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True, "action": "C"}
    return {"p1": [dict(piece)], "p2": [dict(piece)]}


@pytest.mark.parametrize("edit, path", [
    (lambda h: h["p1"][0].pop("action"), "p1[0].action"),
    (lambda h: h.pop("p1"), "p1"),
    (lambda h: h["p2"][0].update(hi="x"), "p2[0].hi"),
    (lambda h: h["p1"][0].update(lo="1/0"), "p1[0].lo"),
    (lambda h: h["p1"][0].pop("lo"), "p1[0].lo"),
    (lambda h: h["p1"].__setitem__(0, "0..1"), "p1[0]"),
    (lambda h: h["p2"][0].update(lo="1", hi="0"), "p2[0]"),
    (lambda h: h["p1"][0].update(hi_closed="false"), "p1[0].hi_closed"),
    (lambda h: h["p2"][0].update(lo_closed=None), "p2[0].lo_closed"),
], ids=["no-action", "no-player", "bad-hi", "zero-denominator", "no-lo", "not-an-object",
        "empty-interval", "string-hi-closed", "null-lo-closed"])
def test_cli_payoff_history_of_wrong_shape_exits_2(tmp_path, capsys, edit, path):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist = grim_history()
    edit(hist)
    hist_path = write_json(tmp_path / "hist.json", hist)
    assert cli.main(["payoff", spec_path, hist_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")


def test_cli_payoff_history_that_is_not_an_object_exits_2(tmp_path, capsys):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = write_json(tmp_path / "hist.json", [grim_history()])
    assert cli.main(["payoff", spec_path, hist_path]) == 2
    assert capsys.readouterr().err.startswith("error: $: ")


def test_cli_payoff_well_formed_history_exits_0(tmp_path, capsys):
    spec_path = write_json(tmp_path / "grim.json", grim_spec_dict())
    hist_path = write_json(tmp_path / "hist.json", grim_history())
    assert cli.main(["payoff", spec_path, hist_path]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"p1", "p2"}


@pytest.mark.parametrize("argv", [["solve", None], ["gallery", "no_trace"]])
def test_cli_bad_seed_environment_exits_2(tmp_path, capsys, monkeypatch, argv):
    spec_path = write_json(tmp_path / "chain.json", chain_spec_dict())
    monkeypatch.setenv("TOTIME_SEED", "x")
    assert cli.main([a if a is not None else spec_path for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "TOTIME_SEED" in err


def test_cli_payoff_400_changes_prints_short_bounds(tmp_path, capsys, within):
    """The bounds share one 2^p denominator instead of squaring up digits."""
    doc = grim_spec_dict()
    doc["domain"]["hi"] = "10"
    doc["payoff"] = {"rho": "2",
                     "table": {"C,C": "3", "C,D": "-2", "D,C": "5/3", "D,D": "1/7"}}
    spec_path = write_json(tmp_path / "spec.json", doc)

    def alternating(cuts):
        pts = [Fraction(0)] + cuts + [Fraction(10)]
        return [{"lo": str(a), "hi": str(b), "lo_closed": True, "hi_closed": b == 10,
                 "action": "CD"[i % 2]} for i, (a, b) in enumerate(zip(pts, pts[1:]))]

    hist = {"p1": alternating([Fraction(i, 40) for i in range(1, 400, 2)]),
            "p2": alternating([Fraction(i, 40) for i in range(2, 400, 2)])}
    hist_path = write_json(tmp_path / "hist.json", hist)
    assert within(5, cli.main, ["payoff", spec_path, hist_path, "--tol", "1e-40"]) == 0
    out = json.loads(capsys.readouterr().out)
    for bounds in out.values():
        lo, hi = Fraction(bounds["lo"]), Fraction(bounds["hi"])
        assert 0 <= hi - lo <= Fraction(1, 10**40)
        assert len(bounds["lo"]) < 300 and len(bounds["hi"]) < 300
