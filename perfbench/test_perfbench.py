"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Inputs are reproducible from the seed, every reference check rejects a
deliberately wrong result (negative controls), tracing changes no verdict
or output, the known defects show up as classified failures, and the
command honours its output contract.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

import totime  # noqa: E402
import totime.cli  # noqa: E402
from perfbench import catalog, gen, ops, reference as ref  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def _first(workload: str, **match) -> dict:
    for inst in gen.make_round(workload, 3, 0):
        if all(inst.get(k) == v for k, v in match.items()):
            return inst
    raise LookupError(match)


def _run(inst: dict, tt=totime, cli=totime.cli, workdir: Path | None = None):
    if inst["workload"] == "chain":
        return ops.run_chain(inst, tt)
    if inst["workload"] == "dense":
        return ops.run_dense(inst, tt)
    return ops.run_certify(inst, cli, ops.certify_files(inst, workdir))


def _engine(**overrides):
    """The engine's public namespace with some functions replaced."""
    return types.SimpleNamespace(**{**vars(totime), **overrides})


@pytest.fixture(autouse=True)
def _alarm():
    ops.install_alarm()


# -- inputs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    dump = lambda seed: json.dumps([gen.make_round(workload, seed, r) for r in range(2)],
                                   sort_keys=True).encode()
    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_rounds_keep_their_shapes_across_seeds(workload):
    shape = lambda seed, r: [(i["kind"], i["size"], i.get("family"), i.get("mix"))
                             for i in gen.make_round(workload, seed, r)]
    assert shape(1, 0) == shape(2, 5)


def test_scripts_are_canonical_with_exact_piece_counts():
    import random

    rows = ref.parse_rows(gen.make_script(random.Random(1), Fraction(-1), Fraction(1), 60))
    assert len(rows) == 60
    assert rows[0][0] == -1 and rows[-1][1] == 1
    for a, b in zip(rows, rows[1:]):
        assert a[1] == b[0] and a[3] != b[2]  # abut with no gap or overlap
        assert a[4] != b[4]  # no mergeable neighbours


# -- negative controls ----------------------------------------------------


def test_chain_reference_matches_engine_and_flags_a_corrupted_history():
    inst = _first("chain", mix="grim/table", size=50)
    assert _run(inst).passed

    def corrupt(profile, pfx):
        res = totime.solve_chain(profile, pfx)
        h = res.history
        (iv, a), *rest = h.per_player[0]
        flipped = ((iv, "D" if a == "C" else "C"),) + tuple(rest)
        bad = totime.PiecewiseHistory.build(
            h.domain, h.players, {h.players[0]: flipped,
                                  **{p: h.pieces_for(p) for p in h.players[1:]}})
        return replace(res, history=bad)

    out = _run(inst, _engine(solve_chain=corrupt))
    assert [f[0] for f in out.failures] == ["solve"]
    assert out.failures[0][2] is None


def test_chain_payoff_reference_flags_a_wrong_sum():
    inst = _first("chain", mix="constant/grim", size=8)

    def off_by_one(h, spec, tol=None):
        vec = totime.evaluate_payoff(h, spec)
        lo = {p: v + 1 for p, v in vec.lo.items()}
        return totime.PayoffVector(vec.players, lo, lo)

    out = _run(inst, _engine(evaluate_payoff=off_by_one))
    assert [f[0] for f in out.failures] == ["payoff"]


def test_dense_script_reference_flags_a_moved_cut():
    inst = _first("dense", kind="scripted", domain_class="shifted", size=50)
    assert _run(inst).passed

    def shifted(profile, pfx, **kw):
        res = totime.solve_dense(profile, pfx, **kw)
        h = res.history
        (iv, a), (jv, b), *rest = h.per_player[0]
        mid = iv.lo + (iv.hi - iv.lo) / 2
        moved = ((totime.Interval(iv.lo, mid, iv.lo_closed, False), a),
                 (totime.Interval(mid, jv.hi, True, jv.hi_closed), b), *rest)
        bad = totime.PiecewiseHistory.build(
            h.domain, h.players, {"p1": moved, "p2": h.pieces_for("p2")})
        return replace(res, history=bad)

    out = _run(inst, _engine(solve_dense=shifted))
    assert [f[0] for f in out.failures] == ["solve"]


def test_grim_closed_form_flags_a_late_punishment():
    lo, hi, delta = Fraction(0), Fraction(2), Fraction(1, 4)
    want = ref.grim_rows(lo, hi, delta, Fraction(1, 2))
    assert want == [(lo, Fraction(3, 4), True, False, "C"), (Fraction(3, 4), hi, True, True, "D")]
    late = ref.grim_rows(lo, hi, delta, Fraction(5, 8))
    assert ref.check_rows([late], [want]) is not None
    assert ref.grim_rows(lo, hi, delta, Fraction(7, 4)) == [
        (lo, hi, True, False, "C"), (hi, hi, True, True, "D")]
    assert ref.grim_rows(lo, hi, delta, Fraction(15, 8)) == [(lo, hi, True, True, "C")]


def test_dense_payoff_reference_flags_a_too_narrow_enclosure():
    inst = _first("dense", kind="defector", domain_class="shifted")

    def narrow(h, spec, tol):
        vec = totime.evaluate_payoff(h, spec, tol=tol)
        hi = {p: vec.lo[p] + (vec.hi[p] - vec.lo[p]) / 1000 - tol for p in vec.players}
        lo = {p: hi[p] - tol / 10 for p in vec.players}
        return totime.PayoffVector(vec.players, lo, hi)

    assert _run(inst).passed
    out = _run(inst, _engine(evaluate_payoff=narrow))
    assert [f[0] for f in out.failures] == ["payoff"]


def test_enclosure_check_rejects_wide_and_misplaced_enclosures():
    ref_value, err, tol = Fraction(1, 3), Fraction(1, 10**30), Fraction(1, 10**9)
    assert ref.check_enclosure(ref_value - tol / 2, ref_value + tol / 2, ref_value, err, tol) is None
    assert ref.check_enclosure(ref_value - tol, ref_value + tol, ref_value, err, tol) is not None
    assert ref.check_enclosure(ref_value + tol / 4, ref_value + tol / 2, ref_value, err, tol) is not None


def _corrupting_cli(mutate):
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = totime.cli.main(argv)
        obj = json.loads(buf.getvalue())
        code = mutate(argv[0], obj, code)
        print(json.dumps(obj))
        return code
    return types.SimpleNamespace(main=main)


def test_certify_zeno_check_flags_a_wrong_accumulation(tmp_path):
    inst = _first("certify", kind="zeno", size=1024)
    assert _run(inst, workdir=tmp_path).passed

    def mutate(cmd, obj, code):
        obj["accumulation"] = str(Fraction(obj["accumulation"]) - Fraction(1, 2**40))
        return code

    out = _run(inst, cli=_corrupting_cli(mutate), workdir=tmp_path)
    assert [f[0] for f in out.failures] == ["solve"]


def test_certify_verdict_table_flags_a_flipped_verdict(tmp_path):
    inst = _first("certify", family="dense grim/constant")
    assert _run(inst, workdir=tmp_path).passed

    def mutate(cmd, obj, code):
        if cmd == "check":
            obj["reports"]["5"][0]["passed"] = True
            return 0
        return code

    out = _run(inst, cli=_corrupting_cli(mutate), workdir=tmp_path)
    assert [(f[0], f[2]) for f in out.failures] == [("check", None)]


def test_certify_payoff_flags_a_too_narrow_enclosure(tmp_path):
    inst = _first("certify", kind="payoff", size=100)
    assert _run(inst, workdir=tmp_path).passed

    def mutate(cmd, obj, code):
        for v in obj.values():
            lo = Fraction(v["lo"])
            v["lo"], v["hi"] = str(lo - Fraction(1, 10**41)), str(lo - Fraction(1, 10**42))
        return code

    out = _run(inst, cli=_corrupting_cli(mutate), workdir=tmp_path)
    assert [f[0] for f in out.failures] == ["payoff"]


def test_gallery_table_flags_a_wrong_bundle():
    bundle = totime.run_gallery("friction_demo")
    assert ref.check_gallery("friction_demo", bundle) is None
    bundle["frictionality"]["bad"]["passed"] = True
    assert ref.check_gallery("friction_demo", bundle) is not None


# -- known defects --------------------------------------------------------


def test_known_defects_are_counted_and_classified(tmp_path):
    neg = _run(_first("dense", kind="defector", domain_class="negative"))
    assert [(f[0], f[2]) for f in neg.failures] == [("payoff", "payoff_negative_lo")]
    multi = _run(_first("certify", family="gallery multi"), workdir=tmp_path)
    assert [(f[0], f[2]) for f in multi.failures] == [("check", "axiom3_self_compare")]
    assert set(catalog.KNOWN_DEFECTS) >= {"payoff_negative_lo", "axiom3_self_compare",
                                          "dense_walk_zero_hold", "payoff_int_str_limit"}


def test_zero_hold_defect_is_classified():
    # [-1, 1]: an instant at -1/2 followed by a piece that ends at 0
    F = Fraction
    p1 = [["-1", "-1/2", True, False, "C"], ["-1/2", "-1/2", True, True, "D"],
          ["-1/2", "0", False, False, "C"], ["0", "1", True, True, "D"]]
    p2 = [["-1", "1", True, True, "C"]]
    inst = {"id": "zero-hold", "workload": "dense", "kind": "scripted", "size": 4,
            "spec": {"domain": {"kind": "dense", "lo": "-1", "hi": "1"},
                     "players": [{"id": "p1", "actions": ["C", "D"]},
                                 {"id": "p2", "actions": ["C", "D"]}],
                     "strategies": [{"kind": "constant", "player": p, "action": "C"}
                                    for p in ("p1", "p2")],
                     "payoff": {"rho": "0", "table": {"C,C": "1", "C,D": "0",
                                                      "D,C": "0", "D,D": "0"}}},
            "scripts": {"p1": p1, "p2": p2}}
    out = _run(inst)
    assert [(f[0], f[2]) for f in out.failures] == [("check", "dense_walk_zero_hold")]
    assert ref.dense_payoff(inst["spec"], [ref.parse_rows(p1), ref.parse_rows(p2)], 30)[0] \
        == {"p1": F(1), "p2": F(1)}


# -- tracing --------------------------------------------------------------


def _smallest_of_each_kind(workload: str) -> list[dict]:
    best = {}
    for inst in gen.make_round(workload, 4, 0):
        key = (inst["kind"], inst.get("family"), inst.get("domain_class"), inst.get("mix"))
        if key not in best or (inst["size"] or 0) < (best[key]["size"] or 0):
            best[key] = inst
    return list(best.values())


@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_tracing_changes_no_verdict_or_output(workload, tmp_path):
    insts = _smallest_of_each_kind(workload)
    plain = [_run(i, workdir=tmp_path) for i in insts]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_run(i, workdir=tmp_path) for i in insts]
    finally:
        tracer.uninstall()
    assert [o.digest for o in plain] == [o.digest for o in traced]
    assert [o.failures for o in plain] == [o.failures for o in traced]
    assert not getattr(totime.histories.prefix, "_perfbench_traced", False)
    assert not getattr(totime.axioms.history_prefix, "_perfbench_traced", False)
    m = tracer.metrics(len(traced))
    assert set(m) | {"solver.size_exponent", "axioms.size_exponent",
                     "histories.pieces_per_query.size_exponent"} == set(catalog.PER_LAYER)
    if workload == "chain":
        assert m["gamespec.exp_neg_enclosure.calls"] == 0
        assert m["solver.seq_to_prefix.calls"] > 0
    else:
        assert m["gamespec.exp_neg_enclosure.calls"] > 0
    if workload == "dense":
        assert m["solver.verify.reruns"] > 0 and m["axioms.checked"] > 0
    if workload == "certify":
        assert m["partitions.calls"] > 0 and m["cli.self_s"] > 0 and m["gallery.self_s"] > 0


def test_pieces_per_query_grows_with_chain_length():
    ratios = []
    for n in (50, 200):
        tracer = Tracer()
        tracer.install()
        try:
            out = _run(_first("chain", mix="grim/table", size=n))
        finally:
            tracer.uninstall()
        assert out.passed
        ratios.append(tracer.metrics(1)["histories.pieces_per_query"])
    assert ratios[1] > 2 * ratios[0]


# -- contract -------------------------------------------------------------


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {n: (u, b) for n, (u, b, _) in catalog.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} \
        == {n: u for n, (u, _, _) in catalog.END_TO_END.items()}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    meta = json.loads((ROOT / "perfbench" / "results" /
                       "BENCH_certify_seed2_trace0.json").read_text())["metadata"]
    assert {"python", "nproc", "seed", "generator", "git_commit"} <= set(meta)


def test_command_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
