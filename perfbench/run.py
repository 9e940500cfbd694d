"""The totime benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload chain|dense|certify --seed N \
        --seconds S --trace 0|1

A single process runs a closed loop with one client and no threads: each
instance starts after the previous one finished.  Instances come in
rounds of fixed shapes (see gen.py); whole rounds run until `--seconds`
have passed.  Each instance runs the solve, check and payoff phases its
kind has, and every result is checked against a reference from
reference.py.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs untraced
rounds for half the time (for the scaling fits and as the overhead
baseline), then the same rounds again with every layer wrapped by
trace.Tracer, and prints the per-layer metrics.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the full result,
with run metadata, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

POOL_ROUNDS = 8       # distinct rounds generated per run, then cycled
SETUP_REPEATS = 5
HARD_EXTRA_S = 60.0   # stop mid-round this long after the deadline


def _engine_available() -> bool:
    return (SRC / "totime" / "__init__.py").is_file()


def _import_engine():
    """Fresh import of the engine from the checkout's src/."""
    for name in [m for m in sys.modules if m == "totime" or m.startswith("totime.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    tt = importlib.import_module("totime")
    if Path(tt.__file__).resolve().parent != (SRC / "totime").resolve():
        raise ImportError(f"totime imported from {tt.__file__}, not from {SRC}")
    return tt, importlib.import_module("totime.cli")


class Bench:
    def __init__(self, workload: str, seed: int):
        from perfbench import gen, ops

        self.gen, self.ops = gen, ops
        self.workload, self.seed = workload, seed
        self.results = HERE / "results"
        self.workdir = self.results / f"work-{workload}-{seed}-{os.getpid()}"
        self.files: dict[str, dict] = {}

    # -- set-up ------------------------------------------------------------

    def setup_once(self) -> float:
        start = time.perf_counter()
        self.tt, self.cli = _import_engine()
        self.pool = [self.gen.make_round(self.workload, self.seed, r)
                     for r in range(POOL_ROUNDS)]
        if self.workload == "certify":
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            self.files = {inst["id"]: self.ops.certify_files(inst, self.workdir)
                          for rnd in self.pool for inst in rnd}
        for inst in self._warmup_set():
            self.run_instance(inst)
        return time.perf_counter() - start

    def _warmup_set(self) -> list[dict]:
        """The smallest instance of each kind in the first round."""
        best = {}
        for inst in self.pool[0]:
            key = inst["kind"]
            if key not in best or (inst["size"] or 0) < (best[key]["size"] or 0):
                best[key] = inst
        return list(best.values())

    # -- running -----------------------------------------------------------

    def run_instance(self, inst: dict):
        if self.workload == "chain":
            return self.ops.run_chain(inst, self.tt)
        if self.workload == "dense":
            return self.ops.run_dense(inst, self.tt)
        return self.ops.run_certify(inst, self.cli, self.files[inst["id"]])

    def run_rounds(self, seconds: float, tracer=None):
        """Whole rounds from round 0 until `seconds` pass; (outcomes, round times)."""
        outcomes, round_times = [], []
        start = time.perf_counter()
        hard = start + seconds + HARD_EXTRA_S
        r = 0
        while time.perf_counter() - start < seconds or r == 0:
            t0 = time.perf_counter()
            for inst in self.pool[r % POOL_ROUNDS]:
                if tracer is not None:
                    tracer.instance = len(outcomes)
                outcomes.append(self.run_instance(inst))
                if time.perf_counter() > hard:
                    return outcomes, round_times, time.perf_counter() - start
            round_times.append(time.perf_counter() - t0)
            r += 1
        return outcomes, round_times, time.perf_counter() - start

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- results ------------------------------------------------------------------


def phase_stats(outcomes) -> tuple[dict, dict]:
    from perfbench.stats import hd_quantile, tail_q

    metrics, counts = {}, {}
    for phase in ("solve", "check", "payoff"):
        samples = [o.times_ms[phase] for o in outcomes if phase in o.times_ms]
        q = tail_q(len(samples))
        counts[phase] = {"samples": len(samples), "tail_quantile": q}
        metrics[f"{phase}_ms.p50"] = hd_quantile(samples, 0.5) if samples else 0.0
        metrics[f"{phase}_ms.p90"] = hd_quantile(samples, q) if samples else 0.0
    return metrics, counts


def failure_summary(outcomes) -> tuple[dict, bool]:
    by_reason = Counter()
    unknown = []
    for o in outcomes:
        for phase, detail, known in o.failures:
            by_reason[known or f"unexpected {phase}"] += 1
            if known is None and len(unknown) < 20:
                unknown.append({"instance": o.inst_id, "phase": phase, "detail": detail})
    return {"by_reason": dict(by_reason), "unexpected": unknown}, not unknown


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else text[5:]
    return text


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    from perfbench import catalog

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not _engine_available():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed)
    bench.results.mkdir(parents=True, exist_ok=True)
    bench.ops.install_alarm()
    try:
        setups = [bench.setup_once() for _ in range(SETUP_REPEATS)]
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "git_commit": git_commit(),
            "generator": catalog.WORKLOADS[args.workload],
            "round_size": len(bench.pool[0]), "pool_rounds": POOL_ROUNDS,
            "setup_s_samples": setups, "op_cap_s": bench.ops.OP_CAP_S,
            "phase_commands": catalog.PHASE_COMMANDS,
            "known_defects": catalog.KNOWN_DEFECTS,
        }
        if args.trace:
            result = traced_run(bench, args, meta)
        else:
            result = plain_run(bench, args, meta, statistics.median(setups))
    finally:
        bench.close()
    out = bench.results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps({**result, "metadata": meta}, indent=1, default=str))
    for name, m in result["metrics"].items():
        print(f"{args.workload:8s} {name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _attempt_counts(outcomes) -> tuple[int, int]:
    return len(outcomes), sum(1 for o in outcomes if not o.passed)


def plain_run(bench: Bench, args, meta: dict, setup_s: float) -> dict:
    from perfbench import catalog

    outcomes, round_times, wall = bench.run_rounds(args.seconds)
    attempted, failed = _attempt_counts(outcomes)
    values, counts = phase_stats(outcomes)
    values["setup_s"] = setup_s
    values["instances_per_s"] = (attempted - failed) / wall
    values["passed_ratio"] = (attempted - failed) / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, correct = failure_summary(outcomes)
    meta.update(rounds=len(round_times), wall_s=wall, round_times_s=round_times,
                phase_samples=counts, failures=failures,
                failed_ratio=failed / attempted)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _, _) in catalog.END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_run(bench: Bench, args, meta: dict) -> dict:
    from perfbench import catalog
    from perfbench.stats import loglog_slope
    from perfbench.trace import Tracer

    half = args.seconds / 2
    plain, plain_rounds, _ = bench.run_rounds(half)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_rounds, _ = bench.run_rounds(half, tracer)
    finally:
        tracer.uninstall()
    attempted, failed = _attempt_counts(traced)
    values = tracer.metrics(attempted)
    values["solver.size_exponent"] = loglog_slope(
        [(o.sizes.get("solve"), o.times_ms.get("solve", 0)) for o in plain])
    values["axioms.size_exponent"] = loglog_slope(
        [(o.sizes.get("check"), o.times_ms.get("check", 0)) for o in plain])
    by_size: dict = {}
    for i, o in enumerate(traced):
        pieces, queries = tracer.per_instance.get(i, (0, 0))
        tally = by_size.setdefault(o.sizes.get("solve"), [0, 0])
        tally[0] += pieces
        tally[1] += queries
    values["histories.pieces_per_query.size_exponent"] = loglog_slope(
        [(size, p / q) for size, (p, q) in by_size.items() if q])
    shared = min(len(plain_rounds), len(traced_rounds))
    overhead = (sum(traced_rounds[:shared]) / sum(plain_rounds[:shared])
                if shared else None)
    common = min(len(plain), len(traced))
    match = all(a.digest == b.digest for a, b in zip(plain[:common], traced[:common]))
    failures, correct = failure_summary(traced)
    spans = tracer.write_spans(
        bench.results / f"BENCH_{args.workload}_seed{args.seed}_spans.bin")
    meta.update(untraced_rounds=len(plain_rounds), traced_rounds=len(traced_rounds),
                trace_overhead=overhead, trace_overhead_rounds=shared,
                traced_verdicts_match_untraced=match, compared_instances=common,
                failures=failures, spans=spans, layer_calls=tracer.summary(),
                layer_map={n: m for n, (_, _, m) in catalog.PER_LAYER.items()})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _, _) in catalog.PER_LAYER.items()}
    return {"correct": correct and match, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
