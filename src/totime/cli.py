"""Command-line surface: totime solve | check | oracle | gallery | meet | payoff.

All results go to stdout as JSON; diagnostics go to stderr.  Exit codes:
solve maps its outcome (0 Unique, 3 NoTrace, 4 Zeno, 5 Budget); check
returns 0 when every requested axiom passes, 1 on any failure, 2 on any
inconclusive verdict; other commands return 0 on success and 2 on usage
or input errors.  TOTIME_SEED overrides the spec's seed.  A long solve
prints only its first and last events (SolveResult.to_json); `solve
--trace FILE` writes every event there, one JSON object per line.
Documents are written as `json.dumps(obj, indent=2)` would write them, by
`_dumps`; `solve --out` writes its file before stdout.
`main(argv)` may be called many times in one process: it builds its
argument parser on the first call and reuses it, which saves about 1 ms
of argparse setup per later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import BadParametersError, SchemaError, TotimeError
from . import timeorder as to
from .axioms import (
    EXHAUSTIVE,
    SAMPLED,
    WITNESS_BASED,
    AxiomReport,
    check_frictionality,
    check_inertiality,
    check_traceability,
    check_well_orderedness,
)
from .gallery import GALLERY, run_gallery
from .gamespec import build_profile, evaluate_payoff, parse_spec, spec_to_json
from .histories import (
    PiecewiseHistory,
    empty_prefix,
    history_from_json,
    history_to_json,
)
from .partitions import meet2, partition_from_blocks
from .solver import (
    DEFAULT_EVENT_BUDGET,
    oracle_enumerate,
    render_events,
    solve_chain,
    solve_dense,
)
from .timeorder import interval_from_json

SOLVE_EXIT = {"unique": 0, "no_trace": 3, "zeno": 4, "budget": 5}
# a check of axiom 4 on the grim duel at this many samples takes about 8 s
# (Python 3.11, 2 vCPUs); far more would run until killed
MAX_SAMPLES = 100_000
# 4x the default, the budget of verify_unique's re-runs.  It bounds walks
# without a limit certificate: at this budget the uncertified walk of a
# halving stuck on one action on [-1, 2] takes 0.6 s and 61 MB (Python
# 3.11, 2 vCPUs), while the certified halving stops after 2 events.  Every
# dense walk a spec describes either is Zeno or ends in a few events per
# player, since a grim changes action at most once and holds
# to the top given a tuple with no trigger (a grim duel takes 2 events at any
# delta).  A walk that ends after more events than this, such as
# `solve_dense` on a script of more than 16,384 pieces, needs the library.
MAX_BUDGET = 4 * DEFAULT_EVENT_BUDGET


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as e:  # ValueError: also bad UTF-8, huge ints
            raise SchemaError("$", f"{path} is not valid JSON: {e}")


# Every indented document goes through _dumps, not json.dump(..., indent=2):
# an indent sends json to its pure-Python encoder, which yields one chunk per
# token, and json.dump then writes each chunk on its own.  On the 9.8 KB
# document of an n = 64 chain solve (Python 3.11, 2 vCPUs, best of 15)
# json.dump into a StringIO takes 0.38 ms, json.dumps(indent=2) 0.33 ms,
# _dumps 0.145 ms and the compact C encoder 0.065 ms; the in-process
# `solve --out` of that chain went from 1.63-1.69 to 1.22 ms.  Strings go
# through json's own C escaper.
_escape = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, for the values the engine
    builds: dicts with str keys, lists, tuples, str, int, bool and None.
    Any other type raises TypeError."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(o, out: list[str], nl: str) -> None:
    """Append the text of o, whose lines after the first begin with nl."""
    t = type(o)
    if t is str:
        out.append(_escape(o))
    elif t is int:
        out.append(repr(o))
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for k, v in o.items():
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(lead + _escape(k) + ": ")
            _write(v, out, inner)
            lead = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        lead = "[" + inner
        for v in o:
            out.append(lead)
            _write(v, out, inner)
            lead = "," + inner
        out.append(nl + "]")
    elif o is None or t is bool:
        out.append(_LITERALS[o])
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(obj) -> None:
    sys.stdout.write(_dumps(obj) + "\n")


def _env_seed(default: int) -> int:
    """TOTIME_SEED when it is set, else `default`."""
    env = os.environ.get("TOTIME_SEED")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise BadParametersError(f"TOTIME_SEED must be an integer, got {env!r}")


def _seed_for(spec, args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return _env_seed(spec.seed)


def _solve(spec, profile, budget):
    pfx = empty_prefix(spec.domain, spec.players)
    if to.is_chain(spec.domain):
        return solve_chain(profile, pfx)
    return solve_dense(profile, pfx, event_budget=budget)


def _count_flag(name: str, text, most: int) -> int:
    """The value of an integer flag that must lie in [1, most], such as --budget."""
    try:
        n = int(text)
    except ValueError:  # also past Python's 4,300-digit limit
        raise BadParametersError(f"{name} must be an integer, got {text[:40]!r}") from None
    if n < 1:
        raise BadParametersError(f"{name} must be at least 1, got {n}")
    if n > most:
        raise BadParametersError(f"{name} must be at most {most}, got {n}")
    return n


def cmd_solve(args) -> int:
    budget = _count_flag("--budget", args.budget, MAX_BUDGET)
    spec = parse_spec(_load_json(args.spec))
    profile = build_profile(spec, _seed_for(spec, args))
    result = _solve(spec, profile, budget)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            for row in render_events(result.events):
                f.write(json.dumps(row) + "\n")
    if args.out:
        # created or emptied in every outcome, before stdout: a path that cannot
        # be written prints nothing there, and no earlier history survives
        with open(args.out, "w", encoding="utf-8") as f:
            if result.history is not None:
                f.write(_dumps(history_to_json(result.history)))
    _emit(result.to_json())
    if result.diagnosis:
        print(result.diagnosis, file=sys.stderr)
    return SOLVE_EXIT[result.outcome]


def _reference_history(spec, profile, budget):
    """The solved history and "unique" when the solve is unique, else a
    constant fallback with the solve's outcome (None for black-box profiles,
    which are not solved)."""
    outcome = None
    if not any(s.black_box for s in profile):
        result = _solve(spec, profile, budget)
        if result.outcome == "unique":
            return result.history, result.outcome
        outcome = result.outcome
    return PiecewiseHistory.build(
        spec.domain, spec.players,
        {p: [(to.full_interval(spec.domain), spec.alphabets[p][0])]
         for p in spec.players},
    ), outcome


def _initial_uniqueness(outcome) -> AxiomReport:
    """Axiom 3 on the reference history h.  Only a unique solve makes h the
    one consistent history, so only then is the axiom decided: comparing h
    with itself, which cannot fail and so is not run.  Otherwise there is
    no pair to compare."""
    if outcome == "unique":
        return AxiomReport(3, True, EXHAUSTIVE,
                           details="the solve is unique, so h is compared with itself")
    if outcome is None:
        return AxiomReport(3, None, SAMPLED,
                           details="black-box profile: no second consistent "
                                   "history to compare")
    return AxiomReport(3, None, WITNESS_BASED,
                       details=f"the solve ended {outcome!r}: no consistent "
                               f"history to compare")


def _axioms_flag(text: str) -> list[int]:
    """The sorted axiom numbers of --axioms, such as "1,3,5"."""
    try:
        axioms = sorted({int(a) for a in text.split(",") if a.strip()})
    except ValueError:
        raise BadParametersError(f"--axioms must be a comma-separated list of "
                                 f"axiom numbers 1 to 5, got {text!r}") from None
    for a in axioms:
        if a not in (1, 2, 3, 4, 5):
            raise BadParametersError(f"unknown axiom {a}")
    return axioms


def cmd_check(args) -> int:
    axioms = _axioms_flag(args.axioms)
    samples = _count_flag("--samples", args.samples, MAX_SAMPLES)
    spec = parse_spec(_load_json(args.spec))
    seed = _seed_for(spec, args)
    profile = build_profile(spec, seed)
    t0 = spec.domain.min
    h, outcome = _reference_history(spec, profile, DEFAULT_EVENT_BUDGET)
    reports: dict[str, list] = {}
    for a in axioms:
        rs = []
        for strategy in profile:
            p = strategy.player
            if a == 1:
                rs.append(check_traceability(strategy, t0, h, seed=seed))
            elif a == 2:
                rs.append(check_well_orderedness(p, t0, [h]))
            elif a == 3:
                rs.append(_initial_uniqueness(outcome))
            elif a == 4:
                rs.append(check_inertiality(strategy, t0, h, spec.alphabets,
                                            samples=samples, seed=seed))
            else:
                z = strategy.default_action or h.eval_player(p, t0)
                rs.append(check_frictionality(p, z, t0, h))
        reports[str(a)] = rs
    _emit({
        "checked_axioms": axioms,
        "reports": {k: [r.to_json() for r in v] for k, v in reports.items()},
    })
    flat = [r for v in reports.values() for r in v]
    if any(r.passed is False for r in flat):
        return 1
    if any(r.passed is None for r in flat):
        return 2
    return 0


def cmd_oracle(args) -> int:
    spec = parse_spec(_load_json(args.spec))
    profile = build_profile(spec, _seed_for(spec, args))
    pfx = empty_prefix(spec.domain, spec.players)
    result = oracle_enumerate(profile, pfx, spec.alphabets)
    _emit({
        "count": result.count,
        "histories": [history_to_json(h) for h in result.histories],
    })
    return 0


def cmd_gallery(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed(0)
    _emit(run_gallery(args.name, seed=seed))
    return 0


def _partition_from_json(obj):
    """Parse {"domain", "start", "blocks"}; a malformed document raises
    SchemaError naming the bad entry, e.g. blocks[1].lo."""
    from .gamespec import _parse_domain

    if not isinstance(obj, dict):
        raise SchemaError("$", "partition must be an object")
    domain = _parse_domain(obj.get("domain"), "domain")
    start = to.point_from_json(obj, "start", domain, "start")
    blocks = obj.get("blocks")
    if not isinstance(blocks, list):
        raise SchemaError("blocks", "blocks must be a list of intervals")
    return partition_from_blocks(
        domain, start, [interval_from_json(b, domain, f"blocks[{i}]")
                        for i, b in enumerate(blocks)])


def cmd_meet(args) -> int:
    p1 = _partition_from_json(_load_json(args.part1))
    p2 = _partition_from_json(_load_json(args.part2))
    _emit(meet2(p1, p2).to_json())
    return 0


def cmd_payoff(args) -> int:
    spec = parse_spec(_load_json(args.spec))
    h = history_from_json(spec.domain, spec.players, _load_json(args.hist))
    try:
        tol = to.parse_rational(args.tol, "--tol")
    except SchemaError:
        raise BadParametersError(f"--tol must be an exact rational such as 1e-9 "
                                 f"or 1/1000, got {args.tol!r}") from None
    vec = evaluate_payoff(h, spec, tol=tol)
    _emit(vec.to_json())
    return 0


def cmd_spec(args) -> int:
    _emit(spec_to_json(parse_spec(_load_json(args.spec))))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other bad input: one `error:` line on
    stderr and exit 2.  Subparsers are made of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="totime",
        description="Exact engine for deterministic totally-ordered-time games",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the unique consistent history")
    p.add_argument("spec")
    p.add_argument("--budget", default=str(DEFAULT_EVENT_BUDGET))
    p.add_argument("--out", help="write the history JSON here")
    p.add_argument("--trace", metavar="FILE",
                   help="write every event here, one JSON object per line")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("check", help="run axiom checkers against the instance")
    p.add_argument("spec")
    p.add_argument("--axioms", default="1,2,3,4,5")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", default="32")

    p = sub.add_parser("oracle", help="every consistent history of a finite chain")
    p.add_argument("spec")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("gallery", help="run a named counterexample instance")
    p.add_argument("name", choices=GALLERY)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("meet", help="common refinement of two partitions")
    p.add_argument("part1")
    p.add_argument("part2")

    p = sub.add_parser("payoff", help="discounted payoff of a history")
    p.add_argument("spec")
    p.add_argument("hist")
    p.add_argument("--tol", default="1e-9")

    p = sub.add_parser("spec", help="echo the canonical form of a spec")
    p.add_argument("spec")

    return ap


# Built on the first main() call, so importing the module builds nothing.
# The parser holds only constants: TOTIME_SEED, flag values and the cmd_*
# functions are all looked up per call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (TotimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
