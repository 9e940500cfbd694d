"""Command-line surface: totime solve | check | oracle | gallery | meet | payoff.

All results go to stdout as JSON; diagnostics go to stderr.  Exit codes:
solve maps its outcome (0 Unique, 3 NoTrace, 4 Zeno, 5 Budget); check
returns 0 when every requested axiom passes, 1 on any failure, 2 on any
inconclusive verdict; other commands return 0 on success and 2 on usage
or input errors.  TOTIME_SEED overrides the spec's seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import BadParametersError, SchemaError, TotimeError
from . import timeorder as to
from .axioms import (
    SAMPLED,
    WITNESS_BASED,
    AxiomReport,
    check_frictionality,
    check_inertiality,
    check_initial_uniqueness,
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
from .solver import DEFAULT_EVENT_BUDGET, oracle_enumerate, solve_chain, solve_dense
from .timeorder import interval_from_json

SOLVE_EXIT = {"unique": 0, "no_trace": 3, "zeno": 4, "budget": 5}


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise SchemaError("$", f"{path} is not valid JSON: {e}")


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


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


def cmd_solve(args) -> int:
    spec = parse_spec(_load_json(args.spec))
    profile = build_profile(spec, _seed_for(spec, args))
    result = _solve(spec, profile, args.budget)
    _emit(result.to_json())
    if args.out and result.history is not None:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(history_to_json(result.history), f, indent=2)
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


def _initial_uniqueness(player: str, t0, h: PiecewiseHistory, outcome) -> AxiomReport:
    """Axiom 3 on the reference history.  Only a unique solve makes h the
    one consistent history, so only then does comparing h with itself
    decide the axiom; otherwise there is no pair to compare."""
    if outcome == "unique":
        report = check_initial_uniqueness(player, t0, h, h)
        report.details = "the solve is unique, so h is compared with itself"
        return report
    if outcome is None:
        return AxiomReport(3, None, SAMPLED,
                           details="black-box profile: no second consistent "
                                   "history to compare")
    return AxiomReport(3, None, WITNESS_BASED,
                       details=f"the solve ended {outcome!r}: no consistent "
                               f"history to compare")


def cmd_check(args) -> int:
    spec = parse_spec(_load_json(args.spec))
    seed = _seed_for(spec, args)
    profile = build_profile(spec, seed)
    axioms = sorted({int(a) for a in args.axioms.split(",") if a.strip()})
    for a in axioms:
        if a not in (1, 2, 3, 4, 5):
            print(f"unknown axiom {a}", file=sys.stderr)
            return 2
    t0 = to.domain_min(spec.domain)
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
                rs.append(_initial_uniqueness(p, t0, h, outcome))
            elif a == 4:
                rs.append(check_inertiality(strategy, t0, h, spec.alphabets,
                                            samples=args.samples, seed=seed))
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
    from .gamespec import _parse_domain

    domain = _parse_domain(obj["domain"], "domain")
    start = to.parse_point(obj["start"]) if not to.is_chain(domain) \
        else int(obj["start"])
    blocks = [interval_from_json(b, domain) for b in obj["blocks"]]
    return partition_from_blocks(domain, start, blocks)


def cmd_meet(args) -> int:
    p1 = _partition_from_json(_load_json(args.part1))
    p2 = _partition_from_json(_load_json(args.part2))
    _emit(meet2(p1, p2).to_json())
    return 0


def cmd_payoff(args) -> int:
    spec = parse_spec(_load_json(args.spec))
    h = history_from_json(spec.domain, spec.players, _load_json(args.hist))
    try:
        tol = Fraction(args.tol)
    except (ValueError, ZeroDivisionError):
        raise BadParametersError(f"--tol must be an exact rational such as 1e-9 "
                                 f"or 1/1000, got {args.tol!r}")
    vec = evaluate_payoff(h, spec, tol=tol)
    _emit(vec.to_json())
    return 0


def cmd_spec(args) -> int:
    _emit(spec_to_json(parse_spec(_load_json(args.spec))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="totime",
        description="Exact engine for deterministic totally-ordered-time games",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the unique consistent history")
    p.add_argument("spec")
    p.add_argument("--budget", type=int, default=DEFAULT_EVENT_BUDGET)
    p.add_argument("--out", help="write the history JSON here")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", help="run axiom checkers against the instance")
    p.add_argument("spec")
    p.add_argument("--axioms", default="1,2,3,4,5")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int, default=32)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", help="exhaustive enumeration on a finite chain")
    p.add_argument("spec")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("gallery", help="run a named counterexample instance")
    p.add_argument("name", choices=GALLERY)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_gallery)

    p = sub.add_parser("meet", help="common refinement of two partitions")
    p.add_argument("part1")
    p.add_argument("part2")
    p.set_defaults(fn=cmd_meet)

    p = sub.add_parser("payoff", help="discounted payoff of a history")
    p.add_argument("spec")
    p.add_argument("hist")
    p.add_argument("--tol", default="1e-9")
    p.set_defaults(fn=cmd_payoff)

    p = sub.add_parser("spec", help="echo the canonical form of a spec")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_spec)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TotimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
