"""What the benchmark measures and why: workloads, metrics, layer map, known defects.

`BENCHMARK.json` may hold only the keys the benchmark contract names, so
the layer -> end-to-end map, the stated sizes and the known failures live
here.  Every result file embeds them, and `test_perfbench.py` checks that
`BENCHMARK.json` agrees with this module.
"""

from __future__ import annotations

LAYERS = ("timeorder", "histories", "partitions", "strategies", "axioms",
          "solver", "gamespec", "gallery", "cli")

# Each phase is the library path behind one user-facing command.
PHASE_COMMANDS = {
    "solve": "parse_spec + build_profile + solve_chain/solve_dense (totime solve)",
    "check": "is_consistent + verify_unique/oracle_enumerate or the axiom "
             "checkers (totime check / oracle / gallery)",
    "payoff": "evaluate_payoff (totime payoff)",
}

WORKLOADS = {
    "chain": {
        "why": "finite chains: grim queries rebuild the prefix through "
               "seq_to_prefix on every query, so histories/solver prefix "
               "rebuilding dominates; table players take chain_respond",
        "sizes": {"n": [50, 100, 200, 400], "oracle_n": [4, 6, 8],
                  "players": {"3": "n <= 100", "2": "n >= 200 and the oracle tier"},
                  "mixes": ["grim/grim", "grim/table", "table/table",
                            "constant/grim"]},
    },
    "dense": {
        "why": "dense games on shifted, negative and non-unit domains: "
               "scripted and grim respond scans, histories.prefix, interval "
               "ops and the axioms witness walk dominate",
        "sizes": {"k": [50, 100, 200], "duel_events": [128, 256, 512],
                  "defectors_per_domain": 3, "defector_script_pieces": 50,
                  "domains": {"shifted": "[3/2, 7/2]", "negative": "[-1, 1]",
                              "nonunit": "[0, 5/2]"},
                  "rho": "1/2", "payoff_tol": "1e-9"},
    },
    "certify": {
        "why": "in-process CLI: Zeno budget path, sampled axiom probes, "
               "partitions, gallery, JSON emission and tight gamespec "
               "payoff enclosures",
        "sizes": {"zeno_budget": [4096, 1024], "check_chain_n": [16, 32, 64],
                  "payoff_change_times": [100, 200, 300, 400],
                  "payoff_tol": "1e-40", "max_rho": "2", "max_horizon": 10},
    },
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "instances_per_s": ("1/s", "higher", 0.24),
    "solve_ms.p50": ("ms", "lower", 0.24),
    "solve_ms.p90": ("ms", "lower", 0.24),
    "check_ms.p50": ("ms", "lower", 0.24),
    "check_ms.p90": ("ms", "lower", 0.24),
    "payoff_ms.p50": ("ms", "lower", 0.24),
    "payoff_ms.p90": ("ms", "lower", 0.24),
    "passed_ratio": ("ratio", "higher", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better, what it should move)
PER_LAYER = {
    "timeorder.intersect.calls": ("count/inst", "lower", "solve_ms, check_ms on dense and chain"),
    "timeorder.make_interval.calls": ("count/inst", "lower", "solve_ms, check_ms on dense and chain"),
    "timeorder.contains.calls": ("count/inst", "lower", "solve_ms, check_ms on dense and chain"),
    "timeorder.self_s": ("s/inst", "lower", "solve_ms, check_ms on dense and chain"),
    "histories.prefix.calls": ("count/inst", "lower", "solve_ms, check_ms on chain and dense"),
    "histories.prefix.pieces": ("pieces/inst", "lower", "solve_ms, check_ms on chain and dense"),
    "histories.build.calls": ("count/inst", "lower", "solve_ms, check_ms on chain and dense"),
    "histories.self_s": ("s/inst", "lower", "solve_ms, check_ms on chain and dense"),
    "histories.pieces_per_query": ("pieces/query", "lower", "solve_ms, check_ms on chain and dense"),
    "histories.pieces_per_query.size_exponent": ("log-log", "lower", "solve_ms.p90, check_ms.p90 on chain"),
    "strategies.respond.calls": ("count/inst", "lower", "solve_ms, check_ms on dense"),
    "strategies.chain_respond.calls": ("count/inst", "lower", "solve_ms, check_ms on dense"),
    "strategies.self_s": ("s/inst", "lower", "solve_ms, check_ms on dense"),
    "solver.events": ("count/inst", "lower", "solve_ms on chain and certify; check_ms on dense"),
    "solver.seq_to_prefix.calls": ("count/inst", "lower", "solve_ms on chain and certify; check_ms on dense"),
    "solver.seq_to_prefix.pieces": ("pieces/inst", "lower", "solve_ms on chain and certify; check_ms on dense"),
    "solver.verify.reruns": ("count/inst", "lower", "solve_ms on chain and certify; check_ms on dense"),
    "solver.self_s": ("s/inst", "lower", "solve_ms on chain and certify; check_ms on dense"),
    "solver.size_exponent": ("log-log", "lower", "solve_ms.p90 on chain and dense"),
    "axioms.is_consistent.calls": ("count/inst", "lower", "check_ms on dense and certify"),
    "axioms.checked": ("count/inst", "lower", "check_ms on dense and certify"),
    "axioms.self_s": ("s/inst", "lower", "check_ms on dense and certify"),
    "axioms.size_exponent": ("log-log", "lower", "check_ms.p90 on chain and dense"),
    "partitions.calls": ("count/inst", "lower", "check_ms, solve_ms on certify"),
    "partitions.self_s": ("s/inst", "lower", "check_ms, solve_ms on certify"),
    "gallery.self_s": ("s/inst", "lower", "check_ms, solve_ms on certify"),
    "cli.self_s": ("s/inst", "lower", "check_ms, solve_ms on certify"),
    "gamespec.exp_neg_enclosure.calls": ("count/inst", "lower", "payoff_ms on certify and dense; 0 on chain"),
    "gamespec.enclosure_rounds": ("calls/change", "lower", "payoff_ms on certify and dense; 0 on chain"),
    "gamespec.self_s": ("s/inst", "lower", "payoff_ms on certify and dense; 0 on chain"),
}

# Defects present in the engine when the benchmark was defined.  An
# instance that hits one is counted as failed; `correct` stays true only
# while every failure is one of these.
KNOWN_DEFECTS = {
    "payoff_negative_lo": "dense payoff on a domain with lo < 0 raises "
                          "ValueError from exp_neg_enclosure",
    "axiom3_self_compare": "`totime check` runs axiom 3 on (h, h), so the "
                           "gallery rule `multi` wrongly passes",
    "dense_walk_zero_hold": "axioms._dense_walk reads a right-limit hold at "
                            "time 0 as falsy and rejects a history that "
                            "solve_dense solves",
    "payoff_int_str_limit": "`totime payoff` raises ValueError when a payoff "
                            "bound has more than 4300 digits (Python's "
                            "int-to-str limit)",
}
