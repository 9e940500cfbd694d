"""Exact engine for deterministic games on totally ordered time.

Finite-chain and dense rational time domains, piecewise-constant
histories, prefix-dependent strategies with hold-witnesses, consistency
and axiom checkers, an event-driven dense solver with Zeno detection, a
pruned enumeration oracle, and exact discounted payoffs.
"""

from .errors import TotimeError
from .timeorder import (
    DenseInterval,
    FiniteChain,
    Interval,
    IntervalSet,
    TimeDomain,
    TimePoint,
    make_interval_set,
)
from .histories import (
    HistoryPrefix,
    PiecewiseHistory,
    empty_prefix,
    history_from_json,
    history_to_csv,
    history_to_json,
    prefix,
    prefix_equal,
    splice,
)
from .partitions import (
    OrderedPartition,
    RuleFamily,
    change_partition,
    is_well_ordered,
    meet2,
    meetN,
    partition_from_blocks,
    refines,
)
from .strategies import (
    Response,
    Strategy,
    make_constant,
    make_gallery,
    make_grim_trigger,
    make_halving_hold,
    make_random_table,
    make_scripted,
    make_table,
)
from .axioms import (
    AxiomReport,
    ConsistencyReport,
    check_frictionality,
    check_inertiality,
    check_initial_uniqueness,
    check_traceability,
    check_well_orderedness,
    disagreement_set,
    is_consistent,
)
from .solver import (
    DEFAULT_EVENT_BUDGET,
    OracleResult,
    SolveResult,
    oracle_enumerate,
    solve_chain,
    solve_dense,
    verify_unique,
)
from .gamespec import (
    GameSpec,
    PayoffVector,
    build_profile,
    evaluate_payoff,
    exp_neg_enclosure,
    parse_spec,
    spec_to_json,
)
from .gallery import run_gallery

__version__ = "0.1.0"
