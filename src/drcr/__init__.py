"""Delay-range constrained routing and Srlg-disjoint path-pair solvers."""

from .graph import (
    GraphFormatError,
    Link,
    Network,
    Path,
    SolveStats,
    dump_network,
    is_elementary,
    load_network,
    srlgs_of_path,
)
from .pulse import (
    DrcrCase,
    DrcrQuery,
    PulseOptions,
    classify_case,
    pulse_plus,
    solve_drcr,
)
from .costfn import CostFunction, compute_cost_functions
from .ksp import (
    LambdaResult,
    choose_lambda,
    cost_ksp_drcr,
    delay_ksp_drcr,
    lagrangian_ksp_drcr,
    srlg_ksp_drcr,
    srlg_lagrangian_ksp,
    yen_ksp,
)
from .srlg import (
    PathPair,
    SrlgDrcrQuery,
    SubInstance,
    backup_search,
    cose_pulse_plus,
    find_conflict_set,
)
from .testgen import GenConfig, GenerationError, classify_trap, gen_drcr_query, \
    gen_er_network, gen_srlg_query, gen_srlgs

__version__ = "0.1.0"
