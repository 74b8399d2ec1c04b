from .types import (
    HgsParams,
    Individual,
    PcInfeasibleError,
    PcInstance,
    PcInstanceError,
    PcSolution,
)
from .evaluate import EvalContext
from .brute import ExactSolver, brute_force_solve
from .solver import (
    PcHgs,
    Population,
    local_search,
    mutate_random_remove_insert,
    optimize_request_set,
    preprocess,
    solve,
    srex_crossover,
)

__all__ = [
    "EvalContext",
    "ExactSolver",
    "HgsParams",
    "Individual",
    "PcHgs",
    "PcInfeasibleError",
    "PcInstance",
    "PcInstanceError",
    "PcSolution",
    "Population",
    "brute_force_solve",
    "local_search",
    "mutate_random_remove_insert",
    "optimize_request_set",
    "preprocess",
    "solve",
    "srex_crossover",
]
