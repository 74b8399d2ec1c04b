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
from .solver import PcHgs, Population, preprocess, solve

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
    "preprocess",
    "solve",
]
