"""Data types for the prize-collecting VRPTW solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class PcInstanceError(ValueError):
    pass


class PcInfeasibleError(RuntimeError):
    """No feasible solution covering the forced-in requests was found."""


@dataclass(frozen=True)
class PcInstance:
    """A prize-annotated routing problem over requests 0..n-1.

    ``travel`` is (n+1)x(n+1); matrix index 0 is the depot and request r maps
    to matrix index r+1. ``release``, when given, holds the earliest departure
    per request: a route leaves the depot at max(departure, releases of its
    visits). ``ids`` optionally carries external request ids for round trips.
    """

    travel: np.ndarray
    demand: tuple[int, ...]
    service: tuple[int, ...]
    tw_open: tuple[int, ...]
    tw_close: tuple[int, ...]
    prizes: tuple[float, ...]
    capacity: int
    departure: int
    horizon: int
    release: tuple[int, ...] | None = None
    forced_in: frozenset[int] = frozenset()
    forced_out: frozenset[int] = frozenset()
    ids: tuple[int, ...] | None = None

    @property
    def n_requests(self) -> int:
        return len(self.demand)

    def __post_init__(self):
        n = self.n_requests
        if self.travel.shape != (n + 1, n + 1):
            raise PcInstanceError(f"travel shape {self.travel.shape} != ({n + 1}, {n + 1})")
        for name, seq in (
            ("service", self.service),
            ("tw_open", self.tw_open),
            ("tw_close", self.tw_close),
            ("prizes", self.prizes),
        ):
            if len(seq) != n:
                raise PcInstanceError(f"{name} length != n_requests")
        if self.release is not None and len(self.release) != n:
            raise PcInstanceError("release length != n_requests")
        if self.ids is not None and len(self.ids) != n:
            raise PcInstanceError("ids length != n_requests")
        if self.forced_in & self.forced_out:
            raise PcInstanceError(
                f"forced_in and forced_out overlap: {sorted(self.forced_in & self.forced_out)}"
            )
        for s in self.forced_in | self.forced_out:
            if not (0 <= s < n):
                raise PcInstanceError(f"forced index {s} out of range")

    def max_cost(self) -> int:
        return int(self.travel.max()) if self.travel.size else 0


@dataclass(frozen=True)
class PcSolution:
    """Feasible route set with its served requests and audited objective."""

    routes: tuple[tuple[int, ...], ...]
    served: frozenset[int]
    objective: float
    iterations: int = 0
    budget_mode: str = "iterations"

    def to_json_dict(self, inst: PcInstance | None = None) -> dict:
        def ext(r: int) -> int:
            return int(inst.ids[r]) if inst is not None and inst.ids is not None else int(r)

        return {
            "routes": [[ext(r) for r in route] for route in self.routes],
            "served": sorted(ext(r) for r in self.served),
            "objective": float(self.objective),
            "iterations": int(self.iterations),
            "budget_mode": self.budget_mode,
        }


@dataclass
class HgsParams:
    """Search budget: an iteration and/or wall-clock limit, an optional stall
    limit, the initial pool size (default: one member per ``solver.MU``
    iterations of ``budget_iters``, from 2 to ``MU``; ``MU`` with no
    iteration budget) and the seed.

    Everything else about the search (population sizes, elite, closest
    neighbours, mutation rates, granularity, request-set perturbation range)
    is a fixed constant in ``solver``; both penalties start from the
    instance's scale. Budgets are not negative.
    """

    budget_iters: int | None = 600
    budget_s: float | None = None
    stall_iters: int | None = None
    init_pool: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.budget_iters is None and self.budget_s is None:
            raise ValueError("one of budget_iters / budget_s must be set")
        if self.init_pool is not None and self.init_pool < 1:
            raise ValueError("init_pool must be >= 1")
        for name in ("budget_iters", "budget_s", "stall_iters"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class Individual:
    """One member of the genetic population.

    ``routes`` are kept explicitly; ``giant`` is their concatenation, the
    route-delimiter-free visit order of the served requests, and absent
    requests are unserved. SREX crossover builds the child's routes
    directly; the split procedure cuts a giant tour into routes only for the
    random and constructed individuals.
    """

    giant: list[int]
    routes: list[list[int]]
    cost: int = 0
    cap_excess: int = 0
    tw_warp: int = 0
    prize_sum: float = 0.0
    feasible: bool = True

    @property
    def served(self) -> frozenset[int]:
        return frozenset(self.giant)

    def penalized_objective(self, cap_penalty: float, tw_penalty: float) -> float:
        return (
            self.prize_sum
            - self.cost
            - cap_penalty * self.cap_excess
            - tw_penalty * self.tw_warp
        )
