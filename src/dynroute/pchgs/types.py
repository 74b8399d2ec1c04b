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
    limit, the initial pool size (default: the population's full size) and
    the seed.

    Everything else about the search (population sizes, elite, closest
    neighbours, mutation rates, granularity, penalties and their adaptation,
    request-set perturbation range) is a fixed constant in ``solver``.
    """

    budget_iters: int | None = 600
    budget_s: float | None = None
    stall_iters: int | None = None
    init_pool: int | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.budget_iters is None and self.budget_s is None:
            raise ValueError("one of budget_iters / budget_s must be set")


@dataclass
class Individual:
    """One member of the genetic population.

    ``giant`` is the route-delimiter-free visit order of the served requests;
    absent requests are unserved. Routes are kept explicitly and re-derived
    from the giant tour by the split procedure after crossover.
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
