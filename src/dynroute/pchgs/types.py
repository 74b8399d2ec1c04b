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
    """Search parameters. Defaults are small-population settings for desk scale."""

    mu: int = 12
    lam: int = 20
    elite: int = 4
    n_closest: int = 3
    granularity: int = 20
    p_mut: float = 0.3
    alpha_rm: float = 0.1
    alpha_ins: float = 0.1
    p_opt: float = 0.25
    delta_lo: float = 0.8
    delta_hi: float = 1.2
    cap_penalty: float | None = None
    tw_penalty: float = 3.0
    penalty_up: float = 1.2
    penalty_down: float = 0.85
    penalty_lo: float = 0.1
    penalty_hi: float = 1e5
    adapt_period: int = 100
    budget_iters: int | None = 600
    budget_s: float | None = None
    stall_iters: int | None = None
    init_pool: int | None = None
    seed: int = 0

    def validate(self) -> None:
        for p in (self.p_mut, self.p_opt):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must lie in [0, 1]")
        if not (0.0 < self.delta_lo <= self.delta_hi):
            raise ValueError("need 0 < delta_lo <= delta_hi")
        if self.granularity < 1:
            raise ValueError("granularity must be >= 1")
        if self.mu < 1 or self.lam < 1:
            raise ValueError("population sizes must be positive")
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
