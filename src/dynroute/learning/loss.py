"""Structured losses over the prize-collecting layer.

The regret loss measures how far the imitation target is from being an
argmax of the prize-parameterized layer. Its Gaussian-smoothed version is
estimated by averaging the regret at perturbed prize vectors; the matching
stochastic gradient is the mean served-indicator difference, so every
coordinate lies in [-1, 1].
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..encode import pc_for_state
from ..instance import StaticInstance
from ..pchgs import ExactSolver, HgsParams, PcInfeasibleError, PcInstance, solve
from ..simulator import DynamicConfig
from ..dataset import TrainingSample


@dataclass
class PerturbationConfig:
    epsilon: float = 1.0
    n_samples: int = 10
    seed: int = 0
    exact_auto_max: int = 8
    inner_params: HgsParams = field(
        default_factory=lambda: HgsParams(budget_iters=80, stall_iters=40)
    )

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


class ExactInner:
    """Exact argmax oracle; the routing tables are built once per state."""

    def __init__(self, pc: PcInstance, max_requests: int):
        self.pc = pc
        self._solver = ExactSolver(pc, max_requests=max_requests)

    def solve(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, mask = self._solver.argmax(theta)
        return value, self._solver.served_vector(mask)

    def solve_many(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective values and served indicators (one row per draw) of the
        argmaxes of every row of ``thetas``, in one batched scan."""
        values, masks = self._solver.argmax_many(thetas)
        if (masks < 0).any():
            s = int(np.argmax(masks < 0))
            exc = PcInfeasibleError("no served set consistent with the forced sets is feasible")
            raise RuntimeError(f"inner solver failed on perturbation draw {s}: {exc}") from exc
        return values, self._solver.served_vector(masks)


class HgsInner:
    """Metaheuristic argmax; warm-starts from its last four solutions."""

    def __init__(self, pc: PcInstance, params: HgsParams):
        self.pc = pc
        self.params = params
        self._pool: deque = deque(maxlen=4)

    def solve(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        inst = dataclasses.replace(self.pc, prizes=tuple(float(x) for x in theta))
        sol = solve(inst, self.params, warm_start=self._pool)
        self._pool.append(sol)
        g = np.zeros(inst.n_requests)
        for r in sol.served:
            g[r] = 1.0
        return sol.objective, g

    def solve_many(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``solve`` on each row of ``thetas``, in order, as the pool expects."""
        values = np.empty(len(thetas))
        served = np.empty((len(thetas), self.pc.n_requests))
        for s, theta in enumerate(thetas):
            try:
                values[s], served[s] = self.solve(theta)
            except Exception as exc:
                raise RuntimeError(f"inner solver failed on perturbation draw {s}: {exc}") from exc
        return values, served


def inner_for_sample(
    sample: TrainingSample,
    inst: StaticInstance,
    cfg: DynamicConfig,
    pcfg: PerturbationConfig,
):
    """Argmax oracle over the sample's feasible decisions (must-dispatch forced).

    States up to ``exact_auto_max`` requests get the exact oracle (cheaper
    and noise-free), larger ones the metaheuristic.
    """
    pc = pc_for_state(sample.state, inst, cfg, prizes=None, force_must_dispatch=True)
    if pc.n_requests <= pcfg.exact_auto_max:
        return ExactInner(pc, max_requests=pcfg.exact_auto_max)
    return HgsInner(pc, pcfg.inner_params)


def target_vector(sample: TrainingSample) -> np.ndarray:
    return np.asarray(sample.target_served, dtype=float)


def regret_loss(theta: np.ndarray, sample: TrainingSample, inner) -> float:
    """Non-optimality of the target decision under prize vector theta (>= 0
    whenever the inner solver is exact)."""
    value, _ = inner.solve(np.asarray(theta, dtype=float))
    target = float(np.dot(theta, target_vector(sample))) + sample.target_h
    return value - target


@dataclass(frozen=True)
class PerturbedLoss:
    loss: float
    grad: np.ndarray
    stderr: float


def perturbed_loss_and_grad(
    theta: np.ndarray,
    sample: TrainingSample,
    inner,
    pcfg: PerturbationConfig,
    z: np.ndarray | None = None,
) -> PerturbedLoss:
    """Monte-Carlo estimate of the smoothed regret and its gradient.

    Averages the regret at theta + epsilon*Z_s over S standard-normal draws;
    the gradient estimate is mean served-indicator of the perturbed argmaxes
    minus the target's indicator. Passing ``z`` (shape (S, dim)) fixes the
    draws, which makes finite-difference and scaling probes deterministic.
    """
    theta = np.asarray(theta, dtype=float)
    dim = theta.shape[0]
    if z is None:
        rng = np.random.default_rng([pcfg.seed, dim])
        z = rng.standard_normal((pcfg.n_samples, dim))
    else:
        z = np.asarray(z, dtype=float)
        if z.shape[1] != dim:
            raise ValueError("z draws do not match theta dimension")
    g_bar = target_vector(sample)
    h_bar = sample.target_h
    perturbed = theta + pcfg.epsilon * z
    values, served = inner.solve_many(perturbed)
    terms = np.array([v - (float(np.dot(p, g_bar)) + h_bar) for v, p in zip(values, perturbed)])
    # served indicators are 0/1, so their sum is exact in any order
    g_sum = served.sum(axis=0)
    loss = float(terms.mean())
    grad = g_sum / z.shape[0] - g_bar
    stderr = float(terms.std(ddof=1) / np.sqrt(len(terms))) if len(terms) > 1 else 0.0
    return PerturbedLoss(loss=loss, grad=grad, stderr=stderr)


def forcing_prizes(sample_or_state, target_ids, inst: StaticInstance) -> np.ndarray:
    """Prizes that make any exact argmax serve exactly ``target_ids``.

    +M for targets, -M otherwise, with M = (#open requests) * (largest arc
    cost of the epoch's matrix).
    """
    state = sample_or_state.state if isinstance(sample_or_state, TrainingSample) else sample_or_state
    open_reqs = state.open
    target = set(target_ids)
    unknown = target - {r.id for r in open_reqs}
    if unknown:
        raise ValueError(f"target ids not open: {sorted(unknown)}")
    locs = [0] + [r.location for r in open_reqs]
    max_c = int(inst.travel[np.ix_(locs, locs)].max())
    m = len(open_reqs) * max_c
    return np.array([m if r.id in target else -m for r in open_reqs], dtype=float)
