"""Decision policies: greedy, lazy, random, rolling-horizon, monte-carlo, ML-CO.

Every policy maps a system state to a feasible decision. Scenario sampling
inside a policy runs on its own rng streams keyed by (policy seed, epoch,
scenario index), never on the simulator's instance stream, so a policy's
internals cannot perturb the environment it is evaluated in.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dataset import ReleasedRequest, sample_scenario, solve_offline_with_release
from .encode import build_pc_instance, decision_from_solution, pc_for_state
from .instance import StaticInstance
from .learning import PrizeModel, extract_features, load_model, predict_prizes
from .pchgs import HgsParams, solve
from .simulator import Decision, DynamicConfig, OpenRequest, SystemState

POLICY_KINDS = ("greedy", "lazy", "random", "rolling_horizon", "monte_carlo", "ml_co")


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    seed: int = 0
    budget_iters: int | None = 300
    budget_s: float | None = None
    stall_iters: int | None = None
    n_scenarios: int = 9
    model_path: str | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind: {self.kind}")
        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be >= 1")
        if self.kind == "ml_co" and self.model_path is None:
            raise ValueError("ml_co policy needs a model_path")
        # The solver's budget rules.
        HgsParams(budget_iters=self.budget_iters, budget_s=self.budget_s,
                  stall_iters=self.stall_iters)


def _params(spec: PolicySpec, epoch: int, share: float = 1.0, salt: int = 0) -> HgsParams:
    iters = None if spec.budget_iters is None else max(1, int(spec.budget_iters * share))
    secs = None if spec.budget_s is None else spec.budget_s * share
    return HgsParams(
        budget_iters=iters,
        budget_s=secs,
        stall_iters=spec.stall_iters,
        seed=spec.seed * 1_000_003 + epoch * 101 + salt,
    )


def _mandatory_decision(
    requests: list[OpenRequest],
    inst: StaticInstance,
    departure: int,
    params: HgsParams,
) -> Decision:
    if not requests:
        return Decision(routes=())
    pc = build_pc_instance(
        requests, inst, departure=departure, forced_in_ids=[r.id for r in requests]
    )
    sol = solve(pc, params)
    return decision_from_solution(sol, pc)


def decide_greedy(
    state: SystemState, inst: StaticInstance, cfg: DynamicConfig, spec: PolicySpec
) -> Decision:
    """Dispatch every open request now."""
    return _mandatory_decision(
        list(state.open), inst, cfg.dispatch_time(state.epoch), _params(spec, state.epoch)
    )


def decide_lazy(
    state: SystemState, inst: StaticInstance, cfg: DynamicConfig, spec: PolicySpec
) -> Decision:
    """Dispatch only what can no longer be postponed."""
    keep = [r for r in state.open if r.must_dispatch]
    return _mandatory_decision(
        keep, inst, cfg.dispatch_time(state.epoch), _params(spec, state.epoch)
    )


def decide_random(
    state: SystemState, inst: StaticInstance, cfg: DynamicConfig, spec: PolicySpec
) -> Decision:
    """Must-dispatch plus each postponable with probability one half."""
    rng = np.random.default_rng([spec.seed, state.epoch, 0x7A2])
    keep = [r for r in state.open if r.must_dispatch or rng.random() < 0.5]
    return _mandatory_decision(
        keep, inst, cfg.dispatch_time(state.epoch), _params(spec, state.epoch)
    )


def _scenario_dispatch_ids(
    state: SystemState,
    inst: StaticInstance,
    cfg: DynamicConfig,
    spec: PolicySpec,
    scenario_idx: int,
    share: float,
) -> tuple[frozenset[int], tuple[tuple[int, ...], ...]]:
    """Postponables sharing a hindsight route with a current must-dispatch request.

    Draws one future scenario for the remaining epochs, solves the combined
    release-time problem, and reads off which current requests ride along with
    the ones that must leave now. Returns (dispatch ids, hindsight routes).
    """
    rng = np.random.default_rng([spec.seed, state.epoch, scenario_idx, 0x5C3])
    now = cfg.dispatch_time(state.epoch)
    combined = [ReleasedRequest(request=r, release=now) for r in state.open]
    combined += sample_scenario(inst, cfg, state.epoch + 1, rng)
    params = _params(spec, state.epoch, share=share, salt=scenario_idx + 1)
    routes, _ = solve_offline_with_release(combined, inst, params)
    must = state.must_dispatch_ids
    current = {r.id for r in state.open}
    dispatch: set[int] = set(must)
    for route in routes:
        members = set(route)
        if members & must:
            dispatch.update(members & current)
    return frozenset(dispatch), routes


def decide_rolling_horizon(
    state: SystemState, inst: StaticInstance, cfg: DynamicConfig, spec: PolicySpec
) -> Decision:
    """The monte-carlo rule over one scenario."""
    return decide_monte_carlo(state, inst, cfg, dataclasses.replace(spec, n_scenarios=1))


def decide_monte_carlo(
    state: SystemState, inst: StaticInstance, cfg: DynamicConfig, spec: PolicySpec
) -> Decision:
    """Majority vote of the rolling-horizon dispatch rule over several scenarios:
    a postponable request leaves now if at least half of them dispatch it."""
    if state.epoch >= cfg.n_epochs - 1:
        return decide_greedy(state, inst, cfg, spec)
    votes: dict[int, int] = {}
    scenario_share = 0.8 / spec.n_scenarios
    for k in range(spec.n_scenarios):
        ids, _ = _scenario_dispatch_ids(state, inst, cfg, spec, scenario_idx=k, share=scenario_share)
        for i in ids:
            votes[i] = votes.get(i, 0) + 1
    needed = math.ceil(spec.n_scenarios / 2)
    must = state.must_dispatch_ids
    ids = must | {i for i, c in votes.items() if c >= needed}
    keep = [r for r in state.open if r.id in ids]
    return _mandatory_decision(
        keep, inst, cfg.dispatch_time(state.epoch), _params(spec, state.epoch, share=0.2)
    )


def decide_ml_co(
    state: SystemState,
    inst: StaticInstance,
    cfg: DynamicConfig,
    spec: PolicySpec,
    model: PrizeModel,
) -> Decision:
    """Predict prizes, lift must-dispatch prizes above any possible detour,
    and take the prize-collecting solution as the decision."""
    if not state.open:
        return Decision(routes=())
    feats = extract_features(state, inst, cfg, model.feature_config)
    theta = predict_prizes(model, feats)
    locs = [0] + [r.location for r in state.open]
    max_c = int(inst.travel[np.ix_(locs, locs)].max())
    forcing = len(state.open) * max_c + 1
    for k, req in enumerate(state.open):
        if req.must_dispatch:
            t0r = int(inst.travel[0, req.location])
            tr0 = int(inst.travel[req.location, 0])
            theta[k] = t0r + tr0 + forcing
    pc = pc_for_state(state, inst, cfg, prizes=theta, force_must_dispatch=False)
    sol = solve(pc, _params(spec, state.epoch))
    return decision_from_solution(sol, pc)


class Policy:
    """Callable wrapper binding a spec to an instance/config pair."""

    def __init__(
        self,
        spec: PolicySpec,
        inst: StaticInstance,
        cfg: DynamicConfig,
        model: PrizeModel | None = None,
    ):
        self.spec = spec
        self.inst = inst
        self.cfg = cfg
        if spec.kind == "ml_co" and model is None:
            model = load_model(spec.model_path)
        self.model = model

    def __call__(self, state: SystemState) -> Decision:
        kind = self.spec.kind
        if kind == "greedy":
            return decide_greedy(state, self.inst, self.cfg, self.spec)
        if kind == "lazy":
            return decide_lazy(state, self.inst, self.cfg, self.spec)
        if kind == "random":
            return decide_random(state, self.inst, self.cfg, self.spec)
        if kind == "rolling_horizon":
            return decide_rolling_horizon(state, self.inst, self.cfg, self.spec)
        if kind == "monte_carlo":
            return decide_monte_carlo(state, self.inst, self.cfg, self.spec)
        if kind == "ml_co":
            return decide_ml_co(state, self.inst, self.cfg, self.spec, self.model)
        raise ValueError(f"unknown policy kind: {kind}")


def spec_from_dict(data: dict) -> PolicySpec:
    from .cli import from_config  # deferred: the command layer imports this module

    return from_config(PolicySpec, data, "policy")
