"""Imitation targets from hindsight solutions.

A fully revealed scenario is solved as one routing problem in which every
request carries a release time (the earliest departure at which it could have
been dispatched). Each hindsight route is then assigned to the epoch whose
dispatch time equals the route's latest release, which reconstructs the
decisions an all-knowing dispatcher would have taken epoch by epoch.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encode import build_pc_instance, decision_from_solution
from .instance import StaticInstance
from .pchgs import HgsParams, PcInfeasibleError, solve
from .simulator import (
    Decision,
    DynamicConfig,
    OpenRequest,
    SystemState,
    decision_cost,
    run_episode,
    sample_epoch,
)


@dataclass(frozen=True)
class ReleasedRequest:
    request: OpenRequest
    release: int


@dataclass(frozen=True)
class TrainingSample:
    """One (state, hindsight decision) imitation pair."""

    instance: str
    scenario_seed: int
    epoch: int
    state: SystemState
    target_routes: tuple[tuple[int, ...], ...]
    target_served: tuple[int, ...]
    target_h: float

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "scenario_seed": self.scenario_seed,
            "epoch": self.epoch,
            "open_requests": [
                {
                    "id": r.id,
                    "location": r.location,
                    "demand": r.demand,
                    "service": r.service,
                    "tw": [r.tw_open, r.tw_close],
                    "reveal_epoch": r.reveal_epoch,
                }
                for r in self.state.open
            ],
            "must_dispatch": sorted(self.state.must_dispatch_ids),
            "target_routes": [list(rt) for rt in self.target_routes],
            "target_served": list(self.target_served),
            "target_h": self.target_h,
        }


def sample_from_json_dict(data: dict) -> TrainingSample:
    must = set(data["must_dispatch"])
    open_reqs = tuple(
        OpenRequest(
            id=d["id"],
            location=d["location"],
            demand=d["demand"],
            service=d["service"],
            tw_open=d["tw"][0],
            tw_close=d["tw"][1],
            reveal_epoch=d["reveal_epoch"],
            must_dispatch=d["id"] in must,
        )
        for d in data["open_requests"]
    )
    epoch = int(data["epoch"])
    state = SystemState(epoch=epoch, open=open_reqs)
    return TrainingSample(
        instance=data["instance"],
        scenario_seed=int(data["scenario_seed"]),
        epoch=epoch,
        state=state,
        target_routes=tuple(tuple(rt) for rt in data["target_routes"]),
        target_served=tuple(int(x) for x in data["target_served"]),
        target_h=float(data["target_h"]),
    )


def sample_scenario(
    inst: StaticInstance,
    cfg: DynamicConfig,
    first_epoch: int = 0,
    rng: np.random.Generator | None = None,
) -> tuple[ReleasedRequest, ...]:
    """The requests revealed from ``first_epoch`` on, each released at its
    epoch's dispatch time. With no ``rng`` these are the simulator's own
    draws; with one, every epoch draws from it in turn. Raises ValueError
    when the config does not fit the instance."""
    cfg.validate(inst)
    return tuple(
        ReleasedRequest(request=req, release=cfg.dispatch_time(epoch))
        for epoch in range(first_epoch, cfg.n_epochs)
        for req in sample_epoch(inst, cfg, epoch, rng=rng)
    )


def solve_offline_with_release(
    requests: Sequence[ReleasedRequest],
    inst: StaticInstance,
    params: HgsParams,
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Serve every request at minimum cost respecting releases.

    A route's departure is the latest release among its requests. Returns
    (routes over request ids, total cost). Raises PcInfeasibleError when some
    request cannot be served even on its own route.
    """
    if not requests:
        return (), 0
    reqs = [rr.request for rr in requests]
    release_by_id = {rr.request.id: rr.release for rr in requests}
    pc = build_pc_instance(
        reqs,
        inst,
        departure=min(release_by_id.values()),
        prizes=None,
        forced_in_ids=[r.id for r in reqs],
        release_by_id=release_by_id,
    )
    sol = solve(pc, params)
    return decision_from_solution(sol, pc).routes, int(round(-sol.objective))


def reconstruct_epoch_decisions(
    routes: Sequence[Sequence[int]],
    release_by_id: dict[int, int],
    cfg: DynamicConfig,
) -> dict[int, Decision]:
    """Assign each hindsight route to the epoch matching its latest release."""
    per_epoch: dict[int, list[tuple[int, ...]]] = {e: [] for e in range(cfg.n_epochs)}
    epoch_at = {cfg.dispatch_time(e): e for e in per_epoch}
    for route in routes:
        latest = max(release_by_id[i] for i in route)
        if latest not in epoch_at:
            raise ValueError(f"route release {latest} is no dispatch time of the epoch grid")
        per_epoch[epoch_at[latest]].append(tuple(route))
    return {e: Decision(routes=tuple(sorted(rts))) for e, rts in per_epoch.items()}


def replay_states(
    decisions: dict[int, Decision],
    inst: StaticInstance,
    cfg: DynamicConfig,
) -> list[SystemState]:
    """The simulator's states when it runs the reconstructed decisions; an
    invalid decision raises InvalidDecisionError, as a policy's would."""
    states: list[SystemState] = []

    def replay(state: SystemState) -> Decision:
        states.append(state)
        return decisions.get(state.epoch, Decision(routes=()))

    run_episode(inst, cfg, replay)
    return states


def build_scenario_samples(
    inst: StaticInstance,
    cfg: DynamicConfig,
    params: HgsParams,
) -> tuple[list[TrainingSample], int]:
    """One sample per epoch for one (instance, seed) scenario, plus its total cost."""
    scenario = sample_scenario(inst, cfg)
    release_by_id = {rr.request.id: rr.release for rr in scenario}
    routes, total_cost = solve_offline_with_release(scenario, inst, params)
    decisions = reconstruct_epoch_decisions(routes, release_by_id, cfg)
    states = replay_states(decisions, inst, cfg)
    samples: list[TrainingSample] = []
    for epoch, state in enumerate(states):
        decision = decisions.get(epoch, Decision(routes=()))
        served_ids = decision.dispatched_ids
        samples.append(
            TrainingSample(
                instance=inst.name,
                scenario_seed=cfg.instance_seed,
                epoch=epoch,
                state=state,
                target_routes=decision.routes,
                target_served=tuple(1 if r.id in served_ids else 0 for r in state.open),
                target_h=-float(decision_cost(inst, state, decision)),
            )
        )
    return samples, total_cost


def build_dataset(
    instances: Sequence[StaticInstance],
    cfg_base: DynamicConfig,
    n_scenarios: int,
    params: HgsParams,
    seed: int,
    out_path: str,
) -> int:
    """Write one JSON line per TrainingSample; returns the number of samples.

    Scenario seeds are seed, seed+1, ... per instance; the solver seed is
    derived from the scenario seed so reruns are bit-identical. The config
    is checked against every instance before the file is opened.
    """
    for inst in instances:
        cfg_base.validate(inst)
    count = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        for inst in instances:
            for k in range(n_scenarios):
                cfg = dataclasses.replace(cfg_base, instance_seed=seed + k)
                sparams = dataclasses.replace(params, seed=seed + k)
                samples, _ = build_scenario_samples(inst, cfg, sparams)
                for s in samples:
                    fh.write(json.dumps(s.to_json_dict(), sort_keys=True) + "\n")
                    count += 1
    return count


def anticipative_baseline_cost(
    inst: StaticInstance, cfg: DynamicConfig, params: HgsParams
) -> int:
    """Total routing cost of the hindsight solution for one scenario."""
    scenario = sample_scenario(inst, cfg)
    _, cost = solve_offline_with_release(scenario, inst, params)
    return cost


def load_dataset(path: str, cfg: DynamicConfig) -> list[TrainingSample]:
    """The samples of a ``build_dataset`` file. A state holds only its epoch
    and requests, so ``cfg`` is not read; callers pass the config the file
    was built under."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                samples.append(sample_from_json_dict(json.loads(line)))
    return samples
