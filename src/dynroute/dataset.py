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

from .encode import build_pc_instance
from .instance import StaticInstance
from .pchgs import HgsParams, PcInfeasibleError, solve
from .simulator import (
    Decision,
    DynamicConfig,
    OpenRequest,
    SystemState,
    classify_must_dispatch,
    decision_cost,
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


def sample_from_json_dict(data: dict, cfg: DynamicConfig) -> TrainingSample:
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
    state = SystemState(epoch=epoch, t_e=cfg.epoch_start(epoch), open=open_reqs)
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
    inst: StaticInstance, cfg: DynamicConfig
) -> tuple[ReleasedRequest, ...]:
    """All requests of one dynamic realization, each with its release time.
    Raises ValueError when the config does not fit the instance."""
    cfg.validate(inst)
    out: list[ReleasedRequest] = []
    for epoch in range(cfg.n_epochs):
        t_e = cfg.epoch_start(epoch)
        for req in sample_epoch(inst, cfg, epoch):
            out.append(ReleasedRequest(request=req, release=t_e + cfg.dispatch_offset))
    return tuple(out)


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
    assert pc.ids is not None
    routes = tuple(tuple(pc.ids[r] for r in route) for route in sol.routes)
    cost = int(round(-sol.objective))
    return routes, cost


def reconstruct_epoch_decisions(
    routes: Sequence[Sequence[int]],
    release_by_id: dict[int, int],
    cfg: DynamicConfig,
) -> dict[int, Decision]:
    """Assign each hindsight route to the epoch matching its latest release."""
    per_epoch: dict[int, list[tuple[int, ...]]] = {e: [] for e in range(cfg.n_epochs)}
    for route in routes:
        latest = max(release_by_id[i] for i in route)
        offset = latest - cfg.dispatch_offset
        if offset % cfg.epoch_duration != 0:
            raise ValueError(f"route release {latest} does not lie on the epoch grid")
        epoch = offset // cfg.epoch_duration
        if not (0 <= epoch < cfg.n_epochs):
            raise ValueError(f"route release {latest} maps to epoch {epoch} out of range")
        per_epoch[epoch].append(tuple(route))
    return {e: Decision(routes=tuple(sorted(rts))) for e, rts in per_epoch.items()}


def replay_states(
    scenario: Sequence[ReleasedRequest],
    decisions: dict[int, Decision],
    inst: StaticInstance,
    cfg: DynamicConfig,
) -> list[SystemState]:
    """States seen when the reconstructed decisions are replayed on the scenario."""
    by_epoch: dict[int, list[OpenRequest]] = {e: [] for e in range(cfg.n_epochs)}
    for rr in scenario:
        by_epoch[rr.request.reveal_epoch].append(rr.request)
    states: list[SystemState] = []
    open_reqs: list[OpenRequest] = []
    for epoch in range(cfg.n_epochs):
        open_reqs.extend(by_epoch[epoch])
        state = SystemState(epoch=epoch, t_e=cfg.epoch_start(epoch), open=tuple(open_reqs))
        state = classify_must_dispatch(state, inst, cfg)
        states.append(state)
        dispatched = decisions[epoch].dispatched_ids if epoch in decisions else frozenset()
        open_reqs = [r for r in state.open if r.id not in dispatched]
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
    states = replay_states(scenario, decisions, inst, cfg)
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
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                samples.append(sample_from_json_dict(json.loads(line), cfg))
    return samples
