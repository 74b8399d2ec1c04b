"""Bridging between simulator states and prize-collecting instances.

Requests keep the order they have in the state, so permutation behavior of
downstream features/prizes is well defined; route indices translate back to
open-request ids through ``PcInstance.ids``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .instance import StaticInstance
from .pchgs import PcInstance, PcSolution
from .simulator import Decision, DynamicConfig, OpenRequest, SystemState


def build_pc_instance(
    requests: Sequence[OpenRequest],
    inst: StaticInstance,
    departure: int,
    prizes: Sequence[float] | None = None,
    forced_in_ids: Sequence[int] = (),
    release_by_id: dict[int, int] | None = None,
) -> PcInstance:
    """Restrict the static matrix to depot + the given requests."""
    locs = [0] + [r.location for r in requests]
    travel = inst.travel[np.ix_(locs, locs)].copy()
    id_to_idx = {r.id: k for k, r in enumerate(requests)}
    release = None
    if release_by_id is not None:
        release = tuple(int(release_by_id[r.id]) for r in requests)
    return PcInstance(
        travel=travel,
        demand=tuple(r.demand for r in requests),
        service=tuple(r.service for r in requests),
        tw_open=tuple(r.tw_open for r in requests),
        tw_close=tuple(r.tw_close for r in requests),
        prizes=tuple(float(p) for p in prizes) if prizes is not None else (0.0,) * len(requests),
        capacity=inst.capacity,
        departure=int(departure),
        horizon=inst.horizon,
        release=release,
        forced_in=frozenset(id_to_idx[i] for i in forced_in_ids),
        ids=tuple(r.id for r in requests),
    )


def pc_for_state(
    state: SystemState,
    inst: StaticInstance,
    cfg: DynamicConfig,
    prizes: Sequence[float] | None = None,
    force_must_dispatch: bool = True,
) -> PcInstance:
    forced = [r.id for r in state.open if r.must_dispatch] if force_must_dispatch else []
    return build_pc_instance(
        state.open,
        inst,
        departure=state.t_e + cfg.dispatch_offset,
        prizes=prizes,
        forced_in_ids=forced,
    )


def decision_from_solution(sol: PcSolution, pc: PcInstance) -> Decision:
    assert pc.ids is not None
    routes = tuple(tuple(pc.ids[r] for r in route) for route in sol.routes)
    return Decision(routes=tuple(sorted(routes)))
