"""Epoch simulator for the dynamic dispatching problem.

Requests are sampled per epoch from the static instance's attribute
distributions, classified as must-dispatch or postponable, and removed once a
decision routes them. Sampling is keyed on (instance_seed, epoch) only, so
policies compared on the same seed see identical request streams regardless of
what they dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .instance import StaticInstance, RouteViolation, _walk_route, route_cost


@dataclass(frozen=True)
class DynamicConfig:
    n_epochs: int
    sample_size: int
    instance_seed: int
    epoch_duration: int = 3600
    dispatch_offset: int = 3600

    def validate(self, inst: StaticInstance) -> None:
        if self.n_epochs < 1 or self.sample_size < 1:
            raise ValueError("n_epochs and sample_size must be positive")
        if self.epoch_duration < 1:
            raise ValueError("epoch_duration must be >= 1")
        if self.dispatch_offset < 0:
            raise ValueError("dispatch_offset must be >= 0")
        if self.n_epochs * self.epoch_duration > inst.horizon:
            raise ValueError(
                f"n_epochs * epoch_duration = {self.n_epochs * self.epoch_duration} "
                f"exceeds horizon {inst.horizon}"
            )

    def epoch_start(self, epoch: int) -> int:
        return epoch * self.epoch_duration


@dataclass(frozen=True)
class OpenRequest:
    id: int
    location: int
    demand: int
    service: int
    tw_open: int
    tw_close: int
    reveal_epoch: int
    must_dispatch: bool = False


@dataclass(frozen=True)
class SystemState:
    epoch: int
    t_e: int
    open: tuple[OpenRequest, ...]

    def by_id(self) -> dict[int, OpenRequest]:
        return {r.id: r for r in self.open}

    @property
    def must_dispatch_ids(self) -> frozenset[int]:
        return frozenset(r.id for r in self.open if r.must_dispatch)


@dataclass(frozen=True)
class Decision:
    """A set of depot-rooted routes over open-request ids."""

    routes: tuple[tuple[int, ...], ...]

    @property
    def dispatched_ids(self) -> frozenset[int]:
        return frozenset(i for route in self.routes for i in route)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    sampled_ids: tuple[int, ...]
    dispatched_ids: tuple[int, ...]
    routes: tuple[tuple[int, ...], ...]
    cost: int


@dataclass(frozen=True)
class EpisodeResult:
    total_cost: int
    per_epoch: tuple[EpochRecord, ...]

    def to_json_dict(self, cfg: DynamicConfig, instance_name: str) -> dict:
        return {
            "config": {
                "instance": instance_name,
                "n_epochs": cfg.n_epochs,
                "sample_size": cfg.sample_size,
                "instance_seed": cfg.instance_seed,
                "epoch_duration": cfg.epoch_duration,
                "dispatch_offset": cfg.dispatch_offset,
            },
            "per_epoch": [
                {
                    "epoch": rec.epoch,
                    "dispatched": sorted(rec.dispatched_ids),
                    "routes": [list(rt) for rt in sorted(rec.routes)],
                    "cost": rec.cost,
                }
                for rec in self.per_epoch
            ],
            "total_cost": self.total_cost,
        }


class InvalidDecisionError(RuntimeError):
    def __init__(self, epoch: int, violations: list[Violation]):
        self.epoch = epoch
        self.violations = violations
        lines = "; ".join(f"{v.kind}: {v.detail}" for v in violations)
        super().__init__(f"invalid decision in epoch {epoch}: {lines}")


def sample_epoch(
    inst: StaticInstance,
    cfg: DynamicConfig,
    epoch: int,
    rng: np.random.Generator | None = None,
) -> tuple[OpenRequest, ...]:
    """Draw the requests revealed at the start of ``epoch``.

    Each candidate's location, demand, service time, and time window are drawn
    independently and uniformly from the static rows (depot excluded). A
    candidate is kept iff a vehicle dispatched this epoch can still reach it
    inside its window: t_e + offset + travel[depot][loc] <= tw.close.
    Deterministic given (instance_seed, epoch).
    """
    if epoch >= cfg.n_epochs:
        raise ValueError(f"epoch {epoch} out of range (n_epochs = {cfg.n_epochs})")
    if rng is None:
        rng = np.random.default_rng([cfg.instance_seed, epoch])
    n = inst.n_locations
    m = cfg.sample_size
    locs = rng.integers(1, n, size=m)
    demand_rows = rng.integers(1, n, size=m)
    service_rows = rng.integers(1, n, size=m)
    tw_rows = rng.integers(1, n, size=m)

    t_e = cfg.epoch_start(epoch)
    earliest = t_e + cfg.dispatch_offset
    kept: list[OpenRequest] = []
    for k in range(m):
        loc = int(locs[k])
        tw_open, tw_close = inst.tw[int(tw_rows[k])]
        if earliest + int(inst.travel[0, loc]) > tw_close:
            continue
        kept.append(
            OpenRequest(
                id=epoch * 1_000_000 + k,
                location=loc,
                demand=inst.demand[int(demand_rows[k])],
                service=inst.service[int(service_rows[k])],
                tw_open=tw_open,
                tw_close=tw_close,
                reveal_epoch=epoch,
            )
        )
    return tuple(kept)


def classify_must_dispatch(
    state: SystemState, inst: StaticInstance, cfg: DynamicConfig
) -> SystemState:
    """Recompute must-dispatch flags for every open request.

    A request is must-dispatch iff this is the final epoch, or a vehicle
    leaving at the next epoch's dispatch time could no longer reach it in
    time: t_{e+1} + offset + travel[depot][loc] > tw.close.
    """
    final = state.epoch >= cfg.n_epochs - 1
    next_earliest = cfg.epoch_start(state.epoch + 1) + cfg.dispatch_offset
    flagged = tuple(
        replace(
            r,
            must_dispatch=final or next_earliest + int(inst.travel[0, r.location]) > r.tw_close,
        )
        for r in state.open
    )
    return replace(state, open=flagged)


def initial_state(inst: StaticInstance, cfg: DynamicConfig) -> SystemState:
    state = SystemState(epoch=0, t_e=0, open=sample_epoch(inst, cfg, 0))
    return classify_must_dispatch(state, inst, cfg)


def validate_decision(
    state: SystemState, inst: StaticInstance, cfg: DynamicConfig, decision: Decision
) -> list[Violation]:
    """Check a decision against the current state; returns all violations found."""
    violations: list[Violation] = []
    open_by_id = state.by_id()
    seen: set[int] = set()
    departure = state.t_e + cfg.dispatch_offset

    for route in decision.routes:
        if len(route) == 0:
            violations.append(Violation("empty_route", "decision contains an empty route"))
            continue
        unknown = [i for i in route if i not in open_by_id]
        if unknown:
            violations.append(
                Violation("unknown_request", f"route visits ids not open: {sorted(unknown)}")
            )
            continue
        # an id is a duplicate when an earlier route or an earlier visit of
        # this route already holds it
        dups = set()
        for i in route:
            if i in seen:
                dups.add(i)
            seen.add(i)
        if dups:
            violations.append(
                Violation("overlap", f"ids routed more than once: {sorted(dups)}")
            )
        reqs = [open_by_id[i] for i in route]
        rows = [(r.location, r.demand, r.service, r.tw_open, r.tw_close) for r in reqs]
        report = _walk_route(inst, route, rows, departure, "id")
        if isinstance(report, RouteViolation):
            violations.append(
                Violation(report.kind, f"route {list(route)}: {report.detail}")
            )

    missing = state.must_dispatch_ids - seen
    if missing:
        violations.append(
            Violation("must_dispatch", f"must-dispatch ids not covered: {sorted(missing)}")
        )
    return violations


def decision_cost(inst: StaticInstance, state: SystemState, decision: Decision) -> int:
    """Arc cost of a decision's routes, resolved through request locations."""
    open_by_id = state.by_id()
    total = 0
    seen: set[int] = set()
    for route in decision.routes:
        for i in route:
            if i in seen:
                raise ValueError(f"request id {i} appears in more than one route")
            seen.add(i)
        total += route_cost(inst, [open_by_id[i].location for i in route])
    return total


def transition(
    state: SystemState,
    decision: Decision,
    inst: StaticInstance,
    cfg: DynamicConfig,
) -> SystemState:
    """Remove dispatched requests, reveal the next epoch's sample, reflag."""
    dispatched = decision.dispatched_ids
    next_epoch = state.epoch + 1
    carried = tuple(r for r in state.open if r.id not in dispatched)
    arrivals = sample_epoch(inst, cfg, next_epoch) if next_epoch < cfg.n_epochs else ()
    nxt = SystemState(
        epoch=next_epoch, t_e=cfg.epoch_start(next_epoch), open=carried + arrivals
    )
    return classify_must_dispatch(nxt, inst, cfg)


def run_episode(
    inst: StaticInstance,
    cfg: DynamicConfig,
    policy: Callable[[SystemState], Decision],
) -> EpisodeResult:
    """Run one full episode; every decision is validated before it is applied.

    Raises InvalidDecisionError (carrying the offending epoch and violations)
    when the policy emits an infeasible decision.
    """
    cfg.validate(inst)
    state = initial_state(inst, cfg)
    records: list[EpochRecord] = []
    total = 0
    for epoch in range(cfg.n_epochs):
        sampled = tuple(r.id for r in state.open if r.reveal_epoch == epoch)
        decision = policy(state)
        violations = validate_decision(state, inst, cfg, decision)
        if violations:
            raise InvalidDecisionError(epoch, violations)
        cost = decision_cost(inst, state, decision)
        total += cost
        records.append(
            EpochRecord(
                epoch=epoch,
                sampled_ids=sampled,
                dispatched_ids=tuple(sorted(decision.dispatched_ids)),
                routes=decision.routes,
                cost=cost,
            )
        )
        if epoch < cfg.n_epochs - 1:
            state = transition(state, decision, inst, cfg)
    return EpisodeResult(total_cost=total, per_epoch=tuple(records))
