"""Static VRPTW instances: loading, validation, route timing, and routing costs.

All times are integer seconds and the cost of an arc equals its travel time
(the benchmark minimizes travel time only), so a single matrix carries both
semantics. Vehicles may wait before a time window opens; every route must
return to the depot by the horizon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class InstanceError(ValueError):
    """Malformed instance file or violated instance invariant."""


@dataclass(frozen=True)
class StaticInstance:
    """Immutable request universe. Row 0 is the depot.

    ``travel[i][j]`` is both the travel duration and the arc cost from
    location i to location j, in seconds.
    """

    name: str
    coords: tuple[tuple[int, int], ...]
    demand: tuple[int, ...]
    service: tuple[int, ...]
    tw: tuple[tuple[int, int], ...]
    travel: np.ndarray
    capacity: int
    horizon: int

    @property
    def n_locations(self) -> int:
        return len(self.coords)

    def validate(self) -> None:
        n = self.n_locations
        if n < 2:
            raise InstanceError("instance needs a depot and at least one request row")
        if self.capacity <= 0:
            raise InstanceError("capacity: must be positive")
        if self.horizon <= 0:
            raise InstanceError("horizon: must be positive")
        for field, seq in (("demand", self.demand), ("service", self.service), ("tw", self.tw)):
            if len(seq) != n:
                raise InstanceError(f"{field}: length {len(seq)} != |coords| = {n}")
        if self.travel.shape != (n, n):
            raise InstanceError(f"travel: shape {self.travel.shape} != ({n}, {n})")
        if np.any(self.travel < 0):
            raise InstanceError("travel: negative entry")
        if np.any(np.diagonal(self.travel) != 0):
            raise InstanceError("travel: nonzero diagonal entry")
        if self.demand[0] != 0 or self.service[0] != 0 or self.tw[0] != (0, self.horizon):
            raise InstanceError("row 0: depot must have demand 0, service 0, tw (0, horizon)")
        for r in range(n):
            open_, close = self.tw[r]
            if not (0 <= open_ <= close <= self.horizon):
                raise InstanceError(f"tw: row {r}: need 0 <= open <= close <= horizon, got ({open_}, {close})")
            if self.demand[r] < 0:
                raise InstanceError(f"demand: row {r}: negative")
            if self.demand[r] > self.capacity:
                raise InstanceError(f"demand: row {r}: exceeds capacity")
            if self.service[r] < 0:
                raise InstanceError(f"service: row {r}: negative")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "capacity": int(self.capacity),
            "horizon": int(self.horizon),
            "coords": [[int(x), int(y)] for x, y in self.coords],
            "demand": [int(q) for q in self.demand],
            "service": [int(s) for s in self.service],
            "tw": [[int(a), int(b)] for a, b in self.tw],
            "travel": self.travel.astype(int).tolist(),
        }


def _as_instance(data: dict, name_fallback: str) -> StaticInstance:
    try:
        inst = StaticInstance(
            name=str(data.get("name", name_fallback)),
            coords=tuple((int(x), int(y)) for x, y in data["coords"]),
            demand=tuple(int(q) for q in data["demand"]),
            service=tuple(int(s) for s in data["service"]),
            tw=tuple((int(a), int(b)) for a, b in data["tw"]),
            travel=np.asarray(data["travel"], dtype=np.int64),
            capacity=int(data["capacity"]),
            horizon=int(data["horizon"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed instance data: {exc}") from exc
    inst.validate()
    inst.travel.setflags(write=False)
    return inst


def load_instance(path: str) -> StaticInstance:
    """Load and validate an instance JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: not valid JSON: {exc}") from exc
    return _as_instance(data, name_fallback=str(path))


@dataclass(frozen=True)
class RouteTiming:
    """Feasible timing of one route: service start per visit plus totals."""

    departure: int
    begin_service: tuple[int, ...]
    return_time: int
    load: int


@dataclass(frozen=True)
class RouteViolation:
    """First constraint violated by a route (time_window, capacity, or horizon)."""

    kind: str
    position: int | None
    detail: str


def evaluate_route(
    inst: StaticInstance, route: Sequence[int], departure: int
) -> RouteTiming | RouteViolation:
    """Simulate one depot-rooted route leaving at ``departure``.

    Waiting is allowed: service never starts before the window opens. Returns
    the timing when feasible, otherwise the first violated constraint while
    scanning visits in order (cumulative capacity is checked at the visit that
    overflows; the horizon return check comes last).
    """
    n = inst.n_locations
    if len(route) == 0:
        raise ValueError("route must be non-empty")
    if len(set(route)) != len(route):
        raise ValueError("route contains duplicate visits")
    for r in route:
        if not (0 < r < n):
            raise IndexError(f"visit index {r} out of range (1..{n - 1})")
    rows = [(r, inst.demand[r], inst.service[r], *inst.tw[r]) for r in route]
    return _walk_route(inst, route, rows, departure, "visit")


def _walk_route(
    inst: StaticInstance,
    route: Sequence[int],
    rows: Sequence[tuple[int, int, int, int, int]],
    departure: int,
    noun: str,
) -> RouteTiming | RouteViolation:
    """The strict walk behind ``evaluate_route`` and decision validation.

    ``rows`` holds each visit's (location, demand, service, tw_open,
    tw_close); violation details name a visit as ``f"{noun} {route[pos]}"``.
    Travel, capacity and horizon come from ``inst``.
    """
    travel = inst.travel
    time = departure
    load = 0
    prev = 0
    begins: list[int] = []
    for pos, (loc, demand, service, open_, close) in enumerate(rows):
        time += int(travel[prev, loc])
        begin = max(time, open_)
        if begin > close:
            return RouteViolation(
                kind="time_window",
                position=pos,
                detail=f"{noun} {route[pos]}: service would start at {begin} > close {close}",
            )
        load += demand
        if load > inst.capacity:
            return RouteViolation(
                kind="capacity",
                position=pos,
                detail=f"{noun} {route[pos]}: cumulative load {load} > capacity {inst.capacity}",
            )
        begins.append(begin)
        time = begin + service
        prev = loc
    time += int(travel[prev, 0])
    if time > inst.horizon:
        return RouteViolation(
            kind="horizon",
            position=None,
            detail=f"return at {time} > horizon {inst.horizon}",
        )
    return RouteTiming(departure=departure, begin_service=tuple(begins), return_time=time, load=load)


def route_cost(inst: StaticInstance, route: Sequence[int]) -> int:
    """Arc cost of one route including both depot legs."""
    travel = inst.travel
    prev = 0
    total = 0
    for r in route:
        total += int(travel[prev, r])
        prev = r
    total += int(travel[prev, 0])
    return total


def routing_cost(inst: StaticInstance, routes: Iterable[Sequence[int]]) -> int:
    """Total arc cost of a set of pairwise-disjoint routes."""
    seen: set[int] = set()
    total = 0
    for route in routes:
        for r in route:
            if r in seen:
                raise ValueError(f"request {r} appears in more than one route")
            seen.add(r)
        total += route_cost(inst, route)
    return total


def metric_closure(travel: np.ndarray) -> np.ndarray:
    """Min-plus closure: shortest-path travel times, restoring the triangle inequality."""
    d = travel.astype(np.int64).copy()
    n = d.shape[0]
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def generate_instance(
    n_requests: int,
    seed: int,
    name: str | None = None,
    n_clusters: int = 3,
    horizon: int = 28_800,
    capacity: int = 30,
    window_width: tuple[int, int] = (3_600, 14_400),
    coord_span: int = 3_000,
    service_range: tuple[int, int] = (120, 360),
    close_band: tuple[float, float] = (0.0, 1.0),
) -> StaticInstance:
    """Generate a random clustered instance.

    Coordinates are drawn around cluster centers, travel times are rounded
    Euclidean distances passed through a metric closure, and every window is
    clipped so a vehicle serving the request alone can return by the horizon
    (tw.close + service + travel-to-depot <= horizon). ``close_band``
    restricts window closes to a horizon fraction range, which concentrates
    request arrivals in the early epochs. Deterministic per seed.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    rng = np.random.default_rng([int(seed), 0xD1CE])
    centers = rng.uniform(0.2 * coord_span, 0.8 * coord_span, size=(max(1, n_clusters), 2))
    assign = rng.integers(0, max(1, n_clusters), size=n_requests)
    pts = centers[assign] + rng.normal(0.0, 0.07 * coord_span, size=(n_requests, 2))
    pts = np.clip(pts, 0, coord_span)
    depot = np.array([[coord_span / 2, coord_span / 2]])
    coords = np.rint(np.vstack([depot, pts])).astype(np.int64)

    diff = coords[:, None, :] - coords[None, :, :]
    travel = np.rint(np.sqrt((diff**2).sum(axis=2))).astype(np.int64)
    np.fill_diagonal(travel, 0)
    travel = metric_closure(travel)

    demand = np.concatenate([[0], rng.integers(1, 10, size=n_requests)])
    service = np.concatenate(
        [[0], rng.integers(service_range[0], service_range[1] + 1, size=n_requests)]
    )

    tw = [(0, horizon)]
    for r in range(1, n_requests + 1):
        latest_close = max(0, horizon - int(service[r]) - int(travel[r, 0]))
        earliest_useful = int(travel[0, r])
        lo = min(max(earliest_useful + 600, int(close_band[0] * horizon)), latest_close)
        hi = min(int(close_band[1] * horizon), latest_close)
        hi = max(lo, hi)
        close = int(rng.integers(lo, hi + 1))
        width = int(rng.integers(window_width[0], window_width[1] + 1))
        open_ = max(0, close - width)
        tw.append((open_, close))

    inst = StaticInstance(
        name=name or f"gen-{n_requests}-{seed}",
        coords=tuple((int(x), int(y)) for x, y in coords),
        demand=tuple(int(q) for q in demand),
        service=tuple(int(s) for s in service),
        tw=tuple(tw),
        travel=travel,
        capacity=capacity,
        horizon=horizon,
    )
    inst.validate()
    inst.travel.setflags(write=False)
    return inst
