"""Independent checks of routing plans, shared with no dynroute evaluator.

Instance data is read straight from the instance JSON file; every route is
re-walked here from that data, so a fault in dynroute's own evaluators or cost
functions cannot hide a wrong plan. Times are integer seconds and an arc costs
its travel time. A vehicle may wait for a window to open, must start service
by the window's close, carries at most the capacity and is back at the depot
(location 0) by the horizon. It leaves the depot no earlier than the release
of any request it visits.

Every check returns a list of ``(kind, detail)`` violations; empty means OK.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Instance:
    travel: tuple[tuple[int, ...], ...]
    capacity: int
    horizon: int

    @classmethod
    def from_file(cls, path: str) -> "Instance":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        n = len(data["coords"])
        travel = tuple(tuple(int(x) for x in row) for row in data["travel"])
        if len(travel) != n or any(len(row) != n for row in travel):
            raise ValueError(f"{path}: travel is not a {n} x {n} matrix")
        return cls(travel=travel, capacity=int(data["capacity"]), horizon=int(data["horizon"]))


@dataclass(frozen=True)
class Request:
    id: int
    location: int
    demand: int
    service: int
    tw_open: int
    tw_close: int
    release: int = 0


@dataclass(frozen=True)
class Epochs:
    """The dispatch grid: epoch e dispatches at e * duration + offset."""

    n_epochs: int
    duration: int
    offset: int

    def dispatch_time(self, epoch: int) -> int:
        return epoch * self.duration + self.offset

    def must_dispatch(self, inst: Instance, req: Request, epoch: int) -> bool:
        """True when waiting for the next epoch would miss the request's window."""
        if epoch >= self.n_epochs - 1:
            return True
        return self.dispatch_time(epoch + 1) + inst.travel[0][req.location] > req.tw_close


def walk(inst: Instance, reqs: dict[int, Request], route: Sequence[int], departure: int):
    """Arc cost of one route and its violations, departing at ``departure``."""
    violations = []
    unknown = [i for i in route if i not in reqs]
    if unknown:
        return 0, [("unknown", f"route {list(route)} visits unknown ids {unknown}")]
    time, load, prev, cost = departure, 0, 0, 0
    for i in route:
        req = reqs[i]
        if departure < req.release:
            violations.append(("release", f"id {i} released at {req.release}, route departs {departure}"))
        arc = inst.travel[prev][req.location]
        cost += arc
        time = max(time + arc, req.tw_open)
        if time > req.tw_close:
            violations.append(("time_window", f"id {i} starts at {time} > close {req.tw_close}"))
        load += req.demand
        if load > inst.capacity:
            violations.append(("capacity", f"load {load} > capacity {inst.capacity} at id {i}"))
        time += req.service
        prev = req.location
    cost += inst.travel[prev][0]
    time += inst.travel[prev][0]
    if time > inst.horizon:
        violations.append(("horizon", f"route {list(route)} returns at {time} > {inst.horizon}"))
    return cost, violations


def check_routes(
    inst: Instance,
    reqs: dict[int, Request],
    routes: Iterable[Sequence[int]],
    departure: int | None = None,
):
    """Total arc cost and violations of a route set.

    ``departure=None`` lets each route leave at the latest release among its
    requests, as in a hindsight plan; otherwise every route leaves then.
    """
    total, violations, seen = 0, [], set()
    for route in routes:
        if not route:
            violations.append(("empty", "empty route"))
            continue
        again = []
        for i in route:
            if i in seen:
                again.append(i)
            seen.add(i)
        if again:
            violations.append(("duplicate", f"ids served more than once: {sorted(set(again))}"))
        dep = departure
        if dep is None:
            dep = max((reqs[i].release for i in route if i in reqs), default=0)
        cost, found = walk(inst, reqs, route, dep)
        total += cost
        violations.extend(found)
    return total, violations


def check_cover(routes: Iterable[Sequence[int]], ids: Iterable[int]):
    """Every id in ``ids`` is served exactly once, and nothing else is."""
    counts: dict[int, int] = {}
    for route in routes:
        for i in route:
            counts[i] = counts.get(i, 0) + 1
    wanted = set(ids)
    violations = []
    missing = sorted(wanted - set(counts))
    if missing:
        violations.append(("missing", f"ids never served: {missing}"))
    extra = sorted(set(counts) - wanted)
    if extra:
        violations.append(("unknown", f"ids served but not requested: {extra}"))
    twice = sorted(i for i, c in counts.items() if c > 1)
    if twice:
        violations.append(("duplicate", f"ids served more than once: {twice}"))
    return violations


def check_decision(
    inst: Instance,
    open_reqs: Sequence[Request],
    routes: Iterable[Sequence[int]],
    epoch: int,
    epochs: Epochs,
):
    """Arc cost and violations of one epoch's decision over its open requests.

    Must-dispatch status is recomputed here from instance data, not read from
    the program's state.
    """
    routes = [tuple(r) for r in routes]
    reqs = {r.id: r for r in open_reqs}
    cost, violations = check_routes(inst, reqs, routes, departure=epochs.dispatch_time(epoch))
    served = {i for route in routes for i in route}
    must = sorted(r.id for r in open_reqs if epochs.must_dispatch(inst, r, epoch))
    left = [i for i in must if i not in served]
    if left:
        violations.append(("must_dispatch", f"must-dispatch ids not served: {left}"))
    return cost, violations
