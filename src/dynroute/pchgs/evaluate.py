"""Route evaluation with time-warp relaxation.

Infeasible routes are measured, not rejected: when service would start after
a window closes, time warps back to the close and the overshoot accumulates.
Arriving at the depot after the horizon adds to the warp as well. A route
leaves at the latest of the departure and its visits' release times.
``EvalContext.eval_route`` is the solver's one relaxed walk; the penalized
costs wrap it, and a bound lets it stop as soon as the route cannot beat it.
A route is feasible iff its warp and capacity excess are both zero, exactly
when the strict walk in ``dynroute.instance`` accepts it.
"""

from __future__ import annotations

import math

from .types import PcInstance


class EvalContext:
    """Plain-list views of a PcInstance for tight evaluation loops.

    Matrix index of request r is r+1; depot is 0.
    """

    __slots__ = (
        "t", "demand", "service", "open", "close",
        "capacity", "departure", "horizon", "release",
    )

    def __init__(self, inst: PcInstance):
        self.t = inst.travel.tolist()
        self.demand = list(inst.demand)
        self.service = list(inst.service)
        self.open = list(inst.tw_open)
        self.close = list(inst.tw_close)
        self.capacity = inst.capacity
        self.departure = inst.departure
        self.horizon = inst.horizon
        self.release = list(inst.release) if inst.release is not None else None

    def route_departure(self, visits) -> int:
        dep = self.departure
        if self.release is not None:
            for v in visits:
                rel = self.release[v]
                if rel > dep:
                    dep = rel
        return dep

    def eval_route(self, visits, tw_pen: float = 0.0, bound: float = math.inf):
        """Return (cost, cap_excess, tw_warp) for one visit sequence, or None
        once ``cost + tw_pen * warp`` reaches ``bound`` partway along it. That
        running sum only grows along the walk, so a caller whose total adds a
        non-negative capacity term can abort on it exactly."""
        t = self.t
        open_ = self.open
        close = self.close
        service = self.service
        demand = self.demand
        time = self.route_departure(visits)
        cost = 0
        load = 0
        warp = 0
        prev = 0
        for v in visits:
            m = v + 1
            arc = t[prev][m]
            cost += arc
            time += arc
            o = open_[v]
            if time < o:
                time = o
            c = close[v]
            if time > c:
                warp += time - c
                time = c
            time += service[v]
            load += demand[v]
            if cost + tw_pen * warp >= bound:
                return None
            prev = m
        cost += t[prev][0]
        time += t[prev][0]
        if time > self.horizon:
            warp += time - self.horizon
        cap_excess = load - self.capacity
        if cap_excess < 0:
            cap_excess = 0
        return cost, cap_excess, warp

    def route_cost(self, visits) -> int:
        t = self.t
        prev = 0
        cost = 0
        for v in visits:
            cost += t[prev][v + 1]
            prev = v + 1
        return cost + t[prev][0]

    def penalized_bounded(self, visits, cap_pen: float, tw_pen: float, bound: float):
        """Penalized cost of a visit sequence, or None when it reaches ``bound``."""
        walked = self.eval_route(visits, tw_pen, bound)
        if walked is None:
            return None
        cost, cap_excess, warp = walked
        total = cost + cap_pen * cap_excess + tw_pen * warp
        return None if total >= bound else total

    def penalized(self, visits, cap_pen: float, tw_pen: float) -> float:
        cost, cap, warp = self.eval_route(visits)
        return cost + cap_pen * cap + tw_pen * warp
