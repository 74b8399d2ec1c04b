"""Exact prize-collecting solver for small instances.

Enumerates, once per instance, the cheapest feasible single route for every
request subset (ordering enumeration with time-window pruning), then a
set-partition DP over subsets. After that, the optimum for any prize vector
is a scan over served sets, which makes repeated argmax calls with different
prizes (as in perturbed-loss oracles) cheap.
"""

from __future__ import annotations

import math

import numpy as np

from .evaluate import EvalContext
from .types import PcInstance, PcInfeasibleError, PcSolution

_INF = math.inf


class ExactSolver:
    def __init__(self, inst: PcInstance, max_requests: int = 8):
        n = inst.n_requests
        if n > max_requests:
            raise ValueError(f"instance too large for exact solve: {n} > {max_requests}")
        self.inst = inst
        self.ctx = EvalContext(inst)
        self.n = n
        self.forced_in_mask = sum(1 << r for r in inst.forced_in)
        self.forced_out_mask = sum(1 << r for r in inst.forced_out)
        self._build_route_table()
        self._build_partition_table()

    def _build_route_table(self) -> None:
        n = self.n
        ctx = self.ctx
        t = ctx.t
        demand = ctx.demand
        cap = ctx.capacity
        route_cost: list[float] = [_INF] * (1 << n)
        route_order: list[tuple[int, ...] | None] = [None] * (1 << n)
        route_cost[0] = 0.0
        route_order[0] = ()

        for mask in range(1, 1 << n):
            members = [r for r in range(n) if mask >> r & 1]
            if sum(demand[r] for r in members) > cap:
                continue
            dep = ctx.route_departure(members)
            best = _INF
            best_order: tuple[int, ...] | None = None
            open_ = ctx.open
            close = ctx.close
            service = ctx.service
            horizon = ctx.horizon

            def extend(order: list[int], rem: list[int], prev: int, time: int, cost: int):
                nonlocal best, best_order
                if not rem:
                    back = cost + t[prev][0]
                    if time + t[prev][0] <= horizon and back < best:
                        best = back
                        best_order = tuple(order)
                    return
                for i, r in enumerate(rem):
                    m = r + 1
                    arc = t[prev][m]
                    arrive = time + arc
                    begin = arrive if arrive > open_[r] else open_[r]
                    if begin > close[r]:
                        continue
                    if cost + arc >= best:
                        continue
                    order.append(r)
                    extend(order, rem[:i] + rem[i + 1 :], m, begin + service[r], cost + arc)
                    order.pop()

            extend([], members, 0, dep, 0)
            if best_order is not None:
                route_cost[mask] = best
                route_order[mask] = best_order
        self.route_cost = route_cost
        self.route_order = route_order

    def _build_partition_table(self) -> None:
        n = self.n
        size = 1 << n
        part_cost: list[float] = [_INF] * size
        part_choice: list[int] = [0] * size
        part_cost[0] = 0.0
        route_cost = self.route_cost
        for mask in range(1, size):
            low = mask & -mask
            best = _INF
            best_sub = 0
            sub = mask
            while sub:
                if sub & low:
                    rc = route_cost[sub]
                    if rc < _INF:
                        rest = part_cost[mask ^ sub]
                        if rc + rest < best:
                            best = rc + rest
                            best_sub = sub
                sub = (sub - 1) & mask
            part_cost[mask] = best
            part_choice[mask] = best_sub
        self.part_cost = part_cost
        self.part_choice = part_choice

    def routes_for_mask(self, mask: int) -> tuple[tuple[int, ...], ...]:
        routes: list[tuple[int, ...]] = []
        while mask:
            sub = self.part_choice[mask]
            order = self.route_order[sub]
            assert order is not None
            routes.append(order)
            mask ^= sub
        return tuple(sorted(routes))

    def argmax(self, prizes) -> tuple[float, int]:
        """Best objective value and its served-set bitmask for a prize vector."""
        n = self.n
        size = 1 << n
        theta = [float(p) for p in prizes]
        prize_sum = [0.0] * size
        for mask in range(1, size):
            low = mask & -mask
            prize_sum[mask] = prize_sum[mask ^ low] + theta[low.bit_length() - 1]
        fi = self.forced_in_mask
        fo = self.forced_out_mask
        part_cost = self.part_cost
        best_val = -_INF
        best_mask = -1
        for mask in range(size):
            if mask & fi != fi or mask & fo:
                continue
            pc = part_cost[mask]
            if pc == _INF:
                continue
            val = prize_sum[mask] - pc
            if val > best_val + 1e-12:
                best_val = val
                best_mask = mask
            elif val > best_val - 1e-12 and best_mask >= 0:
                if bin(mask).count("1") < bin(best_mask).count("1"):
                    best_val = max(best_val, val)
                    best_mask = mask
        if best_mask < 0:
            raise PcInfeasibleError("no served set consistent with the forced sets is feasible")
        return best_val, best_mask

    def served_vector(self, mask: int) -> np.ndarray:
        return np.array([(mask >> r) & 1 for r in range(self.n)], dtype=float)

    def solve(self) -> PcSolution:
        value, mask = self.argmax(self.inst.prizes)
        served = frozenset(r for r in range(self.n) if mask >> r & 1)
        return PcSolution(
            routes=self.routes_for_mask(mask),
            served=served,
            objective=float(value),
            iterations=0,
            budget_mode="exact",
        )


def brute_force_solve(inst: PcInstance) -> PcSolution:
    """Exact optimum by served-subset enumeration plus set-partition DP."""
    return ExactSolver(inst).solve()
