"""Exact prize-collecting solver for small instances.

Built once per instance: the cheapest feasible route for every request
subset, from one depth-first walk over the capacity- and window-feasible
visit sequences in lexicographic order (one walk per distinct departure
under release times) that keeps each subset's first strictly cheapest
ordering; then a set-partition DP that splits off the route holding a
subset's lowest request. The optimum for a prize vector is then a scan over
served sets; ``argmax_many`` takes a batch of them (the perturbed-loss
draws) in one numpy pass.
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
        fi, fo = self.forced_in_mask, self.forced_out_mask
        valid = [m for m, c in enumerate(self.part_cost) if m & fi == fi and not m & fo and c < _INF]
        # kept for every training state, so stored compactly
        self._valid = np.array(valid, dtype=np.int32)
        self._valid_cost = np.array([self.part_cost[m] for m in valid])
        self._valid_size = np.array([bin(m).count("1") for m in valid], dtype=np.int8)
        # argmax_many builds prize sums in bit-reversed mask order
        self._valid_rev = np.array([int(f"{m:0{n}b}"[::-1], 2) for m in valid], dtype=np.int32)

    def _build_route_table(self) -> None:
        """Cheapest route per subset. Travel times and demands are non-negative,
        so a prefix over capacity or past a window has no extension to record."""
        n = self.n
        ctx = self.ctx
        t, demand, cap, open_, close, service, horizon = (
            ctx.t, ctx.demand, ctx.capacity, ctx.open, ctx.close, ctx.service, ctx.horizon)
        route_cost: list[float] = [0.0] + [_INF] * ((1 << n) - 1)
        route_order: list[tuple[int, ...] | None] = [()] + [None] * ((1 << n) - 1)
        starts = [ctx.route_departure([r]) for r in range(n)]
        order: list[int] = []

        def walk(members, fresh, prev, time, cost, load, mask):
            for r in members:
                bit = 1 << r
                if mask & bit:
                    continue
                ld = load + demand[r]
                if ld > cap:
                    continue
                m = r + 1
                arc = t[prev][m]
                begin = time + arc
                if begin < open_[r]:
                    begin = open_[r]
                if begin > close[r]:
                    continue
                c = cost + arc
                done = begin + service[r]
                sub = mask | bit
                order.append(r)
                if sub & fresh:
                    back = c + t[m][0]
                    if back < route_cost[sub] and done + t[m][0] <= horizon:
                        route_cost[sub] = back
                        route_order[sub] = tuple(order)
                walk(members, fresh, m, done, c, ld, sub)
                order.pop()

        # a subset leaves at its latest start: walk each departure over the
        # requests released by then, recording subsets holding one released at it
        for dep in sorted(set(starts)):
            members = [r for r in range(n) if starts[r] <= dep]
            fresh = sum(1 << r for r in members if starts[r] == dep)
            walk(members, fresh, 0, dep, 0, 0, 0)
        self.route_cost = route_cost
        self.route_order = route_order

    def _build_partition_table(self) -> None:
        """Best split of each subset into routes: the one holding the lowest
        request runs over its submasks in descending order; the first strict
        improvement wins."""
        n = self.n
        size = 1 << n
        part_cost: list[float] = [_INF] * size
        part_choice: list[int] = [0] * size
        part_cost[0] = 0.0
        route_cost = self.route_cost
        for mask in range(1, size):
            low = mask & -mask
            rest = mask ^ low
            best = _INF
            best_sub = 0
            s = rest
            while True:
                rc = route_cost[s | low]
                if rc < _INF:
                    total = rc + part_cost[rest ^ s]
                    if total < best:
                        best = total
                        best_sub = s | low
                if not s:
                    break
                s = (s - 1) & rest
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

    def argmax_many(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """Best objective value and served-set bitmask for each row of
        ``thetas``; a row with no feasible served set gets mask -1.

        Prize sums accumulate from the highest request down, the order of the
        scalar recurrence ``sum[mask] = sum[mask ^ low] + theta[low]``, so
        every value is bitwise the scalar one. They are doubled in
        bit-reversed mask order, where each next lower request is the new top
        bit. A row keeps numpy's argmax when it is finite and its top value
        is alone beyond 1e-9 * max(1, |top|); any other row takes ``_scan``,
        whose tie rule decides.
        """
        thetas = np.asarray(thetas, dtype=float)
        rows = len(thetas)
        if not len(self._valid):
            return np.full(rows, -_INF), np.full(rows, -1)
        with np.errstate(all="ignore"):
            sums = np.zeros((rows, 1 << self.n))
            for k, r in enumerate(range(self.n - 1, -1, -1)):
                sums[:, 1 << k : 2 << k] = sums[:, : 1 << k] + thetas[:, r : r + 1]
            vals = sums[:, self._valid_rev] - self._valid_cost
            best = vals.argmax(axis=1)
            values = vals[np.arange(rows), best]
            floor = values - 1e-9 * np.maximum(1.0, np.abs(values))
            alone = ((vals >= floor[:, None]).sum(axis=1) == 1) & np.isfinite(vals).all(axis=1)
        for s in np.flatnonzero(~alone):
            values[s], best[s] = self._scan(vals[s])
        masks = np.where(best >= 0, self._valid[best], -1)
        return values, masks

    def _scan(self, vals: np.ndarray) -> tuple[float, int]:
        """(value, index into the valid masks) by the order-dependent tie
        rule: a value within 1e-12 of the best replaces it when it serves
        fewer requests, else the earlier mask stays. Index -1 when no value
        compares above -inf."""
        size = self._valid_size.tolist()
        best_val, best = -_INF, -1
        for i, val in enumerate(vals.tolist()):
            if val > best_val + 1e-12:
                best_val = val
                best = i
            elif val > best_val - 1e-12 and best >= 0:
                if size[i] < size[best]:
                    best_val = max(best_val, val)
                    best = i
        return best_val, best

    def argmax(self, prizes) -> tuple[float, int]:
        """Best objective value and its served-set bitmask for a prize vector."""
        values, masks = self.argmax_many([prizes])
        if masks[0] < 0:
            raise PcInfeasibleError("no served set consistent with the forced sets is feasible")
        return float(values[0]), int(masks[0])

    def served_vector(self, mask) -> np.ndarray:
        """Served indicator of a mask, or one row per mask of an array."""
        return ((np.asarray(mask)[..., None] >> np.arange(self.n)) & 1).astype(float)

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
