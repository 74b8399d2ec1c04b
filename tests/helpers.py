"""Shared builders for tests."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from dynroute.instance import StaticInstance, generate_instance
from dynroute.pchgs import EvalContext, PcInfeasibleError, PcInstance


def square_instance() -> StaticInstance:
    """Tiny hand-checkable instance: depot at origin, 4 requests on a square.

    Travel times are exact Manhattan-free euclidean values chosen integral.
    """
    coords = ((0, 0), (30, 40), (0, 50), (-30, 40), (0, -50))
    n = len(coords)
    travel = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            dx = coords[i][0] - coords[j][0]
            dy = coords[i][1] - coords[j][1]
            travel[i, j] = round((dx * dx + dy * dy) ** 0.5)
    inst = StaticInstance(
        name="square",
        coords=coords,
        demand=(0, 2, 3, 2, 1),
        service=(0, 10, 10, 10, 10),
        tw=((0, 1000), (0, 900), (50, 900), (0, 900), (100, 800)),
        travel=travel,
        capacity=10,
        horizon=1000,
    )
    inst.validate()
    return inst


def tight_instance(seed: int) -> StaticInstance:
    """10 requests, small capacity and narrow windows; every even row's window
    is the last 2,000 s of the horizon, so that routes break each of the time
    window, capacity and horizon rules."""
    base = generate_instance(10, seed=seed, horizon=12_000, capacity=15, window_width=(600, 3_000))
    late = (base.horizon - 2_000, base.horizon)
    tw = tuple(late if r and r % 2 == 0 else w for r, w in enumerate(base.tw))
    inst = dataclasses.replace(base, tw=tw)
    inst.validate()
    return inst


def pc_from_static(
    inst: StaticInstance,
    prizes,
    departure: int = 0,
    forced_in=frozenset(),
    forced_out=frozenset(),
    release=None,
) -> PcInstance:
    """PcInstance over all request rows of a static instance."""
    n = inst.n_locations - 1
    return PcInstance(
        travel=inst.travel.copy(),
        demand=tuple(inst.demand[1:]),
        service=tuple(inst.service[1:]),
        tw_open=tuple(o for o, _ in inst.tw[1:]),
        tw_close=tuple(c for _, c in inst.tw[1:]),
        prizes=tuple(float(p) for p in prizes),
        capacity=inst.capacity,
        departure=departure,
        horizon=inst.horizon,
        release=release,
        forced_in=frozenset(forced_in),
        forced_out=frozenset(forced_out),
        ids=tuple(range(1, n + 1)),
    )


def random_pc(n: int, seed: int, prize_span: tuple[float, float] | None = None) -> PcInstance:
    """Random prize-collecting instance with integer-valued prizes."""
    rng = np.random.default_rng(seed)
    inst = generate_instance(n, seed=seed, horizon=20_000)
    maxc = int(inst.travel.max())
    lo, hi = prize_span if prize_span is not None else (-maxc, 2 * maxc)
    prizes = rng.integers(int(lo), int(hi) + 1, size=n).astype(float)
    return pc_from_static(inst, prizes)


def reference_route_table(ctx: EvalContext, n: int):
    """Cheapest route per subset by a separate ordering search for every
    subset (lexicographic, time-window and cost pruned): the first strictly
    cheapest ordering wins. Returns (route_cost, route_order) lists."""
    t = ctx.t
    route_cost: list[float] = [math.inf] * (1 << n)
    route_order: list[tuple[int, ...] | None] = [None] * (1 << n)
    route_cost[0] = 0.0
    route_order[0] = ()
    for mask in range(1, 1 << n):
        members = [r for r in range(n) if mask >> r & 1]
        if sum(ctx.demand[r] for r in members) > ctx.capacity:
            continue
        best = [math.inf, None]

        def extend(order, rem, prev, time, cost):
            if not rem:
                back = cost + t[prev][0]
                if time + t[prev][0] <= ctx.horizon and back < best[0]:
                    best[:] = [back, tuple(order)]
                return
            for i, r in enumerate(rem):
                arc = t[prev][r + 1]
                begin = max(time + arc, ctx.open[r])
                if begin > ctx.close[r] or cost + arc >= best[0]:
                    continue
                done = begin + ctx.service[r]
                extend(order + [r], rem[:i] + rem[i + 1 :], r + 1, done, cost + arc)

        extend([], members, 0, ctx.route_departure(members), 0)
        if best[1] is not None:
            route_cost[mask], route_order[mask] = best
    return route_cost, route_order


def reference_partition_table(route_cost: list[float], n: int):
    """Set-partition DP over every submask step (3^n): the route holding the
    lowest request, first strict improvement in descending submask order."""
    size = 1 << n
    part_cost: list[float] = [math.inf] * size
    part_choice = [0] * size
    part_cost[0] = 0.0
    for mask in range(1, size):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and route_cost[sub] < math.inf:
                total = route_cost[sub] + part_cost[mask ^ sub]
                if total < part_cost[mask]:
                    part_cost[mask], part_choice[mask] = total, sub
            sub = (sub - 1) & mask
    return part_cost, part_choice


def reference_argmax(part_cost, n: int, prizes, forced_in_mask: int = 0, forced_out_mask: int = 0):
    """Scalar scan over all served sets in mask order: a value above the
    best by 1e-12 replaces it; one within 1e-12 replaces it when it serves
    fewer requests, keeping the larger value. Raises PcInfeasibleError when
    no set is feasible."""
    theta = [float(p) for p in prizes]
    prize_sum = [0.0] * (1 << n)
    best_val, best_mask = -math.inf, -1
    for mask in range(1 << n):
        if mask:
            low = mask & -mask
            prize_sum[mask] = prize_sum[mask ^ low] + theta[low.bit_length() - 1]
        if mask & forced_in_mask != forced_in_mask or mask & forced_out_mask:
            continue
        if part_cost[mask] == math.inf:
            continue
        val = prize_sum[mask] - part_cost[mask]
        if val > best_val + 1e-12:
            best_val, best_mask = val, mask
        elif val > best_val - 1e-12 and best_mask >= 0:
            if bin(mask).count("1") < bin(best_mask).count("1"):
                best_val, best_mask = max(best_val, val), mask
    if best_mask < 0:
        raise PcInfeasibleError("no served set consistent with the forced sets is feasible")
    return best_val, best_mask
