"""Shared builders for tests."""

from __future__ import annotations

import dataclasses

import numpy as np

from dynroute.instance import StaticInstance, generate_instance
from dynroute.pchgs import PcInstance


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
