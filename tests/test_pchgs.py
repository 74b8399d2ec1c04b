import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynroute.instance import generate_instance
from dynroute.pchgs import (
    ExactSolver,
    HgsParams,
    PcInfeasibleError,
    PcInstance,
    PcInstanceError,
    brute_force_solve,
    preprocess,
    solve,
)
from dynroute.pchgs import solver
from dynroute.pchgs.evaluate import EvalContext
from dynroute.pchgs.solver import (
    PcHgs,
    Population,
    _Work,
    _apply_plan,
    _plan_cost,
    _same_route_plans,
)

from helpers import (
    pc_from_static,
    random_pc,
    reference_argmax,
    reference_partition_table,
    reference_route_table,
    square_instance,
)


def small_params(seed=0, iters=200):
    return HgsParams(budget_iters=iters, stall_iters=100, seed=seed)


def searched_copy(ind, pc, params):
    """A fresh engine's local search applied to a copy of ind."""
    engine = PcHgs(pc, params)
    out = engine.make_individual(ind.routes)
    engine.local_search(out)
    return out


# ------------------------------------------------------------- preprocess


def test_preprocess_unprofitable_rule_direct_inequality():
    inst = square_instance()
    pc = pc_from_static(inst, prizes=[0.0, 0.0, 0.0, 0.0])
    add_in, add_out = preprocess(pc)
    t = pc.travel
    max_c = int(t.max())
    for r in range(4):
        m = r + 1
        cheapest_in = min(int(t[j][m]) for j in range(5) if j != m)
        cheapest_out = min(int(t[m][j]) for j in range(5) if j != m)
        expected = cheapest_in + cheapest_out - 0.0 >= max_c
        assert (r in add_out) == expected


def test_preprocess_profitable_rule():
    inst = square_instance()
    t = inst.travel
    round_trip = int(t[0, 1]) + int(t[1, 0])
    pc = pc_from_static(inst, prizes=[round_trip + 1, 0.0, 0.0, 0.0])
    add_in, _ = preprocess(pc)
    assert 0 in add_in


def test_preprocess_forcing_prizes_force_all_targets():
    inst = square_instance()
    n = 4
    max_c = int(inst.travel.max())
    m = n * max_c
    pc = pc_from_static(inst, prizes=[m, m, -m, m])
    add_in, add_out = preprocess(pc)
    assert {0, 1, 3} <= add_in
    assert 2 in add_out


def test_preprocess_skips_declared_forced_sets():
    inst = square_instance()
    pc = pc_from_static(inst, prizes=[0.0] * 4, forced_in=frozenset(range(4)))
    add_in, add_out = preprocess(pc)
    assert not add_out


def test_preprocess_dual_qualification_impossible_on_valid_matrices():
    # the cheapest in/out arcs are bounded by the depot round trip, so no
    # request can satisfy both forced-set rules on a non-negative matrix
    for seed in range(6):
        pc = random_pc(6, seed=400 + seed)
        add_in, add_out = preprocess(pc)
        assert not (add_in & add_out)


# ------------------------------------------------------------ brute force


def test_brute_force_empty_instance():
    pc = PcInstance(
        travel=np.zeros((1, 1), dtype=np.int64),
        demand=(),
        service=(),
        tw_open=(),
        tw_close=(),
        prizes=(),
        capacity=5,
        departure=0,
        horizon=10,
    )
    sol = brute_force_solve(pc)
    assert sol.objective == 0.0
    assert sol.routes == ()


def two_request_enumeration(pc):
    """Independent oracle over requests {0, 1}: every served subset, every
    route split, every ordering."""
    ctx = EvalContext(pc)
    plans = [[], [[0]], [[1]], [[0], [1]], [[0, 1]], [[1, 0]]]
    best = -np.inf
    for routes in plans:
        feasible = True
        for r in routes:
            _, capex, warp = ctx.eval_route(r)
            if capex or warp:
                feasible = False
                break
        if not feasible:
            continue
        value = sum(pc.prizes[v] for r in routes for v in r) - sum(
            ctx.route_cost(r) for r in routes
        )
        best = max(best, value)
    return best


def test_brute_force_pairs_when_cheaper():
    inst = square_instance()
    # requests 1 and 2 are adjacent; big prizes force serving both
    pc = pc_from_static(inst, prizes=[500.0, 500.0, -10_000.0, -10_000.0])
    sol = brute_force_solve(pc)
    assert sol.served == {0, 1}
    assert len(sol.routes) == 1
    assert abs(sol.objective - two_request_enumeration(pc)) <= 1e-9


def test_brute_force_matches_exhaustive_enumeration():
    # full independent enumeration over all subsets, orderings, route splits
    for seed in (11, 12, 13):
        pc = random_pc(4, seed=seed)
        ctx = EvalContext(pc)
        best = 0.0  # serving nothing is always feasible
        for k in range(1, 5):
            for subset in itertools.combinations(range(4), k):
                for perm in itertools.permutations(subset):
                    for n_routes in range(1, k + 1):
                        for cuts in itertools.combinations(range(1, k), n_routes - 1):
                            bounds = (0,) + cuts + (k,)
                            routes = [
                                list(perm[bounds[i] : bounds[i + 1]])
                                for i in range(n_routes)
                            ]
                            ok = True
                            for r in routes:
                                _, capex, warp = ctx.eval_route(r)
                                if capex or warp:
                                    ok = False
                                    break
                            if not ok:
                                continue
                            val = sum(pc.prizes[v] for v in subset) - sum(
                                ctx.route_cost(r) for r in routes
                            )
                            best = max(best, val)
        sol = brute_force_solve(pc)
        assert abs(sol.objective - best) <= 1e-9


def test_brute_force_forcing_prizes_serve_target_exactly():
    pc0 = random_pc(5, seed=21)
    max_c = int(pc0.travel.max())
    m = 5 * max_c
    target = {0, 2, 4}
    prizes = tuple(float(m if r in target else -m) for r in range(5))
    import dataclasses

    pc = dataclasses.replace(pc0, prizes=prizes)
    sol = brute_force_solve(pc)
    assert sol.served == target


def test_brute_force_rejects_large_instances():
    pc = random_pc(9, seed=3)
    with pytest.raises(ValueError, match="too large"):
        brute_force_solve(pc)


@pytest.mark.parametrize("pool", [0, -1])
def test_hgs_rejects_an_initial_pool_below_one(pool):
    with pytest.raises(ValueError, match="init_pool must be >= 1"):
        PcHgs(random_pc(6, seed=1), HgsParams(budget_iters=10, init_pool=pool))


@pytest.mark.parametrize("budget_iters, budget_s, init_pool, members", [
    (8, None, None, 2),
    (20, None, None, 2),
    (80, None, None, 6),
    (100, None, None, 8),
    (200, None, None, solver.MU),
    (None, 1.0, None, solver.MU),
    (200, None, 5, 5),
    (8, None, 6, 6),
])
def test_initial_pool_follows_the_iteration_budget(budget_iters, budget_s, init_pool, members):
    """Unset, the pool is one member per MU iterations, from the two that
    ``initialize`` always builds up to MU, and MU with no iteration budget;
    an explicit ``init_pool`` wins."""
    params = HgsParams(budget_iters=budget_iters, budget_s=budget_s, init_pool=init_pool)
    engine = PcHgs(random_pc(10, seed=4), params)
    engine.initialize()
    assert len(engine.pop.members()) == members


def _argmax_outcome(argmax, *args):
    try:
        value, mask = argmax(*args)
    except PcInfeasibleError as exc:
        return ("infeasible", str(exc))
    return repr(float(value)), int(mask)


@pytest.mark.parametrize("n", range(4, 11))
def test_exact_oracle_matches_the_reference(n):
    """Route table, partition DP, ``argmax`` and ``argmax_many`` equal the
    per-subset ordering search, the 3^n DP and the scalar scan (value and
    mask), with wide windows and integer prizes (exact ties), release times,
    forced sets, and NaN and -inf prizes."""
    rng = np.random.default_rng(n)
    wide = random_pc(n, seed=700 + n)
    released = mandatory_release_pc(n, seed=800 + n)
    cases = [
        wide,
        dataclasses.replace(wide, forced_in=frozenset({0}), forced_out=frozenset({n - 1})),
        released,
        dataclasses.replace(released, forced_in=frozenset(), prizes=wide.prizes),
    ]
    for pc in cases:
        ex = ExactSolver(pc, max_requests=n)
        route_cost, route_order = reference_route_table(EvalContext(pc), n)
        part_cost, part_choice = reference_partition_table(route_cost, n)
        assert ex.route_cost == route_cost
        assert ex.route_order == route_order
        assert ex.part_cost == part_cost
        assert ex.part_choice == part_choice
        maxc = pc.max_cost()
        # a prize equal to the request's round trip ties serving it alone with not serving it
        trip = np.array([pc.travel[0, r + 1] + pc.travel[r + 1, 0] for r in range(n)], dtype=float)
        thetas = [np.asarray(pc.prizes), np.zeros(n), trip, trip + maxc * rng.integers(0, 2, n)]
        # serving the cheapest lone request gains under 1e-12: within the tie
        # tolerance, so the scan keeps the earlier, smaller served set
        lone = min(range(n), key=lambda r: route_cost[1 << r])
        thetas.append(np.zeros(n))
        thetas[-1][lone] = route_cost[1 << lone] + 5e-13
        thetas += [rng.integers(-maxc, 2 * maxc, n).astype(float) for _ in range(4)]
        thetas += [rng.normal(0.0, maxc, n) for _ in range(4)]
        for r, bad in ((0, np.nan), (int(rng.integers(n)), np.nan), (0, -np.inf)):
            thetas.append(rng.normal(0.0, maxc, n))
            thetas[-1][r] = bad
        masks_in, masks_out = ex.forced_in_mask, ex.forced_out_mask
        expected = [_argmax_outcome(reference_argmax, part_cost, n, theta, masks_in, masks_out)
                    for theta in thetas]
        assert [_argmax_outcome(ex.argmax, theta) for theta in thetas] == expected
        values, masks = ex.argmax_many(np.array(thetas))
        for value, mask, want in zip(values, masks, expected):
            if want[0] == "infeasible":
                assert mask == -1
            else:
                assert (repr(float(value)), int(mask)) == want


# ------------------------------------------------------------------ solve


def test_solve_all_negative_prizes_returns_empty():
    inst = square_instance()
    max_c = int(inst.travel.max())
    pc = pc_from_static(inst, prizes=[-4 * max_c] * 4)
    sol = solve(pc, small_params())
    assert sol.objective == 0.0
    assert sol.routes == ()
    assert sol.served == frozenset()


def test_solve_single_profitable_request():
    inst = square_instance()
    t = inst.travel
    round_trip = int(t[0, 1]) + int(t[1, 0])
    pc = pc_from_static(inst, prizes=[round_trip + 50, -9999.0, -9999.0, -9999.0])
    sol = solve(pc, small_params())
    assert sol.routes == ((0,),)
    assert abs(sol.objective - 50.0) <= 1e-9


def test_solve_matches_brute_force_on_small_instances():
    matched = 0
    for seed in range(12):
        pc = random_pc(5 + seed % 3, seed=300 + seed)
        exact = brute_force_solve(pc)
        heur = solve(pc, small_params(seed=seed))
        matched += abs(exact.objective - heur.objective) <= 1e-9
    assert matched >= 11


def test_solve_objective_audit_and_forced_sets():
    for seed in (5, 6):
        pc = random_pc(6, seed=seed)
        import dataclasses

        pc = dataclasses.replace(pc, forced_in=frozenset({0}), forced_out=frozenset({1}))
        sol = solve(pc, small_params(seed=seed))
        assert 0 in sol.served
        assert 1 not in sol.served
        ctx = EvalContext(pc)
        recomputed = sum(pc.prizes[v] for v in sorted(sol.served)) - sum(
            ctx.route_cost(list(r)) for r in sol.routes
        )
        assert abs(sol.objective - recomputed) <= 1e-9
        for route in sol.routes:
            cost, capex, warp = ctx.eval_route(list(route))
            assert capex == 0 and warp == 0


def test_solve_under_a_wall_clock_budget_alone():
    """With no iteration limit the deadline ends the search. Nothing is timed:
    ``initialize`` ignores the deadline, so even a spent budget returns the
    best individual of the initial pool."""
    pc = dataclasses.replace(random_pc(8, seed=44), forced_in=frozenset({0}))
    sol = solve(pc, HgsParams(budget_iters=None, budget_s=0.01, seed=3))
    assert sol.budget_mode == "wall_clock"
    assert 0 in sol.served
    ctx = EvalContext(pc)
    assert sorted(v for r in sol.routes for v in r) == sorted(sol.served)
    for route in sol.routes:
        assert ctx.eval_route(list(route))[1:] == (0, 0)
    recomputed = sum(pc.prizes[v] for v in sorted(sol.served)) - sum(
        ctx.route_cost(list(r)) for r in sol.routes
    )
    assert abs(sol.objective - recomputed) <= 1e-9


def test_hgs_params_need_an_iteration_or_a_wall_clock_budget():
    with pytest.raises(ValueError, match="one of budget_iters / budget_s must be set"):
        HgsParams(budget_iters=None)


@pytest.mark.parametrize(
    "budget",
    [dict(budget_iters=-5), dict(budget_s=-1.0, budget_iters=None), dict(stall_iters=-3)],
    ids=["budget_iters", "budget_s", "stall_iters"],
)
def test_hgs_params_reject_a_negative_budget(budget):
    """A negative budget would return the initial pool's best after 0
    iterations, so a sign typo would run a whole benchmark at no search."""
    name = next(iter(budget))
    with pytest.raises(ValueError, match=f"{name} must be >= 0"):
        HgsParams(**budget)


def test_solve_incumbent_trace_is_monotone():
    pc = random_pc(8, seed=44)
    engine = PcHgs(pc, small_params(seed=2))
    trace = []
    consider = engine._consider_incumbent

    def record(ind):
        consider(ind)
        trace.append(engine.incumbent.objective if engine.incumbent else -math.inf)

    engine._consider_incumbent = record
    engine.run()
    assert len(trace) > engine.iterations
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_solve_deterministic_with_iteration_budget():
    pc = random_pc(7, seed=50)
    a = solve(pc, small_params(seed=9))
    b = solve(pc, small_params(seed=9))
    assert a.objective == b.objective
    assert a.routes == b.routes


def test_solve_warm_start_respects_forced_sets():
    import dataclasses

    pc = random_pc(6, seed=60)
    seed_sol = solve(pc, small_params(seed=1))
    pc2 = dataclasses.replace(pc, forced_out=frozenset({2}))
    sol = solve(pc2, small_params(seed=2), warm_start=[seed_sol])
    assert 2 not in sol.served


def test_release_times_delay_departure():
    inst = square_instance()
    pc = pc_from_static(
        inst,
        prizes=[0.0] * 4,
        forced_in=frozenset(range(4)),
        release=(0, 0, 0, 400),
    )
    sol = solve(pc, small_params())
    ctx = EvalContext(pc)
    for route in sol.routes:
        dep = ctx.route_departure(list(route))
        if 3 in route:
            assert dep == 400
        else:
            assert dep == 0


# ------------------------------------------------------- split and walks


def mandatory_release_pc(n: int, seed: int) -> PcInstance:
    """Every request forced in, tight windows, releases on a 20-minute grid
    (clipped so each request stays servable on its own route)."""
    base = generate_instance(n, seed=seed, horizon=20_000, window_width=(1_800, 5_400))
    rng = np.random.default_rng(seed + 1)
    release = []
    for r in range(1, n + 1):
        latest = base.tw[r][1] - int(base.travel[0, r])
        release.append(min(int(rng.choice([0, 1200, 2400, 3600])), max(0, latest)))
    return pc_from_static(
        base, prizes=[0.0] * n, forced_in=range(n), release=tuple(release)
    )


def reference_split(ctx, giant, cap_pen, tw_pen):
    """Quadratic split DP scoring every route giant[j:i] with a full walk;
    the first best start wins ties, as in PcHgs.split."""
    n = len(giant)
    best = [np.inf] * (n + 1)
    choice = [0] * (n + 1)
    best[0] = 0.0
    for i in range(1, n + 1):
        for j in range(i):
            cand = best[j] + ctx.penalized(giant[j:i], cap_pen, tw_pen)
            if cand < best[i]:
                best[i], choice[i] = cand, j
    routes, i = [], n
    while i > 0:
        routes.append(giant[choice[i] : i])
        i = choice[i]
    return routes[::-1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["prize", "mandatory"]),
    st.integers(0, 7),
    st.sampled_from([0.5, 3.0, 40.0]),
    st.data(),
)
def test_split_matches_reference_dp(mode, seed, pen, data):
    pc = random_pc(12, seed=700 + seed) if mode == "prize" else mandatory_release_pc(12, 710 + seed)
    engine = PcHgs(pc, HgsParams(budget_iters=1))
    engine.tw_pen = pen
    giant = data.draw(st.permutations(range(12)))
    giant = giant[: data.draw(st.integers(1, 12))]
    expected = reference_split(engine.ctx, giant, engine.cap_pen, engine.tw_pen)
    assert engine.split(giant) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["prize", "mandatory"]),
    st.integers(0, 7),
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
    st.data(),
)
def test_penalized_bounded_is_penalized_below_bound(mode, seed, cap_pen, tw_pen, data):
    pc = random_pc(10, seed=720 + seed) if mode == "prize" else mandatory_release_pc(10, 730 + seed)
    ctx = EvalContext(pc)
    route = data.draw(st.permutations(range(10)))[: data.draw(st.integers(1, 10))]
    full = ctx.penalized(route, cap_pen, tw_pen)
    bound = data.draw(st.sampled_from([full, np.nextafter(full, np.inf), np.inf])
                      | st.floats(0.0, 2.0 * full + 1.0))
    got = ctx.penalized_bounded(route, cap_pen, tw_pen, bound)
    if full < bound:
        assert got == full
    else:
        assert got is None


def test_penalties_stay_fixed_through_a_solve():
    """The capacity and time-window penalties both start at the instance's
    scale, max_cost / max_demand, and end a solve there: only the repair pass
    raises them, for one local search."""
    pc = mandatory_release_pc(15, seed=3)
    engine = PcHgs(pc, HgsParams(budget_iters=200, stall_iters=None, seed=0))
    start = (engine.cap_pen, engine.tw_pen)
    capacity_start = max(1.0, pc.max_cost() / max(pc.demand))
    assert capacity_start > 1.0
    assert start == (capacity_start, capacity_start)
    engine.run()
    assert engine.iterations == 200
    assert (engine.cap_pen, engine.tw_pen) == start


# ----------------------------------------------------------- local search


def test_local_search_reaches_fixed_point():
    pc = random_pc(8, seed=70)
    engine = PcHgs(pc, small_params(seed=3))
    ind = engine.make_individual(engine.split([r for r in range(8) if r in engine.allowed]))
    once = searched_copy(ind, pc, small_params(seed=3))
    twice = searched_copy(once, pc, small_params(seed=3))
    p1 = once.penalized_objective(engine.cap_pen, engine.tw_pen)
    p2 = twice.penalized_objective(engine.cap_pen, engine.tw_pen)
    assert abs(p1 - p2) <= 1e-9


def assert_fixed_point(engine: PcHgs, ind) -> None:
    """No pair move, RELOCATE* or SWAP* improves ind under engine's
    penalties, checked by a fresh engine that holds no route certificates."""
    probe = PcHgs(engine.inst, engine.params)
    probe.cap_pen, probe.tw_pen = engine.cap_pen, engine.tw_pen
    work = _Work(probe.ctx, ind.routes)
    for u in list(work.pos):
        for v in probe._neighbors[u]:
            if v not in work.pos:
                continue
            if work.pos[u][0] == work.pos[v][0]:
                moved = probe._try_same_route_moves(work, u, v)
            else:
                moved = probe._cross_moves(work, probe._cross_prep(work, u), *work.pos[v])
            assert not moved, (u, v)
    assert not probe._relocate_star(work, {}, set())
    assert not probe._swap_star(work, {}, set())


@pytest.mark.parametrize("mode", ["prize", "mandatory"])
def test_local_search_output_is_fixed_point_of_route_moves(mode):
    # several searches per engine, so later ones run with certificates that
    # earlier ones recorded; the 10x repair penalties add a second key
    for seed in (0, 1, 2):
        pc = random_pc(14, seed=600 + seed) if mode == "prize" else mandatory_release_pc(14, 610 + seed)
        engine = PcHgs(pc, small_params(seed=seed))
        for _ in range(4):
            ind = engine._random_individual()
            engine.local_search(ind)
            assert_fixed_point(engine, ind)
            saved = engine.cap_pen, engine.tw_pen
            engine.cap_pen, engine.tw_pen = saved[0] * 10.0, saved[1] * 10.0
            engine.local_search(ind)
            assert_fixed_point(engine, ind)
            engine.cap_pen, engine.tw_pen = saved
        assert engine._certs


def matrix_pc(travel: np.ndarray) -> PcInstance:
    n = travel.shape[0] - 1
    return PcInstance(
        travel=travel, demand=(1,) * n, service=(0,) * n, tw_open=(0,) * n,
        tw_close=(10_000,) * n, prizes=(0.0,) * n, capacity=n, departure=0,
        horizon=10_000,
    )


def reference_arc_insert(t, route, r):
    """Left-to-right scan for the smallest arc detour of inserting r; the
    first gap wins ties. Returns (gap, detour)."""
    prev = 0
    best = None
    for pi in range(len(route) + 1):
        nxt = route[pi] + 1 if pi < len(route) else 0
        arc = t[prev][r + 1] + t[r + 1][nxt] - t[prev][nxt]
        if best is None or arc < best[1]:
            best = (pi, arc)
        prev = nxt
    return best


@st.composite
def small_matrix_route(draw, min_len=1):
    """An asymmetric small-integer travel matrix (many ties) and a route over
    some of its requests."""
    n = draw(st.integers(min_len + 1, 9))
    cells = draw(st.lists(st.integers(0, 6), min_size=(n + 1) ** 2, max_size=(n + 1) ** 2))
    travel = np.array(cells, dtype=np.int64).reshape(n + 1, n + 1)
    np.fill_diagonal(travel, 0)
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(min_len, n - 1))
    return travel, list(order[:k]), list(order[k:])


@settings(max_examples=300, deadline=None)
@given(small_matrix_route(), st.data())
def test_top3_insertion_matches_cheapest_arc_scan(case, data):
    travel, route, outside = case
    engine = PcHgs(matrix_pc(travel), HgsParams(budget_iters=1))
    t = engine.ctx.t
    work = _Work(engine.ctx, [route])
    x = data.draw(st.sampled_from(outside))
    detour, gap = engine._top3(work, 0, x)[0]
    assert (gap, detour) == reference_arc_insert(t, route, x)
    p = data.draw(st.integers(0, len(route) - 1))
    shortened = route[:p] + route[p + 1 :]
    assert engine._insert_without(work, 0, p, x) == reference_arc_insert(t, shortened, x)


def reference_same_route_candidates(route, u, v):
    """The same-route candidates of (u, v), built list by list, in the
    order the moves are tried."""
    pu, pv = route.index(u), route.index(v)
    out = []

    def relocate(moved, before):
        src = [x for x in route if x not in moved]
        at = src.index(v) + (0 if before else 1)
        out.append(src[:at] + moved + src[at:])

    succ_u = route[pu + 1] if pu + 1 < len(route) else None
    succ_v = route[pv + 1] if pv + 1 < len(route) else None
    relocate([u], before=False)
    relocate([u], before=True)
    if succ_u is not None and succ_u != v:
        relocate([u, succ_u], before=False)
        relocate([succ_u, u], before=False)
    blocks = [([u], [v])]
    if succ_u is not None and succ_u != v:
        blocks.append(([u, succ_u], [v]))
        if succ_v is not None and succ_v not in (u, succ_u):
            blocks.append(([u, succ_u], [v, succ_v]))
    for block_u, block_v in blocks:
        iu, iv = route.index(block_u[0]), route.index(block_v[0])
        swapped, i = [], 0
        while i < len(route):
            if i == iu:
                swapped.extend(block_v)
                i += len(block_u)
            elif i == iv:
                swapped.extend(block_u)
                i += len(block_v)
            else:
                swapped.append(route[i])
                i += 1
        out.append(swapped)
    lo, hi = min(pu, pv), max(pu, pv)
    out.append(route[:lo] + route[lo : hi + 1][::-1] + route[hi + 1 :])
    return out


@settings(max_examples=300, deadline=None)
@given(small_matrix_route(min_len=2), st.data())
def test_same_route_arc_deltas_match_built_candidates(case, data):
    travel, route, _ = case
    ctx = EvalContext(matrix_pc(travel))
    work = _Work(ctx, [route])
    pu, pv = data.draw(st.lists(st.integers(0, len(route) - 1), min_size=2, max_size=2, unique=True))
    plans = _same_route_plans(len(route), pu, pv)
    candidates = [_apply_plan(route, plan) for plan in plans]
    assert candidates == reference_same_route_candidates(route, route[pu], route[pv])
    base = ctx.route_cost(route)
    for plan, cand in zip(plans, candidates):
        delta = _plan_cost(ctx.t, route, work.arc_pref[0], work.rev_pref[0], plan) - base
        assert delta == ctx.route_cost(cand) - base


def test_same_route_plans_are_shared_immutable_tuples():
    for n, pu, pv in ((2, 0, 1), (5, 3, 1), (7, 2, 5)):
        plans = _same_route_plans(n, pu, pv)
        assert isinstance(plans, tuple)
        assert all(isinstance(p, tuple) and all(isinstance(s, tuple) for s in p) for p in plans)
        assert _same_route_plans(n, pu, pv) is plans


# Outputs recorded when the time-warp penalty took the capacity penalty's
# start; iteration-budget outputs must stay byte-identical.
GOLDEN_PARAMS = dict(budget_iters=60, stall_iters=25, init_pool=12)
_MANDATORY_60 = (
    ((7, 22, 3, 10, 17, 8), (12, 13, 20, 19), (14,), (15, 6, 16, 5, 4), (23, 21, 0, 11),
     (24, 2, 18, 1, 9)),
    -8522.0,
)
_PRIZE_60 = (((8, 9, 1, 5, 2, 20, 19), (23, 15, 7, 0, 3, 4, 24, 10, 22, 11)), 18420.0)
GOLDEN = {
    ("prize", 0): (((8, 9, 1, 7, 0, 3, 5, 2, 19), (23, 15, 20, 4, 24, 10, 22, 11)), 18454.0, 31),
    ("prize", 1): (*_PRIZE_60, 36),
    ("prize", 2): (*_PRIZE_60, 30),
    ("mandatory", 0): (*_MANDATORY_60, 52),
    ("mandatory", 1): (*_MANDATORY_60, 25),
    ("mandatory", 2): (*_MANDATORY_60, 43),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_solve_golden_outputs(key):
    mode, seed = key
    pc = random_pc(25, seed=501) if mode == "prize" else mandatory_release_pc(25, 502)
    sol = solve(pc, HgsParams(seed=seed, **GOLDEN_PARAMS))
    assert (sol.routes, sol.objective, sol.iterations) == GOLDEN[key]


def test_local_search_never_worsens():
    for seed in (71, 72, 73):
        pc = random_pc(5, seed=seed)
        engine = PcHgs(pc, small_params(seed=1))
        ind = engine.make_individual(engine.split(list(engine.allowed)))
        before = ind.penalized_objective(engine.cap_pen, engine.tw_pen)
        out = searched_copy(ind, pc, small_params(seed=1))
        after = out.penalized_objective(engine.cap_pen, engine.tw_pen)
        assert after >= before - 1e-9


# ----------------------------------------------------------------- SREX


def test_srex_identical_parents_preserve_served_set():
    pc = random_pc(7, seed=80)
    engine = PcHgs(pc, small_params(seed=4))
    a = engine.make_individual(engine.split(list(engine.allowed)))
    child = PcHgs(pc, small_params(seed=4)).srex_crossover(a, a)
    assert child.served == a.served


def test_srex_preserves_first_parent_requests():
    pc = pc_from_static(square_instance(), prizes=[0.0] * 4)
    engine = PcHgs(pc, small_params(seed=5))
    assert {0, 1, 2} <= set(engine.allowed)
    a = engine.make_individual([[0, 1], [2]])
    b = engine.make_individual([[1]])
    child = engine.srex_crossover(a, b)
    assert {0, 1, 2} <= set(child.served)


def test_srex_never_serves_forced_out():
    import dataclasses

    pc = dataclasses.replace(random_pc(7, seed=82), forced_out=frozenset({3}))
    engine = PcHgs(pc, small_params(seed=6))
    pool = [engine._random_individual() for _ in range(8)]
    for k in range(300):
        a = pool[k % len(pool)]
        b = pool[(k * 7 + 1) % len(pool)]
        child = engine.srex_crossover(a, b)
        assert 3 not in child.served


# -------------------------------------------------------------- mutation


def mutation(p_mut, alpha_rm, alpha_ins):
    """The solver's mutation constants set to the given values (a context
    manager; a function-scoped fixture would not work under hypothesis)."""
    return mock.patch.multiple(solver, P_MUT=p_mut, ALPHA_RM=alpha_rm, ALPHA_INS=alpha_ins)


def test_mutation_identity_when_factors_zero():
    pc = random_pc(8, seed=90)
    params = HgsParams(budget_iters=10, seed=7)
    engine = PcHgs(pc, params)
    ind = engine.make_individual(engine.split(list(engine.allowed)[:5]))
    before = set(ind.served)
    with mutation(p_mut=1.0, alpha_rm=0.0, alpha_ins=0.0):
        for _ in range(50):
            engine.mutate_random_remove_insert(ind)
            assert set(ind.served) == before


def test_mutation_identity_when_all_forced_in():
    import dataclasses

    pc0 = random_pc(6, seed=91)
    pc = dataclasses.replace(pc0, forced_in=frozenset(range(6)))
    params = HgsParams(budget_iters=10, seed=8)
    engine = PcHgs(pc, params)
    ind = engine.make_individual(engine.split(list(range(6))))
    with mutation(p_mut=1.0, alpha_rm=0.5, alpha_ins=0.0):
        for _ in range(50):
            engine.mutate_random_remove_insert(ind)
            assert set(ind.served) == set(range(6))


def test_mutation_branch_frequencies_are_fair():
    import dataclasses

    pc = dataclasses.replace(random_pc(12, seed=92), prizes=(0.0,) * 12)
    params = HgsParams(budget_iters=10, seed=9)
    engine = PcHgs(pc, params)
    assert len(engine.allowed) >= 10 and not engine.forced_in
    base_routes = engine.split(list(engine.allowed)[:6])
    n, heads = 4000, 0
    with mutation(p_mut=1.0, alpha_rm=0.5, alpha_ins=0.5):
        for _ in range(n):
            ind = engine.make_individual(base_routes)
            before = len(ind.served)
            engine.mutate_random_remove_insert(ind)
            after = len(ind.served)
            assert after != before
            heads += after < before
    sigma = (n * 0.25) ** 0.5
    assert abs(heads - n / 2) <= 3 * sigma


# --------------------------------------------------- optimize request set


def test_optimize_request_set_serves_all_when_prizes_huge():
    pc = random_pc(7, seed=95, prize_span=(100000, 100001))
    engine = PcHgs(pc, small_params(seed=10))
    ind = engine.make_individual([])
    engine.optimize_request_set(ind, perturb=False)
    assert set(ind.served) == set(engine.allowed)


def test_optimize_request_set_empties_when_prizes_hopeless():
    import dataclasses

    # -1 prizes: every removal saving (>= 0) beats the prize, but the
    # unprofitability preprocessing rule does not fire for nearby requests
    pc = dataclasses.replace(random_pc(7, seed=96), prizes=(-1.0,) * 7)
    engine = PcHgs(pc, small_params(seed=11))
    assert not engine.forced_in
    ind = engine.make_individual(engine.split(list(engine.allowed)))
    assert len(ind.served) > 0
    engine.optimize_request_set(ind, perturb=False)
    assert ind.served == frozenset()


def test_optimize_request_set_unperturbed_never_decreases_objective():
    for seed in (97, 98, 99):
        pc = random_pc(6, seed=seed)
        engine = PcHgs(pc, small_params(seed=12))
        ind = engine.make_individual(engine.split(list(engine.allowed)[:4]))
        before = ind.penalized_objective(engine.cap_pen, engine.tw_pen)
        engine.optimize_request_set(ind, perturb=False)
        after = ind.penalized_objective(engine.cap_pen, engine.tw_pen)
        assert after >= before - 1e-9


def reference_best_insertion(engine, work, r):
    """Cheapest penalized insertion by walking every candidate route."""
    ctx = engine.ctx
    cap_pen, tw_pen = engine.cap_pen, engine.tw_pen
    best = (ctx.penalized([r], cap_pen, tw_pen), -1, 0)
    for ri, route in enumerate(work.routes):
        old = work.route_pen(ri, cap_pen, tw_pen)
        for pi in range(len(route) + 1):
            cand = route[:pi] + [r] + route[pi:]
            pen = ctx.penalized_bounded(cand, cap_pen, tw_pen, old + best[0] - 1e-9)
            if pen is not None:
                best = (pen - old, ri, pi)
    return best


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["prize", "mandatory"]),
    st.integers(0, 7),
    st.sampled_from([1.0, 10.0]),
    st.data(),
)
def test_best_insertion_matches_unscreened_scan(mode, seed, scale, data):
    pc = random_pc(12, seed=740 + seed) if mode == "prize" else mandatory_release_pc(12, 750 + seed)
    engine = PcHgs(pc, HgsParams(budget_iters=1, seed=seed))
    engine.cap_pen *= scale
    engine.tw_pen *= scale
    giant = data.draw(st.permutations(range(12)))
    dropped = set(giant[: data.draw(st.integers(1, 6))])
    routes = [[v for v in r if v not in dropped] for r in engine.split(giant)]
    work = _Work(engine.ctx, routes)
    for r in sorted(dropped):
        assert engine._best_insertion(work, r) == reference_best_insertion(engine, work, r)


# ------------------------------------------------------------- population


def population(mu, lam, elite, n_closest):
    """The solver's population constants set to the given values (a context
    manager; a function-scoped fixture would not work under hypothesis)."""
    return mock.patch.multiple(solver, MU=mu, LAM=lam, ELITE=elite, N_CLOSEST=n_closest)


def distance(a, b):
    """Broken giant-tour pairs plus the served-set symmetric difference."""
    def pairs(ind):
        return {frozenset(p) for p in zip(ind.giant, ind.giant[1:])}

    return len(pairs(a) ^ pairs(b)) + len(a.served ^ b.served)


def test_population_never_exceeds_capacity_and_keeps_best():
    pc = random_pc(8, seed=100)
    params = HgsParams(budget_iters=10, seed=13)
    engine = PcHgs(pc, params)
    with population(mu=4, lam=6, elite=2, n_closest=2):
        pop = Population()
        best_obj = -np.inf
        for k in range(40):
            ind = engine._random_individual()
            if ind.feasible:
                best_obj = max(best_obj, ind.prize_sum - ind.cost)
            pop.update(ind, engine.cap_pen, engine.tw_pen)
            assert len(pop.feasible) <= solver.MU + solver.LAM
            assert len(pop.infeasible) <= solver.MU + solver.LAM
            if pop.feasible:
                current_best = max(i.prize_sum - i.cost for i in pop.feasible)
                assert current_best >= best_obj - 1e-9


def test_population_removes_clone_first():
    pc = pc_from_static(square_instance(), prizes=[200.0, 200.0, 200.0, 0.0])
    params = HgsParams(budget_iters=10, seed=14)
    engine = PcHgs(pc, params)
    with population(mu=2, lam=3, elite=1, n_closest=2):
        pop = Population()
        plans = [[[0]], [[1]], [[2]], [[0, 1]], [[1, 2]]]
        members = [engine.make_individual(p) for p in plans]
        assert all(m.feasible for m in members)
        for m in members:
            pop.update(m, engine.cap_pen, engine.tw_pen)
        assert len(pop.feasible) == solver.MU + solver.LAM
        clone = engine.make_individual(plans[2])
        pop.update(clone, engine.cap_pen, engine.tw_pen)  # overflow -> survivor selection
        assert len(pop.feasible) == solver.MU
    pairs = [
        (a, b)
        for i, a in enumerate(pop.feasible)
        for b in pop.feasible[i + 1 :]
        if distance(a, b) == 0
    ]
    assert not pairs


def reference_fitness(sub, cap_pen, tw_pen):
    """Biased fitness from a distance matrix built from scratch, under the
    solver's current population constants."""
    k = len(sub)
    if k == 0:
        return [], [], []
    d = [[0 if a is b else distance(a, b) for b in sub] for a in sub]
    objs = [ind.penalized_objective(cap_pen, tw_pen) for ind in sub]
    div = [-sum(sorted(d[i][j] for j in range(k) if j != i)[: solver.N_CLOSEST])
           for i in range(k)]
    by_obj = sorted(range(k), key=lambda i: -objs[i])
    by_div = sorted(range(k), key=lambda i: div[i])
    w = 1.0 - solver.ELITE / k
    return [by_obj.index(i) + w * by_div.index(i) for i in range(k)], by_obj, d


def reference_update(sub, ind, cap_pen, tw_pen):
    sub.append(ind)
    if len(sub) <= solver.MU + solver.LAM:
        return
    while len(sub) > solver.MU:
        fitness, by_obj, d = reference_fitness(sub, cap_pen, tw_pen)
        protected = set(by_obj[: max(1, solver.ELITE)])
        clone = [any(d[i][j] == 0 for j in range(len(sub)) if j != i) for i in range(len(sub))]
        victims = sorted(
            (i for i in range(len(sub)) if i not in protected or clone[i]),
            key=lambda i: (not clone[i], -fitness[i]),
        )
        sub.pop(victims[0])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["prize", "mandatory"]),
    st.integers(0, 5),
    st.lists(st.integers(0, 30), min_size=10, max_size=40),
    st.integers(0, 2**16),
)
def test_population_matches_from_scratch_reference(mode, seed, script, tseed):
    pc = random_pc(12, seed=760 + seed) if mode == "prize" else mandatory_release_pc(12, 770 + seed)
    params = HgsParams(budget_iters=1, seed=seed)
    engine = PcHgs(pc, params)
    with population(mu=4, lam=3, elite=2, n_closest=3):
        check_population_against_reference(engine, script, tseed)


def check_population_against_reference(engine, script, tseed):
    base_pens = (engine.cap_pen, engine.tw_pen)
    pop = Population()
    ref = {True: [], False: []}
    made = []
    for k, step in enumerate(script):
        # a step below 8 clones an earlier individual; any other draws a new
        # one, split under low penalties every other time so that both
        # subpopulations fill
        if step >= 8 or not made:
            low = k % 2 == 1
            engine.cap_pen, engine.tw_pen = (0.01, 0.01) if low else base_pens
            ind = engine._random_individual()
        else:
            ind = engine.make_individual(made[step % len(made)].routes)
        made.append(ind)
        cap_pen, tw_pen = base_pens[0] * (1 + k % 3), base_pens[1]
        pop.update(ind, cap_pen, tw_pen)
        reference_update(ref[ind.feasible], ind, cap_pen, tw_pen)
        for sub, key in ((pop.feasible, True), (pop.infeasible, False)):
            assert [id(m) for m in sub] == [id(m) for m in ref[key]]
            fitness, by_obj, d = reference_fitness(ref[key], cap_pen, tw_pen)
            assert pop._ranked(sub, cap_pen, tw_pen) == (fitness, by_obj)
            assert sub.dists == d
        fits = [f for key in (True, False)
                for f in reference_fitness(ref[key], cap_pen, tw_pen)[0]]
        pool = ref[True] + ref[False]
        rng, ref_rng = np.random.default_rng(tseed), np.random.default_rng(tseed)
        for _ in range(3):
            i, j = int(ref_rng.integers(0, len(pool))), int(ref_rng.integers(0, len(pool)))
            expected = pool[i] if fits[i] <= fits[j] else pool[j]
            assert pop.tournament(rng, cap_pen, tw_pen) is expected
