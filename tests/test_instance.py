import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynroute.instance import (
    InstanceError,
    RouteTiming,
    RouteViolation,
    evaluate_route,
    generate_instance,
    load_instance,
    metric_closure,
    route_cost,
    routing_cost,
)
from dynroute.pchgs import EvalContext

from helpers import pc_from_static, square_instance, tight_instance


def minimal_instance_dict():
    return {
        "name": "one",
        "capacity": 5,
        "horizon": 100,
        "coords": [[0, 0], [3, 4]],
        "demand": [0, 1],
        "service": [0, 2],
        "tw": [[0, 100], [0, 90]],
        "travel": [[0, 5], [5, 0]],
    }


def test_load_minimal_instance(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(minimal_instance_dict()))
    inst = load_instance(str(path))
    assert inst.n_locations == 2
    assert inst.tw[0] == (0, 100)


def test_load_rejects_window_past_horizon(tmp_path):
    data = minimal_instance_dict()
    data["coords"] += [[1, 1], [2, 2]]
    data["demand"] += [1, 1]
    data["service"] += [0, 0]
    data["tw"] += [[0, 50], [0, 120]]
    data["travel"] = [[0, 5, 2, 3], [5, 0, 2, 3], [2, 2, 0, 1], [3, 3, 1, 0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceError, match="row 3"):
        load_instance(str(path))


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceError, match="not valid JSON"):
        load_instance(str(path))


def test_bundled_sample_instance_loads():
    inst = load_instance("tests/fixtures/sample_25.json")
    assert inst.n_locations == 26
    assert inst.travel.shape == (26, 26)
    inst.validate()


def test_waiting_before_window_open():
    inst = square_instance()
    # travel depot -> request 4 is 50; window opens at 100 -> wait
    timing = evaluate_route(inst, [4], departure=0)
    assert isinstance(timing, RouteTiming)
    assert timing.begin_service[0] == 100


def test_time_window_violation_position():
    inst = square_instance()
    report = evaluate_route(inst, [2], departure=900)
    assert isinstance(report, RouteViolation)
    assert report.kind == "time_window"
    assert report.position == 0


def test_capacity_violation():
    import dataclasses

    inst = dataclasses.replace(square_instance(), capacity=5)
    report = evaluate_route(inst, [1, 2, 3], departure=0)
    assert isinstance(report, RouteViolation)
    assert report.kind == "capacity"
    assert report.position == 2


def test_horizon_violation():
    import dataclasses

    base = square_instance()
    inst = dataclasses.replace(base, horizon=920, tw=((0, 920),) + base.tw[1:])
    # arrive at request 2 by 865 (inside window), but return at 925 > 920
    report = evaluate_route(inst, [2], departure=815)
    assert isinstance(report, RouteViolation)
    assert report.kind == "horizon"


def test_route_index_errors():
    inst = square_instance()
    with pytest.raises(IndexError):
        evaluate_route(inst, [9], departure=0)
    with pytest.raises(ValueError):
        evaluate_route(inst, [], departure=0)
    with pytest.raises(ValueError):
        evaluate_route(inst, [1, 1], departure=0)


def manual_timing(inst, route, departure):
    """Independent straight-line re-simulation used as the timing oracle."""
    t = departure
    prev = 0
    begins = []
    for r in route:
        t = t + int(inst.travel[prev, r])
        if t < inst.tw[r][0]:
            t = inst.tw[r][0]
        assert t <= inst.tw[r][1]
        begins.append(t)
        t += inst.service[r]
        prev = r
    return begins, t + int(inst.travel[prev, 0])


def test_timing_matches_manual_simulation():
    inst = generate_instance(12, seed=42)
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 20:
        route = rng.permutation(np.arange(1, 13))[:4].tolist()
        out = evaluate_route(inst, route, departure=int(rng.integers(0, 5000)))
        if isinstance(out, RouteViolation):
            continue
        begins, ret = manual_timing(inst, route, out.departure)
        assert list(out.begin_service) == begins
        assert out.return_time == ret
        checked += 1


def test_routing_cost_trivials_and_oracle():
    inst = square_instance()
    assert routing_cost(inst, []) == 0
    assert routing_cost(inst, [[1]]) == int(inst.travel[0, 1]) + int(inst.travel[1, 0])

    def arc_list_cost(routes):
        total = 0
        for route in routes:
            legs = [0] + list(route) + [0]
            for a, b in zip(legs[:-1], legs[1:]):
                total += int(inst.travel[a, b])
        return total

    routes = [[1, 2], [3]]
    assert routing_cost(inst, routes) == arc_list_cost(routes)
    assert routing_cost(inst, list(reversed(routes))) == arc_list_cost(routes)


def test_routing_cost_rejects_overlap():
    inst = square_instance()
    with pytest.raises(ValueError, match="more than one route"):
        routing_cost(inst, [[1, 2], [2, 3]])


@settings(max_examples=60, deadline=None)
@given(delta=st.integers(min_value=0, max_value=300), dep=st.integers(min_value=0, max_value=200))
def test_delaying_departure_never_decreases_begin_times(delta, dep):
    inst = square_instance()
    route = [1, 2, 3]
    base = evaluate_route(inst, route, departure=dep)
    later = evaluate_route(inst, route, departure=dep + delta)
    if isinstance(base, RouteViolation):
        return
    if isinstance(later, RouteViolation):
        return
    for b0, b1 in zip(base.begin_service, later.begin_service):
        assert b1 >= b0


TIGHT = tight_instance(77)


@settings(max_examples=300, deadline=None)
@given(
    st.permutations(range(1, 11)),
    st.integers(1, 10),
    st.integers(0, 8_000),
    st.none() | st.lists(st.integers(0, 9_000), min_size=10, max_size=10),
)
def test_strict_timing_iff_zero_warp_and_excess(perm, k, departure, release):
    # the solver's relaxed walk and the strict walk agree on feasibility,
    # release times included: the route leaves at its latest release
    inst = TIGHT
    route = perm[:k]
    pc = pc_from_static(inst, [0.0] * 10, departure=departure,
                        release=None if release is None else tuple(release))
    ctx = EvalContext(pc)
    visits = [r - 1 for r in route]
    cost, cap_excess, warp = ctx.eval_route(visits)
    out = evaluate_route(inst, route, ctx.route_departure(visits))
    assert isinstance(out, RouteTiming) == (cap_excess == 0 and warp == 0)
    assert cost == route_cost(inst, route)
    if isinstance(out, RouteTiming):
        assert out.load == sum(inst.demand[r] for r in route)


def test_metric_closure_enforces_triangle_inequality():
    rng = np.random.default_rng(5)
    raw = rng.integers(1, 50, size=(8, 8)).astype(np.int64)
    np.fill_diagonal(raw, 0)
    closed = metric_closure(raw)
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert closed[i, j] <= closed[i, k] + closed[k, j]


def test_generated_instances_validate_and_allow_return():
    for seed in (0, 1, 2):
        inst = generate_instance(15, seed=seed)
        inst.validate()
        for r in range(1, inst.n_locations):
            close = inst.tw[r][1]
            assert close + inst.service[r] + int(inst.travel[r, 0]) <= inst.horizon
