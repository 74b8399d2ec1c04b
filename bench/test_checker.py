"""The independent checker accepts a feasible plan and rejects each kind of
violation. Run with ``python3 -m pytest bench``."""

import pytest

from checker import Epochs, Instance, Request, check_cover, check_decision, check_routes, walk

# Depot 0 and two locations; every arc between distinct places costs 10.
INST = Instance(
    travel=((0, 10, 10), (10, 0, 10), (10, 10, 0)),
    capacity=5,
    horizon=200,
)
EPOCHS = Epochs(n_epochs=3, duration=50, offset=10)
A = Request(id=1, location=1, demand=2, service=5, tw_open=0, tw_close=100, release=10)
B = Request(id=2, location=2, demand=2, service=5, tw_open=30, tw_close=100, release=60)
REQS = {1: A, 2: B}


def kinds(violations):
    return sorted({kind for kind, _ in violations})


def test_feasible_plan_passes_with_arc_sum():
    # Leaves at 60 (B's release): A at 70, B at 85, back at 100.
    cost, violations = check_routes(INST, REQS, [(1, 2)])
    assert violations == []
    assert cost == 30
    assert check_cover([(1, 2)], REQS) == []
    assert walk(INST, REQS, (2,), 60) == (20, [])


@pytest.mark.parametrize(
    "reqs, route, departure, kind",
    [
        ({1: Request(1, 1, 2, 5, 0, 15, 0)}, (1,), 10, "time_window"),
        ({1: Request(1, 1, 6, 5, 0, 100, 0)}, (1,), 10, "capacity"),
        ({1: Request(1, 1, 2, 5, 0, 190, 0)}, (1,), 180, "horizon"),
        (REQS, (1, 2), 10, "release"),
        (REQS, (1, 3), 60, "unknown"),
    ],
)
def test_walk_rejects_each_violation(reqs, route, departure, kind):
    _, violations = walk(INST, reqs, route, departure)
    assert kinds(violations) == [kind]


def test_duplicate_and_empty_routes_rejected():
    _, violations = check_routes(INST, REQS, [(1,), (1, 2)])
    assert kinds(violations) == ["duplicate"]
    _, violations = check_routes(INST, REQS, [(1, 1)])
    assert kinds(violations) == ["duplicate"]
    _, violations = check_routes(INST, REQS, [()])
    assert kinds(violations) == ["empty"]


def test_cover_rejects_missing_extra_and_twice():
    assert kinds(check_cover([(1,)], REQS)) == ["missing"]
    assert kinds(check_cover([(1, 2, 3)], REQS)) == ["unknown"]
    assert kinds(check_cover([(1, 2), (2,)], REQS)) == ["duplicate"]


def test_decision_must_dispatch_recomputed_from_instance():
    # At epoch 0 the next dispatch is at 60; a request closing at 65 at
    # travel 10 cannot wait, one closing at 150 can.
    urgent = Request(id=3, location=1, demand=1, service=0, tw_open=0, tw_close=65, release=10)
    relaxed = Request(id=4, location=2, demand=1, service=0, tw_open=0, tw_close=150, release=10)
    cost, violations = check_decision(INST, [urgent, relaxed], [(3,)], 0, EPOCHS)
    assert violations == [] and cost == 20
    _, violations = check_decision(INST, [urgent, relaxed], [(4,)], 0, EPOCHS)
    assert kinds(violations) == ["must_dispatch"]
    # In the last epoch everything must go.
    _, violations = check_decision(INST, [urgent, relaxed], [(4,)], 2, EPOCHS)
    assert kinds(violations) == ["must_dispatch"]


def test_decision_departs_at_epoch_dispatch_time():
    # B is released at 60: dispatching it in epoch 0 (at 10) is too early.
    _, violations = check_decision(INST, [A, B], [(1, 2)], 0, EPOCHS)
    assert kinds(violations) == ["release"]
    cost, violations = check_decision(INST, [A, B], [(1, 2)], 1, EPOCHS)
    assert violations == [] and cost == 30
