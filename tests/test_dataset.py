import dataclasses
import json

import pytest

from dynroute import dataset
from dynroute.dataset import (
    ReleasedRequest,
    anticipative_baseline_cost,
    build_dataset,
    build_scenario_samples,
    load_dataset,
    reconstruct_epoch_decisions,
    replay_states,
    sample_scenario,
    solve_offline_with_release,
)
from dynroute.encode import build_pc_instance
from dynroute.instance import generate_instance, load_instance
from dynroute.pchgs import ExactSolver, HgsParams, solve
from dynroute.simulator import (
    Decision,
    DynamicConfig,
    InvalidDecisionError,
    OpenRequest,
    initial_state,
    run_episode,
    sample_epoch,
    validate_decision,
)

from helpers import square_instance


def params(seed=0, iters=150):
    return HgsParams(budget_iters=iters, stall_iters=80, seed=seed)


def cfg_for(inst, n_epochs=3, sample_size=8, seed=1):
    duration = inst.horizon // (n_epochs + 2)
    return DynamicConfig(
        n_epochs=n_epochs,
        sample_size=sample_size,
        instance_seed=seed,
        epoch_duration=duration,
        dispatch_offset=duration,
    )


def test_offline_all_same_release_reduces_to_static_solve():
    inst = generate_instance(10, seed=30)
    cfg = cfg_for(inst, n_epochs=1, sample_size=8, seed=40)
    scenario = sample_scenario(inst, cfg)
    assert all(rr.release == cfg.dispatch_offset for rr in scenario)
    routes, cost = solve_offline_with_release(scenario, inst, params(seed=3))

    reqs = [rr.request for rr in scenario]
    pc = build_pc_instance(
        reqs, inst, departure=cfg.dispatch_offset, forced_in_ids=[r.id for r in reqs]
    )
    static_sol = solve(pc, params(seed=3))
    assert cost == int(round(-static_sol.objective))


def test_offline_splits_requests_with_incompatible_epochs():
    inst = square_instance()
    # epoch grid: duration 200, offset 200
    cfg = DynamicConfig(
        n_epochs=3, sample_size=2, instance_seed=0, epoch_duration=200, dispatch_offset=200
    )
    early = OpenRequest(id=1, location=1, demand=1, service=10, tw_open=0, tw_close=300,
                        reveal_epoch=0)
    late = OpenRequest(id=2, location=2, demand=1, service=10, tw_open=640, tw_close=700,
                       reveal_epoch=2)
    scenario = (
        ReleasedRequest(request=early, release=200),
        ReleasedRequest(request=late, release=600),
    )
    routes, cost = solve_offline_with_release(scenario, inst, params(seed=4))
    assert len(routes) == 2

    pc = build_pc_instance(
        [early, late], inst, departure=200, forced_in_ids=[1, 2],
        release_by_id={1: 200, 2: 600},
    )
    exact = ExactSolver(pc).solve()
    assert cost == int(round(-exact.objective))
    assert len(exact.routes) == 2


def test_reconstruct_epoch_assignment_rules():
    cfg = DynamicConfig(
        n_epochs=3, sample_size=2, instance_seed=0, epoch_duration=200, dispatch_offset=200
    )
    release_by_id = {1: 200, 2: 200, 3: 600}
    decisions = reconstruct_epoch_decisions([[1, 2], [3]], release_by_id, cfg)
    assert decisions[0].dispatched_ids == {1, 2}
    assert decisions[2].dispatched_ids == {3}
    assert decisions[1].dispatched_ids == frozenset()

    mixed = reconstruct_epoch_decisions([[1, 3]], release_by_id, cfg)
    assert mixed[2].dispatched_ids == {1, 3}

    with pytest.raises(ValueError, match="epoch grid"):
        reconstruct_epoch_decisions([[1]], {1: 250}, cfg)


def test_scenario_samples_replay_cleanly():
    inst = generate_instance(14, seed=31)
    cfg = cfg_for(inst, n_epochs=3, sample_size=6, seed=50)
    samples, total_cost = build_scenario_samples(inst, cfg, params(seed=5))
    assert len(samples) == cfg.n_epochs

    scenario = sample_scenario(inst, cfg)
    decisions = {s.epoch: Decision(routes=s.target_routes) for s in samples}
    states = replay_states(decisions, inst, cfg)
    for epoch, state in enumerate(states):
        violations = validate_decision(state, inst, cfg, decisions[epoch])
        assert violations == []

    # conservation: every scenario request dispatched exactly once
    dispatched = [i for s in samples for rt in s.target_routes for i in rt]
    assert sorted(dispatched) == sorted(rr.request.id for rr in scenario)

    # cost audit: per-epoch target costs sum to the scenario's offline cost
    assert sum(-s.target_h for s in samples) == total_cost


def test_hindsight_targets_are_validated_as_a_policys_decisions(monkeypatch):
    """A hindsight plan that puts an epoch-0 must-dispatch request on a route
    with a request released later leaves it uncovered in epoch 0; building
    the samples rejects the plan instead of writing it as a target."""
    inst = generate_instance(14, seed=31)
    cfg = cfg_for(inst, n_epochs=3, sample_size=6, seed=50)
    urgent = min(initial_state(inst, cfg).must_dispatch_ids)
    later = sample_epoch(inst, cfg, 1)[0].id
    rest = [rr.request.id for rr in sample_scenario(inst, cfg)
            if rr.request.id not in (urgent, later)]

    def carry_urgent_request(requests, inst, params):
        return ((urgent, later),) + tuple((i,) for i in rest), 0

    monkeypatch.setattr(dataset, "solve_offline_with_release", carry_urgent_request)
    with pytest.raises(InvalidDecisionError) as err:
        build_scenario_samples(inst, cfg, params())
    assert err.value.epoch == 0
    assert "must_dispatch" in [v.kind for v in err.value.violations]


def test_samples_cover_must_dispatch_and_respect_releases():
    inst = generate_instance(14, seed=32)
    cfg = cfg_for(inst, n_epochs=3, sample_size=6, seed=51)
    samples, _ = build_scenario_samples(inst, cfg, params(seed=6))
    for s in samples:
        served_ids = {r.id for r, flag in zip(s.state.open, s.target_served) if flag}
        assert s.state.must_dispatch_ids <= served_ids
        for rt in s.target_routes:
            for i in rt:
                req = s.state.by_id()[i]
                assert req.reveal_epoch <= s.epoch
        # indicator vector matches the routed ids
        routed = {i for rt in s.target_routes for i in rt}
        assert served_ids == routed


def test_build_dataset_counts_and_round_trip(tmp_path):
    inst = generate_instance(12, seed=33)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    inst = load_instance(str(path))
    cfg = cfg_for(inst, n_epochs=3, sample_size=5, seed=0)
    out = tmp_path / "data.jsonl"
    count = build_dataset([inst], cfg, n_scenarios=2, params=params(), seed=60, out_path=str(out))
    assert count == 2 * cfg.n_epochs
    samples = load_dataset(str(out), cfg)
    assert len(samples) == count
    for s in samples:
        assert -s.target_h == sum(
            _route_cost(inst, s.state, rt) for rt in s.target_routes
        )


def test_library_calls_reject_epochs_past_the_horizon(tmp_path):
    inst = load_instance("tests/fixtures/bench_a.json")
    cfg = DynamicConfig(n_epochs=9, sample_size=5, instance_seed=0)
    assert cfg.n_epochs * cfg.epoch_duration > inst.horizon  # 9 x 3,600 s > 28,800 s
    out = tmp_path / "data.jsonl"
    with pytest.raises(ValueError, match="exceeds horizon 28800"):
        build_dataset([inst], cfg, n_scenarios=1, params=params(), seed=0, out_path=str(out))
    assert not out.exists()
    for call in (build_scenario_samples, anticipative_baseline_cost):
        with pytest.raises(ValueError, match="exceeds horizon 28800"):
            call(inst, cfg, params())


@pytest.mark.parametrize("duration", [0, -3600])
def test_library_calls_reject_a_non_positive_epoch_duration(tmp_path, duration):
    inst = load_instance("tests/fixtures/bench_a.json")
    cfg = DynamicConfig(n_epochs=5, sample_size=8, instance_seed=1000, epoch_duration=duration)
    out = tmp_path / "data.jsonl"
    with pytest.raises(ValueError, match="epoch_duration must be >= 1"):
        build_dataset([inst], cfg, n_scenarios=1, params=params(), seed=1000, out_path=str(out))
    assert not out.exists()
    decisions = []
    with pytest.raises(ValueError, match="epoch_duration must be >= 1"):
        run_episode(inst, cfg, decisions.append)
    assert decisions == []


def _route_cost(inst, state, route):
    by_id = state.by_id()
    prev = 0
    total = 0
    for i in route:
        total += int(inst.travel[prev, by_id[i].location])
        prev = by_id[i].location
    return total + int(inst.travel[prev, 0])


def test_baseline_cost_deterministic():
    inst = generate_instance(12, seed=34)
    cfg = cfg_for(inst, n_epochs=3, sample_size=6, seed=70)
    a = anticipative_baseline_cost(inst, cfg, params(seed=7))
    b = anticipative_baseline_cost(inst, cfg, params(seed=7))
    assert a == b


def test_baseline_usually_beats_greedy():
    from dynroute.policies import Policy, PolicySpec
    from dynroute.simulator import run_episode

    inst = generate_instance(12, seed=35)
    wins = 0
    n = 20
    for k in range(n):
        cfg = cfg_for(inst, n_epochs=3, sample_size=6, seed=200 + k)
        base = anticipative_baseline_cost(inst, cfg, params(seed=k, iters=120))
        spec = PolicySpec(kind="greedy", seed=k, budget_iters=80, stall_iters=40)
        greedy_cost = run_episode(inst, cfg, Policy(spec, inst, cfg)).total_cost
        wins += base <= greedy_cost
    assert wins >= int(0.9 * n)
