import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynroute.instance import RouteTiming, RouteViolation, evaluate_route, generate_instance
from dynroute.simulator import (
    Decision,
    DynamicConfig,
    InvalidDecisionError,
    OpenRequest,
    SystemState,
    classify_must_dispatch,
    decision_cost,
    initial_state,
    run_episode,
    sample_epoch,
    transition,
    validate_decision,
)

from helpers import square_instance, tight_instance


def cfg_for(inst, n_epochs=3, sample_size=10, seed=1, epoch_duration=None):
    duration = epoch_duration or inst.horizon // (n_epochs + 2)
    return DynamicConfig(
        n_epochs=n_epochs,
        sample_size=sample_size,
        instance_seed=seed,
        epoch_duration=duration,
        dispatch_offset=duration,
    )


def test_config_validation():
    inst = square_instance()
    with pytest.raises(ValueError, match="horizon"):
        DynamicConfig(n_epochs=5, sample_size=5, instance_seed=0, epoch_duration=300).validate(inst)
    with pytest.raises(ValueError, match="dispatch_offset"):
        DynamicConfig(
            n_epochs=2, sample_size=5, instance_seed=0, epoch_duration=100, dispatch_offset=-1
        ).validate(inst)


def test_sampling_empty_when_windows_closed():
    inst = square_instance()
    # epoch 4 starts at 720, offset 180 -> earliest dispatch 900; adding any
    # travel time (all 50) overshoots every window close (<= 900)
    cfg = DynamicConfig(
        n_epochs=5, sample_size=10, instance_seed=3, epoch_duration=180, dispatch_offset=180
    )
    kept = sample_epoch(inst, cfg, 4)
    assert kept == ()


def test_sampling_single_row_instance_reproduces_attributes():
    inst = generate_instance(1, seed=9)
    cfg = DynamicConfig(n_epochs=1, sample_size=1, instance_seed=5, epoch_duration=600,
                        dispatch_offset=0)
    kept = sample_epoch(inst, cfg, 0)
    assert len(kept) == 1
    req = kept[0]
    assert req.location == 1
    assert req.demand == inst.demand[1]
    assert req.service == inst.service[1]
    assert (req.tw_open, req.tw_close) == inst.tw[1]


def test_sampling_is_deterministic_per_seed_and_epoch():
    inst = generate_instance(20, seed=2)
    cfg = cfg_for(inst, seed=77)
    a = sample_epoch(inst, cfg, 1)
    b = sample_epoch(inst, cfg, 1)
    assert a == b
    other_epoch = sample_epoch(inst, cfg, 2)
    assert a != other_epoch


def test_sampling_respects_discard_rule():
    inst = generate_instance(20, seed=4)
    cfg = cfg_for(inst, n_epochs=4, seed=12)
    for epoch in range(4):
        t_e = cfg.epoch_start(epoch)
        for req in sample_epoch(inst, cfg, epoch):
            assert t_e + cfg.dispatch_offset + int(inst.travel[0, req.location]) <= req.tw_close


def test_expected_arrivals_weakly_decrease_over_epochs():
    inst = generate_instance(25, seed=6)
    cfg0 = cfg_for(inst, n_epochs=4, sample_size=20)
    counts = np.zeros(4)
    n_seeds = 1000
    for seed in range(n_seeds):
        cfg = dataclasses.replace(cfg0, instance_seed=seed)
        for epoch in range(4):
            counts[epoch] += len(sample_epoch(inst, cfg, epoch))
    means = counts / n_seeds
    for a, b in zip(means, means[1:]):
        assert b <= a + 0.05 * cfg0.sample_size


def test_final_epoch_flags_everything():
    inst = generate_instance(15, seed=8)
    cfg = cfg_for(inst, n_epochs=2)
    state = SystemState(epoch=1, open=sample_epoch(inst, cfg, 1))
    state = classify_must_dispatch(state, inst, cfg)
    assert all(r.must_dispatch for r in state.open)


def test_boundary_request_is_not_flagged():
    inst = square_instance()
    cfg = DynamicConfig(
        n_epochs=3, sample_size=5, instance_seed=0, epoch_duration=100, dispatch_offset=100
    )
    # next epoch dispatch at t=300; travel to location 1 is 50
    boundary = OpenRequest(
        id=1, location=1, demand=1, service=10, tw_open=0, tw_close=350, reveal_epoch=0
    )
    tight = OpenRequest(
        id=2, location=1, demand=1, service=10, tw_open=0, tw_close=349, reveal_epoch=0
    )
    state = SystemState(epoch=1, open=(boundary, tight))
    state = classify_must_dispatch(state, inst, cfg)
    flags = {r.id: r.must_dispatch for r in state.open}
    assert flags == {1: False, 2: True}


def test_flag_equals_single_route_feasibility_oracle():
    inst = generate_instance(18, seed=10)
    cfg = cfg_for(inst, n_epochs=4, sample_size=15)
    for epoch in range(3):
        state = SystemState(
            epoch=epoch, open=sample_epoch(inst, cfg, epoch)
        )
        state = classify_must_dispatch(state, inst, cfg)
        next_departure = cfg.epoch_start(epoch + 1) + cfg.dispatch_offset
        for req in state.open:
            out = evaluate_route(inst, [req.location], next_departure)
            # windows/services are resampled per request, so rebuild the
            # single-request timing with the request's own attributes
            arrive = next_departure + int(inst.travel[0, req.location])
            begin = max(arrive, req.tw_open)
            feasible = (
                begin <= req.tw_close
                and begin + req.service + int(inst.travel[req.location, 0]) <= inst.horizon
            )
            assert req.must_dispatch == (not feasible)


def test_validate_decision_trivial_cases():
    inst = generate_instance(10, seed=11)
    cfg = cfg_for(inst, n_epochs=2, sample_size=8)
    state = initial_state(inst, cfg)
    postponables = [r for r in state.open if not r.must_dispatch]
    must = [r for r in state.open if r.must_dispatch]

    if not must:
        assert validate_decision(state, inst, cfg, Decision(routes=())) == []
    else:
        violations = validate_decision(state, inst, cfg, Decision(routes=()))
        assert any(v.kind == "must_dispatch" for v in violations)

    unknown = Decision(routes=((999_999,),))
    violations = validate_decision(state, inst, cfg, unknown)
    assert any(v.kind == "unknown_request" for v in violations)

    if postponables:
        rid = postponables[0].id
        dup = Decision(routes=((rid,), (rid,)))
        violations = validate_decision(state, inst, cfg, dup)
        assert any(v.kind == "overlap" for v in violations)


def test_transition_moves_unserved_and_reveals_next():
    inst = generate_instance(14, seed=13)
    cfg = cfg_for(inst, n_epochs=3, sample_size=10)
    state = initial_state(inst, cfg)
    decision = Decision(routes=())
    if state.must_dispatch_ids:
        keep = [r for r in state.open if r.must_dispatch]
        decision = Decision(routes=tuple((r.id,) for r in keep))
    nxt = transition(state, decision, inst, cfg)
    carried = {r.id for r in state.open} - decision.dispatched_ids
    assert carried <= {r.id for r in nxt.open}
    arrivals = {r.id for r in nxt.open} - carried
    assert all(i >= 1_000_000 for i in arrivals)
    assert nxt.epoch == 1


def test_transition_dispatch_everything_then_empty_sample():
    inst = square_instance()
    cfg = DynamicConfig(
        n_epochs=2, sample_size=3, instance_seed=21, epoch_duration=450, dispatch_offset=450
    )
    state = initial_state(inst, cfg)
    full = Decision(routes=tuple((r.id,) for r in state.open))
    nxt = transition(state, full, inst, cfg)
    carried = {r.id for r in state.open} & {r.id for r in nxt.open}
    assert not carried


def test_replayed_trajectories_are_identical():
    inst = generate_instance(16, seed=14)
    cfg = cfg_for(inst, n_epochs=3, sample_size=12, seed=99)

    def lazy_policy(state):
        return Decision(routes=tuple((r.id,) for r in state.open if r.must_dispatch))

    def trajectory():
        states = []
        state = initial_state(inst, cfg)
        for epoch in range(cfg.n_epochs):
            states.append(tuple((r.id, r.must_dispatch) for r in state.open))
            decision = (
                lazy_policy(state)
                if epoch < cfg.n_epochs - 1
                else Decision(routes=tuple((r.id,) for r in state.open))
            )
            if epoch < cfg.n_epochs - 1:
                state = transition(state, decision, inst, cfg)
        return states

    assert trajectory() == trajectory()


def greedy_singletons(state):
    return Decision(routes=tuple((r.id,) for r in state.open))


def test_run_episode_single_epoch_everything_must_dispatch():
    inst = generate_instance(12, seed=15)
    cfg = cfg_for(inst, n_epochs=1, sample_size=10)
    result = run_episode(inst, cfg, greedy_singletons)
    assert len(result.per_epoch) == 1
    rec = result.per_epoch[0]
    assert set(rec.dispatched_ids) == set(rec.sampled_ids)


def test_run_episode_cost_matches_recomputation_and_conserves():
    inst = generate_instance(16, seed=16)
    cfg = cfg_for(inst, n_epochs=3, sample_size=10, seed=5)
    result = run_episode(inst, cfg, greedy_singletons)
    total = 0
    for rec in result.per_epoch:
        for route in rec.routes:
            # singleton routes: depot round trips via the request's location
            assert len(route) == 1
        total += rec.cost
    assert total == result.total_cost
    sampled = [i for rec in result.per_epoch for i in rec.sampled_ids]
    dispatched = [i for rec in result.per_epoch for i in rec.dispatched_ids]
    assert sorted(sampled) == sorted(dispatched)


def test_policies_see_identical_streams_regardless_of_dispatching():
    inst = generate_instance(16, seed=17)
    cfg = cfg_for(inst, n_epochs=3, sample_size=10, seed=6)

    seen_greedy: list[tuple] = []
    seen_lazy: list[tuple] = []

    def greedy(state):
        seen_greedy.append(tuple(sorted(r.id for r in state.open if r.reveal_epoch == state.epoch)))
        return Decision(routes=tuple((r.id,) for r in state.open))

    def lazy(state):
        seen_lazy.append(tuple(sorted(r.id for r in state.open if r.reveal_epoch == state.epoch)))
        keep = state.open if state.epoch == cfg.n_epochs - 1 else [
            r for r in state.open if r.must_dispatch
        ]
        return Decision(routes=tuple((r.id,) for r in keep))

    run_episode(inst, cfg, greedy)
    run_episode(inst, cfg, lazy)
    assert seen_greedy == seen_lazy


def test_run_episode_aborts_on_invalid_decision():
    inst = generate_instance(12, seed=18)
    cfg = cfg_for(inst, n_epochs=2, sample_size=10, seed=7)

    def refuses(state):
        return Decision(routes=())

    with pytest.raises(InvalidDecisionError) as err:
        run_episode(inst, cfg, refuses)
    assert err.value.violations


def test_must_dispatch_flags_monotone_if_ignored():
    # a flagged request left undispatched has no feasible single-route service
    # at the next epoch's departure
    inst = generate_instance(18, seed=19)
    cfg = cfg_for(inst, n_epochs=3, sample_size=14, seed=8)
    state = initial_state(inst, cfg)
    for epoch in range(cfg.n_epochs - 1):
        flagged = [r for r in state.open if r.must_dispatch]
        next_dep = cfg.epoch_start(epoch + 1) + cfg.dispatch_offset
        for req in flagged:
            arrive = next_dep + int(inst.travel[0, req.location])
            assert max(arrive, req.tw_open) > req.tw_close
        state = transition(state, Decision(routes=()), inst, cfg) if not flagged else transition(
            state, Decision(routes=tuple((r.id,) for r in flagged)), inst, cfg
        )


def test_decision_cost_uses_locations():
    inst = square_instance()
    req = OpenRequest(id=7, location=2, demand=1, service=10, tw_open=0, tw_close=900,
                      reveal_epoch=0)
    state = SystemState(epoch=0, open=(req,))
    d = Decision(routes=((7,),))
    assert decision_cost(inst, state, d) == int(inst.travel[0, 2]) + int(inst.travel[2, 0])


TIGHT = tight_instance(78)


@settings(max_examples=200, deadline=None)
@given(st.permutations(range(1, 11)), st.integers(1, 10), st.integers(0, 2), st.integers(0, 5_000))
def test_validate_decision_matches_evaluate_route_on_static_rows(perm, k, epoch, offset):
    inst = TIGHT
    route = perm[:k]
    cfg = DynamicConfig(n_epochs=3, sample_size=1, instance_seed=0, dispatch_offset=offset)
    open_ = tuple(
        OpenRequest(id=1000 + r, location=r, demand=inst.demand[r], service=inst.service[r],
                    tw_open=inst.tw[r][0], tw_close=inst.tw[r][1], reveal_epoch=0)
        for r in range(1, 11)
    )
    state = SystemState(epoch=epoch, open=open_)
    decision = Decision(routes=(tuple(1000 + r for r in route),))
    kinds = [v.kind for v in validate_decision(state, inst, cfg, decision)]
    report = evaluate_route(inst, route, cfg.epoch_start(epoch) + offset)
    assert kinds == ([report.kind] if isinstance(report, RouteViolation) else [])


def test_validate_decision_accepts_requests_sharing_a_location():
    inst = square_instance()
    cfg = DynamicConfig(n_epochs=1, sample_size=1, instance_seed=0, dispatch_offset=0)
    reqs = tuple(
        OpenRequest(id=i, location=1, demand=2, service=10, tw_open=0, tw_close=900,
                    reveal_epoch=0, must_dispatch=True)
        for i in (3, 4)
    )
    state = SystemState(epoch=0, open=reqs)
    decision = Decision(routes=((3, 4),))
    assert validate_decision(state, inst, cfg, decision) == []
    assert decision_cost(inst, state, decision) == int(inst.travel[0, 1]) + int(inst.travel[1, 0])


def _two_open_requests():
    inst = square_instance()
    cfg = DynamicConfig(n_epochs=1, sample_size=1, instance_seed=0, dispatch_offset=0)
    reqs = tuple(
        OpenRequest(id=i, location=loc, demand=1, service=10, tw_open=0, tw_close=900,
                    reveal_epoch=0, must_dispatch=True)
        for i, loc in ((3, 1), (4, 2))
    )
    return inst, cfg, SystemState(epoch=0, open=reqs)


def test_validate_decision_reports_a_repeat_within_one_route():
    inst, cfg, state = _two_open_requests()
    violations = validate_decision(state, inst, cfg, Decision(routes=((3, 4, 3),)))
    overlaps = [v for v in violations if v.kind == "overlap"]
    assert len(overlaps) == 1 and "[3]" in overlaps[0].detail
    assert validate_decision(state, inst, cfg, Decision(routes=((3, 4),))) == []


def test_run_episode_raises_invalid_decision_on_a_repeated_visit():
    inst = generate_instance(12, seed=18)
    cfg = cfg_for(inst, n_epochs=2, sample_size=10, seed=7)

    def repeats_first(state):
        ids = [r.id for r in state.open]
        if not ids:
            return Decision(routes=())
        return Decision(routes=((ids[0], ids[0]),) + tuple((i,) for i in ids[1:]))

    with pytest.raises(InvalidDecisionError) as err:
        run_episode(inst, cfg, repeats_first)
    assert [v.kind for v in err.value.violations] == ["overlap"]
