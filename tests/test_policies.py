import dataclasses

import numpy as np
import pytest

import dynroute.policies as policies
from dynroute.instance import generate_instance
from dynroute.learning import FeatureConfig, feature_dim, init_model, save_model
from dynroute.policies import (
    Policy,
    PolicySpec,
    decide_greedy,
    decide_lazy,
    decide_ml_co,
    decide_monte_carlo,
    decide_random,
    decide_rolling_horizon,
    spec_from_dict,
)
from dynroute.simulator import (
    Decision,
    DynamicConfig,
    SystemState,
    classify_must_dispatch,
    initial_state,
    run_episode,
    sample_epoch,
    transition,
    validate_decision,
)


def cfg_for(inst, n_epochs=3, sample_size=8, seed=1):
    duration = inst.horizon // (n_epochs + 2)
    return DynamicConfig(
        n_epochs=n_epochs,
        sample_size=sample_size,
        instance_seed=seed,
        epoch_duration=duration,
        dispatch_offset=duration,
    )


def spec(kind, **kw):
    kw.setdefault("budget_iters", 80)
    kw.setdefault("stall_iters", 40)
    kw.setdefault("seed", 3)
    return PolicySpec(kind=kind, **kw)


def empty_state(cfg):
    return SystemState(epoch=0, t_e=0, open=())



def final_epoch_state(inst, cfg, state):
    """Re-stamp requests into the last epoch, keeping only those a final
    dispatch can still reach (states the simulator could actually produce)."""
    last = cfg.n_epochs - 1
    dep = cfg.epoch_start(last) + cfg.dispatch_offset
    keep = tuple(
        r for r in state.open if dep + int(inst.travel[0, r.location]) <= r.tw_close
    )
    final = SystemState(epoch=last, t_e=cfg.epoch_start(last), open=keep)
    return classify_must_dispatch(final, inst, cfg)


def test_greedy_empty_and_single():
    inst = generate_instance(10, seed=40)
    cfg = cfg_for(inst)
    assert decide_greedy(empty_state(cfg), inst, cfg, spec("greedy")).routes == ()
    state = initial_state(inst, cfg)
    one = SystemState(epoch=0, t_e=0, open=state.open[:1])
    decision = decide_greedy(one, inst, cfg, spec("greedy"))
    assert decision.routes == ((one.open[0].id,),)


def test_greedy_dispatches_everything_each_epoch():
    inst = generate_instance(14, seed=41)
    cfg = cfg_for(inst, seed=9)
    policy = Policy(spec("greedy"), inst, cfg)
    result = run_episode(inst, cfg, policy)
    state_sizes = []
    state = initial_state(inst, cfg)
    for rec in result.per_epoch:
        assert set(rec.dispatched_ids) == {r.id for r in state.open}
        if rec.epoch < cfg.n_epochs - 1:
            state = transition(state, Decision(routes=rec.routes), inst, cfg)
    assert result.total_cost > 0


def test_lazy_dispatches_only_flagged():
    inst = generate_instance(14, seed=42)
    cfg = cfg_for(inst, seed=10)
    state = initial_state(inst, cfg)
    decision = decide_lazy(state, inst, cfg, spec("lazy"))
    assert decision.dispatched_ids == state.must_dispatch_ids
    final = final_epoch_state(inst, cfg, state)
    assert final.open
    lazy_final = decide_lazy(final, inst, cfg, spec("lazy"))
    assert lazy_final.dispatched_ids == {r.id for r in final.open}


def test_random_is_seeded_and_covers_must_dispatch():
    inst = generate_instance(14, seed=43)
    cfg = cfg_for(inst, seed=11)
    state = initial_state(inst, cfg)
    a = decide_random(state, inst, cfg, spec("random", seed=5))
    b = decide_random(state, inst, cfg, spec("random", seed=5))
    assert a.dispatched_ids == b.dispatched_ids
    assert state.must_dispatch_ids <= a.dispatched_ids


def test_random_inclusion_frequency_is_half(monkeypatch):
    inst = generate_instance(14, seed=44)
    cfg = cfg_for(inst, seed=12)
    state = initial_state(inst, cfg)
    postponable = [r.id for r in state.open if not r.must_dispatch]
    assert postponable

    def stub(requests, inst_, departure, params):
        return Decision(routes=tuple((r.id,) for r in requests))

    monkeypatch.setattr(policies, "_mandatory_decision", stub)
    counts = {i: 0 for i in postponable}
    n = 4000
    for k in range(n):
        d = decide_random(state, inst, cfg, spec("random", seed=k))
        for i in postponable:
            counts[i] += i in d.dispatched_ids
    sigma = (n * 0.25) ** 0.5
    for i in postponable:
        assert abs(counts[i] - n / 2) <= 3 * sigma


def test_random_all_must_dispatch_equals_greedy():
    inst = generate_instance(12, seed=45)
    cfg = cfg_for(inst, n_epochs=2, seed=13)
    state = initial_state(inst, cfg)
    final = final_epoch_state(inst, cfg, state)
    assert final.open
    r = decide_random(final, inst, cfg, spec("random"))
    g = decide_greedy(final, inst, cfg, spec("greedy"))
    assert r.dispatched_ids == g.dispatched_ids


def test_rolling_horizon_dispatch_rule_and_audit():
    inst = generate_instance(16, seed=46)
    cfg = cfg_for(inst, n_epochs=3, sample_size=10, seed=14)
    state = initial_state(inst, cfg)
    ids, routes = policies._scenario_dispatch_ids(
        state, inst, cfg, spec("rolling_horizon"), scenario_idx=0, share=0.8
    )
    must = state.must_dispatch_ids
    assert must <= ids
    current = {r.id for r in state.open}
    for i in ids - must:
        sharing = [rt for rt in routes if i in rt]
        assert len(sharing) == 1
        assert set(sharing[0]) & must
    # every dispatched id is a current request
    assert ids <= current


def test_rolling_horizon_no_must_dispatch_means_empty():
    inst = generate_instance(16, seed=47)
    cfg = cfg_for(inst, n_epochs=3, sample_size=8, seed=15)
    state = initial_state(inst, cfg)
    no_must = SystemState(
        epoch=state.epoch,
        t_e=state.t_e,
        open=tuple(dataclasses.replace(r, must_dispatch=False) for r in state.open),
    )
    decision = decide_rolling_horizon(no_must, inst, cfg, spec("rolling_horizon"))
    assert decision.routes == ()


def test_monte_carlo_majority_threshold(monkeypatch):
    inst = generate_instance(12, seed=48)
    cfg = cfg_for(inst, seed=16)
    state = initial_state(inst, cfg)
    postponable = [r.id for r in state.open if not r.must_dispatch]
    assert len(postponable) >= 2
    five_of_nine, four_of_nine = postponable[0], postponable[1]
    must = state.must_dispatch_ids
    calls = {"k": -1}

    def scripted(state_, inst_, cfg_, spec_, scenario_idx, share):
        sel = set(must)
        if scenario_idx < 5:
            sel.add(five_of_nine)
        if scenario_idx < 4:
            sel.add(four_of_nine)
        return frozenset(sel), ()

    monkeypatch.setattr(policies, "_scenario_dispatch_ids", scripted)
    decision = decide_monte_carlo(state, inst, cfg, spec("monte_carlo", n_scenarios=9))
    assert five_of_nine in decision.dispatched_ids
    assert four_of_nine not in decision.dispatched_ids
    assert must <= decision.dispatched_ids


def test_monte_carlo_single_scenario_equals_rolling_horizon_ids():
    inst = generate_instance(14, seed=49)
    cfg = cfg_for(inst, seed=17)
    state = initial_state(inst, cfg)
    s = spec("monte_carlo", n_scenarios=1)
    mc = decide_monte_carlo(state, inst, cfg, s)
    ids, _ = policies._scenario_dispatch_ids(state, inst, cfg, s, scenario_idx=0, share=0.8)
    assert mc.dispatched_ids == ids
    # Whole decisions agree in every epoch of rolling-horizon episodes.
    compared = 0
    for inst_seed, scen_seed in ((49, 17), (51, 5)):
        inst = generate_instance(14, seed=inst_seed)
        cfg = cfg_for(inst, n_epochs=4, seed=scen_seed)
        rh = spec("rolling_horizon")
        mc1 = dataclasses.replace(rh, kind="monte_carlo", n_scenarios=1)

        def both(state):
            nonlocal compared
            decision = decide_rolling_horizon(state, inst, cfg, rh)
            assert decide_monte_carlo(state, inst, cfg, mc1) == decision
            compared += bool(state.open)
            return decision

        run_episode(inst, cfg, both)
    assert compared >= 6


def make_model(tmp_path, inst, bias=0.0):
    fcfg = FeatureConfig(
        set_kind="model_free",
        mean=(0.0,) * feature_dim("model_free"),
        scale=(1.0,) * feature_dim("model_free"),
    )
    model = init_model("linear", fcfg, seed=1, output_scale=float(inst.travel.max()))
    model.weights[0][:] = 0.0
    model.biases[0][:] = bias
    path = tmp_path / "model.json"
    save_model(model, str(path))
    return str(path), model


def test_ml_co_negative_prizes_and_no_must_dispatch(tmp_path):
    inst = generate_instance(12, seed=50)
    cfg = cfg_for(inst, seed=18)
    state = initial_state(inst, cfg)
    no_must = SystemState(
        epoch=state.epoch,
        t_e=state.t_e,
        open=tuple(dataclasses.replace(r, must_dispatch=False) for r in state.open),
    )
    path, model = make_model(tmp_path, inst, bias=-1000.0)
    decision = decide_ml_co(no_must, inst, cfg, spec("ml_co", model_path=path), model)
    assert decision.routes == ()


def test_ml_co_always_covers_must_dispatch(tmp_path):
    inst = generate_instance(14, seed=51)
    cfg = cfg_for(inst, n_epochs=2, seed=19)
    state = initial_state(inst, cfg)
    final = final_epoch_state(inst, cfg, state)
    assert final.open
    path, model = make_model(tmp_path, inst, bias=-1000.0)
    decision = decide_ml_co(final, inst, cfg, spec("ml_co", model_path=path), model)
    assert decision.dispatched_ids == {r.id for r in final.open}


def test_every_policy_validates_on_an_episode(tmp_path):
    inst = generate_instance(14, seed=52)
    cfg = cfg_for(inst, n_epochs=3, sample_size=8, seed=20)
    path, _ = make_model(tmp_path, inst, bias=0.5)
    for kind in policies.POLICY_KINDS:
        kw = {"model_path": path} if kind == "ml_co" else {}
        if kind == "monte_carlo":
            kw["n_scenarios"] = 3
        policy = Policy(spec(kind, **kw), inst, cfg)

        def checked(state, policy=policy):
            decision = policy(state)
            assert validate_decision(state, inst, cfg, decision) == []
            return decision

        run_episode(inst, cfg, checked)


def test_policy_episode_determinism(tmp_path):
    inst = generate_instance(14, seed=53)
    cfg = cfg_for(inst, n_epochs=3, sample_size=8, seed=21)
    s = spec("rolling_horizon", seed=77)
    r1 = run_episode(inst, cfg, Policy(s, inst, cfg))
    r2 = run_episode(inst, cfg, Policy(s, inst, cfg))
    assert r1.total_cost == r2.total_cost
    assert [rec.routes for rec in r1.per_epoch] == [rec.routes for rec in r2.per_epoch]


def test_spec_from_dict_validation():
    with pytest.raises(ValueError, match="unknown policy config keys"):
        spec_from_dict({"kind": "greedy", "bogus": 1})
    with pytest.raises(ValueError, match=r"unknown policy config keys: \['threshold'\]"):
        spec_from_dict({"kind": "monte_carlo", "n_scenarios": 5, "threshold": 0.6})
    with pytest.raises(ValueError, match="model_path"):
        spec_from_dict({"kind": "ml_co"})
    with pytest.raises(ValueError, match="unknown policy kind"):
        spec_from_dict({"kind": "alien"})
    s = spec_from_dict({"kind": "monte_carlo", "n_scenarios": 5})
    assert s.n_scenarios == 5


def test_a_spec_with_neither_budget_is_rejected():
    with pytest.raises(ValueError, match="one of budget_iters / budget_s must be set"):
        spec_from_dict({"kind": "greedy", "budget_iters": None})
    with pytest.raises(ValueError, match="one of budget_iters / budget_s must be set"):
        PolicySpec(kind="monte_carlo", budget_iters=None, budget_s=None)


@pytest.mark.parametrize("key", ["budget_iters", "budget_s", "stall_iters"])
def test_a_spec_with_a_negative_budget_is_rejected(key):
    with pytest.raises(ValueError, match=f"{key} must be >= 0"):
        PolicySpec(kind="greedy", **{key: -1})


def test_monte_carlo_splits_a_wall_clock_budget_across_its_scenarios(monkeypatch):
    """Each scenario solve gets 0.8 / n_scenarios of the spec's seconds and no
    iteration limit. Nothing is timed."""
    inst = generate_instance(14, seed=52)
    cfg = cfg_for(inst, n_epochs=3, sample_size=8, seed=20)
    state = initial_state(inst, cfg)
    budgets = []

    def no_routes(requests, inst, params):
        budgets.append(params)
        return (), 0

    monkeypatch.setattr(policies, "solve_offline_with_release", no_routes)
    s = spec("monte_carlo", budget_iters=None, budget_s=0.03, n_scenarios=3)
    decision = decide_monte_carlo(state, inst, cfg, s)
    assert validate_decision(state, inst, cfg, decision) == []
    assert len(budgets) == 3
    for params in budgets:
        assert params.budget_iters is None
        assert params.budget_s == pytest.approx(0.03 * 0.8 / 3)
