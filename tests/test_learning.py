import dataclasses

import numpy as np
import pytest

from dynroute.dataset import TrainingSample
from dynroute.encode import pc_for_state
from dynroute.instance import generate_instance
from dynroute.learning import (
    FeatureConfig,
    PerturbationConfig,
    activity,
    backprop,
    extract_features,
    extract_features_raw,
    feature_dim,
    fit_standardization,
    forcing_prizes,
    init_model,
    inner_for_sample,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    perturbed_loss_and_grad,
    predict_prizes,
    quantile_lower,
    regret_loss,
    save_model,
    target_vector,
)
from dynroute.learning.loss import ExactInner
from dynroute.pchgs import ExactSolver
from dynroute.simulator import DynamicConfig, SystemState, classify_must_dispatch, sample_epoch


# ------------------------------------------------------------- fixtures


def small_world(seed=1, n_rows=10, span=120):
    """Static instance with small travel costs so unit-scale prizes matter."""
    inst = generate_instance(n_rows, seed=seed, coord_span=span, horizon=28_800)
    cfg = DynamicConfig(
        n_epochs=3, sample_size=6, instance_seed=seed, epoch_duration=3600, dispatch_offset=3600
    )
    return inst, cfg


def state_with(inst, cfg, epoch=0, limit=5):
    reqs = sample_epoch(inst, cfg, epoch)[:limit]
    state = SystemState(epoch=epoch, t_e=cfg.epoch_start(epoch), open=reqs)
    return classify_must_dispatch(state, inst, cfg)


def sample_with_target(inst, cfg, state, target_ids) -> TrainingSample:
    """Imitation sample whose target is the optimal routing of target_ids."""
    target_ids = set(target_ids) | set(state.must_dispatch_ids)
    pc = pc_for_state(state, inst, cfg, force_must_dispatch=False)
    forced_in = frozenset(k for k, r in enumerate(state.open) if r.id in target_ids)
    forced_out = frozenset(range(len(state.open))) - forced_in
    pc = dataclasses.replace(pc, forced_in=forced_in, forced_out=forced_out)
    sol = ExactSolver(pc).solve()
    routes = tuple(tuple(pc.ids[r] for r in route) for route in sol.routes)
    return TrainingSample(
        instance=inst.name,
        scenario_seed=cfg.instance_seed,
        epoch=state.epoch,
        state=state,
        target_routes=routes,
        target_served=tuple(1 if r.id in target_ids else 0 for r in state.open),
        target_h=float(sol.objective),
    )


def default_fcfg(set_kind="model_free", dim=None):
    dim = dim or feature_dim(set_kind)
    return FeatureConfig(set_kind=set_kind, mean=(0.0,) * dim, scale=(1.0,) * dim)


# ------------------------------------------------------------- features


def test_must_dispatch_indicator_formula():
    inst, cfg = small_world(seed=2)
    state = state_with(inst, cfg, epoch=0)
    raw = extract_features_raw(state, inst, cfg, "model_free")
    for row, req in zip(raw, state.open):
        t_dr = int(inst.travel[0, req.location])
        expected = 1.0 if state.t_e + cfg.dispatch_offset + t_dr > req.tw_close else 0.0
        assert row[10] == expected


def test_single_location_instance_quantiles_collapse():
    inst = generate_instance(1, seed=3)
    cfg = DynamicConfig(n_epochs=1, sample_size=3, instance_seed=1, epoch_duration=600,
                        dispatch_offset=0)
    state = state_with(inst, cfg, epoch=0, limit=3)
    assert len(state.open) >= 1
    raw = extract_features_raw(state, inst, cfg, "model_aware")
    t10 = float(inst.travel[1, 0])
    for row in raw:
        assert all(x == t10 for x in row[:4])


def quantile_oracle(values, q):
    """Naive scan: the largest data value x with #{v < x}/k <= q."""
    k = len(values)
    best = None
    for x in sorted(set(values)):
        count_less = sum(1 for v in values if v < x)
        if count_less <= q * k + 1e-9:
            best = x
    return float(best)


def test_quantiles_match_sort_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        vals = rng.integers(0, 40, size=rng.integers(1, 25)).tolist()
        for q in (0.0, 0.01, 0.05, 0.10, 0.50, 0.9):
            assert quantile_lower(vals, q) == quantile_oracle(vals, q)


def test_feature_dimensions_and_standardization():
    inst, cfg = small_world(seed=5)
    state = state_with(inst, cfg)
    for kind in ("model_free", "model_aware", "complete"):
        raw = extract_features_raw(state, inst, cfg, kind)
        assert raw.shape == (len(state.open), feature_dim(kind))
    fcfg = fit_standardization([extract_features_raw(state, inst, cfg, "complete")], "complete")
    standardized = extract_features(state, inst, cfg, fcfg)
    assert np.allclose(standardized.mean(axis=0), 0.0, atol=1e-9)
    assert all(s > 0 for s in fcfg.scale)


def test_division_guards_map_to_zero():
    inst, cfg = small_world(seed=6)
    reqs = sample_epoch(inst, cfg, 0)[:2]
    degenerate = dataclasses.replace(reqs[0], service=reqs[0].tw_close)
    state = SystemState(epoch=0, t_e=0, open=(degenerate, reqs[1]))
    raw = extract_features_raw(state, inst, cfg, "model_free")
    assert raw[0][7] == 0.0


def test_feature_permutation_equivariance():
    inst, cfg = small_world(seed=7)
    state = state_with(inst, cfg, limit=5)
    perm = [2, 0, 1, 4, 3][: len(state.open)]
    perm = perm if len(perm) == len(state.open) else list(reversed(range(len(state.open))))
    permuted = SystemState(
        epoch=state.epoch, t_e=state.t_e, open=tuple(state.open[i] for i in perm)
    )
    a = extract_features_raw(state, inst, cfg, "complete")
    b = extract_features_raw(permuted, inst, cfg, "complete")
    assert np.array_equal(a[perm], b)


# --------------------------------------------------------------- models


def test_linear_zero_weights_zero_prizes():
    fcfg = default_fcfg()
    model = init_model("linear", fcfg, seed=1)
    model.weights[0][:] = 0.0
    feats = np.random.default_rng(0).normal(size=(4, feature_dim("model_free")))
    assert np.array_equal(predict_prizes(model, feats), np.zeros(4))


def test_prediction_permutation_equivariance():
    fcfg = default_fcfg()
    model = init_model("mlp", fcfg, seed=2)
    feats = np.random.default_rng(1).normal(size=(5, feature_dim("model_free")))
    theta = predict_prizes(model, feats)
    perm = [3, 1, 4, 0, 2]
    assert np.allclose(predict_prizes(model, feats[perm]), theta[perm])


def test_mlp_forward_matches_hand_chain():
    fcfg = default_fcfg()
    model = init_model("mlp", fcfg, seed=3, output_scale=2.5)
    feats = np.random.default_rng(2).normal(size=(3, feature_dim("model_free")))
    a = feats
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = np.maximum(z, 0.0) if li < len(model.weights) - 1 else z
    assert np.allclose(predict_prizes(model, feats), 2.5 * a[:, 0])


def test_model_json_round_trip(tmp_path):
    fcfg = default_fcfg("complete")
    model = init_model("mlp", fcfg, seed=4, output_scale=3.0)
    model.meta = {"epsilon": 1.0}
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    feats = np.random.default_rng(3).normal(size=(4, feature_dim("complete")))
    assert np.allclose(predict_prizes(model, feats), predict_prizes(loaded, feats))
    again = model_from_json_dict(model_to_json_dict(model))
    assert np.allclose(predict_prizes(model, feats), predict_prizes(again, feats))


def test_backprop_zero_grad_and_linear_closed_form():
    fcfg = default_fcfg()
    feats = np.random.default_rng(4).normal(size=(4, feature_dim("model_free")))
    model = init_model("linear", fcfg, seed=5)
    gw, gb = backprop(model, feats, np.zeros(4))
    assert all(np.all(g == 0) for g in gw) and all(np.all(g == 0) for g in gb)

    grad_theta = np.array([0.5, -1.0, 0.25, 1.0])
    gw, gb = backprop(model, feats, grad_theta)
    expected = (feats * grad_theta[:, None]).sum(axis=0) * model.output_scale
    assert np.allclose(gw[0][:, 0], expected)


def test_mlp_backprop_matches_finite_differences():
    fcfg = default_fcfg()
    model = init_model("mlp", fcfg, seed=6, output_scale=1.5)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(3, feature_dim("model_free")))
    grad_theta = rng.normal(size=3)

    def scalar_loss():
        return float(np.dot(predict_prizes(model, feats), grad_theta))

    gw, gb = backprop(model, feats, grad_theta)
    h = 1e-6
    rng2 = np.random.default_rng(6)
    for li in range(len(model.weights)):
        for _ in range(4):
            i = rng2.integers(0, model.weights[li].shape[0])
            j = rng2.integers(0, model.weights[li].shape[1])
            model.weights[li][i, j] += h
            up = scalar_loss()
            model.weights[li][i, j] -= 2 * h
            down = scalar_loss()
            model.weights[li][i, j] += h
            fd = (up - down) / (2 * h)
            if abs(fd) > 1e-8 or abs(gw[li][i, j]) > 1e-8:
                assert abs(fd - gw[li][i, j]) <= 1e-4 * max(1.0, abs(fd))


# ----------------------------------------------------------------- loss


def test_regret_zero_when_target_is_argmax():
    inst, cfg = small_world(seed=8)
    state = state_with(inst, cfg, limit=4)
    sample = sample_with_target(inst, cfg, state, [r.id for r in state.open[:2]])
    pcfg = PerturbationConfig()
    inner = inner_for_sample(sample, inst, cfg, pcfg)
    theta = forcing_prizes(sample.state, {r.id for r, f in zip(state.open, sample.target_served) if f}, inst)
    assert abs(regret_loss(theta, sample, inner)) <= 1e-9


def test_regret_nonnegative_with_exact_inner():
    rng = np.random.default_rng(9)
    for seed in range(6):
        inst, cfg = small_world(seed=20 + seed)
        state = state_with(inst, cfg, limit=5)
        if not state.open:
            continue
        ids = [r.id for r in state.open]
        target = rng.choice(ids, size=max(1, len(ids) // 2), replace=False).tolist()
        sample = sample_with_target(inst, cfg, state, target)
        inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
        theta = rng.uniform(-20, 40, size=len(ids))
        assert regret_loss(theta, sample, inner) >= -1e-9


def test_forcing_prizes_formula_and_effect():
    inst, cfg = small_world(seed=10)
    state = state_with(inst, cfg, limit=3)
    assert len(state.open) == 3
    locs = [0] + [r.location for r in state.open]
    max_c = int(inst.travel[np.ix_(locs, locs)].max())
    target = {state.open[0].id, state.open[2].id}
    theta = forcing_prizes(state, target, inst)
    m = 3 * max_c
    assert list(theta) == [m, -m, m]

    sample = sample_with_target(inst, cfg, state, target)
    inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
    value, served = inner.solve(theta)
    assert [bool(x) for x in served] == [True, False, True]
    assert abs(regret_loss(theta, sample, inner)) <= 1e-9


def test_forcing_prizes_empty_target_yields_empty_solution():
    inst, cfg = small_world(seed=11)
    state = state_with(inst, cfg, limit=4)
    state = SystemState(  # drop flags so nothing is forced into the solution
        epoch=state.epoch,
        t_e=state.t_e,
        open=tuple(dataclasses.replace(r, must_dispatch=False) for r in state.open),
    )
    sample = sample_with_target(inst, cfg, state, [])
    inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
    theta = forcing_prizes(state, set(), inst)
    value, served = inner.solve(theta)
    assert not any(served)


def test_gradient_zero_when_argmax_always_target():
    inst, cfg = small_world(seed=12)
    state = state_with(inst, cfg, limit=4)
    target = {r.id for r in state.open}
    sample = sample_with_target(inst, cfg, state, target)
    inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
    theta = forcing_prizes(state, target, inst) * 100.0
    pcfg = PerturbationConfig(epsilon=1.0, n_samples=20, seed=3)
    out = perturbed_loss_and_grad(theta, sample, inner, pcfg)
    assert np.array_equal(out.grad, np.zeros(len(state.open)))
    # summation order differs between the inner oracle and the dot product
    assert abs(out.loss) <= 1e-9


def test_gradient_coordinates_bounded():
    rng = np.random.default_rng(13)
    inst, cfg = small_world(seed=13)
    state = state_with(inst, cfg, limit=5)
    ids = [r.id for r in state.open]
    sample = sample_with_target(inst, cfg, state, ids[:2])
    inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
    for trial in range(5):
        theta = rng.uniform(-30, 30, size=len(ids))
        pcfg = PerturbationConfig(epsilon=5.0, n_samples=30, seed=trial)
        out = perturbed_loss_and_grad(theta, sample, inner, pcfg)
        assert np.all(out.grad >= -1.0 - 1e-12) and np.all(out.grad <= 1.0 + 1e-12)


def test_perturbed_loss_dominates_regret_within_noise():
    rng = np.random.default_rng(14)
    hits = 0
    total = 0
    for seed in range(8):
        inst, cfg = small_world(seed=30 + seed)
        state = state_with(inst, cfg, limit=5)
        if len(state.open) < 2:
            continue
        ids = [r.id for r in state.open]
        sample = sample_with_target(inst, cfg, state, ids[: len(ids) // 2])
        inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
        theta = rng.uniform(-20, 30, size=len(ids))
        pcfg = PerturbationConfig(epsilon=2.0, n_samples=200, seed=seed)
        out = perturbed_loss_and_grad(theta, sample, inner, pcfg)
        natural = regret_loss(theta, sample, inner)
        total += 1
        hits += out.loss >= natural - 3 * out.stderr
    assert total >= 5
    assert hits == total


def test_gradient_matches_finite_differences_with_crn():
    inst, cfg = small_world(seed=15)
    state = state_with(inst, cfg, limit=4)
    ids = [r.id for r in state.open]
    sample = sample_with_target(inst, cfg, state, ids[:2])
    inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
    rng = np.random.default_rng(16)
    dim = len(ids)
    theta = rng.uniform(-10, 20, size=dim)
    pcfg = PerturbationConfig(epsilon=1.0, n_samples=400, seed=4)
    z = np.random.default_rng(17).standard_normal((400, dim))
    out = perturbed_loss_and_grad(theta, sample, inner, pcfg, z=z)
    h = 0.05
    for i in range(dim):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        lu = perturbed_loss_and_grad(up, sample, inner, pcfg, z=z).loss
        ld = perturbed_loss_and_grad(down, sample, inner, pcfg, z=z).loss
        fd = (lu - ld) / (2 * h)
        if abs(out.grad[i]) < 1e-3:
            assert abs(fd - out.grad[i]) <= 1e-3
        else:
            assert abs(fd - out.grad[i]) <= 0.05 * abs(out.grad[i]) + 1e-9


def test_loss_scaling_probe_non_increasing_to_zero():
    inst, cfg = small_world(seed=18)
    state = state_with(inst, cfg, limit=4)
    target = {r.id for r in list(state.open)[:2]} | state.must_dispatch_ids
    sample = sample_with_target(inst, cfg, state, target)
    inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
    base = forcing_prizes(state, target, inst)
    m = abs(base[0])
    pcfg = PerturbationConfig(epsilon=float(m), n_samples=300, seed=5)
    z = np.random.default_rng(19).standard_normal((300, len(state.open)))
    losses = [
        perturbed_loss_and_grad(lam * base, sample, inner, pcfg, z=z).loss
        for lam in (1, 10, 100)
    ]
    assert losses[0] > 0
    assert losses[0] >= losses[1] >= losses[2]
    assert losses[2] < 0.01 * losses[0]


def test_loss_value_invariant_under_permutation():
    inst, cfg = small_world(seed=19)
    state = state_with(inst, cfg, limit=4)
    ids = [r.id for r in state.open]
    sample = sample_with_target(inst, cfg, state, ids[:2])
    inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
    dim = len(ids)
    rng = np.random.default_rng(20)
    theta = rng.uniform(-10, 20, size=dim)
    z = rng.standard_normal((100, dim))
    pcfg = PerturbationConfig(epsilon=1.5, n_samples=100, seed=6)
    out = perturbed_loss_and_grad(theta, sample, inner, pcfg, z=z)

    perm = list(reversed(range(dim)))
    p_state = SystemState(epoch=state.epoch, t_e=state.t_e,
                          open=tuple(state.open[i] for i in perm))
    p_sample = TrainingSample(
        instance=sample.instance,
        scenario_seed=sample.scenario_seed,
        epoch=sample.epoch,
        state=p_state,
        target_routes=sample.target_routes,
        target_served=tuple(sample.target_served[i] for i in perm),
        target_h=sample.target_h,
    )
    p_inner = inner_for_sample(p_sample, inst, cfg, PerturbationConfig())
    p_out = perturbed_loss_and_grad(theta[perm], p_sample, p_inner, pcfg, z=z[:, perm])
    assert abs(out.loss - p_out.loss) <= 1e-9
    assert np.allclose(out.grad[perm], p_out.grad)


def test_loss_convexity_probe_with_crn():
    inst, cfg = small_world(seed=21)
    state = state_with(inst, cfg, limit=4)
    ids = [r.id for r in state.open]
    sample = sample_with_target(inst, cfg, state, ids[:2])
    inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
    dim = len(ids)
    rng = np.random.default_rng(22)
    z = rng.standard_normal((150, dim))
    pcfg = PerturbationConfig(epsilon=2.0, n_samples=150, seed=7)

    def loss_at(theta):
        return perturbed_loss_and_grad(theta, sample, inner, pcfg, z=z)

    for _ in range(4):
        t1 = rng.uniform(-25, 25, size=dim)
        t2 = rng.uniform(-25, 25, size=dim)
        l1 = loss_at(t1)
        l2 = loss_at(t2)
        for t in (0.25, 0.5, 0.75):
            mid = loss_at(t * t1 + (1 - t) * t2)
            slack = 3 * (l1.stderr + l2.stderr + mid.stderr)
            assert mid.loss <= t * l1.loss + (1 - t) * l2.loss + slack + 1e-9


# ------------------------------------------------------------------ train


def tiny_dataset(n_states=3, seed_base=40):
    samples = []
    world = small_world(seed=seed_base)
    inst, cfg = world
    rng = np.random.default_rng(seed_base)
    for k in range(n_states):
        cfg_k = dataclasses.replace(cfg, instance_seed=seed_base + k)
        state = state_with(inst, cfg_k, epoch=0, limit=5)
        ids = [r.id for r in state.open]
        target = rng.choice(ids, size=max(1, len(ids) - 2), replace=False).tolist()
        samples.append(sample_with_target(inst, cfg_k, state, target))
    return samples, {inst.name: inst}, cfg


def test_train_zero_learning_rate_keeps_weights():
    from dynroute.learning import TrainConfig, train

    samples, instances, cfg = tiny_dataset()
    pcfg = PerturbationConfig(epsilon=0.5, n_samples=4, seed=1)
    tcfg = TrainConfig(epochs=3, batch_size=2, learning_rate=0.0, seed=2)
    result = train(samples, instances, cfg, set_kind="model_free", model_kind="mlp",
                   pcfg=pcfg, tcfg=tcfg)
    fresh = init_model("mlp", result.model.feature_config, output_scale=result.model.output_scale)
    for w0, w1 in zip(fresh.weights, result.model.weights):
        assert np.array_equal(w0, w1)
    assert len(result.log) == 3


def test_activity_counts_the_dead_units_of_each_hidden_layer():
    fcfg = FeatureConfig("model_free", (0.0,) * feature_dim("model_free"),
                         (1.0,) * feature_dim("model_free"))
    feats = np.random.default_rng(0).standard_normal((30, feature_dim("model_free")))
    model = init_model("mlp", fcfg, output_scale=100.0)
    model.biases[1][:4] = -1e6  # four units of the second hidden layer never fire
    prizes, dead = activity(model, feats)
    assert np.array_equal(prizes, predict_prizes(model, feats))
    assert len(dead) == 4 and dead[1] == 4
    model.biases[3][:] = -1e6  # a dead last hidden layer: one prize for every row
    prizes, dead = activity(model, feats)
    assert dead[3] == 10
    assert np.all(prizes == prizes[0])
    linear = init_model("linear", fcfg)
    assert activity(linear, feats)[1] == []


def test_train_logs_dead_units_and_the_prize_spread_of_each_epoch():
    from dynroute.learning import TrainConfig, train

    samples, instances, cfg = tiny_dataset()
    pcfg = PerturbationConfig(epsilon=0.5, n_samples=4, seed=1)
    tcfg = TrainConfig(epochs=2, batch_size=2, learning_rate=0.0, seed=2)
    result = train(samples, instances, cfg, set_kind="model_free", model_kind="mlp",
                   pcfg=pcfg, tcfg=tcfg)
    model = result.model
    feats = np.vstack([
        extract_features(s.state, instances[s.instance], cfg, model.feature_config)
        for s in samples if s.state.open
    ])
    prizes, dead = activity(model, feats)
    for row in result.log:
        assert row["dead_units"] == dead
        assert (row["prize_p10"], row["prize_p50"], row["prize_p90"]) == tuple(
            np.percentile(prizes, [10, 50, 90]))


@pytest.mark.parametrize("decay", [0.0, -0.97])
def test_train_rejects_a_non_positive_lr_decay(decay):
    from dynroute.learning import TrainConfig, train

    samples, instances, cfg = tiny_dataset()
    with pytest.raises(ValueError, match="lr_decay must be > 0"):
        train(samples, instances, cfg, tcfg=TrainConfig(lr_decay=decay))


def test_train_default_step_is_the_smoke_step():
    """A config that omits ``learning_rate`` trains at the smoke config's step,
    not at 0.05, which leaves the smoke MLP's last hidden layers dead."""
    import json

    from dynroute.learning import TrainConfig

    with open("configs/train_smoke.json", "r", encoding="utf-8") as fh:
        smoke = json.load(fh)["train"]["learning_rate"]
    assert TrainConfig().learning_rate == smoke == 0.005


def test_train_loss_decreases_on_tiny_dataset():
    from dynroute.learning import TrainConfig, train

    samples, instances, cfg = tiny_dataset()
    pcfg = PerturbationConfig(epsilon=1.0, n_samples=6, seed=3)
    tcfg = TrainConfig(epochs=10, batch_size=3, learning_rate=0.05, seed=4)
    result = train(samples, instances, cfg, set_kind="model_free", model_kind="mlp",
                   pcfg=pcfg, tcfg=tcfg)
    first = result.log[0]["train_loss"]
    last = result.log[-1]["train_loss"]
    assert last < first


def test_train_deterministic_given_seeds():
    from dynroute.learning import TrainConfig, train
    from dynroute.learning import model_to_json_dict

    samples, instances, cfg = tiny_dataset()
    pcfg = PerturbationConfig(epsilon=1.0, n_samples=4, seed=5)
    tcfg = TrainConfig(epochs=4, batch_size=2, learning_rate=0.05, seed=6)
    r1 = train(samples, instances, cfg, set_kind="model_free", model_kind="linear",
               pcfg=pcfg, tcfg=tcfg)
    r2 = train(samples, instances, cfg, set_kind="model_free", model_kind="linear",
               pcfg=pcfg, tcfg=tcfg)
    assert model_to_json_dict(r1.model) == model_to_json_dict(r2.model)
    assert r1.log == r2.log


def smoke_samples(k=0):
    """The samples with open requests of configs/dataset_smoke.json's
    scenario k on bench_a (scenario seed 1000 + k)."""
    import json

    from dynroute.dataset import build_scenario_samples
    from dynroute.instance import load_instance
    from dynroute.pchgs import HgsParams

    with open("configs/dataset_smoke.json", "r", encoding="utf-8") as fh:
        config = json.load(fh)
    inst = load_instance(config["instances"][0])
    seed = config["seed"] + k
    cfg = DynamicConfig(instance_seed=seed, **config["dynamic"])
    params = HgsParams(budget_iters=config["budget_iters"], stall_iters=config["stall_iters"],
                       seed=seed)
    samples, _ = build_scenario_samples(inst, cfg, params)
    return [s for s in samples if s.state.open], {inst.name: inst}, cfg


def test_train_with_the_metaheuristic_inner_oracle(monkeypatch):
    import importlib

    from dynroute.learning import HgsInner, TrainConfig, train
    from dynroute.pchgs import HgsParams

    # the package's ``train`` is the function; the spy goes into its module
    train_module = importlib.import_module("dynroute.learning.train")

    samples, instances, cfg = smoke_samples()
    assert len(samples) >= 3
    pcfg = PerturbationConfig(
        epsilon=0.05, n_samples=10, seed=5,
        exact_auto_max=min(len(s.state.open) for s in samples) - 1,
        inner_params=HgsParams(budget_iters=50, stall_iters=25, init_pool=6, seed=1),
    )
    tcfg = TrainConfig(epochs=2, batch_size=2, learning_rate=0.05, seed=6)
    calls = []
    loss_and_grad = train_module.perturbed_loss_and_grad

    def spy(theta, sample, inner, pcfg, z=None):
        out = loss_and_grad(theta, sample, inner, pcfg, z=z)
        calls.append((inner, out))
        return out

    monkeypatch.setattr(train_module, "perturbed_loss_and_grad", spy)
    r1 = train(samples, instances, cfg, set_kind="complete", model_kind="mlp",
               pcfg=pcfg, tcfg=tcfg)
    assert len(calls) == tcfg.epochs * len(samples)
    for inner, out in calls:
        assert isinstance(inner, HgsInner)
        assert np.isfinite(out.loss)
        assert np.all(np.abs(out.grad) <= 1.0)
    assert all(np.isfinite(row["train_loss"]) for row in r1.log)
    r2 = train(samples, instances, cfg, set_kind="complete", model_kind="mlp",
               pcfg=pcfg, tcfg=tcfg)
    assert r1.log == r2.log
    assert model_to_json_dict(r1.model) == model_to_json_dict(r2.model)


def test_hgs_inner_against_the_exact_oracle_on_a_14_request_state():
    """bench_a's scenario 1056 holds a 14-request state at epoch 1, certified by
    the exact oracle. At criterion 7's inner budget, on ten draws of the
    committed model's prizes perturbed as in the smoke training run,
    ``HgsInner`` never beats the exact argmax and reaches it on a recorded
    number of draws: a change in that number is a change in the inner
    oracle."""
    from dynroute.learning import HgsInner
    from dynroute.pchgs import HgsParams

    samples, instances, cfg = smoke_samples(56)
    (sample,) = [s for s in samples if s.epoch == 1]
    inst = instances[sample.instance]
    assert len(sample.state.open) == 14
    model = load_model("tests/fixtures/model_bench.json")
    theta = predict_prizes(model, extract_features(sample.state, inst, cfg, model.feature_config))
    thetas = theta + 0.05 * model.output_scale * np.random.default_rng(0).standard_normal((10, 14))
    pc = pc_for_state(sample.state, inst, cfg, prizes=None, force_must_dispatch=True)
    exact = ExactSolver(pc, max_requests=14)
    inner = HgsInner(pc, HgsParams(budget_iters=50, stall_iters=25, init_pool=6, seed=1))
    reached = 0
    for th in thetas:
        best, _ = exact.argmax(th)
        value, _ = inner.solve(th)
        assert value <= best + 1e-6
        reached += abs(value - best) <= 1e-6
    assert reached == 10


def test_batched_loss_equals_the_per_draw_computation():
    # bench_a's scenario 1004 holds a 12-request state, the largest the
    # smoke training run sends to the exact oracle
    samples, instances, cfg = smoke_samples(4)
    sample = next(s for s in samples if len(s.state.open) == 12)
    pcfg = PerturbationConfig(epsilon=125.0, n_samples=10, seed=5, exact_auto_max=12)
    inner = inner_for_sample(sample, instances[sample.instance], cfg, pcfg)
    assert isinstance(inner, ExactInner)
    rng = np.random.default_rng(15)
    theta = rng.normal(500.0, 300.0, 12)
    z = rng.standard_normal((10, 12))
    out = perturbed_loss_and_grad(theta, sample, inner, pcfg, z=z)

    g_bar = target_vector(sample)
    terms = np.empty(10)
    g_sum = np.zeros(12)
    for s in range(10):
        perturbed = theta + pcfg.epsilon * z[s]
        value, g_hat = inner.solve(perturbed)
        terms[s] = value - (float(np.dot(perturbed, g_bar)) + sample.target_h)
        g_sum += g_hat
    assert repr(out.loss) == repr(float(terms.mean()))
    assert out.grad.tobytes() == (g_sum / 10 - g_bar).tobytes()
    assert repr(out.stderr) == repr(float(terms.std(ddof=1) / np.sqrt(10)))

    # a draw with no feasible served set is named, as before batching
    assert sample.state.must_dispatch_ids
    z[3] = np.nan
    failed = "^inner solver failed on perturbation draw 3: no served set"
    with pytest.raises(RuntimeError, match=failed):
        perturbed_loss_and_grad(theta, sample, inner, pcfg, z=z)


def test_failing_hgs_draw_names_the_draw(monkeypatch):
    import importlib

    from dynroute.learning import HgsInner
    from dynroute.pchgs import HgsParams, PcInfeasibleError

    loss_module = importlib.import_module("dynroute.learning.loss")
    samples, instances, cfg = smoke_samples()
    sample = samples[0]
    pc = pc_for_state(sample.state, instances[sample.instance], cfg)
    inner = HgsInner(pc, HgsParams(budget_iters=20, stall_iters=10, init_pool=4, seed=1))
    solves = []
    real = loss_module.solve

    def failing(inst, params, warm_start=None):
        solves.append(inst)
        if len(solves) == 3:
            raise PcInfeasibleError("no feasible solution")
        return real(inst, params, warm_start=warm_start)

    monkeypatch.setattr(loss_module, "solve", failing)
    n = pc.n_requests
    z = np.random.default_rng(2).standard_normal((5, n))
    failed = "^inner solver failed on perturbation draw 2: no feasible solution$"
    with pytest.raises(RuntimeError, match=failed) as err:
        perturbed_loss_and_grad(np.full(n, 300.0), sample, inner, PerturbationConfig(), z=z)
    assert isinstance(err.value.__cause__, PcInfeasibleError)
    assert len(solves) == 3
    assert len(inner._pool) == 2
