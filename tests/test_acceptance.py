"""Acceptance gate: eight package-level criteria at desk scale.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them).
All budgets are iteration counts so every criterion is bit-reproducible;
criterion 8 re-executes the earlier computations and compares canonical
JSON/CSV bytes.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest
from scipy import stats

from dynroute.cli import main as cli_main
from dynroute.dataset import TrainingSample
from dynroute.encode import pc_for_state
from dynroute.instance import generate_instance, load_instance
from dynroute.learning import (
    PerturbationConfig,
    forcing_prizes,
    inner_for_sample,
    perturbed_loss_and_grad,
    regret_loss,
)
from dynroute.pchgs import ExactSolver, HgsParams, brute_force_solve, solve
from dynroute.simulator import (
    DynamicConfig,
    SystemState,
    classify_must_dispatch,
    sample_epoch,
)

from helpers import random_pc

pytestmark = pytest.mark.acceptance

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BENCH_INSTANCES = [os.path.join(FIXTURES, f"bench_{x}.json") for x in "abc"]
BENCH_MODEL = os.path.join(FIXTURES, "model_bench.json")

# Benchmark scale for criteria 5-6: fixture instances x seeds x all policies.
BENCH_DYNAMIC = {"n_epochs": 5, "sample_size": 20, "epoch_duration": 3600,
                 "dispatch_offset": 3600}
BENCH_SEEDS = 10
BENCH_BASE_SEED = 100
POLICY_BUDGET = {"budget_iters": 100, "stall_iters": 50}
BASELINE_BUDGET = {"budget_iters": 150, "stall_iters": 80, "init_pool": 10}

# Training scale for criterion 7 (2 instances x 10 scenarios). With 3
# scenarios (~21 usable samples) the ml_co-vs-greedy margin swung from -4% to
# +4% across training seeds; 10 scenarios per instance give a training set the
# model generalises from at every seed tried (see CHANGES.md).
TRAIN_DYNAMIC = {"n_epochs": 5, "sample_size": 8, "epoch_duration": 3600,
                 "dispatch_offset": 3600}
TRAIN_SCENARIOS = 10
TRAIN_SCENARIO_SEED = 1000
TRAIN_EVAL_SAMPLE_SIZE = 10
TRAIN_EVAL_SEEDS = [2000 + k for k in range(5)]  # x2 instances = 10 episodes
TRAIN_PERTURBATION = {
    "epsilon": 0.05, "n_samples": 10, "seed": 5, "exact_auto_max": 12,
    "inner": {"budget_iters": 50, "stall_iters": 25, "init_pool": 6},
}
TRAIN_SETTINGS = {"epochs": 50, "batch_size": 5, "learning_rate": 0.005,
                  "lr_decay": 0.97, "seed": 6}


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {status}: {name}{suffix}")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# --------------------------------------------------------------- fixtures


def small_state(seed: int, n_open: tuple[int, int], coord_span=120):
    """A must-dispatch-classified state over a small-travel-cost instance."""
    lo, hi = n_open
    inst = generate_instance(10, seed=seed, coord_span=coord_span, horizon=28_800)
    cfg = DynamicConfig(n_epochs=3, sample_size=hi + 3, instance_seed=seed,
                        epoch_duration=3600, dispatch_offset=3600)
    rng = np.random.default_rng([seed, 0xACC])
    take = int(rng.integers(lo, hi + 1))
    reqs = sample_epoch(inst, cfg, 0)[:take]
    state = SystemState(epoch=0, t_e=0, open=reqs)
    state = classify_must_dispatch(state, inst, cfg)
    return inst, cfg, state


def sample_with_exact_target(inst, cfg, state, target_ids) -> TrainingSample:
    """Imitation pair whose target routes are exact for the chosen set."""
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


def gradient_fixtures(n_fixtures: int, max_open: int):
    """States with <= max_open requests plus exact-target imitation pairs."""
    fixtures = []
    seed = 500
    while len(fixtures) < n_fixtures:
        seed += 1
        inst, cfg, state = small_state(seed, (3, max_open))
        if not (3 <= len(state.open) <= max_open):
            continue
        rng = np.random.default_rng([seed, 1])
        ids = [r.id for r in state.open]
        k = int(rng.integers(1, len(ids)))
        target = rng.choice(ids, size=k, replace=False).tolist()
        sample = sample_with_exact_target(inst, cfg, state, target)
        inner = inner_for_sample(sample, inst, cfg, PerturbationConfig())
        fixtures.append((inst, cfg, sample, inner))
    return fixtures


# ------------------------------------------------------------ criterion 1


def run_criterion_1() -> dict:
    matches = 0
    records = []
    for k in range(100):
        n = 4 + k % 4  # 4..7 requests
        pc = random_pc(n, seed=10_000 + k)
        exact = brute_force_solve(pc)
        heur = solve(pc, HgsParams(budget_iters=300, stall_iters=150, seed=k))
        ok = abs(exact.objective - heur.objective) <= 1e-9
        matches += ok
        records.append({"seed": 10_000 + k, "exact": exact.objective,
                        "heuristic": heur.objective})
    return {"matches": matches, "records": records}


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    out = run_criterion_1()
    elapsed = time.perf_counter() - t0
    ok = out["matches"] >= 95 and elapsed <= 300
    report(1, "oracle equivalence on 100 small instances", ok,
           f"{out['matches']}/100 matched in {elapsed:.0f}s")
    assert ok


# ------------------------------------------------------------ criterion 2


def run_criterion_2() -> dict:
    hits = 0
    records = []
    seed = 200
    done = 0
    while done < 50:
        seed += 1
        inst, cfg, state = small_state(seed, (3, 6))
        if not (3 <= len(state.open) <= 6):
            continue
        done += 1
        rng = np.random.default_rng([seed, 2])
        ids = [r.id for r in state.open]
        extra = rng.choice(ids, size=int(rng.integers(0, len(ids) + 1)), replace=False)
        target = set(int(i) for i in extra) | set(state.must_dispatch_ids)
        theta = forcing_prizes(state, target, inst)
        pc = pc_for_state(state, inst, cfg, force_must_dispatch=True)
        solver = ExactSolver(pc)
        _, mask = solver.argmax(theta)
        served = {pc.ids[r] for r in range(pc.n_requests) if mask >> r & 1}
        hits += served == target
        records.append({"seed": seed, "target": sorted(target), "served": sorted(served)})
    return {"hits": hits, "records": records}


def test_criterion_2_forcing_prizes_end_to_end():
    t0 = time.perf_counter()
    out = run_criterion_2()
    elapsed = time.perf_counter() - t0
    ok = out["hits"] == 50 and elapsed <= 120
    report(2, "forcing prizes recover the target set", ok,
           f"{out['hits']}/50 exact in {elapsed:.0f}s")
    assert ok


# ------------------------------------------------------------ criterion 3


def run_criterion_3(fixtures) -> dict:
    bad = 0
    checked = 0
    payload = []
    for idx, (inst, cfg, sample, inner) in enumerate(fixtures):
        dim = len(sample.state.open)
        rng = np.random.default_rng([900, idx])
        theta = rng.uniform(-10.0, 20.0, size=dim)
        pcfg = PerturbationConfig(epsilon=1.0, n_samples=1000, seed=idx)
        z = np.random.default_rng([901, idx]).standard_normal((1000, dim))
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
            checked += 1
            if abs(out.grad[i]) < 1e-3:
                if abs(fd - out.grad[i]) > 1e-3:
                    bad += 1
            elif abs(fd - out.grad[i]) > 0.05 * abs(out.grad[i]):
                bad += 1
        payload.append({"idx": idx, "grad": [float(g) for g in out.grad],
                        "loss": out.loss})
    return {"bad": bad, "checked": checked, "payload": payload}


@pytest.fixture(scope="module")
def grad_fixtures():
    return gradient_fixtures(20, max_open=5)


def test_criterion_3_gradient_matches_finite_differences(grad_fixtures):
    t0 = time.perf_counter()
    out = run_criterion_3(grad_fixtures)
    elapsed = time.perf_counter() - t0
    ok = out["bad"] == 0 and elapsed <= 600
    report(3, "stochastic gradient vs central differences", ok,
           f"{out['checked']} coordinates, {out['bad']} off, {elapsed:.0f}s")
    assert ok


# ------------------------------------------------------------ criterion 4


def run_criterion_4(fixtures) -> dict:
    nonneg_violations = 0
    dominance_hits = 0
    probes = []
    for idx, (inst, cfg, sample, inner) in enumerate(fixtures):
        dim = len(sample.state.open)
        rng = np.random.default_rng([910, idx])
        theta = rng.uniform(-10.0, 20.0, size=dim)
        if regret_loss(theta, sample, inner) < -1e-9:
            nonneg_violations += 1
        pcfg = PerturbationConfig(epsilon=2.0, n_samples=300, seed=idx)
        z = np.random.default_rng([911, idx]).standard_normal((300, dim))
        out = perturbed_loss_and_grad(theta, sample, inner, pcfg, z=z)
        natural = regret_loss(theta, sample, inner)
        dominance_hits += out.loss >= natural - 3 * out.stderr

        target = {r.id for r, flag in zip(sample.state.open, sample.target_served) if flag}
        base = forcing_prizes(sample.state, target, inst)
        m = float(abs(base).max())
        probe_cfg = PerturbationConfig(epsilon=m, n_samples=300, seed=idx)
        losses = [
            perturbed_loss_and_grad(lam * base, sample, inner, probe_cfg, z=z).loss
            for lam in (1, 10, 100)
        ]
        probes.append(losses)
    return {
        "nonneg_violations": nonneg_violations,
        "dominance_hits": dominance_hits,
        "probes": probes,
    }


def test_criterion_4_loss_properties(grad_fixtures):
    out = run_criterion_4(grad_fixtures)
    n = len(grad_fixtures)
    probe_ok = all(
        p[0] > 0 and p[0] >= p[1] - 1e-9 and p[1] >= p[2] - 1e-9 and p[2] < 0.01 * p[0]
        for p in out["probes"]
    )
    ok = (
        out["nonneg_violations"] == 0
        and out["dominance_hits"] >= int(np.ceil(0.95 * n))
        and probe_ok
    )
    report(4, "loss non-negativity, dominance, scaling probe", ok,
           f"dominance {out['dominance_hits']}/{n}, probes ok: {probe_ok}")
    assert ok


# ------------------------------------------------------------ criterion 5


def benchmark_config(out_dir: str) -> dict:
    policies = [
        {"kind": k, "seed": 7, **POLICY_BUDGET}
        for k in ("greedy", "lazy", "random", "rolling_horizon")
    ]
    policies.append({"kind": "monte_carlo", "seed": 7, "n_scenarios": 9, **POLICY_BUDGET})
    policies.append({"kind": "ml_co", "seed": 7, "model_path": BENCH_MODEL, **POLICY_BUDGET})
    return {
        "instances": BENCH_INSTANCES,
        "dynamic": BENCH_DYNAMIC,
        "n_instance_seeds": BENCH_SEEDS,
        "base_seed": BENCH_BASE_SEED,
        "policies": policies,
        "baseline": BASELINE_BUDGET,
        "out_dir": out_dir,
    }


def run_benchmark(tmp_dir: str, tag: str) -> str:
    out_dir = os.path.join(tmp_dir, f"bench_{tag}")
    cfg_path = os.path.join(tmp_dir, f"bench_{tag}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(benchmark_config(out_dir), fh)
    workers = str(min(4, os.cpu_count() or 1))
    rc = cli_main(["benchmark", "--config", cfg_path, "--workers", workers])
    assert rc == 0
    return out_dir


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    return run_benchmark(str(tmp_path_factory.mktemp("acceptance")), "main")


def read_results(out_dir: str) -> list[dict]:
    import csv as _csv

    with open(os.path.join(out_dir, "results.csv")) as fh:
        return list(_csv.DictReader(fh))


def test_criterion_5_benchmark_validity_and_conservation(bench_dir):
    rows = read_results(bench_dir)
    n_expected = len(BENCH_INSTANCES) * BENCH_SEEDS * 6
    all_ok = len(rows) == n_expected and all(r["status"] == "ok" for r in rows)

    conservation_ok = True
    instances = {os.path.basename(p): load_instance(p) for p in BENCH_INSTANCES}
    by_name = {inst.name: inst for inst in instances.values()}
    runs_dir = os.path.join(bench_dir, "runs")
    for fname in sorted(os.listdir(runs_dir)):
        with open(os.path.join(runs_dir, fname)) as fh:
            record = json.load(fh)
        inst = by_name[record["config"]["instance"]]
        cfg = DynamicConfig(
            n_epochs=record["config"]["n_epochs"],
            sample_size=record["config"]["sample_size"],
            instance_seed=record["config"]["instance_seed"],
            epoch_duration=record["config"]["epoch_duration"],
            dispatch_offset=record["config"]["dispatch_offset"],
        )
        sampled = sorted(
            req.id for e in range(cfg.n_epochs) for req in sample_epoch(inst, cfg, e)
        )
        dispatched = sorted(i for per in record["per_epoch"] for i in per["dispatched"])
        if sampled != dispatched:
            conservation_ok = False
            break

    ok = all_ok and conservation_ok
    report(5, "benchmark run valid with exact conservation", ok,
           f"{len(rows)} episodes, all ok: {all_ok}, conservation: {conservation_ok}")
    assert ok


# ------------------------------------------------------------ criterion 6


def test_criterion_6_policy_ordering(bench_dir):
    rows = read_results(bench_dir)
    costs: dict[str, dict[tuple, float]] = {}
    for r in rows:
        costs.setdefault(r["policy"], {})[(r["instance"], r["seed"])] = float(r["total_cost"])
    keys = sorted(costs["greedy"])
    greedy = np.array([costs["greedy"][k] for k in keys])
    lazy = np.array([costs["lazy"][k] for k in keys])
    t_res = stats.ttest_rel(lazy, greedy, alternative="greater")
    ordering_ok = bool(greedy.mean() < lazy.mean() and t_res.pvalue < 0.05)

    baseline = {}
    for r in rows:
        baseline[(r["instance"], r["seed"])] = float(r["baseline_cost"])
    base_mean = np.mean(list(baseline.values()))
    slack_ok = all(
        base_mean <= np.mean(list(costs[p].values())) * 1.05 for p in costs
    )
    ok = ordering_ok and slack_ok
    report(6, "policy ordering (greedy < lazy; baseline within slack)", ok,
           f"greedy {greedy.mean():.0f} vs lazy {lazy.mean():.0f}, "
           f"p={t_res.pvalue:.2e}, baseline slack ok: {slack_ok}")
    assert ok


# ------------------------------------------------------------ criterion 7


def dataset_config(tmp_dir: str, tag: str) -> tuple[str, str]:
    out = os.path.join(tmp_dir, f"dataset_{tag}.jsonl")
    cfg = {
        "instances": BENCH_INSTANCES[:2],
        "dynamic": TRAIN_DYNAMIC,
        "n_scenarios": TRAIN_SCENARIOS,
        "seed": TRAIN_SCENARIO_SEED,
        "budget_iters": 200,
        "stall_iters": 100,
        "out": out,
    }
    path = os.path.join(tmp_dir, f"dataset_{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path, out


def train_config(tmp_dir: str, dataset_path: str, tag: str) -> tuple[str, str]:
    model_out = os.path.join(tmp_dir, f"model_{tag}.json")
    cfg = {
        "dataset": dataset_path,
        "set_kind": "complete",
        "model_kind": "mlp",
        "perturbation": TRAIN_PERTURBATION,
        "train": TRAIN_SETTINGS,
        "out_model": model_out,
    }
    path = os.path.join(tmp_dir, f"train_{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path, model_out


def run_training(tmp_dir: str, tag: str) -> tuple[str, str]:
    build_cfg, dataset_path = dataset_config(tmp_dir, tag)
    rc = cli_main(["build-dataset", "--config", build_cfg])
    assert rc == 0
    t_cfg, model_out = train_config(tmp_dir, dataset_path, tag)
    rc = cli_main(["train", "--config", t_cfg])
    assert rc == 0
    return dataset_path, model_out


def mean_loss(model_path: str, dataset_path: str) -> float:
    """Mean smoothed-regret estimate of a model over the dataset (fixed draws)."""
    from dynroute.dataset import load_dataset
    from dynroute.learning import extract_features, load_model, predict_prizes

    cfg = DynamicConfig(instance_seed=0, **{
        "n_epochs": TRAIN_DYNAMIC["n_epochs"],
        "sample_size": TRAIN_DYNAMIC["sample_size"],
        "epoch_duration": TRAIN_DYNAMIC["epoch_duration"],
        "dispatch_offset": TRAIN_DYNAMIC["dispatch_offset"],
    })
    samples = [s for s in load_dataset(dataset_path, cfg) if s.state.open]
    model = load_model(model_path)
    instances = {load_instance(p).name: load_instance(p) for p in BENCH_INSTANCES[:2]}
    inner_cfg = PerturbationConfig(
        epsilon=TRAIN_PERTURBATION["epsilon"] * model.output_scale,
        n_samples=64,
        seed=99,
        exact_auto_max=TRAIN_PERTURBATION["exact_auto_max"],
        inner_params=HgsParams(budget_iters=60, stall_iters=30, init_pool=6, seed=1),
    )
    losses = []
    for i, s in enumerate(samples):
        inst = instances[s.instance]
        feats = extract_features(s.state, inst, cfg, model.feature_config)
        theta = predict_prizes(model, feats)
        inner = inner_for_sample(s, inst, cfg, inner_cfg)
        z = np.random.default_rng([990, i]).standard_normal((64, len(s.state.open)))
        losses.append(perturbed_loss_and_grad(theta, s, inner, inner_cfg, z=z).loss)
    return float(np.mean(losses))


def eval_policies(model_path: str) -> tuple[float, float]:
    from dynroute.policies import Policy, PolicySpec
    from dynroute.simulator import run_episode

    costs = {"ml_co": [], "greedy": []}
    for path in BENCH_INSTANCES[:2]:
        inst = load_instance(path)
        for seed in TRAIN_EVAL_SEEDS:
            cfg = DynamicConfig(
                n_epochs=TRAIN_DYNAMIC["n_epochs"],
                sample_size=TRAIN_EVAL_SAMPLE_SIZE,
                instance_seed=seed,
                epoch_duration=TRAIN_DYNAMIC["epoch_duration"],
                dispatch_offset=TRAIN_DYNAMIC["dispatch_offset"],
            )
            for kind in costs:
                spec = PolicySpec(kind=kind, seed=3, model_path=model_path, **POLICY_BUDGET)
                costs[kind].append(run_episode(inst, cfg, Policy(spec, inst, cfg)).total_cost)
    return float(np.mean(costs["greedy"])), float(np.mean(costs["ml_co"]))


@pytest.fixture(scope="module")
def training_run(tmp_path_factory):
    tmp_dir = str(tmp_path_factory.mktemp("train"))
    dataset_path, model_out = run_training(tmp_dir, "main")
    return tmp_dir, dataset_path, model_out


def test_criterion_7_training_efficacy(training_run):
    t0 = time.perf_counter()
    tmp_dir, dataset_path, model_out = training_run

    from dynroute.learning import init_model, load_model, save_model

    trained = load_model(model_out)
    init = init_model(trained.kind, trained.feature_config, output_scale=trained.output_scale)
    init_path = os.path.join(tmp_dir, "model_init.json")
    save_model(init, init_path)
    loss_init = mean_loss(init_path, dataset_path)
    loss_final = mean_loss(model_out, dataset_path)
    drop_ok = loss_final <= 0.7 * loss_init

    greedy_mean, mlco_mean = eval_policies(model_out)
    margin = (greedy_mean - mlco_mean) / greedy_mean
    margin_ok = margin >= 0.03
    elapsed = time.perf_counter() - t0
    ok = drop_ok and margin_ok and elapsed <= 3600
    report(7, "training efficacy", ok,
           f"loss {loss_init:.0f}->{loss_final:.0f} "
           f"({1 - loss_final / max(loss_init, 1e-9):.0%} drop), "
           f"ml_co vs greedy {margin:+.1%}")
    assert ok


def test_criterion_7_network_stays_alive(training_run):
    """A trained network whose hidden layer never fires on the dataset's rows
    predicts one prize for every request, whatever its loss or margin; one
    with a single live unit left can still give most rows one prize."""
    from dynroute.dataset import load_dataset
    from dynroute.learning import activity, extract_features, load_model
    from dynroute.learning.models import MLP_HIDDEN

    _, dataset_path, model_out = training_run
    cfg = DynamicConfig(instance_seed=0, **TRAIN_DYNAMIC)
    model = load_model(model_out)
    instances = {load_instance(p).name: load_instance(p) for p in BENCH_INSTANCES[:2]}
    feats = np.vstack([
        extract_features(s.state, instances[s.instance], cfg, model.feature_config)
        for s in load_dataset(dataset_path, cfg) if s.state.open
    ])
    prizes, dead = activity(model, feats)
    p10, p50, p90 = np.percentile(prizes, [10, 50, 90])
    commonest = int(np.unique(prizes, return_counts=True)[1].max())
    # The second test also rules out one prize for every row.
    ok = all(d < width for d, width in zip(dead, MLP_HIDDEN)) and commonest < len(prizes) / 2
    report(7, "network stays alive", ok,
           f"dead units per hidden layer {dead}, prize p10/p50/p90 "
           f"{p10:.0f}/{p50:.0f}/{p90:.0f} over {len(prizes)} rows, "
           f"commonest prize on {commonest}")
    assert len(dead) == len(MLP_HIDDEN)
    assert ok


# ------------------------------------------------------------ criterion 8


def test_criterion_8_determinism(bench_dir, grad_fixtures, training_run, tmp_path_factory):
    tmp_dir = str(tmp_path_factory.mktemp("rerun"))

    c1_ok = canonical(run_criterion_1()) == canonical(run_criterion_1())
    c2_ok = canonical(run_criterion_2()) == canonical(run_criterion_2())
    c3_a = run_criterion_3(grad_fixtures[:5])
    c3_b = run_criterion_3(grad_fixtures[:5])
    c3_ok = canonical(c3_a) == canonical(c3_b)
    c4_ok = canonical(run_criterion_4(grad_fixtures[:5])) == canonical(
        run_criterion_4(grad_fixtures[:5])
    )

    rerun_dir = run_benchmark(tmp_dir, "rerun")
    bench_ok = True
    for fname in ("results.csv", "aggregate.json"):
        with open(os.path.join(bench_dir, fname), "rb") as fh:
            first = fh.read()
        with open(os.path.join(rerun_dir, fname), "rb") as fh:
            second = fh.read()
        if first != second:
            bench_ok = False
            break
    if bench_ok:
        a_runs = sorted(os.listdir(os.path.join(bench_dir, "runs")))
        b_runs = sorted(os.listdir(os.path.join(rerun_dir, "runs")))
        bench_ok = a_runs == b_runs and all(
            open(os.path.join(bench_dir, "runs", f), "rb").read()
            == open(os.path.join(rerun_dir, "runs", f), "rb").read()
            for f in a_runs
        )

    _, dataset_path, model_out = training_run
    dataset2, model2 = run_training(tmp_dir, "rerun")
    train_ok = (
        open(dataset_path, "rb").read() == open(dataset2, "rb").read()
        and open(model_out, "rb").read() == open(model2, "rb").read()
        and open(model_out + ".log.csv", "rb").read() == open(model2 + ".log.csv", "rb").read()
    )

    ok = c1_ok and c2_ok and c3_ok and c4_ok and bench_ok and train_ok
    report(8, "byte-identical reruns", ok,
           f"c1 {c1_ok}, c2 {c2_ok}, c3 {c3_ok}, c4 {c4_ok}, "
           f"benchmark {bench_ok}, training {train_ok}")
    assert ok
