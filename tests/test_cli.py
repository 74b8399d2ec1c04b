import csv
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from dynroute import cli
from dynroute.cli import main
from dynroute.instance import load_instance
from dynroute.learning import init_model, load_model
from dynroute.pchgs import HgsParams, PcInfeasibleError, brute_force_solve
from dynroute.policies import spec_from_dict

from helpers import pc_from_static

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    rc = main(list(argv))
    assert rc == 0, f"command failed: {argv}"


def test_gen_instance_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("gen-instance", "--n", "8", "--seed", "5", "--out", str(a))
    run_cli("gen-instance", "--n", "8", "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    inst = load_instance(str(a))
    assert inst.n_locations == 9


def test_solve_static_mandatory_single_request(tmp_path):
    path = tmp_path / "one.json"
    run_cli("gen-instance", "--n", "1", "--seed", "7", "--out", str(path))
    inst = load_instance(str(path))
    out = tmp_path / "sol.json"
    run_cli("solve-static", "--instance", str(path), "--mode", "mandatory",
            "--budget-iters", "50", "--out", str(out))
    sol = json.loads(out.read_text())
    expected = -(int(inst.travel[0, 1]) + int(inst.travel[1, 0]))
    assert sol["objective"] == expected
    assert sol["routes"] == [[1]]
    assert sol["mode"] == "mandatory"


def test_solve_static_prize_mode_matches_brute_force(tmp_path):
    path = tmp_path / "six.json"
    run_cli("gen-instance", "--n", "6", "--seed", "11", "--out", str(path))
    inst = load_instance(str(path))
    rng = np.random.default_rng(1)
    maxc = int(inst.travel.max())
    prizes = rng.integers(-maxc, 2 * maxc, size=6).astype(float).tolist()
    prize_file = tmp_path / "prizes.json"
    prize_file.write_text(json.dumps(prizes))
    out = tmp_path / "sol.json"
    run_cli("solve-static", "--instance", str(path), "--mode", "prize",
            "--prize-file", str(prize_file), "--budget-iters", "250",
            "--seed", "2", "--out", str(out))
    sol = json.loads(out.read_text())
    exact = brute_force_solve(pc_from_static(inst, prizes))
    assert abs(sol["objective"] - exact.objective) <= 1e-9


def dataset_config(tmp_path, inst_paths, n_scenarios=2):
    return {
        "instances": [str(p) for p in inst_paths],
        "dynamic": {"n_epochs": 3, "sample_size": 5, "epoch_duration": 4000,
                    "dispatch_offset": 4000},
        "n_scenarios": n_scenarios,
        "seed": 9,
        "budget_iters": 100,
        "stall_iters": 50,
        "out": str(tmp_path / "data.jsonl"),
    }


def test_build_dataset_and_train_round_trip(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "10", "--seed", "13", "--out", str(inst_path))
    cfg_path = tmp_path / "build.json"
    cfg = dataset_config(tmp_path, [inst_path])
    cfg_path.write_text(json.dumps(cfg))
    run_cli("build-dataset", "--config", str(cfg_path))

    lines = [l for l in open(cfg["out"]) if l.strip()]
    assert len(lines) == 2 * 3
    meta = json.loads(open(cfg["out"] + ".meta.json").read())
    assert meta["seed"] == 9

    train_cfg = {
        "dataset": cfg["out"],
        "set_kind": "model_free",
        "model_kind": "mlp",
        "perturbation": {"epsilon": 1.0, "n_samples": 3, "seed": 4,
                         "inner": {"budget_iters": 40, "stall_iters": 20}},
        "train": {"epochs": 2, "batch_size": 2, "learning_rate": 0.05, "seed": 5},
        "out_model": str(tmp_path / "model.json"),
    }
    t_path = tmp_path / "train.json"
    t_path.write_text(json.dumps(train_cfg))
    run_cli("train", "--config", str(t_path))
    model = load_model(train_cfg["out_model"])
    assert model.kind == "mlp"
    with open(train_cfg["out_model"] + ".log.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["epoch", "train_loss"]
    assert len(rows) == 1 + 2


def test_train_zero_epochs_equals_initialization(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "8", "--seed", "17", "--out", str(inst_path))
    cfg_path = tmp_path / "build.json"
    cfg = dataset_config(tmp_path, [inst_path], n_scenarios=1)
    cfg_path.write_text(json.dumps(cfg))
    run_cli("build-dataset", "--config", str(cfg_path))
    train_cfg = {
        "dataset": cfg["out"],
        "set_kind": "model_free",
        "model_kind": "linear",
        "perturbation": {"epsilon": 1.0, "n_samples": 2, "seed": 1,
                         "inner": {"budget_iters": 30, "stall_iters": 15}},
        "train": {"epochs": 0, "batch_size": 2, "learning_rate": 0.1, "seed": 2},
        "out_model": str(tmp_path / "model.json"),
    }
    t_path = tmp_path / "train.json"
    t_path.write_text(json.dumps(train_cfg))
    run_cli("train", "--config", str(t_path))
    model = load_model(train_cfg["out_model"])
    fresh = init_model("linear", model.feature_config, output_scale=model.output_scale)
    assert np.array_equal(model.weights[0], fresh.weights[0])


def test_train_reruns_are_byte_identical(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "8", "--seed", "19", "--out", str(inst_path))
    cfg_path = tmp_path / "build.json"
    cfg = dataset_config(tmp_path, [inst_path], n_scenarios=1)
    cfg_path.write_text(json.dumps(cfg))
    run_cli("build-dataset", "--config", str(cfg_path))
    train_cfg = {
        "dataset": cfg["out"],
        "set_kind": "model_free",
        "model_kind": "linear",
        "perturbation": {"epsilon": 1.0, "n_samples": 2, "seed": 6,
                         "inner": {"budget_iters": 30, "stall_iters": 15}},
        "train": {"epochs": 2, "batch_size": 2, "learning_rate": 0.05, "seed": 7},
        "out_model": str(tmp_path / "m1.json"),
    }
    t_path = tmp_path / "train.json"
    t_path.write_text(json.dumps(train_cfg))
    run_cli("train", "--config", str(t_path))
    first = open(train_cfg["out_model"], "rb").read()
    train_cfg["out_model"] = str(tmp_path / "m2.json")
    t_path.write_text(json.dumps(train_cfg))
    run_cli("train", "--config", str(t_path))
    second = open(train_cfg["out_model"], "rb").read()
    assert first == second


def benchmark_config(tmp_path, inst_paths, seeds=1):
    return {
        "instances": [str(p) for p in inst_paths],
        "dynamic": {"n_epochs": 2, "sample_size": 5, "epoch_duration": 4000,
                    "dispatch_offset": 4000},
        "n_instance_seeds": seeds,
        "base_seed": 3,
        "policies": [
            {"kind": "greedy", "budget_iters": 60, "stall_iters": 30, "seed": 1},
            {"kind": "lazy", "budget_iters": 60, "stall_iters": 30, "seed": 1},
        ],
        "baseline": {"budget_iters": 80, "stall_iters": 40},
        "out_dir": str(tmp_path / "results"),
    }


def test_benchmark_outputs_and_aggregate_audit(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "10", "--seed", "23", "--out", str(inst_path))
    cfg = benchmark_config(tmp_path, [inst_path])
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    run_cli("benchmark", "--config", str(cfg_path))

    out = cfg["out_dir"]
    with open(os.path.join(out, "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["policy"] for r in rows} == {"greedy", "lazy"}
    for r in rows:
        assert r["status"] == "ok"
        gap = (float(r["total_cost"]) - float(r["baseline_cost"])) / float(r["baseline_cost"])
        assert abs(gap - float(r["relative_gap"])) <= 1e-6
    with open(os.path.join(out, "timings.csv")) as fh:
        timings = list(csv.DictReader(fh))
    assert sorted(r["policy"] for r in timings) == ["anticipative", "greedy", "lazy"]
    assert all(float(r["wall_time_s"]) >= 0 for r in timings)

    agg = json.loads(open(os.path.join(out, "aggregate.json")).read())
    for name in ("greedy", "lazy"):
        sub = [r for r in rows if r["policy"] == name]
        mean_gap = sum(
            (float(r["total_cost"]) - float(r["baseline_cost"])) / float(r["baseline_cost"])
            for r in sub
        ) / len(sub)
        assert abs(agg[name]["mean_gap"] - mean_gap) <= 1e-12
    assert agg["anticipative"]["n"] == 1

    runs = os.listdir(os.path.join(out, "runs"))
    assert len(runs) == 2
    record = json.loads(open(os.path.join(out, "runs", sorted(runs)[0])).read())
    assert set(record) == {"config", "per_epoch", "total_cost"}


def test_benchmark_reruns_byte_identical(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "9", "--seed", "29", "--out", str(inst_path))
    cfg = benchmark_config(tmp_path, [inst_path])
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    run_cli("benchmark", "--config", str(cfg_path))
    files = ["results.csv", "aggregate.json"]
    first = {f: open(os.path.join(cfg["out_dir"], f), "rb").read() for f in files}
    run_cli("benchmark", "--config", str(cfg_path))
    second = {f: open(os.path.join(cfg["out_dir"], f), "rb").read() for f in files}
    assert first == second


def test_benchmark_parallel_matches_serial(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "9", "--seed", "31", "--out", str(inst_path))
    cfg = benchmark_config(tmp_path, [inst_path], seeds=2)
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    run_cli("benchmark", "--config", str(cfg_path))
    serial = open(os.path.join(cfg["out_dir"], "results.csv"), "rb").read()
    run_cli("benchmark", "--config", str(cfg_path), "--workers", "2")
    parallel = open(os.path.join(cfg["out_dir"], "results.csv"), "rb").read()
    assert serial == parallel


def test_benchmark_reports_a_failed_policy_as_a_status_row(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "8", "--seed", "41", "--out", str(inst_path))
    cfg = benchmark_config(tmp_path, [inst_path], seeds=2)
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))

    def infeasible(*args, **kwargs):
        raise PcInfeasibleError("no feasible solution found within budget")

    monkeypatch.setattr("dynroute.policies.decide_lazy", infeasible)
    run_cli("benchmark", "--config", str(cfg_path))
    with open(os.path.join(cfg["out_dir"], "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for r in rows:
        if r["policy"] == "lazy":
            assert r["status"] == "error:PcInfeasibleError"
            assert r["total_cost"] == "" and r["relative_gap"] == ""
        else:
            assert r["status"] == "ok"
            assert float(r["total_cost"]) > 0
    agg = json.loads(open(os.path.join(cfg["out_dir"], "aggregate.json")).read())
    assert (agg["lazy"]["n_ok"], agg["lazy"]["n_invalid"]) == (0, 2)
    assert agg["greedy"]["n_ok"] == 2
    assert "no feasible solution found within budget" in capsys.readouterr().err


def test_benchmark_leaves_the_gap_to_a_zero_baseline_empty(tmp_path):
    # Every request of this instance closes within the first tenth of the day,
    # so no scenario reveals a reachable one and the baseline costs 0.
    empty_path = tmp_path / "empty.json"
    run_cli("gen-instance", "--n", "10", "--seed", "3", "--close-band-hi", "0.1",
            "--out", str(empty_path))
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "10", "--seed", "23", "--out", str(inst_path))
    cfg = benchmark_config(tmp_path, [empty_path, inst_path], seeds=2)
    cfg["policies"] = cfg["policies"][:1]
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    run_cli("benchmark", "--config", str(cfg_path))

    with open(os.path.join(cfg["out_dir"], "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and all(r["status"] == "ok" for r in rows)
    zero = [r for r in rows if r["baseline_cost"] == "0"]
    rest = [r for r in rows if r["baseline_cost"] != "0"]
    assert len(zero) == 2 and len(rest) == 2
    assert all(r["relative_gap"] == "" for r in zero)
    gaps = [(float(r["total_cost"]) - float(r["baseline_cost"])) / float(r["baseline_cost"])
            for r in rest]
    for r, gap in zip(rest, gaps):
        assert abs(gap - float(r["relative_gap"])) <= 1e-6
    agg = json.loads(open(os.path.join(cfg["out_dir"], "aggregate.json")).read())
    assert agg["greedy"]["n_ok"] == 4
    assert abs(agg["greedy"]["mean_gap"] - sum(gaps) / 2) <= 1e-12
    assert abs(agg["greedy"]["var_gap"] - float(np.var(gaps))) <= 1e-12


def test_benchmark_reports_a_failed_baseline_as_empty_cells(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "8", "--seed", "43", "--out", str(inst_path))
    cfg = benchmark_config(tmp_path, [inst_path], seeds=2)
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    baseline = cli.anticipative_baseline_cost

    def fail_seed_4(inst, dyn, params):
        if dyn.instance_seed == 4:
            raise PcInfeasibleError("no feasible solution found within budget")
        return baseline(inst, dyn, params)

    monkeypatch.setattr(cli, "anticipative_baseline_cost", fail_seed_4)
    run_cli("benchmark", "--config", str(cfg_path))
    with open(os.path.join(cfg["out_dir"], "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and all(r["status"] == "ok" for r in rows)
    failed = [r for r in rows if r["seed"] == "4"]
    kept = [r for r in rows if r["seed"] == "3"]
    assert len(failed) == 2 and len(kept) == 2
    assert all(r["baseline_cost"] == "" and r["relative_gap"] == "" for r in failed)
    assert all(float(r["total_cost"]) > 0 for r in failed)
    assert all(float(r["baseline_cost"]) > 0 and r["relative_gap"] for r in kept)
    agg = json.loads(open(os.path.join(cfg["out_dir"], "aggregate.json")).read())
    assert agg["anticipative"] == {"mean_cost": float(kept[0]["baseline_cost"]),
                                   "var_cost": 0.0, "n": 1}
    for name in ("greedy", "lazy"):
        (row,) = [r for r in kept if r["policy"] == name]
        assert agg[name]["n_ok"] == 2
        assert abs(agg[name]["mean_gap"] - float(row["relative_gap"])) <= 1e-6
    err = capsys.readouterr().err
    assert "/4/anticipative: error:PcInfeasibleError" in err
    assert "no feasible solution found within budget" in err


def count_baselines(monkeypatch) -> list:
    """Names of the instances whose baseline the benchmark goes on to solve
    (each costs 1)."""
    calls = []

    def fake_baseline(inst, *args, **kwargs):
        calls.append(inst.name)
        return 1

    monkeypatch.setattr("dynroute.cli.anticipative_baseline_cost", fake_baseline)
    return calls


def test_benchmark_rejects_a_missing_instance_before_solving(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "6", "--seed", "37", "--out", str(inst_path))
    cfg = benchmark_config(tmp_path, [inst_path, tmp_path / "missing.json"], seeds=2)
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    calls = count_baselines(monkeypatch)
    rc = main(["benchmark", "--config", str(cfg_path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["type"] == "FileNotFoundError"
    assert calls == []


def test_benchmark_rejects_epochs_past_the_horizon_before_solving(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "6", "--seed", "37", "--out", str(inst_path))
    cfg = benchmark_config(tmp_path, [inst_path])
    cfg["dynamic"]["n_epochs"] = 8  # 8 x 4,000 s > the 28,800 s horizon
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    calls = count_baselines(monkeypatch)
    rc = main(["benchmark", "--config", str(cfg_path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["type"] == "ValueError" and "exceeds horizon 28800" in payload["error"]
    assert calls == []
    assert not os.path.exists(os.path.join(cfg["out_dir"], "results.csv"))


def test_build_dataset_rejects_epochs_past_the_horizon(tmp_path, capsys):
    cfg = dataset_config(tmp_path, ["tests/fixtures/bench_a.json"], n_scenarios=1)
    cfg["dynamic"] = {"n_epochs": 9, "sample_size": 5, "epoch_duration": 3600,
                      "dispatch_offset": 3600}  # 9 x 3,600 s > bench_a's 28,800 s
    cfg_path = tmp_path / "build.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["build-dataset", "--config", str(cfg_path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["type"] == "ValueError" and "exceeds horizon 28800" in payload["error"]
    assert not os.path.exists(cfg["out"])


def test_hgs_params_are_the_budget_a_config_sets():
    fields = [f.name for f in dataclasses.fields(HgsParams) if f.name != "seed"]
    for name in fields:
        value = getattr(HgsParams(), name)
        changed = 7 if value is None else value + 1
        params = cli._hgs_params({name: changed}, seed=0)
        assert getattr(params, name) == changed, name


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "configs").glob("*.json")))
def test_config_file_builds_what_its_command_builds(name, monkeypatch):
    """Each file under configs/ yields, without solving, the objects that the
    command reading it builds, and each of them validates."""
    monkeypatch.chdir(ROOT)  # the files name their instances relative to the root
    config = json.loads((ROOT / "configs" / name).read_text())
    budgets = []
    if "train" in config:  # dynroute train
        pcfg, tcfg = cli._learning_configs(config, None)
        tcfg.validate()
        budgets.append(pcfg.inner_params)
    else:  # build-dataset and benchmark
        dynamic = cli._dynamic_config(config["dynamic"])
        for path in config["instances"]:
            dynamic.validate(load_instance(path))
        if "policies" in config:
            budgets.append(cli._hgs_params(config["baseline"], seed=0))
            for pdata in config["policies"]:
                spec = spec_from_dict({k: v for k, v in pdata.items() if k != "name"})
                if spec.kind == "ml_co":
                    load_model(spec.model_path)
        else:
            budgets.append(cli._hgs_params(config, seed=config["seed"]))
    for params in budgets:
        params.validate()


def test_benchmark_rejects_missing_model_before_solving(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    run_cli("gen-instance", "--n", "6", "--seed", "37", "--out", str(inst_path))
    cfg = benchmark_config(tmp_path, [inst_path])
    cfg["policies"].append({"kind": "ml_co", "budget_iters": 60, "stall_iters": 30,
                            "seed": 1, "model_path": str(tmp_path / "missing.json")})
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    baseline_calls = count_baselines(monkeypatch)
    rc = main(["benchmark", "--config", str(cfg_path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["type"] == "FileNotFoundError"
    assert baseline_calls == []


def test_cli_error_is_machine_readable(tmp_path, capsys):
    rc = main(["solve-static", "--instance", str(tmp_path / "missing.json")])
    assert rc == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload and "type" in payload
