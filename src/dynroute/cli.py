"""Command-line surface: gen-instance, solve-static, build-dataset, train, benchmark.

All commands read JSON configs, write canonical JSON/CSV (sorted keys, fixed
float formatting), and derive all randomness from explicit seeds so reruns in
iteration-budget mode are byte-identical. Measured wall times go to a separate
timings sidecar because they are inherently non-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .dataset import anticipative_baseline_cost, build_dataset, load_dataset
from .instance import generate_instance, load_instance
from .learning import PerturbationConfig, TrainConfig, load_model, save_model, train
from .pchgs import HgsParams, PcInstance, solve
from .policies import Policy, spec_from_dict
from .simulator import DynamicConfig, InvalidDecisionError, run_episode


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _dynamic_config(data: dict) -> DynamicConfig:
    return DynamicConfig(
        n_epochs=int(data["n_epochs"]),
        sample_size=int(data["sample_size"]),
        instance_seed=0,
        epoch_duration=int(data.get("epoch_duration", 3600)),
        dispatch_offset=int(data.get("dispatch_offset", 3600)),
    )


def _hgs_params(data: dict, seed: int) -> HgsParams:
    return HgsParams(
        budget_iters=data.get("budget_iters", 600),
        budget_s=data.get("budget_s"),
        stall_iters=data.get("stall_iters"),
        init_pool=data.get("init_pool"),
        seed=seed,
    )


# ----------------------------------------------------------------- commands


def cmd_gen_instance(args) -> int:
    inst = generate_instance(
        n_requests=args.n,
        seed=args.seed,
        name=args.name,
        n_clusters=args.clusters,
        horizon=args.horizon,
        capacity=args.capacity,
        window_width=(args.window_lo, args.window_hi),
        service_range=(args.service_lo, args.service_hi),
        close_band=(args.close_band_lo, args.close_band_hi),
    )
    _write_json(args.out, inst.to_json_dict())
    print(f"wrote {args.out}: {args.n} requests, horizon {args.horizon}")
    return 0


def cmd_solve_static(args) -> int:
    inst = load_instance(args.instance)
    n = inst.n_locations - 1
    if args.mode == "mandatory":
        prizes = [0.0] * n
        forced_in = frozenset(range(n))
    else:
        if args.prize_file:
            with open(args.prize_file, "r", encoding="utf-8") as fh:
                prizes = [float(x) for x in json.load(fh)]
            if len(prizes) != n:
                raise ValueError(f"prize file has {len(prizes)} entries for {n} requests")
        else:
            prizes = [float(args.prize_const)] * n
        forced_in = frozenset()
    pc = PcInstance(
        travel=inst.travel.copy(),
        demand=tuple(inst.demand[1:]),
        service=tuple(inst.service[1:]),
        tw_open=tuple(o for o, _ in inst.tw[1:]),
        tw_close=tuple(c for _, c in inst.tw[1:]),
        prizes=tuple(prizes),
        capacity=inst.capacity,
        departure=args.departure,
        horizon=inst.horizon,
        forced_in=forced_in,
        ids=tuple(range(1, n + 1)),
    )
    sol = solve(pc, _hgs_params(vars(args), seed=args.seed))
    out = sol.to_json_dict(pc)
    out["mode"] = args.mode
    out["instance"] = inst.name
    text = json.dumps(out, sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_build_dataset(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out = args.out or config["out"]
    params = _hgs_params(_override_budget(config, args), seed=seed)
    instances = [load_instance(p) for p in config["instances"]]
    cfg = _dynamic_config(config["dynamic"])
    for inst in instances:
        cfg.validate(inst)
    count = build_dataset(
        instances, cfg, int(config.get("n_scenarios", 3)), params, seed, out
    )
    meta = {
        "dynamic": config["dynamic"],
        "instances": {inst.name: path for inst, path in zip(instances, config["instances"])},
        "n_scenarios": int(config.get("n_scenarios", 3)),
        "seed": seed,
    }
    _write_json(out + ".meta.json", meta)
    print(f"wrote {count} samples to {out}")
    return 0


def cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    dataset_path = config["dataset"]
    meta_path = config.get("meta", dataset_path + ".meta.json")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    cfg = _dynamic_config(meta["dynamic"])
    samples = load_dataset(dataset_path, cfg)
    instances = {name: load_instance(path) for name, path in meta["instances"].items()}

    pdata = dict(config.get("perturbation", {}))
    inner = _hgs_params(pdata.pop("inner", {"budget_iters": 80, "stall_iters": 40}), seed=pdata.pop("inner_seed", 1))
    pcfg = PerturbationConfig(inner_params=inner, **pdata)
    tdata = dict(config.get("train", {}))
    if args.seed is not None:
        tdata["seed"] = args.seed
    tcfg = TrainConfig(**tdata)

    result = train(
        samples,
        instances,
        cfg,
        set_kind=config.get("set_kind", "complete"),
        model_kind=config.get("model_kind", "mlp"),
        pcfg=pcfg,
        tcfg=tcfg,
    )
    out_model = args.out or config["out_model"]
    save_model(result.model, out_model)
    log_path = config.get("out_log", out_model + ".log.csv")
    with open(log_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss"])
        for row in result.log:
            writer.writerow([row["epoch"], f"{row['train_loss']:.6f}"])
    print(f"wrote {out_model} and {log_path}")
    return 0


def _override_budget(config: dict, args) -> dict:
    out = dict(config)
    if getattr(args, "budget_iters", None) is not None:
        out["budget_iters"] = args.budget_iters
        out["budget_s"] = None
    if getattr(args, "budget_s", None) is not None:
        out["budget_s"] = args.budget_s
        out["budget_iters"] = None
    return out


# ---------------------------------------------------------------- benchmark


def _run_policy_task(task: dict) -> dict:
    """One episode of one policy. Any exception it raises becomes the row's
    status, with the traceback reported, so one failed task does not abort
    the benchmark."""
    inst, cfg = task["inst"], task["cfg"]
    t0 = time.perf_counter()
    try:
        policy = Policy(task["spec"], inst, cfg, model=task["model"])
        result = run_episode(inst, cfg, policy)
        wall = time.perf_counter() - t0
        return {
            "instance": inst.name,
            "seed": cfg.instance_seed,
            "policy": task["policy_name"],
            "status": "ok",
            "total_cost": result.total_cost,
            "epochs": len(result.per_epoch),
            "wall_time_s": wall,
            "record": result.to_json_dict(cfg, inst.name),
        }
    except Exception as exc:
        invalid = isinstance(exc, InvalidDecisionError)
        return {
            "instance": inst.name,
            "seed": cfg.instance_seed,
            "policy": task["policy_name"],
            "status": "invalid_decision" if invalid else f"error:{type(exc).__name__}",
            "error": str(exc) if invalid else traceback.format_exc(),
            "wall_time_s": time.perf_counter() - t0,
        }


def _run_baseline_task(task: dict) -> dict:
    """The hindsight cost of one scenario. An exception it raises leaves the
    cost None and becomes the result's status, with the traceback reported,
    so one failed baseline does not abort the benchmark."""
    inst, cfg = task["inst"], task["cfg"]
    t0 = time.perf_counter()
    try:
        cost, status, error = anticipative_baseline_cost(inst, cfg, task["params"]), "ok", None
    except Exception as exc:
        cost, status, error = None, f"error:{type(exc).__name__}", traceback.format_exc()
    return {
        "instance": inst.name,
        "seed": cfg.instance_seed,
        "policy": "anticipative",
        "cost": cost,
        "status": status,
        "error": error,
        "wall_time_s": time.perf_counter() - t0,
    }


def cmd_benchmark(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    out_dir = args.out or config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)

    base_seed = args.seed if args.seed is not None else int(config.get("base_seed", 1))
    n_seeds = int(config.get("n_instance_seeds", 20))
    seeds = [base_seed + k for k in range(n_seeds)]
    # Load every instance, check the dynamic config against each, parse every
    # spec and load every model up front, so a bad config fails before any
    # solving starts.
    instances = [load_instance(p) for p in config["instances"]]
    dynamic = _dynamic_config(config["dynamic"])
    for inst in instances:
        dynamic.validate(inst)
    policies = []
    for pdata in config["policies"]:
        pdata = _override_budget(pdata, args)
        name = pdata.pop("name", pdata.get("kind"))
        spec = spec_from_dict(pdata)
        model = load_model(spec.model_path) if spec.kind == "ml_co" else None
        policies.append((name, spec, model))
    baseline_cfg = config.get("baseline", {"budget_iters": 1200, "stall_iters": 400})

    deterministic = all(spec.budget_s is None for _, spec, _ in policies) and (
        baseline_cfg.get("budget_s") is None
    )

    policy_tasks = [
        {
            "inst": inst,
            "cfg": dataclasses.replace(dynamic, instance_seed=seed),
            "spec": spec,
            "model": model,
            "policy_name": name,
        }
        for inst in instances
        for seed in seeds
        for name, spec, model in policies
    ]
    baseline_tasks = [
        {
            "inst": inst,
            "cfg": dataclasses.replace(dynamic, instance_seed=seed),
            "params": _hgs_params(baseline_cfg, seed=seed),
        }
        for inst in instances
        for seed in seeds
    ]

    workers = max(1, args.workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            baseline_results = list(pool.map(_run_baseline_task, baseline_tasks))
            policy_results = list(pool.map(_run_policy_task, policy_tasks))
    else:
        baseline_results = [_run_baseline_task(t) for t in baseline_tasks]
        policy_results = [_run_policy_task(t) for t in policy_tasks]

    baseline_by_key = {(r["instance"], r["seed"]): r["cost"] for r in baseline_results}
    policy_results.sort(key=lambda r: (r["instance"], r["seed"], r["policy"]))

    def gap_of(r: dict) -> float | None:
        """Relative gap to the baseline; None when the baseline failed or
        costs 0 (a scenario that reveals no reachable request)."""
        base = baseline_by_key[(r["instance"], r["seed"])]
        return (r["total_cost"] - base) / base if base else None

    def fmt_wall(w: float) -> str:
        return "0.000" if deterministic else f"{w:.3f}"

    results_path = os.path.join(out_dir, "results.csv")
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance", "seed", "policy", "total_cost", "baseline_cost", "relative_gap",
             "wall_time_s", "status"]
        )
        for r in policy_results:
            base = baseline_by_key[(r["instance"], r["seed"])]
            if base is None:
                base = ""
            if r["status"] == "ok":
                gap = gap_of(r)
                writer.writerow(
                    [r["instance"], r["seed"], r["policy"], r["total_cost"], base,
                     "" if gap is None else f"{gap:.6f}", fmt_wall(r["wall_time_s"]), "ok"]
                )
            else:
                writer.writerow(
                    [r["instance"], r["seed"], r["policy"], "", base, "",
                     fmt_wall(r["wall_time_s"]), r["status"]]
                )

    episodes_path = os.path.join(out_dir, "episodes.csv")
    with open(episodes_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "seed", "policy", "total_cost", "epochs", "wall_time_s"])
        for r in policy_results:
            if r["status"] == "ok":
                writer.writerow(
                    [r["instance"], r["seed"], r["policy"], r["total_cost"], r["epochs"],
                     fmt_wall(r["wall_time_s"])]
                )

    with open(os.path.join(out_dir, "timings.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "seed", "policy", "wall_time_s"])
        for r in policy_results:
            writer.writerow([r["instance"], r["seed"], r["policy"], f"{r['wall_time_s']:.3f}"])
        for r in sorted(baseline_results, key=lambda r: (r["instance"], r["seed"])):
            writer.writerow([r["instance"], r["seed"], r["policy"], f"{r['wall_time_s']:.3f}"])

    aggregate: dict[str, dict] = {}
    for name, _, _ in policies:
        rows = [r for r in policy_results if r["policy"] == name]
        ok = [r for r in rows if r["status"] == "ok"]
        gaps = [g for g in map(gap_of, ok) if g is not None]
        costs = [r["total_cost"] for r in ok]
        aggregate[name] = {
            "n": len(rows),
            "n_ok": len(ok),
            "n_invalid": len(rows) - len(ok),
            "mean_gap": float(np.mean(gaps)) if gaps else None,
            "var_gap": float(np.var(gaps)) if gaps else None,
            "mean_cost": float(np.mean(costs)) if costs else None,
            "var_cost": float(np.var(costs)) if costs else None,
        }
    baseline_costs = [c for c in baseline_by_key.values() if c is not None]
    aggregate["anticipative"] = {
        "mean_cost": float(np.mean(baseline_costs)) if baseline_costs else None,
        "var_cost": float(np.var(baseline_costs)) if baseline_costs else None,
        "n": len(baseline_costs),
    }
    _write_json(os.path.join(out_dir, "aggregate.json"), aggregate)

    for r in policy_results:
        if r["status"] == "ok":
            name = f"{r['instance']}__{r['seed']}__{r['policy']}.json"
            _write_json(os.path.join(out_dir, "runs", name), r["record"])

    for r in baseline_results + policy_results:
        if r["status"] != "ok":
            print(f"benchmark: {r['instance']}/{r['seed']}/{r['policy']}: {r['status']}: "
                  f"{r['error']}", file=sys.stderr)
    n_invalid = sum(1 for r in policy_results if r["status"] != "ok")
    print(f"benchmark: {len(policy_results)} episodes, {n_invalid} invalid, results in {out_dir}")
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynroute")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="generate a random static instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default=None)
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--horizon", type=int, default=28_800)
    p.add_argument("--capacity", type=int, default=30)
    p.add_argument("--window-lo", type=int, default=3_600, dest="window_lo")
    p.add_argument("--window-hi", type=int, default=14_400, dest="window_hi")
    p.add_argument("--service-lo", type=int, default=120, dest="service_lo")
    p.add_argument("--service-hi", type=int, default=360, dest="service_hi")
    p.add_argument("--close-band-lo", type=float, default=0.0, dest="close_band_lo")
    p.add_argument("--close-band-hi", type=float, default=1.0, dest="close_band_hi")
    p.set_defaults(func=cmd_gen_instance)

    p = sub.add_parser("solve-static", help="solve one instance in mandatory or prize mode")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=["mandatory", "prize"], default="mandatory")
    p.add_argument("--prize-file", default=None)
    p.add_argument("--prize-const", type=float, default=0.0)
    p.add_argument("--departure", type=int, default=0)
    p.add_argument("--budget-iters", type=int, default=600, dest="budget_iters")
    p.add_argument("--budget-s", type=float, default=None, dest="budget_s")
    p.add_argument("--stall-iters", type=int, default=None, dest="stall_iters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve_static)

    p = sub.add_parser("build-dataset", help="build imitation samples from hindsight solves")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-iters", type=int, default=None, dest="budget_iters")
    p.add_argument("--budget-s", type=float, default=None, dest="budget_s")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train a prize model on a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="run policies over instances and seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-iters", type=int, default=None, dest="budget_iters")
    p.add_argument("--budget-s", type=float, default=None, dest="budget_s")
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(
            json.dumps({"error": str(exc), "type": type(exc).__name__}, sort_keys=True) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
