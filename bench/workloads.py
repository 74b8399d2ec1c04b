"""The benchmark's three workloads, each a fixed round of operations.

A workload loads its inputs in ``__init__`` (the set-up that ``setup_s``
times), runs one round of operations in ``timed`` and checks that round's
outputs in ``check``, outside every timed region. A round's make-up depends
only on the seed shift, never on how long anything takes, so every round of a
run attempts the same operations and repeats the same costs.

Run as a script (``python3 bench/workloads.py <workload> <shift>``) it prints
the seconds from its first line to loaded inputs: one set-up sample.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

# Wrapped layer functions are called through their modules, so that the
# traced run's wrappers see the calls made from here too.
import dynroute.cli  # noqa: E402,F401  (binds its own `solve`, which the traced run wraps)
from dynroute import dataset, learning, simulator  # noqa: E402
from dynroute.instance import load_instance  # noqa: E402
from dynroute.pchgs import HgsParams  # noqa: E402
from dynroute.policies import Policy, spec_from_dict  # noqa: E402

import checker  # noqa: E402
import spans  # noqa: E402

OUT = HERE / "out"

# Episodes per instance in an online round: 3 instances x 4 seeds = 12
# episodes, 60 decisions of which about 48 face open requests, in 14-30 s.
# The scenarios stay at benchmark_smoke's recorded seeds and the seed shift
# moves the policy's solver seed: across blocks of 6 scenario seeds the
# median decision time moved by 40% (174-245 ms; repeats of one block within
# 0.5%), across solver seeds by 4% (interquartile range over ten seeds).
ONLINE_SEEDS = 4
# Acceptance criterion 7's evaluation scenarios (n ~ 20), plus one hindsight
# solve at benchmark_smoke's scale and recorded seed (n ~ 40). None moves
# with the seed shift: bench_b/2001 fails every time (see KNOWN_FAULTS) and
# must be attempted in every run, and a shifted scenario whose hindsight
# solve lands above greedy would make the failed share depend on the seed.
# Seeds 100-110 had none, but margins down to 0.6% (bench_a/107).
CRITERION7_INSTANCES = ("bench_a", "bench_b")
CRITERION7_SEEDS = tuple(range(2000, 2005))
CRITERION7_SAMPLE_SIZE = 10
SMOKE_HINDSIGHT_INSTANCES = ("bench_a",)
# Operations that fail every time because of a named fault, with the only
# check they are allowed to fail. The stall limit (80) of the baseline budget
# is below HgsParams.adapt_period (100), so the penalties never adapt and the
# hindsight solve keeps its all-single-request start.
KNOWN_FAULTS = {("bench_b", CRITERION7_SAMPLE_SIZE, 2001): "above_greedy"}
# Checks whose failure is a weak result of a heuristic, not a wrong output.
QUALITY_KINDS = {"above_greedy", "loss_not_decreasing"}


def _config(rel: str) -> dict:
    with open(ROOT / rel, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dynamic(data: dict, seed: int) -> simulator.DynamicConfig:
    return simulator.DynamicConfig(
        n_epochs=int(data["n_epochs"]),
        sample_size=int(data["sample_size"]),
        instance_seed=seed,
        epoch_duration=int(data.get("epoch_duration", 3600)),
        dispatch_offset=int(data.get("dispatch_offset", 3600)),
    )


def _hgs_params(data: dict, seed: int) -> HgsParams:
    """Search budget from a config, read as the dynroute commands read it."""
    return HgsParams(
        budget_iters=data.get("budget_iters", 600),
        budget_s=data.get("budget_s"),
        stall_iters=data.get("stall_iters"),
        init_pool=data.get("init_pool"),
        seed=seed,
    )


def _epochs(cfg: simulator.DynamicConfig) -> checker.Epochs:
    return checker.Epochs(cfg.n_epochs, cfg.epoch_duration, cfg.dispatch_offset)


def _requests(open_reqs, epochs: checker.Epochs) -> list[checker.Request]:
    """Checker copies of the program's requests; a request is released at
    its reveal epoch's dispatch time."""
    return [
        checker.Request(r.id, r.location, r.demand, r.service, r.tw_open, r.tw_close,
                        epochs.dispatch_time(r.reveal_epoch))
        for r in open_reqs
    ]


@dataclass
class Round:
    """One round's timings and outputs; ``outputs`` must repeat exactly."""

    busy_s: float = 0.0
    op_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)


@dataclass
class Verdict:
    objective: float
    attempted: int
    failed: int
    violations: list
    extra: dict = field(default_factory=dict)


def _check_episode(cinst: checker.Instance, cfg: simulator.DynamicConfig, decisions, total_cost: int):
    """Violations of one closed-loop episode given its (state, decision) log."""
    epochs = _epochs(cfg)
    violations, routes, revealed, arc_sum = [], [], set(), 0
    if len(decisions) != cfg.n_epochs:
        violations.append(("epoch", f"{len(decisions)} decisions in {cfg.n_epochs} epochs"))
    for epoch, (state, decision) in enumerate(decisions):
        if state.epoch != epoch:
            violations.append(("epoch", f"decision {epoch} made in epoch {state.epoch}"))
        reqs = _requests(state.open, epochs)
        revealed.update(r.id for r in reqs)
        cost, found = checker.check_decision(cinst, reqs, decision.routes, state.epoch, epochs)
        violations.extend(found)
        arc_sum += cost
        routes.extend(decision.routes)
    violations.extend(checker.check_cover(routes, revealed))
    if arc_sum != total_cost:
        violations.append(("cost", f"episode cost {total_cost} != arc sum {arc_sum}"))
    return arc_sum, violations


class Online:
    """Closed-loop ml_co episodes at configs/benchmark_smoke.json's scale."""

    def __init__(self, shift: int):
        config = _config("configs/benchmark_smoke.json")
        (pdata,) = [p for p in config["policies"] if p["kind"] == "ml_co"]
        self.spec = spec_from_dict(dict(pdata, seed=int(pdata.get("seed", 0)) + shift))
        self.model = learning.load_model(str(ROOT / self.spec.model_path))
        self.instances = [
            (load_instance(str(ROOT / p)), checker.Instance.from_file(str(ROOT / p)))
            for p in config["instances"]
        ]
        self.dynamic = config["dynamic"]
        base = int(config["base_seed"])
        self.seeds = [base + k for k in range(ONLINE_SEEDS)]
        self.logs: dict = {}

    def timed(self, rec) -> Round:
        rnd = Round()
        for inst, _ in self.instances:
            for seed in self.seeds:
                cfg = _dynamic(self.dynamic, seed)
                policy = Policy(self.spec, inst, cfg, model=self.model)
                log = []

                def decide(state, policy=policy, log=log):
                    t0 = time.perf_counter()
                    decision = policy(state)
                    wall = time.perf_counter() - t0
                    log.append((state, decision))
                    if state.open:
                        rnd.op_s.append(wall)
                    return decision

                if rec is not None:
                    rec.op = f"online/{inst.name}/{seed}"
                t0 = time.perf_counter()
                try:
                    result = simulator.run_episode(inst, cfg, decide)
                except Exception as exc:  # a failed operation, reported and counted
                    rnd.errors[(inst.name, seed)] = repr(exc)
                    rnd.outputs.append(None)
                    continue
                finally:
                    rnd.busy_s += time.perf_counter() - t0
                self.logs[(inst.name, seed)] = (cfg, log, result.total_cost)
                rnd.outputs.append(result.total_cost)
        return rnd

    def check(self, rnd: Round) -> Verdict:
        violations, failed, costs = [], 0, []
        for inst, cinst in self.instances:
            for seed in self.seeds:
                key = (inst.name, seed)
                if key in rnd.errors:
                    failed += 1
                    violations.append((key, "error", rnd.errors[key]))
                    continue
                cfg, log, total = self.logs[key]
                costs.append(total)
                _, found = _check_episode(cinst, cfg, log, total)
                failed += bool(found)
                violations.extend((key, kind, detail) for kind, detail in found)
        return Verdict(statistics.fmean(costs) if costs else math.nan,
                       len(self.seeds) * len(self.instances), failed, violations)


class Anticipative:
    """Hindsight solves with release times at the acceptance baseline budget.

    The scenarios are fixed; ``shift`` is accepted and ignored.
    """

    def __init__(self, shift: int):
        config = _config("configs/benchmark_smoke.json")
        self.baseline = config["baseline"]
        (gdata,) = [p for p in config["policies"] if p["kind"] == "greedy"]
        self.greedy = spec_from_dict(gdata)
        paths = {Path(p).stem: str(ROOT / p) for p in config["instances"]}
        self.instances = {
            name: (load_instance(path), checker.Instance.from_file(path))
            for name, path in paths.items()
        }
        smoke = dict(config["dynamic"])
        small = dict(smoke, sample_size=CRITERION7_SAMPLE_SIZE)
        base = int(config["base_seed"])
        self.scenarios = [(name, smoke, base) for name in SMOKE_HINDSIGHT_INSTANCES] + [
            (name, small, seed) for name in CRITERION7_INSTANCES for seed in CRITERION7_SEEDS
        ]
        self.results: dict = {}
        self.greedy_costs: dict = {}

    def _key(self, name, dynamic, seed):
        return (name, int(dynamic["sample_size"]), seed)

    def timed(self, rec) -> Round:
        rnd = Round()
        for name, dynamic, seed in self.scenarios:
            inst = self.instances[name][0]
            cfg = _dynamic(dynamic, seed)
            params = _hgs_params(self.baseline, seed)
            key = self._key(name, dynamic, seed)
            if rec is not None:
                rec.op = "hindsight/{}/{}/{}".format(*key)
            t0 = time.perf_counter()
            try:
                scenario = dataset.sample_scenario(inst, cfg)
                routes, cost = dataset.solve_offline_with_release(scenario, inst, params)
            except Exception as exc:  # a failed operation, reported and counted
                rnd.errors[key] = repr(exc)
                rnd.outputs.append(None)
                continue
            finally:
                wall = time.perf_counter() - t0
                rnd.busy_s += wall
                rnd.op_s.append(wall)
            self.results[key] = (cfg, scenario, routes, cost)
            rnd.outputs.append(cost)
        return rnd

    def _greedy_cost(self, name, cfg):
        """Arc sum of the greedy policy's checked plan (computed once per run)."""
        key = (name, cfg.sample_size, cfg.instance_seed)
        if key not in self.greedy_costs:
            inst, cinst = self.instances[name]
            log = []
            policy = Policy(self.greedy, inst, cfg)

            def decide(state):
                decision = policy(state)
                log.append((state, decision))
                return decision

            result = simulator.run_episode(inst, cfg, decide)
            self.greedy_costs[key] = _check_episode(cinst, cfg, log, result.total_cost)
        return self.greedy_costs[key]

    def check(self, rnd: Round) -> Verdict:
        violations, failed, costs = [], 0, []
        for name, dynamic, seed in self.scenarios:
            key = self._key(name, dynamic, seed)
            if key in rnd.errors:
                failed += 1
                violations.append((key, "error", rnd.errors[key]))
                continue
            cfg, scenario, routes, cost = self.results[key]
            costs.append(cost)
            cinst = self.instances[name][1]
            reqs = {r.id: r for r in _requests([rr.request for rr in scenario], _epochs(cfg))}
            found = checker.check_cover(routes, reqs)
            arc_sum, walked = checker.check_routes(cinst, reqs, routes)
            found += walked
            if arc_sum != cost:
                found.append(("cost", f"reported cost {cost} != arc sum {arc_sum}"))
            greedy_cost, greedy_found = self._greedy_cost(name, cfg)
            found += [("greedy_plan", f"{kind}: {detail}") for kind, detail in greedy_found]
            if cost > greedy_cost:
                found.append(("above_greedy", f"hindsight cost {cost} > greedy plan {greedy_cost}"))
            failed += bool(found)
            expected = KNOWN_FAULTS.get(key)
            violations.extend((key, kind, detail) for kind, detail in found if kind != expected)
        return Verdict(statistics.fmean(costs) if costs else math.nan,
                       len(self.scenarios), failed, violations)


class Pipeline:
    """build_dataset with configs/dataset_smoke.json, then load_dataset and
    train with configs/train_smoke.json: the commands that regenerate
    tests/fixtures/model_bench.json.

    The dataset stays at the config's recorded scenario seeds and the seed
    shift moves the training and perturbation seeds. Shifted scenario blocks
    were not steady: some hold states with more than ``exact_auto_max`` open
    requests, whose samples take the metaheuristic inner oracle, and the run
    took 61-65 s instead of 20-23 s (shifts 3 and 5 of blocks of 10).
    """

    def __init__(self, shift: int):
        self.ds = _config("configs/dataset_smoke.json")
        tr = _config("configs/train_smoke.json")
        paths = [str(ROOT / p) for p in self.ds["instances"]]
        self.instances = {inst.name: inst for inst in map(load_instance, paths)}
        self.checkers = {
            inst.name: checker.Instance.from_file(p) for inst, p in zip(self.instances.values(), paths)
        }
        self.cfg = _dynamic(self.ds["dynamic"], 0)
        self.n_scenarios = int(self.ds.get("n_scenarios", 3))
        self.seed = int(self.ds["seed"])
        self.params = _hgs_params(self.ds, self.seed)
        pdata = dict(tr.get("perturbation", {}))
        inner = pdata.pop("inner", {"budget_iters": 80, "stall_iters": 40})
        inner_params = _hgs_params(inner, pdata.pop("inner_seed", 1))
        pdata["seed"] = int(pdata.get("seed", 0)) + shift
        self.pcfg = learning.PerturbationConfig(inner_params=inner_params, **pdata)
        tdata = tr.get("train", {})
        self.tcfg = learning.TrainConfig(**dict(tdata, seed=int(tdata.get("seed", 0)) + shift))
        self.set_kind = tr.get("set_kind", "complete")
        self.model_kind = tr.get("model_kind", "mlp")
        self.path = OUT / f"dataset-{self.seed}-{os.getpid()}.jsonl"

    def timed(self, rec) -> Round:
        rnd = Round()
        self.totals = {}

        def per_scenario(fn):
            def wrapper(inst, cfg, params):
                if rec is not None:
                    rec.op = f"dataset/{inst.name}/{cfg.instance_seed}"
                t0 = time.perf_counter()
                samples, total = fn(inst, cfg, params)
                rnd.op_s.append(time.perf_counter() - t0)
                self.totals[(inst.name, cfg.instance_seed)] = total
                return samples, total
            return wrapper

        OUT.mkdir(exist_ok=True)
        restore = spans.rebind("dynroute.dataset", "build_scenario_samples", per_scenario)
        t0 = time.perf_counter()
        try:
            dataset.build_dataset(list(self.instances.values()), self.cfg, self.n_scenarios,
                                  self.params, self.seed, str(self.path))
        except Exception as exc:  # a failed operation, reported and counted
            rnd.errors["dataset"] = repr(exc)
        finally:
            restore()
        self.samples, self.result = [], None
        if not rnd.errors:
            if rec is not None:
                rec.op = "train"
            try:
                self.samples = dataset.load_dataset(str(self.path), self.cfg)
                self.result = learning.train(
                    self.samples, self.instances, self.cfg, set_kind=self.set_kind,
                    model_kind=self.model_kind, pcfg=self.pcfg, tcfg=self.tcfg)
            except Exception as exc:  # a failed operation, reported and counted
                rnd.errors["train"] = repr(exc)
        self.path.unlink(missing_ok=True)
        rnd.busy_s = time.perf_counter() - t0
        rnd.outputs = [sorted(self.totals.items()),
                       [row["train_loss"] for row in self.result.log] if self.result else None]
        return rnd

    def _check_scenario(self, name: str, group) -> list:
        cinst = self.checkers[name]
        epochs = _epochs(self.cfg)
        found, routes, revealed, arc_total = [], [], set(), 0
        for sample in group:
            reqs = _requests(sample.state.open, epochs)
            revealed.update(r.id for r in reqs)
            cost, bad = checker.check_decision(cinst, reqs, sample.target_routes, sample.epoch, epochs)
            found += bad
            arc_total += cost
            routes.extend(sample.target_routes)
            if sample.target_h != -cost:
                found.append(("target_h", f"epoch {sample.epoch}: target_h {sample.target_h} != -{cost}"))
            served = {i for route in sample.target_routes for i in route}
            if list(sample.target_served) != [int(r.id in served) for r in reqs]:
                found.append(("target_served", f"epoch {sample.epoch}: served flags disagree with routes"))
        found += checker.check_cover(routes, revealed)
        total = self.totals.get((name, group[0].scenario_seed))
        if total != arc_total:
            found.append(("cost", f"hindsight cost {total} != arc sum of targets {arc_total}"))
        return found

    def check(self, rnd: Round) -> Verdict:
        attempted = len(self.instances) * self.n_scenarios + 1
        if "dataset" in rnd.errors:
            return Verdict(math.nan, attempted, attempted, [("dataset", "error", rnd.errors["dataset"])])
        violations, failed = [], 0
        groups: dict = {}
        for sample in self.samples:
            groups.setdefault((sample.instance, sample.scenario_seed), []).append(sample)
        if len(groups) != attempted - 1:
            violations.append(("dataset", "scenarios", f"{len(groups)} scenarios in the dataset"))
        for (name, seed), group in sorted(groups.items()):
            found = self._check_scenario(name, group)
            failed += bool(found)
            violations.extend(((name, seed), kind, detail) for kind, detail in found)
        target_cost = statistics.fmean(self.totals.values())
        if "train" in rnd.errors:
            return Verdict(target_cost, attempted, failed + 1,
                           violations + [("train", "error", rnd.errors["train"])])
        found = self._check_training()
        failed += bool(found)
        violations.extend(("train", kind, detail) for kind, detail in found)
        extra = {"learning.loss_final": self.result.log[-1]["train_loss"]}
        return Verdict(target_cost, attempted, failed, violations, extra)

    def _check_training(self) -> list:
        found = []
        losses = [row["train_loss"] for row in self.result.log]
        if len(losses) != self.tcfg.epochs:
            found.append(("epochs", f"{len(losses)} logged epochs, expected {self.tcfg.epochs}"))
        if not all(math.isfinite(x) for x in losses):
            found.append(("loss", f"non-finite training loss: {losses}"))
        # With an exact inner oracle and a feasible target the smoothed regret
        # is a mean of non-negative terms.
        usable = [s for s in self.samples if s.state.open]
        if all(len(s.state.open) <= self.pcfg.exact_auto_max for s in usable):
            negative = [x for x in losses if x < -1e-9]
            if negative:
                found.append(("loss", f"negative loss with an exact oracle: {negative}"))
        if losses and not losses[-1] < losses[0]:
            found.append(("loss_not_decreasing", f"last loss {losses[-1]} >= first {losses[0]}"))
        model = self.result.model
        for s in usable:
            feats = learning.extract_features(s.state, self.instances[s.instance], self.cfg, model.feature_config)
            if not np.all(np.isfinite(learning.predict_prizes(model, feats))):
                found.append(("prizes", f"non-finite prizes on {s.instance}/{s.scenario_seed}/{s.epoch}"))
        return found


WORKLOADS = {"online": Online, "anticipative": Anticipative, "pipeline": Pipeline}


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    print(time.perf_counter() - T0)
