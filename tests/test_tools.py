import csv
import importlib.util
import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
BENCH = TOOLS.parent / "bench"


def load_tool(name: str, where: Path = TOOLS):
    spec = importlib.util.spec_from_file_location(name, where / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(run_dir: Path, results: list[tuple], timings: list[tuple]) -> Path:
    run_dir.mkdir()
    with open(run_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance", "seed", "policy", "total_cost", "baseline_cost", "relative_gap", "status"]
        )
        writer.writerows(results)
    with open(run_dir / "timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "seed", "policy", "wall_time_s"])
        writer.writerows(timings)
    return run_dir


def test_compare_runs_pairs_episodes_and_sums_task_time(tmp_path):
    compare_runs = load_tool("compare_runs")
    a = write_run(tmp_path / "a", [
        ("i", 1, "greedy", 100, 80, "", "ok"),
        ("i", 2, "greedy", 200, 100, "", "ok"),
        ("i", 3, "greedy", 50, 40, "", "ok"),
        ("i", 4, "greedy", 70, 60, "", "ok"),
    ], [("i", 1, "greedy", "1.5"), ("i", 2, "greedy", "0.5"), ("i", 1, "anticipative", "2.0")])
    b = write_run(tmp_path / "b", [
        ("i", 1, "greedy", 90, 80, "", "ok"),
        ("i", 2, "greedy", 220, 100, "", "ok"),
        ("i", 3, "greedy", 50, 40, "", "ok"),
        ("i", 4, "greedy", "", 60, "", "error:ValueError"),
    ], [("i", 1, "greedy", "1.0"), ("i", 1, "anticipative", "1.0")])
    greedy, baseline = compare_runs.compare(a, b)

    assert (greedy["policy"], greedy["pairs"], greedy["unpaired"]) == ("greedy", 3, 1)
    assert (greedy["cheaper"], greedy["dearer"], greedy["equal"]) == (1, 1, 1)
    assert greedy["mean_a"] == pytest.approx(350 / 3) and greedy["mean_b"] == pytest.approx(120)
    mean, lo, hi = greedy["rel"]  # relative differences -0.1, +0.1 and 0
    half = 4.302652729911275 * 0.1 / math.sqrt(3)
    assert (mean, lo, hi) == pytest.approx((0.0, -half, half))
    assert (greedy["time_a"], greedy["time_b"]) == (2.0, 1.0)

    assert (baseline["policy"], baseline["pairs"], baseline["equal"]) == ("anticipative", 4, 4)
    assert baseline["rel"] == pytest.approx((0.0, 0.0, 0.0))
    assert "| greedy | 3 (1 unpaired) |" in compare_runs.render([greedy, baseline])


def test_benchmark_set_up_and_trace_boundaries_resolve(monkeypatch):
    """Every workload's set-up runs and every traced layer boundary is found,
    so a renamed or removed boundary fails here, not only in a traced run."""
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports checker and spans
    workloads = load_tool("workloads", BENCH)
    spans = load_tool("spans", BENCH)
    for name in workloads.WORKLOADS:
        workloads.WORKLOADS[name](0)
    recorder = spans.Recorder()
    try:
        recorder.install()
    finally:
        recorder.uninstall()
