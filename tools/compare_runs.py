"""Paired quality table for two ``dynroute benchmark`` output directories.

    python3 tools/compare_runs.py A B

Pairs the episodes of A and B by (instance, seed, policy), and the
anticipative baseline by (instance, seed), over the rows that are ``ok`` on
both sides. For each policy and for the baseline (row ``anticipative``) it
prints the mean cost on each side; the paired relative difference, the mean
of ``(cost_B - cost_A) / cost_A`` over the pairs with a 95% t-interval
(pairs where A costs 0 are left out of it); the counts of episodes that B
makes cheaper, dearer and equal; and the summed task time of each side from
``timings.csv``. An interval that holds zero shows no cost change at that
many episodes. Needs scipy, from the test extra.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

from scipy import stats

BASELINE = "anticipative"


def read_costs(run_dir: Path) -> dict[str, dict[tuple[str, str], float]]:
    """Cost per (instance, seed), by policy, of the rows that are ``ok``; the
    baseline's under ``BASELINE``, where it did not fail."""
    costs: dict[str, dict[tuple[str, str], float]] = {BASELINE: {}}
    with open(run_dir / "results.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["instance"], row["seed"])
            if row["status"] == "ok":
                costs.setdefault(row["policy"], {})[key] = float(row["total_cost"])
            if row["baseline_cost"] != "":
                costs[BASELINE][key] = float(row["baseline_cost"])
    return costs


def read_task_time(run_dir: Path) -> dict[str, float]:
    """Summed ``wall_time_s`` per policy, the baseline's under ``BASELINE``."""
    total: dict[str, float] = {}
    with open(run_dir / "timings.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            total[row["policy"]] = total.get(row["policy"], 0.0) + float(row["wall_time_s"])
    return total


def mean_interval(xs: list[float]) -> tuple[float, float, float]:
    """Mean and its two-sided 95% t-interval; a point with fewer than two values."""
    n = len(xs)
    if n == 0:
        return math.nan, math.nan, math.nan
    mean = sum(xs) / n
    if n < 2:
        return mean, mean, mean
    sd = math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1))
    half = stats.t.ppf(0.975, n - 1) * sd / math.sqrt(n)
    return mean, mean - half, mean + half


def compare(a_dir: Path, b_dir: Path) -> list[dict]:
    """One row per policy (sorted, the baseline last) with the paired figures."""
    a_costs, b_costs = read_costs(a_dir), read_costs(b_dir)
    a_time, b_time = read_task_time(a_dir), read_task_time(b_dir)
    names = sorted((set(a_costs) | set(b_costs)) - {BASELINE}) + [BASELINE]
    rows = []
    for name in names:
        a, b = a_costs.get(name, {}), b_costs.get(name, {})
        keys = sorted(set(a) & set(b))
        pairs = [(a[k], b[k]) for k in keys]
        rel = [(cb - ca) / ca for ca, cb in pairs if ca != 0]
        rows.append({
            "policy": name,
            "pairs": len(pairs),
            "unpaired": len(set(a) ^ set(b)),
            "mean_a": sum(ca for ca, _ in pairs) / len(pairs) if pairs else math.nan,
            "mean_b": sum(cb for _, cb in pairs) / len(pairs) if pairs else math.nan,
            "rel": mean_interval(rel),
            "cheaper": sum(cb < ca for ca, cb in pairs),
            "dearer": sum(cb > ca for ca, cb in pairs),
            "equal": sum(cb == ca for ca, cb in pairs),
            "time_a": a_time.get(name, 0.0),
            "time_b": b_time.get(name, 0.0),
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        "| policy | pairs | mean cost A | mean cost B | B vs A [95% CI] | cheaper | dearer "
        "| equal | task time A | task time B |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        mean, lo, hi = (100 * x for x in r["rel"])
        change = (100 * (r["time_b"] / r["time_a"] - 1)) if r["time_a"] else math.nan
        pairs = f"{r['pairs']}" + (f" ({r['unpaired']} unpaired)" if r["unpaired"] else "")
        lines.append(
            f"| {r['policy']} | {pairs} | {r['mean_a']:,.1f} | {r['mean_b']:,.1f} "
            f"| {mean:+.2f}% [{lo:+.2f}, {hi:+.2f}] | {r['cheaper']} | {r['dearer']} "
            f"| {r['equal']} | {r['time_a']:.1f} s | {r['time_b']:.1f} s ({change:+.1f}%) |"
        )
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", type=Path, help="the reference benchmark output directory")
    ap.add_argument("b", type=Path, help="the benchmark output directory compared with it")
    args = ap.parse_args()
    print(render(compare(args.a, args.b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
