"""Benchmark of dynroute: one workload per process, timed from outside.

    python3 bench/run.py --workload {online,anticipative,pipeline} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from any directory of a source checkout; nothing needs installing. The
run loads its inputs (set-up), then repeats whole rounds of the workload's
operations while the next round is expected to end within ``--seconds``
(always at least one), checks every round's outputs with the independent
checker, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.

``--seed N`` adds N to the workload's solver or training seeds; 0 gives the
recorded seeds (bench/README.md says which). ``--trace 1`` runs the rounds untraced, then one more round
with spans at every layer boundary, and reports the per-layer metrics and
the tracing overhead instead of the end-to-end ones. Spans and results go to
bench/out/. BLAS runs on one thread; no worker processes are used.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("online", "anticipative", "pipeline")
# Set-up samples per run, each in a fresh interpreter; the median is reported.
SETUP_SAMPLES = 3


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds a fresh interpreter takes to import dynroute and load
    the workload's inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_rounds(wl, seconds: float, rec=None, count=None):
    """Timed rounds, each checked after its timing ends."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if rec is not None:
            rec.install()
        try:
            rnd = wl.timed(rec)
        finally:
            if rec is not None:
                rec.uninstall()
        wall = time.perf_counter() - t0
        rounds.append((rnd, wl.check(rnd)))
        if count is not None:
            if len(rounds) >= count:
                return rounds
        elif time.perf_counter() - start + wall > seconds:
            return rounds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "dynroute" / "__init__.py").is_file():
        print(f"error: no dynroute sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup_s = measure_setup(args.workload, args.seed)
    import workloads
    import dynroute

    if Path(dynroute.__file__).resolve().parent != ROOT / "src" / "dynroute":
        print(f"error: imported dynroute from {dynroute.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    rounds = run_rounds(wl, args.seconds)

    if args.trace:
        import spans

        rec = spans.Recorder()
        rounds += run_rounds(wl, args.seconds, rec=rec, count=1)
        workloads.OUT.mkdir(exist_ok=True)
        rec.write(workloads.OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        values = rec.layer_metrics()
        values.update(rounds[-1][1].extra)
        untraced = statistics.median(r.busy_s for r, _ in rounds[:-1])
        values["trace.overhead_pct"] = 100.0 * (rounds[-1][0].busy_s / untraced - 1.0)
    else:
        op_s = [s for rnd, _ in rounds for s in rnd.op_s]
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_ms_mean": 1e3 * statistics.fmean(op_s),
            "busy_s": statistics.median(rnd.busy_s for rnd, _ in rounds),
            "objective": rounds[0][1].objective,
        }
    # Names and units come from BENCHMARK.json; a layer a workload never
    # calls reads 0.
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = True
    for rnd, verdict in rounds:
        for where, kind, detail in verdict.violations:
            print(f"violation {where} {kind}: {detail}", file=sys.stderr)
            if kind not in workloads.QUALITY_KINDS:
                correct = False
        if rnd.outputs != rounds[0][0].outputs:
            print("violation: outputs differ between rounds", file=sys.stderr)
            correct = False
    result = {
        "correct": correct,
        "attempted": sum(v.attempted for _, v in rounds),
        "failed": sum(v.failed for _, v in rounds),
        "metrics": metrics,
    }
    workloads.OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'e2e'}"
    (workloads.OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
