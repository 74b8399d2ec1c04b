"""Digest of every PC-HGS solve in one round of a benchmark workload.

    python3 tools/solve_digest.py --workload {online,anticipative,pipeline} [--seed N]

Runs one round of the workload from ``bench/workloads.py`` and that round's
check, and hashes every ``PcHgs.run`` result in call order, the check's
solves included. Each result contributes
``repr((routes, sorted(served), repr(objective), iterations))`` to one
sha256; the digest is its first 16 hex digits. Prints the digest and the
number of solves. Two checkouts whose search trajectories agree print the
same line, so a change meant to keep outputs byte-identical can be checked
with one run on each side.

``pipeline`` also prints two more digests (sha256, first 16 hex digits). The
targets digest hashes the imitation targets, ``repr`` of every sample's
``(target_served, target_h)`` in dataset order, so hindsight solves that
reorder a route without changing what is served or what it costs keep it.
The training digest hashes the training loss log (``repr`` of every
``train_loss``) and the final model's weights and biases (their raw float64
bytes, layer by layer).

Nothing under ``bench/`` is changed: the workload's scratch files go to a
temporary directory, and no bytecode is cached.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (puts src/ on the path)
from dynroute.pchgs import PcHgs  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    digest = hashlib.sha256()
    count = 0
    run = PcHgs.run

    def recorded(self, *a, **kw):
        nonlocal count
        sol = run(self, *a, **kw)
        digest.update(repr((sol.routes, sorted(sol.served), repr(sol.objective),
                            sol.iterations)).encode())
        count += 1
        return sol

    PcHgs.run = recorded
    with tempfile.TemporaryDirectory() as tmp:
        workloads.OUT = Path(tmp)
        wl = workloads.WORKLOADS[args.workload](args.seed)
        wl.check(wl.timed(None))
    print(f"{args.workload} seed {args.seed}: {count} solves {digest.hexdigest()[:16]}")
    samples = getattr(wl, "samples", None)
    if samples is not None:
        targets = hashlib.sha256(repr([(s.target_served, s.target_h) for s in samples]).encode())
        print(f"{args.workload} seed {args.seed}: targets {targets.hexdigest()[:16]}")
    result = getattr(wl, "result", None)
    if result is not None:
        trained = hashlib.sha256(repr([row["train_loss"] for row in result.log]).encode())
        for arr in result.model.weights + result.model.biases:
            trained.update(arr.astype("<f8").tobytes())
        print(f"{args.workload} seed {args.seed}: training {trained.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
