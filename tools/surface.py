"""The two design metrics of the roadmap's "less code" aim.

    python3 tools/surface.py

Prints the ``src/`` line count (every line of every ``.py`` file under
``src/``, as ``find src -name '*.py' | xargs cat | wc -l`` counts them) and
the settable values: the ``dataclasses.fields`` of each config class a
caller fills in, and their total. Both should only fall.
"""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

from dynroute.learning import PerturbationConfig, TrainConfig  # noqa: E402
from dynroute.pchgs import HgsParams  # noqa: E402
from dynroute.policies import PolicySpec  # noqa: E402

CONFIG_CLASSES = (HgsParams, PerturbationConfig, TrainConfig, PolicySpec)


def main() -> int:
    lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    print(f"src lines: {lines}")
    counts = {cls.__name__: len(dataclasses.fields(cls)) for cls in CONFIG_CLASSES}
    detail = ", ".join(f"{name} {n}" for name, n in counts.items())
    print(f"settable values: {sum(counts.values())} ({detail})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
