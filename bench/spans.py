"""Spans at dynroute's layer boundaries, recorded from outside the package.

``Recorder.install`` replaces each boundary function by a wrapper at every
place it is bound: ``solve``, for one, is imported separately into
``dynroute.pchgs``, ``policies``, ``dataset``, ``learning.loss`` and ``cli``,
and a call through any of those names must be seen. Methods are wrapped on
their class. Spans (name, start, end, parent, operation id) stay in memory
until ``write``; a layer's self time is its spans' duration minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute, span name). Functions are rebound wherever the
# original object is bound in a loaded dynroute module; "Class.method"
# entries are patched on the class.
BOUNDARIES = [
    ("dynroute.pchgs.solver", "solve", "pchgs.solve"),
    ("dynroute.pchgs.solver", "PcHgs.initialize", "pchgs.init"),
    ("dynroute.pchgs.brute", "ExactSolver.__init__", "brute.build"),
    ("dynroute.pchgs.brute", "ExactSolver.argmax", "brute.argmax"),
    ("dynroute.learning.loss", "perturbed_loss_and_grad", "learning.loss_grad"),
    ("dynroute.learning.loss", "ExactInner.solve", "learning.inner"),
    ("dynroute.learning.loss", "HgsInner.solve", "learning.inner"),
    ("dynroute.learning.models", "backprop", "learning.backprop"),
    ("dynroute.learning.models", "predict_prizes", "learning.predict"),
    ("dynroute.learning.features", "extract_features", "learning.features"),
    ("dynroute.learning.features", "extract_features_raw", "learning.features"),
    ("dynroute.learning.train", "train", "learning.train"),
    ("dynroute.dataset", "build_dataset", "dataset.build"),
    ("dynroute.dataset", "load_dataset", "dataset.load"),
    ("dynroute.dataset", "build_scenario_samples", "dataset.samples"),
    ("dynroute.dataset", "solve_offline_with_release", "dataset.solve_release"),
    ("dynroute.dataset", "reconstruct_epoch_decisions", "dataset.reconstruct"),
    ("dynroute.dataset", "replay_states", "dataset.replay"),
    ("dynroute.simulator", "validate_decision", "simulator.validate"),
    ("dynroute.simulator", "transition", "simulator.transition"),
    ("dynroute.simulator", "sample_epoch", "simulator.sample"),
    ("dynroute.encode", "build_pc_instance", "encode.build_pc"),
    ("dynroute.encode", "pc_for_state", "encode.build_pc"),
    ("dynroute.policies", "decide_ml_co", "policies.decide"),
]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name), meth
    return owner, attr


def rebind(module: str, attr: str, make_wrapper):
    """Replace a dynroute function or method by ``make_wrapper(original)``.

    Returns a callable that restores every binding it changed.
    """
    owner, name = _resolve(module, attr)
    original = owner.__dict__[name]
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        places = [owner]
    else:
        places = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "dynroute" or mod_name.startswith("dynroute."))
            and getattr(mod, name, None) is original
        ]
    for place in places:
        setattr(place, name, wrapper)

    def restore():
        for place in places:
            setattr(place, name, original)

    return restore


class Recorder:
    """In-memory span recorder for the boundaries in ``BOUNDARIES``."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._restore: list = []

    def install(self) -> None:
        for module, attr, span in BOUNDARIES:
            self._restore.append(rebind(module, attr, functools.partial(self._wrap, span)))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(self, span: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (span, start, end, parent, self.op)
            if span == "pchgs.solve":
                counts["pchgs.iterations"] += out.iterations
                counts["pchgs.n_requests"] += args[0].n_requests
            elif span == "brute.argmax":
                counts["brute.masks"] += 1 << args[0].n
            return out

        return wrapper

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: number of calls, inclusive seconds and self seconds."""
        calls, incl, child = Counter(), Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
        return calls, incl, self_s

    def layer_metrics(self) -> dict[str, float]:
        calls, incl, self_s = self.totals()
        c = self.counts
        iters, masks = c["pchgs.iterations"], c["brute.masks"]
        search_s = incl["pchgs.solve"] - incl["pchgs.init"]
        return {
            "pchgs.solve.calls": calls["pchgs.solve"],
            "pchgs.solve.s": incl["pchgs.solve"],
            "pchgs.init.s": incl["pchgs.init"],
            "pchgs.iterations": iters,
            "pchgs.ms_per_iter": 1e3 * search_s / iters if iters else 0.0,
            "pchgs.n_requests.mean": (
                c["pchgs.n_requests"] / calls["pchgs.solve"] if calls["pchgs.solve"] else 0.0
            ),
            "brute.build.calls": calls["brute.build"],
            "brute.build.s": incl["brute.build"],
            "brute.argmax.calls": calls["brute.argmax"],
            "brute.argmax.s": incl["brute.argmax"],
            "brute.masks": masks,
            "brute.ns_per_mask": 1e9 * incl["brute.argmax"] / masks if masks else 0.0,
            "learning.loss_grad.s": self_s["learning.loss_grad"],
            "learning.backprop.s": self_s["learning.backprop"],
            "learning.features.s": self_s["learning.features"],
            "learning.predict.s": self_s["learning.predict"],
            "learning.train.s": incl["learning.train"],
            "dataset.build.s": incl["dataset.build"],
            "dataset.solve_release.s": self_s["dataset.solve_release"],
            "dataset.reconstruct.s": self_s["dataset.reconstruct"],
            "dataset.replay.s": self_s["dataset.replay"],
            "dataset.samples.s": self_s["dataset.samples"],
            "dataset.io.s": self_s["dataset.build"] + self_s["dataset.load"],
            "simulator.validate.s": self_s["simulator.validate"],
            "simulator.transition.s": self_s["simulator.transition"],
            "simulator.sample.s": self_s["simulator.sample"],
            "encode.build_pc.s": self_s["encode.build_pc"],
            "policies.decide.self_s": self_s["policies.decide"],
            "trace.spans": len(self.spans),
        }

    def write(self, path) -> None:
        """One JSON line per span; ``parent`` is the index of the parent line."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent if parent >= 0 else None, "op": op}) + "\n")
