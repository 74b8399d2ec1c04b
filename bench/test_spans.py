"""The recorder wraps every binding of a boundary and restores them all.
Run with ``python3 -m pytest bench``."""

import workloads  # noqa: F401  (puts the checkout's src/ on the path and loads dynroute)

import dynroute.cli
import dynroute.dataset
import dynroute.learning.loss
import dynroute.pchgs
import dynroute.pchgs.solver
import dynroute.policies
from dynroute.pchgs import ExactSolver, PcHgs

from spans import Recorder

SOLVE_OWNERS = [dynroute.pchgs, dynroute.pchgs.solver, dynroute.policies, dynroute.dataset,
                dynroute.learning.loss, dynroute.cli]


def test_install_wraps_every_binding_and_uninstall_restores():
    original = dynroute.pchgs.solver.solve
    init, argmax = PcHgs.initialize, ExactSolver.argmax
    assert all(mod.solve is original for mod in SOLVE_OWNERS)
    rec = Recorder()
    rec.install()
    try:
        wrapped = dynroute.pchgs.solver.solve
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert all(mod.solve is wrapped for mod in SOLVE_OWNERS)
        assert PcHgs.initialize is not init and ExactSolver.argmax is not argmax
    finally:
        rec.uninstall()
    assert all(mod.solve is original for mod in SOLVE_OWNERS)
    assert PcHgs.initialize is init and ExactSolver.argmax is argmax


def test_self_time_subtracts_children():
    rec = Recorder()
    rec.spans[:] = [("outer", 0.0, 10.0, -1, "op"), ("inner", 2.0, 5.0, 0, "op"),
                    ("inner", 6.0, 7.0, 0, "op")]
    calls, incl, self_s = rec.totals()
    assert calls["inner"] == 2 and incl["outer"] == 10.0
    assert self_s["outer"] == 6.0 and self_s["inner"] == 4.0
