"""The benchmark's probes still see every evaluation a solve makes.

``perfbench/probes.py`` counts f and f' evaluations by rebinding module
globals (``evaluate`` in ``lsqroots.lsq3`` and ``lsqroots.baselines``,
``solve`` and ``solve_baseline`` in ``lsqroots.bench``, ...).  An
evaluation that reaches ``evaluate`` some other way, or a rebound name
that no longer exists, would silently change the benchmark's
``evals_per_op``; here it fails a test instead.  The probes are used
read-only.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from lsqroots.bench import builtin_suite, run_benchmark

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import probes  # noqa: E402

# x^3 + 4*x^2 - 10 from 0.5: (f evaluations, f' evaluations).  lsq3 spends
# one on x0 and three per step (8 steps, no probe retries).
EXPECTED = {
    "newton": (9, 8),
    "secant": (12, 0),
    "lsq3-fixed": (25, 0),
    "lsq3-variable": (25, 0),
}


def test_every_rebound_name_exists():
    for module, name, _ in probes.PATCHES:
        assert hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("method", EXPECTED)
def test_solver_evaluations_are_counted(method):
    cubic = next(p for p in builtin_suite() if p.id == "cubic-poly")
    problem = dataclasses.replace(cubic, starts=(0.5,))
    counts = probes.Counts()
    with counts.installed():
        report = run_benchmark([problem], [method])
    assert (counts.f_evals, counts.fp_evals) == EXPECTED[method]
    tally = counts.methods[method]
    assert (tally.calls, tally.evals) == (1, sum(EXPECTED[method]))
    assert tally.iterations == report.rows[0].iterations


def test_probes_are_removed_afterwards():
    counts = probes.Counts()
    with counts.installed():
        pass
    run_benchmark(builtin_suite()[:1], ["newton"])
    assert counts.evals == 0
