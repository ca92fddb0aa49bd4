"""The benchmark's probes still see every evaluation a solve makes.

``perfbench/probes.py`` counts f and f' evaluations by rebinding module
globals (``evaluate`` in ``lsqroots.lsq3`` and ``lsqroots.baselines``,
``solve`` and ``solve_baseline`` in ``lsqroots.bench``, ...).  An
evaluation that reaches ``evaluate`` some other way, or a rebound name
that no longer exists, would silently change the benchmark's
``evals_per_op``; here it fails a test instead.  The probes are used
read-only.
"""

import sys
from pathlib import Path

import pytest

import lsqroots.baselines
import lsqroots.lsq3
from lsqroots.bench import builtin_suite, run_benchmark

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import probes  # noqa: E402

# x^3 + 4*x^2 - 10 from 0.5: (f evaluations, f' evaluations).  Every
# method converges with a last step that returns its own start bit for bit,
# whose y the driver reuses.  lsq3 spends one on x0, two probes per step
# and one on each new iterate (8 steps, 7 new iterates, no probe retries);
# Newton one on x0 and on each new iterate, and one f' per step.
EXPECTED = {
    "newton": (8, 8),
    "secant": (11, 0),
    "lsq3-fixed": (24, 0),
    "lsq3-variable": (24, 0),
}


def test_every_rebound_name_exists():
    for module, name, _ in probes.PATCHES:
        assert hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("method", EXPECTED)
def test_solver_evaluations_are_counted(method):
    cubic = next(p for p in builtin_suite() if p.id == "cubic-poly")
    problem = cubic._replace(starts=(0.5,))
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


# Layers each solve must reach through a rebound name when run by the
# benchmark runner: a call that moves out of the module where the probes
# rebind it would read 0 in the benchmark's per-layer metrics.
LIVE_LAYERS = {
    "lsq3-variable": {"lsq3.solve", "expressions.evaluate", "lsq3.adjust_delta",
                      "lsq3.estimate_power", "lsq3.select_delta", "lsq3.lsq3_step",
                      "bench.final_rate"},
    "newton": {"baselines.solve_baseline", "expressions.evaluate",
               "expressions.differentiate", "bench.final_rate"},
    "secant": {"baselines.solve_baseline", "expressions.evaluate", "bench.final_rate"},
}


def _counted_run(problem_id, start, method):
    problem = next(p for p in builtin_suite() if p.id == problem_id)
    problem = problem._replace(starts=(start,))
    counts = probes.Counts()
    with counts.installed():
        run_benchmark([problem], [method])
    return counts


@pytest.mark.parametrize("method", LIVE_LAYERS)
def test_every_layer_a_solve_uses_is_counted(method):
    counts = _counted_run("cubic-poly", 0.5, method)
    dead = sorted(layer for layer in LIVE_LAYERS[method] if counts.count(layer) == 0)
    assert not dead


def test_every_solver_layer_is_in_the_live_sets():
    # a layer the probes rebind in lsq3 or baselines is listed above, or is
    # one of the driver's layers covered by the test below
    driver = {"outcomes.detect_cycle", "outcomes.best_iterate"}
    for module, live in ((lsqroots.lsq3, LIVE_LAYERS["lsq3-variable"]),
                         (lsqroots.baselines, LIVE_LAYERS["newton"])):
        for patched, _, layer in probes.PATCHES:
            if patched is module:
                assert layer in live | driver, layer


@pytest.mark.xfail(strict=True, reason=(
    "the probes rebind detect_cycle and best_iterate in lsqroots.lsq3 and "
    "lsqroots.baselines, but only lsqroots.outcomes calls them; re-pointing "
    "those probes is a change to the benchmark"))
def test_driver_layers_are_counted():
    # Newton diverges on arctan from 3: every accepted iterate is checked
    # for a cycle, and the failure reports the best iterate
    counts = _counted_run("arctan", 3.0, "newton")
    assert counts.count("outcomes.detect_cycle") > 0
    assert counts.count("outcomes.best_iterate") > 0


# One ``lsqroots bench`` pass spends this many f and f' evaluations: the
# suite workload's ``evals_per_op``.
SUITE_EVALUATIONS = 6085


def test_a_suite_pass_evaluates_through_the_module_globals(monkeypatch):
    # Every evaluation of a solve is looked up as ``evaluate`` in lsq3 or
    # baselines, the names the probes rebind; one that bypasses them would
    # quietly lower the benchmark's count and fail here.
    calls = []
    for module in (lsqroots.lsq3, lsqroots.baselines):
        def counting(e, x, real=module.evaluate, name=module.__name__):
            calls.append(name)
            return real(e, x)
        monkeypatch.setattr(module, "evaluate", counting)
    run_benchmark()
    assert len(calls) == SUITE_EVALUATIONS
    assert set(calls) == {"lsqroots.lsq3", "lsqroots.baselines"}
