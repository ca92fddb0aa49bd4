"""One failure taxonomy for all four methods, on real expressions.

Every solver runs through the same driver, so the same kind of failure
gets the same status and the same note whichever method meets it.
"""

import math

import pytest
from hypothesis import example, given, settings

from lsqroots import bench
from lsqroots.baselines import solve_baseline
from lsqroots.expressions import evaluate, parse
from lsqroots.outcomes import Status
from test_evaluate_parity import numbers, trees

# The benchmark's solvers, with secant's second start given explicitly
# (a defaulted one is recorded in the note, which then stays).
SOLVERS = {**bench.SOLVERS,
           "secant": lambda f, x0: solve_baseline("secant", f, x0, x0 + 0.1)}


@pytest.mark.parametrize("method", SOLVERS)
@pytest.mark.parametrize("x0", [0.05, 0.1, 0.2])
def test_off_domain_failure_diverges_with_the_same_note(method, x0):
    # x*ln(x) - 1 is flat near 0+, so every method's first step lands at x < 0
    out = SOLVERS[method](parse("x*ln(x) - 1"), x0)
    assert out.status is Status.DIVERGED
    last = out.trace[-1]
    assert math.isnan(last.y)
    assert out.note == f"iterate left the domain at x={last.x!r}"
    assert out.iterations == len(out.trace)


@pytest.mark.parametrize("method", SOLVERS)
def test_undefined_start_is_a_domain_error(method):
    out = SOLVERS[method](parse("ln(x)"), -2.0)
    assert out.status is Status.DOMAIN_ERROR
    assert out.iterations == 0
    assert out.note == "f undefined at starting point"


def test_defaulted_second_start_note_outlives_an_off_domain_failure():
    out = solve_baseline("secant", parse("x*ln(x) - 1"), 0.1)
    assert out.status is Status.DIVERGED
    assert out.note == "secant second start defaulted to x1=0.2"


# ---------------------------------------------------------------------------
# Every method on random expressions
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(trees, numbers)
@example(parse("x*1e259"), 1.0)
@example(parse("x/1e-300"), 1.0)
def test_every_method_returns_a_finite_root_and_meets_its_stopping_rule(f, x0):
    for method, solver in bench.SOLVERS.items():
        out = solver(f, x0)
        assert math.isfinite(out.root), method
        start = x0 + 0.1 if method == "secant" else x0
        if out.converged and not out.trace:
            # a start that is an exact root converges without a step
            assert out.root in (x0, start) and evaluate(f, out.root) == 0.0, method
        elif out.converged:
            # the last record against the accepted point it was computed from
            before = [rec.x for rec in out.trace[:-1] if math.isfinite(rec.y)]
            last = out.trace[-1]
            assert abs(last.x - (before[-1] if before else start)) + abs(last.y) < 1e-15, method
            assert out.root == last.x, method
