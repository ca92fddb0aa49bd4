"""One failure taxonomy for all four methods, on real expressions.

Every solver runs through the same driver, so the same kind of failure
gets the same status and the same note whichever method meets it.
"""

import math

import pytest

from lsqroots import bench
from lsqroots.baselines import solve_baseline
from lsqroots.expressions import parse
from lsqroots.outcomes import Status

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
