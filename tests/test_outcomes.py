"""``detect_cycle`` against a direct statement of its rule, and the
iteration driver ``iterate`` on scripted steps.

``reference_detect_cycle`` checks every period's full window, pairwise
match first and span second, with no shortcut; ``detect_cycle`` must give
the same verdict on every sequence.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsqroots.outcomes import (
    CYCLE_MATCH_RTOL,
    CYCLE_MAX_PERIOD,
    CYCLE_MIN_DIAMETER,
    CYCLE_MIN_INDEX,
    DIVERGENCE_BOUND,
    IterationRecord,
    Status,
    StepError,
    best_iterate,
    detect_cycle,
    iterate,
)


def reference_detect_cycle(xs):
    if len(xs) < CYCLE_MIN_INDEX:
        return False
    scale = max(1.0, abs(xs[-1]))
    for period in range(2, CYCLE_MAX_PERIOD + 1):
        window = xs[-2 * period:]
        if all(
            abs(window[i] - window[i + period]) <= CYCLE_MATCH_RTOL * scale
            for i in range(period)
        ):
            if max(window) - min(window) > CYCLE_MIN_DIAMETER * scale:
                return True
    return False


def converging(rng):
    root = rng.uniform(-5.0, 5.0)
    ratio = rng.choice([1.0, -1.0]) * rng.uniform(0.05, 0.999)
    err = rng.uniform(-2.0, 2.0)
    return [root + err * ratio ** k for k in range(rng.randint(1, 40))]


def stalled(rng):
    x = rng.uniform(-1e3, 1e3)
    noise = rng.choice([0.0, 1e-16, 1e-12, 1e-9]) * max(1.0, abs(x))
    return [x + rng.uniform(-noise, noise) for _ in range(rng.randint(1, 20))]


def cycle(rng):
    period = rng.randint(2, 4)
    size = 10.0 ** rng.uniform(-6, 3)
    base = rng.uniform(-5.0, 5.0) * rng.choice([1.0, 1e3])
    pattern = [base + size * rng.uniform(-1.0, 1.0) for _ in range(period)]
    noise = rng.choice([0.0, 0.0, 1e-10, 3e-9, 1e-8, 3e-8, 1e-6]) * max(1.0, abs(base))
    prefix = [rng.uniform(-10.0, 10.0) for _ in range(rng.randint(0, 6))]
    body = [pattern[k % period] + rng.uniform(-noise, noise)
            for k in range(rng.randint(2 * period, 16))]
    return prefix + body


def on_span_edge(rng):
    # A period-2 cycle whose span is the minimum diameter itself, or one
    # float step either side of it.
    low = rng.choice([0.0, -0.25, 0.5, 3.0, -40.0])
    high = low + CYCLE_MIN_DIAMETER * max(1.0, abs(low))
    high = rng.choice([high, math.nextafter(high, math.inf), math.nextafter(high, -math.inf)])
    pair = [low, high] if rng.random() < 0.5 else [high, low]
    return pair * rng.randint(4, 8)


FAMILIES = [converging, stalled, cycle, on_span_edge]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_verdicts_match_reference_on_generated_sequences(family):
    rng = random.Random(family.__name__)
    verdicts = set()
    for _ in range(3000):
        xs = family(rng)
        expected = reference_detect_cycle(xs)
        assert detect_cycle(xs) == expected, xs
        verdicts.add(expected)
    if family in (cycle, on_span_edge):
        assert verdicts == {False, True}


def test_span_boundary_is_exclusive():
    assert not detect_cycle([0.0, CYCLE_MIN_DIAMETER] * 4)
    assert detect_cycle([0.0, math.nextafter(CYCLE_MIN_DIAMETER, 1.0)] * 4)


def test_period_four_span_counts_the_eighth_last_iterate():
    # Without xs[-8] the span is 4e-9 short of the minimum diameter; with
    # it, 2e-9 over, and xs[-8] still matches xs[-4] within the tolerance.
    d = CYCLE_MIN_DIAMETER
    xs = [-6e-9, 0.3 * d, d - 4e-9, 0.6 * d, 0.0, 0.3 * d, d - 4e-9, 0.6 * d]
    assert reference_detect_cycle(xs)
    assert detect_cycle(xs)


pool = st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-9, 1.002, -1.0, 2.5, 1e6, math.nan, math.inf])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.one_of(pool, st.floats()), max_size=14))
def test_verdicts_match_reference_on_arbitrary_floats(xs):
    assert detect_cycle(xs) == reference_detect_cycle(xs)


# ---------------------------------------------------------------------------
# The iteration driver
# ---------------------------------------------------------------------------

class Stall(StepError):
    status = Status.SYMMETRIC_STALL


def scripted(*moves):
    """A step that plays ``moves`` in order: a float is the next iterate,
    an exception is raised.  The (cur, prev) pairs it saw are in ``calls``."""
    moves = list(moves)

    def step(cur, prev):
        step.calls.append((cur, prev))
        move = moves.pop(0)
        if isinstance(move, Exception):
            raise move
        return move, ()
    step.calls = []
    return step


def fx(x):
    """f(x) = x on x >= 0, undefined below."""
    return x if x >= 0.0 else None


def run(step, x0=5.0, max_iter=50, **kwargs):
    out = iterate(step, fx, x0, fx(x0), 1e-15, max_iter, **kwargs)
    assert out.iterations == len(out.trace)
    assert [rec.k for rec in out.trace] == list(range(1, out.iterations + 1))
    if not out.converged:
        assert out.root == best_iterate(x0, fx(x0), out.trace)
    return out


def test_converged_returns_the_last_iterate():
    out = run(scripted(2.0, 0.0, 0.0))
    assert out.status is Status.CONVERGED
    assert out.root == 0.0
    assert out.iterations == 3
    assert out.note == ""


def test_max_iterations_returns_the_best_iterate():
    out = run(scripted(3.0, 1.0, 2.0, 4.0), max_iter=4)
    assert out.status is Status.MAX_ITERATIONS
    assert out.iterations == 4
    assert out.root == 1.0


def test_oscillating_once_the_cycle_repeats():
    out = run(scripted(*[1.0, 3.0] * 10))
    assert out.status is Status.OSCILLATING
    assert out.iterations == CYCLE_MIN_INDEX


def test_iterate_beyond_the_bound_diverges():
    out = run(scripted(2.0, 2 * DIVERGENCE_BOUND))
    assert out.status is Status.DIVERGED
    assert out.iterations == 2
    assert out.root == 2.0
    assert out.note == ""


@pytest.mark.parametrize("x_new", [math.inf, -math.inf, math.nan])
def test_non_finite_iterate_diverges_at_once(x_new):
    out = run(scripted(x_new))
    assert out.status is Status.DIVERGED
    assert out.iterations == 1
    assert math.isnan(out.trace[0].y)
    assert out.note == f"iterate left the domain at x={x_new!r}"
    assert out.root == 5.0


def test_three_off_domain_iterates_diverge():
    out = run(scripted(-1.0, -2.0, -3.0, 1.0))
    assert out.status is Status.DIVERGED
    assert out.iterations == 3
    assert out.note == "iterate left the domain at x=-3.0"


def test_three_step_errors_diverge_without_records():
    out = run(scripted(StepError("a"), StepError("b"), StepError("c"), 1.0))
    assert out.status is Status.DIVERGED
    assert out.iterations == 0
    assert out.root == 5.0
    assert out.note == "c"


def test_strikes_of_both_kinds_add_up_and_an_accepted_step_resets_them():
    out = run(scripted(-1.0, StepError("a"), 4.0,
                       StepError("b"), -2.0, 3.0,
                       -1.0, -1.0, StepError("c")))
    assert out.status is Status.DIVERGED
    assert [rec.x for rec in out.trace] == [-1.0, 4.0, -2.0, 3.0, -1.0, -1.0]
    assert out.note == "c"


def test_step_error_with_a_status_ends_the_run_at_once():
    out = run(scripted(4.0, Stall("flat"), 1.0))
    assert out.status is Status.SYMMETRIC_STALL
    assert out.iterations == 1
    assert out.root == 4.0
    assert out.note == "flat"


def test_a_note_set_before_the_run_is_kept():
    for moves in [(-1.0, -1.0, -1.0), (Stall("flat"),),
                  (StepError("a"),) * 3, (0.0, 0.0), (2.0, 3.0, 4.0)]:
        assert run(scripted(*moves), max_iter=3, note="given").note == "given"


def test_only_the_classifying_break_sets_the_note():
    out = run(scripted(StepError("a"), -1.0, 2.0, 1.0), max_iter=4)
    assert out.status is Status.MAX_ITERATIONS
    assert out.note == ""


def test_step_sees_the_last_two_accepted_points():
    start = IterationRecord(0, 9.0, 9.0)
    step = scripted(-1.0, 4.0, -2.0, 3.0, 2.0)
    out = run(step, max_iter=5, prev=start)
    xs = [(cur.x, prev.x) for cur, prev in step.calls]
    assert xs == [(5.0, 9.0), (5.0, 9.0), (4.0, 5.0), (4.0, 5.0), (3.0, 4.0)]
    # the current point is the accepted record itself
    assert step.calls[2][0] is out.trace[1]


def test_step_extras_fill_the_record():
    def step(cur, prev):
        return cur.x / 2.0, (0.1, 2.0, -1.0, 1.0)
    out = iterate(step, fx, 1.0, 1.0, 1e-15, 3)
    assert out.trace[0] == IterationRecord(1, 0.5, 0.5, 0.1, 2.0, -1.0, 1.0)
