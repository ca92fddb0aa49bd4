"""``detect_cycle`` against a direct statement of its rule.

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
    detect_cycle,
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
