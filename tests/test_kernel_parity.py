"""``select_delta`` and ``estimate_power`` against frozen copies of their
earlier form, bit for bit.

The copies below are the kernels as they were written with the builtin
``max``/``min`` and ``math.isfinite``; the package's versions use plain
comparisons and must return the same float, signed zeros and NaNs
included, or raise the same error.  The driver's parity tests cannot catch
a kernel change, because both drivers call the same kernels.
"""

import itertools
import math
import random
import struct

import pytest

from lsqroots.lsq3 import (
    _BETAS,
    _DELTA_FLOOR_ULP,
    _DELTA_SCALE_RATIO_FIXED,
    _DELTA_SCALE_RATIO_VARIABLE,
    _EPS,
    _MILD_NEGATIVE_LIMIT,
    _STRONG_POLE_LIMIT,
    N_CLAMP,
    estimate_power,
    select_delta,
)

RATIOS = (_DELTA_SCALE_RATIO_FIXED, _DELTA_SCALE_RATIO_VARIABLE)


def frozen_estimate_power(y_minus, y0, y_plus, delta):
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    dd = delta * delta
    if dd == 0.0:
        return 1.0
    s = (y_plus - y_minus) / (2.0 * delta)
    d2 = (y_minus - 2.0 * y0 + y_plus) / dd
    noise = 4.0 * _EPS * max(abs(y_minus), abs(y0), abs(y_plus)) / dd
    if abs(d2) <= noise:
        d2 = 0.0
    s2 = s * s
    den = s2 - y0 * d2
    if not math.isfinite(den) or abs(den) < 1e-300 or not math.isfinite(s2):
        return 1.0
    n = s2 / den
    if not math.isfinite(n):
        return 1.0
    lo, hi = N_CLAMP
    if n < lo or _STRONG_POLE_LIMIT < n <= _MILD_NEGATIVE_LIMIT:
        return 1.0
    n = min(n, hi)
    if abs(n) < 1e-6:
        return 1.0
    return n


def frozen_select_delta(x_k, x_prev, delta_prev, ratio):
    dx = x_k - x_prev
    floor = max(_DELTA_FLOOR_ULP * abs(x_k), ratio * min(abs(dx), abs(x_k)), 1e-300)
    dx2 = dx ** 2
    for beta in _BETAS:
        delta = beta * dx2
        if delta < 1.0 and delta <= delta_prev:
            if delta >= floor:
                return delta
            break
    return max(floor, _BETAS[-1] * dx2)


def outcome(fn, *args):
    """The bits of ``fn(*args)``, or the type and message of its error."""
    try:
        return struct.pack("<d", fn(*args)).hex()
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        return type(err).__name__, str(err)


def assert_same(new, frozen, cases):
    mismatched = [args for args in cases if outcome(new, *args) != outcome(frozen, *args)]
    assert not mismatched, mismatched[:10]


# ±0.0, denormals, a delta whose square underflows (below ~1.5e-162),
# ordinary and huge magnitudes, and the non-finite values
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, 1.4e-162, 1e-100, 1e-8,
         0.5, 1.0, -1.0, 3.0, -7.25, 1e100, 1e300, -1e300, 1.7976931348623157e308,
         math.inf, -math.inf, math.nan)


def magnitude(rng, top=308.0):
    """A float of random sign and a magnitude from denormal up to 10**top."""
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, top)


def probe_triples(rng, n):
    """(y_minus, y0, y_plus, delta) as lsq3 produces them near and away
    from a root: sampled from a power curve a*(x - b)^m, some straddling
    the root (y_minus and y_plus of opposite sign) and some from a pole
    (m < 0), plus unrelated values."""
    for _ in range(n):
        delta = 10.0 ** rng.uniform(-170.0, 2.0)
        m = rng.choice((1, 2, 3, 4, 0.5, -0.3, -1, -2.75))
        a = rng.uniform(-5.0, 5.0)
        e = rng.uniform(-3.0, 3.0) * delta * rng.choice((0.3, 1.0, 10.0, 1e6))
        try:
            ys = [a * math.copysign(abs(u) ** m, u) for u in (e - delta, e, e + delta)]
        except (ZeroDivisionError, OverflowError):      # at or too near the pole
            pass
        else:
            yield ys[0], ys[1], ys[2], delta
        yield magnitude(rng), magnitude(rng), magnitude(rng), abs(magnitude(rng))


def step_pairs(rng, n):
    """(x_k, x_prev, delta_prev) over every scale, and short steps near x."""
    for _ in range(n):
        # below 1e150 so that (x_k - x_prev)**2 stays finite; the edge
        # inputs cover the overflow
        x = magnitude(rng, 150.0)
        yield x, magnitude(rng, 150.0), abs(magnitude(rng))
        dx = x * 10.0 ** rng.uniform(-17.0, 1.0) * rng.choice((-1.0, 1.0))
        yield x, x - dx, 10.0 ** rng.uniform(-20.0, 1.0)
        yield x, x, 10.0 ** rng.uniform(-20.0, 1.0)


# Probe values whose denominator s^2 - y0*d2 is exactly 1e-300, the
# degeneracy threshold: the power is kept (about 0.294), not set to 1.
DEN_AT_THRESHOLD = (-4.523579477859219e-151, 6.407893801613523e-151,
                    6.326844817800965e-151, 1.0)


def test_estimate_power_matches_on_edge_inputs():
    assert_same(estimate_power, frozen_estimate_power, itertools.product(EDGES, repeat=4))
    assert_same(estimate_power, frozen_estimate_power, [DEN_AT_THRESHOLD])
    assert 0.29 < estimate_power(*DEN_AT_THRESHOLD) < 0.3


def test_select_delta_matches_on_edge_inputs():
    assert_same(select_delta, frozen_select_delta,
                [(x_k, x_prev, d, r) for x_k, x_prev, d in itertools.product(EDGES, repeat=3)
                 for r in RATIOS])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimate_power_matches_on_random_inputs(seed):
    rng = random.Random(seed)
    cases = list(probe_triples(rng, 20_000))
    assert_same(estimate_power, frozen_estimate_power, cases)
    # every rule is exercised, not only the fall-backs to 1
    powers = {frozen_estimate_power(*args) for args in cases}
    assert N_CLAMP[1] in powers and 1.0 in powers
    assert any(_MILD_NEGATIVE_LIMIT < n < 0.0 for n in powers)
    assert any(N_CLAMP[0] <= n <= _STRONG_POLE_LIMIT for n in powers)
    assert any(1.5 < n < N_CLAMP[1] for n in powers)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_select_delta_matches_on_random_inputs(seed):
    rng = random.Random(seed)
    cases = [(x_k, x_prev, d, rng.choice(RATIOS)) for x_k, x_prev, d in step_pairs(rng, 20_000)]
    assert_same(select_delta, frozen_select_delta, cases)
    # the beta rule, the floor and the no-beta fall-back all occur
    deltas = [frozen_select_delta(*args) for args in cases]
    assert any(d == 1e-300 for d in deltas)
    assert any(d >= 1.0 for d in deltas)
    assert any(d == _BETAS[3] * (x_k - x_prev) ** 2 for d, (x_k, x_prev, _, _) in zip(deltas, cases))
