"""Root finding by fitting y = a(x-b)^N through three equispaced points.

Each step samples f at x-delta, x, x+delta, fits the single-root power
curve by least squares, and jumps to the fitted root b:

    x' = x - N * [((N+1)*y_minus + (4N-2)*y0 + (N+1)*y_plus) / (6N)]
             / [(y_plus - y_minus) / (2*delta)]

The power N is either held fixed (N=1 fits a straight line and behaves
much like Newton's method without derivatives) or re-estimated every
step from the same three samples via central differences:

    N = s^2 / (s^2 - y0 * d2),   s = (y_plus - y_minus) / (2*delta),
                                 d2 = (y_minus - 2*y0 + y_plus) / delta^2

In these terms the step is

    x' = x - N * y0 / s - (N+1) * delta^2 * d2 / (6s)

With the variable N the first two terms are Schroeder's (1870)
multiple-root step (Newton's method on f/f') with central differences;
the third is what the least-squares fit adds.  :func:`lsq3_step` keeps
the weighted form above.

The probe spacing is beta * (x_k - x_{k-1})^2 for a beta from a
descending series, raised to a floor tied to the scale of x and of the
last step; after a long step it can exceed both 1 and the previous
spacing (:func:`select_delta` has the whole rule).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple, Optional, Tuple

from .expressions import Expr, evaluate
from .outcomes import (CheckedRecord, SolveOutcome, Status, StepError, check_budget,
                       compile_tree, is_finite, iterate)
# Only ``outcomes`` calls these; they stay module globals here because the
# benchmark's probes rebind them by module.
from .outcomes import best_iterate, detect_cycle  # noqa: F401

_EPS = 2.0 ** -52

_BETAS = tuple(10.0 ** -k for k in range(13))   # descending

# The beta rule can undershoot the scale of the iterate by many orders of
# magnitude (it drops a decade per step through long linear phases).  Too
# small a spacing ruins the central differences: the slope drowns in
# rounding noise of the samples, and in variable mode the curvature needed
# for the power estimate vanishes first.  The floor tracks the smaller of
# the last step and the iterate itself (the step alone would overshoot the
# root's neighbourhood right after a strong contraction), with a wider
# ratio in variable mode where second differences must stay resolvable.
# Under that it is about one ulp of |x|, the smallest spacing below the
# achievable final error (which falls to denormal range for roots at 0
# with fractional-power behaviour, cbrt), and 1e-300 absolutely.
_DELTA_FLOOR_ULP = 2e-16
_DELTA_SCALE_RATIO_FIXED = 1e-3
_DELTA_SCALE_RATIO_VARIABLE = 1e-2

# A negative power estimate means the samples fit a pole, not a root.
# Two negative regimes are still useful: mild estimates (above the first
# limit) yield tiny, cautious steps on nearly-flat stretches, and strong
# in-range estimates (below the second limit but inside the clamp range)
# reverse the step away from a slope whose extrapolation has no zero.
# Between the two limits the reversal is too aggressive for data that is
# only weakly pole-like, so the straight-line fit is used instead.
_MILD_NEGATIVE_LIMIT = -0.7
_STRONG_POLE_LIMIT = -2.5

# Estimated powers are kept inside this interval.  The upper bound
# protects against off-shooting on steep stretches while still letting
# roots of multiplicity about 4 contract fast.
N_CLAMP = (-3.0, 3.5)


class SymmetricStallError(StepError):
    """y(x+delta) stayed equal to y(x-delta) for every adjusted delta."""

    status = Status.SYMMETRIC_STALL


class ProbeDomainError(StepError):
    """f(x +/- delta) stayed outside the domain for every adjusted delta."""


class _SolverFields(NamedTuple):
    mode: str = "fixed"                 # "fixed" or "variable"
    n_value: float = 1.0                # power used in fixed mode
    delta0: float = 0.1                 # first-step probe spacing, in (0, 1)
    tolerance: float = 1e-15
    max_iter: int = 500


class SolverConfig(CheckedRecord, _SolverFields):
    """Settings of :func:`solve` (an immutable named tuple), checked when
    built, by ``_replace`` too."""

    __slots__ = ()

    def _check(self):
        if self.mode not in ("fixed", "variable"):
            raise ValueError(f"mode must be 'fixed' or 'variable', got {self.mode!r}")
        if not 0.0 < self.delta0 < 1.0:
            raise ValueError("delta0 must lie in (0, 1)")
        check_budget(self.tolerance, self.max_iter)
        if not is_finite(self.n_value):
            raise ValueError(f"power must be finite, got {self.n_value!r}")
        if self.mode == "fixed" and self.n_value == 0.0:
            raise ValueError("fixed power must be nonzero")


def lsq3_step(x: float, y_minus: float, y0: float, y_plus: float,
              delta: float, n: float) -> float:
    """One update of the three-point least-squares iteration."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if y_plus == y_minus:
        raise ValueError("y_plus equals y_minus; delta must be readjusted")
    if n == 0.0:
        raise ValueError("power n must be nonzero")
    slope = (y_plus - y_minus) / (2.0 * delta)
    n1 = n + 1.0
    weighted = (n1 * y_minus + (4.0 * n - 2.0) * y0 + n1 * y_plus) / (6.0 * n)
    return x - n * (weighted / slope)


def estimate_power(y_minus: float, y0: float, y_plus: float, delta: float) -> float:
    """Estimate the power N of the fitted curve from the three samples.

    Positive estimates above the upper bound of :data:`N_CLAMP` are capped
    there (off-shoot protection).  Negative estimates mean the samples fit a
    pole rather than a root (a(x-b)^N has no root for N < 0); mildly
    negative and strongly negative in-range estimates are kept (small
    cautious steps, respectively a deliberate step reversal), while the
    band in between and anything outside the clamp range falls back to
    the straight-line fit N = 1.  Degenerate data (vanishing
    denominator, a ``delta`` whose square underflows, non-finite values,
    second difference below the cancellation noise of the samples) also
    falls back to 1.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    dd = delta * delta
    if dd == 0.0:               # delta below ~1.5e-162 squares to zero
        return 1.0
    s = (y_plus - y_minus) / (2.0 * delta)
    d2 = (y_minus - 2.0 * y0 + y_plus) / dd
    # Central second differences below the cancellation floor of the three
    # samples carry no information; treating them as zero keeps the
    # straight-line answer exact on straight lines.
    big, a0, ap = abs(y_minus), abs(y0), abs(y_plus)
    big = a0 if a0 > big else big
    big = ap if ap > big else big
    if abs(d2) <= 4.0 * _EPS * big / dd:
        d2 = 0.0
    s2 = s * s
    den = s2 - y0 * d2
    # An infinite s2 leaves den infinite or NaN.
    if not 1e-300 <= abs(den) < math.inf:
        return 1.0
    # n is finite: where s2 - y0*d2 cancels, |den| >= s2 * 2**-54.
    n = s2 / den
    if n < N_CLAMP[0] or _STRONG_POLE_LIMIT < n <= _MILD_NEGATIVE_LIMIT or -1e-6 < n < 1e-6:
        return 1.0
    return n if n <= N_CLAMP[1] else N_CLAMP[1]


def select_delta(x_k: float, x_prev: float, delta_prev: float, ratio: float) -> float:
    """Probe spacing for the next step, from the last step x_prev -> x_k.

    The beta rule: beta * (x_k - x_prev)^2 for the largest beta in
    1, 0.1, ..., 1e-12 that keeps the spacing below 1 and no larger than
    ``delta_prev``.  The floor: max(2e-16*|x_k|, ratio*min(|x_k - x_prev|,
    |x_k|), 1e-300).  A beta-rule spacing below the floor is raised to the
    floor.  When no beta qualifies (even 1e-12 * (x_k - x_prev)^2 is 1 or
    more, or exceeds ``delta_prev``) the spacing is max(floor, 1e-12 *
    (x_k - x_prev)^2), which after a step of 1e6 or more exceeds 1.
    A product beta * (x_k - x_prev)^2 does not grow as beta falls, so the
    smallest beta is tested first: if it fails, every beta fails.
    """
    dx = x_k - x_prev
    ax, adx = abs(x_k), abs(dx)
    floor, scaled = _DELTA_FLOOR_ULP * ax, ratio * (ax if ax < adx else adx)
    floor = scaled if scaled > floor else floor
    floor = 1e-300 if 1e-300 > floor else floor
    dx2 = dx ** 2
    delta = _BETAS[-1] * dx2
    if not (delta < 1.0 and delta <= delta_prev):
        return delta if delta > floor else floor
    for beta in _BETAS:
        delta = beta * dx2
        if delta < 1.0 and delta <= delta_prev:
            return delta if delta >= floor else floor


def adjust_delta(fx: Callable, x: float, delta: float) -> Tuple[float, float, float]:
    """Evaluate f at x +/- delta through ``fx`` (``None`` off the domain),
    readjusting delta until the two differ.

    Equal side values (a symmetric extremum under the probes) grow delta
    by 1.5x; a side value outside the domain shrinks delta by half.  At
    most 8 probe pairs are tried.

    Returns ``(delta, y_minus, y_plus)``.
    Raises :class:`SymmetricStallError` or :class:`ProbeDomainError` when
    the respective condition persists through all attempts.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    failure = None
    # A counted while loop: a for loop would build a range iterator per call.
    tries = 8
    while tries:
        tries -= 1
        y_minus = fx(x - delta)
        y_plus = fx(x + delta)
        if y_minus is None or y_plus is None:
            failure = "domain"
            delta = delta / 2.0
        elif y_minus == y_plus:
            failure = "symmetric"
            delta = delta * 1.5
        else:
            return delta, y_minus, y_plus
    if failure == "domain":
        raise ProbeDomainError(f"no valid probes around x={x!r}")
    raise SymmetricStallError(f"y(x+delta) = y(x-delta) for all adjusted deltas at x={x!r}")


def solve(f: Expr, x0: float, config: Optional[SolverConfig] = None) -> SolveOutcome:
    """Drive the three-point iteration from x0 until the stopping rule
    |x_k - x_{k-1}| + |y_k| < tolerance holds or a failure is classified.

    Failures come back as statuses, never exceptions: Diverged (iterate
    beyond the divergence bound, off the domain, or probes that stay off
    it), Oscillating (a period 2..4 cycle), SymmetricStall, DomainError
    (f undefined at x0), or MaxIterations; :func:`~lsqroots.outcomes.iterate`
    evaluates and classifies the start.  A non-finite ``x0`` or a tree too
    deep to evaluate raises ``ValueError``.  Every evaluation of f runs
    one function compiled from the whole tree (``compile_tree``).
    """
    if config is None:
        config = SolverConfig()
    if not is_finite(x0):
        raise ValueError("x0 must be finite")
    compile_tree(f)
    fx = partial(evaluate, f)

    delta0, n_value = config.delta0, config.n_value
    variable = config.mode == "variable"
    ratio = _DELTA_SCALE_RATIO_VARIABLE if variable else _DELTA_SCALE_RATIO_FIXED

    def step(cur, prev):
        x, y = cur.x, cur.y
        delta, y_minus, y_plus = adjust_delta(fx, x, delta0 if prev is None else select_delta(
            x, prev.x, cur.delta, ratio))
        n = estimate_power(y_minus, y, y_plus, delta) if variable else n_value
        return lsq3_step(x, y_minus, y, y_plus, delta, n), (delta, n, y_minus, y_plus)

    return iterate(step, fx, (x0,), config.tolerance, config.max_iter)
