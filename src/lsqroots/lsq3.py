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

The probe spacing shrinks as the iteration converges:
delta_{k+1} = beta * (x_k - x_{k-1})^2 with beta picked from a
descending series so delta stays below 1 and never grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .expressions import Expr, evaluate
from .outcomes import SolveOutcome, Status, StepError, iterate
# Only ``outcomes`` calls these; they stay module globals here because the
# benchmark's probes rebind them by module.
from .outcomes import best_iterate, detect_cycle  # noqa: F401

DEFAULT_BETA_SERIES: Tuple[float, ...] = tuple(10.0 ** -k for k in range(13))

_EPS = 2.0 ** -52

# The schedule delta = beta * (x_k - x_{k-1})^2 can undershoot the scale
# of the iterate by many orders of magnitude (the monotone rule drops it
# a decade per step through long linear phases).  Too small a spacing
# ruins the central differences: the slope drowns in rounding noise of
# the samples, and in variable mode the curvature needed for the power
# estimate vanishes first.  The floor tracks the smaller of the last
# step and the iterate itself (the step alone would overshoot the
# root's neighbourhood right after a strong contraction), with a wider
# ratio in variable mode where second differences must stay resolvable.
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


class SymmetricStallError(StepError):
    """y(x+delta) stayed equal to y(x-delta) for every adjusted delta."""

    status = Status.SYMMETRIC_STALL


class ProbeDomainError(StepError):
    """f(x +/- delta) stayed outside the domain for every adjusted delta."""


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "fixed"                 # "fixed" or "variable"
    n_value: float = 1.0                # power used in fixed mode
    delta0: float = 0.1                 # first-step probe spacing, in (0, 1)
    beta_series: Tuple[float, ...] = DEFAULT_BETA_SERIES
    # Estimated powers are kept inside this interval.  The upper bound
    # protects against off-shooting on steep stretches while still
    # letting roots of multiplicity about 4 contract fast.
    n_clamp: Tuple[float, float] = (-3.0, 3.5)
    tolerance: float = 1e-15
    max_iter: int = 500
    # Probe spacing never shrinks below delta_floor * |x| (with a tiny
    # absolute backstop).  It must stay below the achievable final error,
    # which scales with |x| for simple roots and falls to denormal range
    # for roots at 0 with fractional-power behaviour (cbrt); one ulp is
    # the useful minimum.
    delta_floor: float = 2e-16

    def __post_init__(self):
        if self.mode not in ("fixed", "variable"):
            raise ValueError(f"mode must be 'fixed' or 'variable', got {self.mode!r}")
        if not 0.0 < self.delta0 < 1.0:
            raise ValueError("delta0 must lie in (0, 1)")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        lo, hi = self.n_clamp
        if not lo <= 1.0 <= hi:
            raise ValueError("n_clamp must contain 1")
        if self.mode == "fixed" and self.n_value == 0.0:
            raise ValueError("fixed power must be nonzero")
        if not self.beta_series:
            raise ValueError("beta_series must be nonempty")
        if any(b <= 0.0 for b in self.beta_series):
            raise ValueError("beta_series must be positive")
        if any(a <= b for a, b in zip(self.beta_series, self.beta_series[1:])):
            raise ValueError("beta_series must be strictly descending")


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
    weighted = ((n + 1.0) * y_minus + (4.0 * n - 2.0) * y0 + (n + 1.0) * y_plus) / (6.0 * n)
    return x - n * (weighted / slope)


def estimate_power(y_minus: float, y0: float, y_plus: float, delta: float,
                   clamp: Tuple[float, float] = (-3.0, 3.0)) -> float:
    """Estimate the power N of the fitted curve from the three samples.

    Positive estimates above the upper clamp bound are capped there
    (off-shoot protection).  Negative estimates mean the samples fit a
    pole rather than a root (a(x-b)^N has no root for N < 0); mildly
    negative and strongly negative in-range estimates are kept (small
    cautious steps, respectively a deliberate step reversal), while the
    band in between and anything outside the clamp range falls back to
    the straight-line fit N = 1.  Degenerate data (vanishing
    denominator, non-finite values, second difference below the
    cancellation noise of the samples) also falls back to 1.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    s = (y_plus - y_minus) / (2.0 * delta)
    d2 = (y_minus - 2.0 * y0 + y_plus) / (delta * delta)
    # Central second differences below the cancellation floor of the three
    # samples carry no information; treating them as zero keeps the
    # straight-line answer exact on straight lines.
    noise = 4.0 * _EPS * max(abs(y_minus), abs(y0), abs(y_plus)) / (delta * delta)
    if abs(d2) <= noise:
        d2 = 0.0
    s2 = s * s
    den = s2 - y0 * d2
    if not math.isfinite(den) or abs(den) < 1e-300 or not math.isfinite(s2):
        return 1.0
    n = s2 / den
    if not math.isfinite(n):
        return 1.0
    lo, hi = clamp
    if n < lo or _STRONG_POLE_LIMIT < n <= _MILD_NEGATIVE_LIMIT:
        return 1.0
    n = min(max(n, lo), hi)
    if abs(n) < 1e-6:
        return 1.0
    return n


def select_delta(x_k: float, x_prev: float, delta_prev: float,
                 beta_series: Tuple[float, ...] = DEFAULT_BETA_SERIES,
                 floor: float = 1e-12) -> float:
    """Probe spacing for the next step: beta * (x_k - x_prev)^2.

    Takes the largest beta in the series keeping the spacing below 1 and
    no larger than the previous spacing; falls back to the floor when no
    beta qualifies or the winner is smaller than the floor.
    """
    dx2 = (x_k - x_prev) ** 2
    candidates = [beta * dx2 for beta in beta_series]
    chosen = None
    for c in candidates:
        if c < 1.0 and c <= delta_prev:
            chosen = c
            break
    if chosen is None or chosen < floor:
        return max(floor, candidates[-1])
    return chosen


def adjust_delta(f: Expr, x: float, delta: float) -> Tuple[float, float, float]:
    """Evaluate f at x +/- delta, readjusting delta until the two differ.

    Equal side values (a symmetric extremum under the probes) grow delta
    by 1.5x; a side value outside the domain shrinks delta by half.  At
    most 8 probe pairs are tried.

    Returns ``(delta, y_minus, y_plus)``.
    Raises :class:`SymmetricStallError` or :class:`ProbeDomainError` when
    the respective condition persists through all attempts.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    d = delta
    failure = None
    for _ in range(8):
        y_minus = evaluate(f, x - d)
        y_plus = evaluate(f, x + d)
        if y_minus is None or y_plus is None:
            failure = "domain"
            d = d / 2.0
            continue
        if y_minus == y_plus:
            failure = "symmetric"
            d = d * 1.5
            continue
        return d, y_minus, y_plus
    if failure == "domain":
        raise ProbeDomainError(f"no valid probes around x={x!r}")
    raise SymmetricStallError(f"y(x+delta) = y(x-delta) for all adjusted deltas at x={x!r}")


def solve(f: Expr, x0: float, config: Optional[SolverConfig] = None) -> SolveOutcome:
    """Drive the three-point iteration from x0 until the stopping rule
    |x_k - x_{k-1}| + |y_k| < tolerance holds or a failure is classified.

    Failures come back as statuses, never exceptions: Diverged (iterate
    beyond the divergence bound, or three consecutive steps hitting
    domain errors), Oscillating (a period 2..4 cycle), SymmetricStall,
    DomainError (f undefined at x0), or MaxIterations.
    """
    if config is None:
        config = SolverConfig()
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    y0 = evaluate(f, x0)
    if y0 is None:
        return SolveOutcome(Status.DOMAIN_ERROR, x0, 0, (), note="f undefined at starting point")

    variable = config.mode == "variable"
    ratio = _DELTA_SCALE_RATIO_VARIABLE if variable else _DELTA_SCALE_RATIO_FIXED

    def step(cur, prev):
        x = cur.x
        if prev is None:
            delta_try = config.delta0
        else:
            floor = max(config.delta_floor * abs(x),
                        ratio * min(abs(x - prev.x), abs(x)),
                        1e-300)
            delta_try = select_delta(x, prev.x, cur.delta, config.beta_series, floor)
        delta, y_minus, y_plus = adjust_delta(f, x, delta_try)
        if variable:
            n = estimate_power(y_minus, cur.y, y_plus, delta, config.n_clamp)
        else:
            n = config.n_value
        return lsq3_step(x, y_minus, cur.y, y_plus, delta, n), (delta, n, y_minus, y_plus)

    return iterate(step, lambda x: evaluate(f, x), x0, y0,
                   config.tolerance, config.max_iter)
