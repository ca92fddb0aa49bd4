"""Shared solver outcome types and failure classification.

Every solver in this package (the three-point least-squares iteration and
the Newton/secant baselines) reports results through the same
:class:`SolveOutcome` so benchmark comparisons are like-for-like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple


class Status(Enum):
    CONVERGED = "converged"
    OSCILLATING = "oscillating"
    DIVERGED = "diverged"
    DOMAIN_ERROR = "domain-error"
    SYMMETRIC_STALL = "symmetric-stall"
    MAX_ITERATIONS = "max-iterations"


#: Outcome labels as printed by the benchmark tables.
def table_label(status: Status) -> str:
    if status is Status.CONVERGED:
        return "Converges"
    if status is Status.OSCILLATING:
        return "Oscillates"
    if status is Status.DIVERGED:
        return "Diverges"
    return "Fails"


@dataclass(frozen=True)
class IterationRecord:
    """One completed update step.

    ``x``/``y`` are the iterate produced by step ``k`` and its function
    value (``y`` is NaN when the step landed outside the domain).  For the
    three-point method, ``delta``/``n_used``/``y_minus``/``y_plus`` are the
    probe spacing, the power used, and the two side evaluations that made
    the step; baselines leave them ``None``.
    """

    k: int
    x: float
    y: float
    delta: Optional[float] = None
    n_used: Optional[float] = None
    y_minus: Optional[float] = None
    y_plus: Optional[float] = None


@dataclass(frozen=True)
class SolveOutcome:
    status: Status
    root: float
    iterations: int
    trace: Tuple[IterationRecord, ...]
    note: str = ""

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED


# Failure classification knobs, shared by all solvers.
CYCLE_MIN_INDEX = 8        # no oscillation verdict before this many iterates
CYCLE_MAX_PERIOD = 4
# Repeating cycles are matched loosely: probe-spacing perturbations on a
# repelling cycle grow several-fold per step, so by the time enough
# iterates exist the recurrence error sits well above rounding.
CYCLE_MATCH_RTOL = 1e-8
# A genuine cycle swings over a macroscopic span; slow monotone convergence
# also produces near-repeating iterates but with a tiny span, and must not
# be classified as oscillation.
CYCLE_MIN_DIAMETER = 1e-3

MAX_CONSECUTIVE_DOMAIN_ERRORS = 3


def detect_cycle(xs: Sequence[float]) -> bool:
    """True if the tail of ``xs`` repeats with period 2..4.

    The last two full periods must match pointwise within a relative
    ``CYCLE_MATCH_RTOL`` and the cycle must span more than a relative
    ``CYCLE_MIN_DIAMETER`` (so a converging tail, where consecutive
    iterates also agree to many digits, does not count as a cycle).
    """
    if len(xs) < CYCLE_MIN_INDEX:
        return False
    last = xs[-1]
    scale = max(1.0, abs(last))
    min_span = CYCLE_MIN_DIAMETER * scale
    # Every window below lies inside this tail, so none can span more.
    tail = xs[-2 * CYCLE_MAX_PERIOD:]
    if max(tail) - min(tail) <= min_span:
        return False
    tol = CYCLE_MATCH_RTOL * scale
    for period in range(2, CYCLE_MAX_PERIOD + 1):
        # The last pair of the match below, tested before slicing.
        if abs(xs[-1 - period] - last) > tol:
            continue
        window = xs[-2 * period:]
        if max(window) - min(window) > min_span and all(
            abs(window[i] - window[i + period]) <= tol
            for i in range(period)
        ):
            return True
    return False


def best_iterate(x0: float, y0: float, trace: Sequence[IterationRecord]) -> float:
    """The iterate with the smallest |y| seen so far (used on failure)."""
    best_x, best_ay = x0, abs(y0)
    for rec in trace:
        if math.isfinite(rec.y) and abs(rec.y) < best_ay:
            best_x, best_ay = rec.x, abs(rec.y)
    return best_x
