"""Newton and secant reference solvers.

Both use the same stopping rule (|x_k - x_{k-1}| + |y_k| < tolerance) and
the same failure taxonomy as the three-point solver, so benchmark rows
are directly comparable.  Newton differentiates the expression
symbolically; secant needs a second starting point and defaults to
x0 + 0.1 when none is given (recorded in the outcome note).
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from .expressions import Expr, differentiate, evaluate
from .outcomes import (CheckedRecord, IterationRecord, SolveOutcome, Status, StepError,
                       check_budget, is_finite, iterate)
# Only ``outcomes`` calls these; they stay module globals here because the
# benchmark's probes rebind them by module.
from .outcomes import best_iterate, detect_cycle  # noqa: F401

METHODS = ("newton", "secant")

# Newton treats a derivative below this magnitude as zero.
DERIVATIVE_FLOOR = 1e-300


class ZeroDerivativeError(StepError):
    """Newton step with a derivative too close to zero."""


class FlatSecantError(StepError):
    """Secant step through two points with equal function values."""


class _BaselineFields(NamedTuple):
    tolerance: float = 1e-15
    max_iter: int = 500


class BaselineConfig(CheckedRecord, _BaselineFields):
    """Settings of :func:`solve_baseline` (an immutable named tuple),
    checked when built, by ``_replace`` too."""

    __slots__ = ()

    def _check(self):
        check_budget(self.tolerance, self.max_iter)


def newton_step(x: float, y: float, dy: float) -> float:
    """x - y/dy; raises :class:`ZeroDerivativeError` on a flat tangent."""
    if abs(dy) < DERIVATIVE_FLOOR:
        raise ZeroDerivativeError(f"derivative {dy!r} too small at x={x!r}")
    return x - y / dy


def secant_step(x0: float, y0: float, x1: float, y1: float) -> float:
    """Root of the chord through (x0, y0) and (x1, y1)."""
    if y1 == y0:
        raise FlatSecantError(f"flat chord: y({x0!r}) = y({x1!r})")
    return x1 - y1 * (x1 - x0) / (y1 - y0)


def solve_baseline(method: str, f: Expr, x0: float,
                   x1: Optional[float] = None,
                   config: Optional[BaselineConfig] = None) -> SolveOutcome:
    """Run Newton or secant from x0 and classify the outcome.

    Failures are statuses, never exceptions; a zero or undefined
    derivative, a flat chord or an off-domain iterate ends the run as
    Diverged.  A non-finite ``x0`` or ``x1`` is an argument error and
    raises ``ValueError``.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if config is None:
        config = BaselineConfig()
    if not is_finite(x0):
        raise ValueError("x0 must be finite")
    if x1 is not None and not is_finite(x1):
        raise ValueError("x1 must be finite")

    fx = partial(evaluate, f)
    y0 = fx(x0)
    if y0 is None:
        return SolveOutcome(Status.DOMAIN_ERROR, x0, (), note="f undefined at starting point")

    note = ""
    prev = None
    if method == "newton":
        dfx = partial(evaluate, differentiate(f))

        def step(cur, prev):
            dy = dfx(cur.x)
            if dy is None:
                raise ZeroDerivativeError(f"derivative undefined at x={cur.x!r}")
            return newton_step(cur.x, cur.y, dy), ()
    else:
        if x1 is None:
            x1 = x0 + 0.1
            note = f"secant second start defaulted to x1={x1!r}"
        y1 = fx(x1)
        if y1 is None:
            return SolveOutcome(Status.DOMAIN_ERROR, x0, (),
                                note=f"f undefined at second start x1={x1!r}")
        prev = IterationRecord(x0, y0)
        x0, y0 = x1, y1

        def step(cur, prev):
            return secant_step(prev.x, prev.y, cur.x, cur.y), ()

    return iterate(step, fx, x0, y0, config.tolerance, config.max_iter, prev, note)
