"""Shared solver outcome types, failure classification and iteration driver.

Every solver in this package (the three-point least-squares iteration and
the Newton/secant baselines) runs through :func:`iterate`, so all of them
share one stopping rule and one failure taxonomy and report results
through the same :class:`SolveOutcome`: benchmark comparisons are
like-for-like by construction.

A step is a pure function of the last two accepted records (every field
but ``k``), so once that pair recurs bit for bit the run is periodic: the
driver writes the rest of the trace as copies of the record one period
back instead of computing it.  Records (:class:`IterationRecord`) and
outcomes are immutable named tuples.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence, Tuple


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


class IterationRecord(NamedTuple):
    """One completed update step (an immutable named tuple).

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


class SolveOutcome(NamedTuple):
    """How a solve ended (an immutable named tuple): the status, the
    reported root, one record per iteration, and a free-text note."""

    status: Status
    root: float
    trace: Tuple[IterationRecord, ...]
    note: str = ""

    @property
    def iterations(self) -> int:
        return len(self.trace)

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

DIVERGENCE_BOUND = 1e12

# The largest ``max_iter`` a solver config accepts: a stuck run fills its
# trace with up to ``max_iter`` records of about 150 bytes each.
MAX_ITER_CAP = 1_000_000

# Copies that :func:`iterate` still checks once a state recurs.  Say the
# state made trace[first] and recurs at len(trace) == first + p: the copy
# appended at length t repeats trace[t - p], and every record was
# accepted, so the accepted iterates are the trace's x values.  detect_cycle
# is False on fewer than CYCLE_MIN_INDEX iterates and otherwise reads only
# the last 2 * CYCLE_MAX_PERIOD, so from length
# N0 = max(CYCLE_MIN_INDEX, first + 2 * CYCLE_MAX_PERIOD) on, its verdict
# repeats with period p: once lengths N0 .. N0 + p - 1 pass, none later can
# fire.  N0 + p - 1 is at most first + p + CHECKED_REPLAYS.  A copy meets
# the stopping rule and the bound with the values that the record it
# copies passed, so neither is tested on a copy.
CHECKED_REPLAYS = max(CYCLE_MIN_INDEX, 2 * CYCLE_MAX_PERIOD) - 1


class StepError(Exception):
    """A method could not take its step from the current iterate.

    It ends the run at once: Diverged by default, or with the ``status``
    of a subclass that sets one.
    """

    status: Optional[Status] = None


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
    scale = abs(last) if abs(last) > 1.0 else 1.0      # max(1.0, |last|)
    tol = CYCLE_MATCH_RTOL * scale
    # Every period's match below includes the pair (xs[-1-period], last).
    # A NaN fails every comparison and falls through to the full tests.
    if (abs(xs[-3] - last) > tol and abs(xs[-4] - last) > tol
            and abs(xs[-5] - last) > tol):
        return False
    min_span = CYCLE_MIN_DIAMETER * scale
    # Every window below lies inside this tail, so none can span more.
    tail = xs[-2 * CYCLE_MAX_PERIOD:]
    if max(tail) - min(tail) <= min_span:
        return False
    for period in range(2, CYCLE_MAX_PERIOD + 1):
        # The last pair of the match below, tested before slicing.
        if abs(xs[-1 - period] - last) > tol:
            continue
        window = xs[-2 * period:]
        if max(window) - min(window) > min_span:
            # A plain loop, not all(...): a generator would make tol and
            # window closure cells on every call.  A NaN fails the match.
            for i in range(period):
                if not abs(window[i] - window[i + period]) <= tol:
                    break
            else:
                return True
    return False


def best_iterate(x0: float, y0: float, trace: Sequence[IterationRecord]) -> float:
    """The iterate with the smallest |y| seen so far (used on failure)."""
    best_x, best_ay = x0, abs(y0)
    for rec in trace:
        if math.isfinite(rec.y) and abs(rec.y) < best_ay:
            best_x, best_ay = rec.x, abs(rec.y)
    return best_x


def _same_fields(a: Optional[IterationRecord], b: Optional[IterationRecord]) -> bool:
    """True if ``a`` and ``b`` hold the same values bit for bit in every
    field but ``k`` (or are both ``None``).  ``==`` alone matches 0.0 with
    -0.0, so a zero field must also agree in sign."""
    if a is None or b is None:
        return a is b
    fa, fb = a[1:], b[1:]
    if fa != fb:
        return False
    return 0.0 not in fa or all(math.copysign(1.0, u) == math.copysign(1.0, v)
                                for u, v in zip(fa, fb) if u == 0.0)


def iterate(step: Callable[[IterationRecord, Optional[IterationRecord]],
                           Tuple[float, tuple]],
            fx: Callable[[float], Optional[float]], x0: float, y0: float,
            tolerance: float, max_iter: int,
            prev: Optional[IterationRecord] = None, note: str = "") -> SolveOutcome:
    """Run ``step`` from (x0, y0) until |x_k - x_{k-1}| + |y_k| < tolerance
    holds or a failure is classified.

    ``step(cur, prev)`` gets the current and the previous accepted point as
    records (the start is ``k=0``; ``prev`` starts as given) and returns the
    next iterate with its record's extra fields, all four or ``()`` for
    none, or raises :class:`StepError`, which ends the run.  Records are
    built by ``tuple.__new__``, past the named tuple's slower constructor.
    ``fx`` evaluates f, ``None`` off the domain; an off-domain iterate is
    recorded and ends the run Diverged.  A failure's note comes from the
    break that classifies it, unless ``note`` was already set.

    Contract: ``step`` and ``fx`` are pure, so a step's result depends only
    on the fields of ``cur`` and ``prev`` other than ``k``.  Once the state
    ``(prev, cur)`` recurs bit for bit, with ``p`` the distance from the
    record the state first produced, every later record equals the one
    ``p`` before it.  So at the first recurrence the driver stops calling
    ``step`` and ``fx`` and writes the rest of the ``max_iter`` records as
    copies of the record ``p`` back.  Only the cycle test can end the run
    on a copy, and only on the first :data:`CHECKED_REPLAYS` (the argument
    is at that constant); if it does not, the run ends max-iterations,
    and the copies after those are written in one bulk extend of the
    trace.  A copy is never strictly better than the record it copies, so
    the best iterate comes from before the copies.
    """
    cur = IterationRecord(0, x0, y0)
    x, k = x0, 0                        # cur.x and len(trace)
    trace: list[IterationRecord] = []
    accepted: list[float] = []
    # cur.x -> ((prev, cur, trace index of the record it produced), ...)
    seen: dict[float, tuple] = {}
    status = Status.MAX_ITERATIONS
    while k < max_iter:
        states = seen.get(x, ())
        for seen_prev, seen_cur, first in states:
            if _same_fields(seen_cur, cur) and _same_fields(seen_prev, prev):
                # The periodic tail (see the docstring).
                period = k - first
                root = best_iterate(x0, y0, trace)
                for _ in range(min(CHECKED_REPLAYS, max_iter - k)):
                    trace.append(IterationRecord(len(trace) + 1, *trace[-period][1:]))
                    accepted.append(trace[-1].x)
                    if detect_cycle(accepted):
                        return SolveOutcome(Status.OSCILLATING, root, tuple(trace), note)
                # The unchecked rest in one write, each copy built straight
                # from its k and the fields of the record a period back.
                start = len(trace)
                rests = [rec[1:] for rec in trace[-period:]] * ((max_iter - start) // period + 1)
                trace.extend([tuple.__new__(IterationRecord, (k,) + rest)
                              for k, rest in zip(range(start + 1, max_iter + 1), rests)])
                return SolveOutcome(Status.MAX_ITERATIONS, root, tuple(trace), note)
        try:
            x_new, extras = step(cur, prev)
        except StepError as err:
            status = err.status or Status.DIVERGED
            note = note or str(err)
            break
        y_new = fx(x_new) if math.isfinite(x_new) else None
        k += 1
        rec = tuple.__new__(IterationRecord, (k, x_new, math.nan if y_new is None else y_new)
                            + (extras or (None, None, None, None)))
        trace.append(rec)
        if y_new is None:
            status = Status.DIVERGED
            note = note or f"iterate left the domain at x={x_new!r}"
            break

        if abs(x_new - x) + abs(y_new) < tolerance:
            return SolveOutcome(Status.CONVERGED, x_new, tuple(trace), note)
        if abs(x_new) > DIVERGENCE_BOUND:
            status = Status.DIVERGED
            break
        accepted.append(x_new)
        if detect_cycle(accepted):
            status = Status.OSCILLATING
            break
        seen[x] = states + ((prev, cur, k - 1),)
        prev, cur, x = cur, rec, x_new

    return SolveOutcome(status, best_iterate(x0, y0, trace), tuple(trace), note)
