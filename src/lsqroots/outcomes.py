"""Shared solver outcome types, failure classification and iteration driver.

Every solver in this package (the three-point least-squares iteration and
the Newton/secant baselines) runs through :func:`iterate`, so all of them
share one stopping rule and one failure taxonomy and report results
through the same :class:`SolveOutcome`: benchmark comparisons are
like-for-like by construction.  Each also compiles the expressions it
iterates on with :func:`compile_tree`, which lives here rather than in
``expressions`` so that ``import lsqroots`` does not compile it; the
source it compiles comes from ``expressions._tree_source``, the writer
of the node forms too.

A step is a pure function of the last two accepted records (every
field), so once that pair recurs bit for bit the run is periodic: the
driver writes the rest of the trace by repeating the period's own records
instead of computing it.  Records (:class:`IterationRecord`) and outcomes
are immutable named tuples; a record's step number is its 1-based place
in the trace.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from functools import partial
from itertools import cycle, islice
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .expressions import (Binary, Call, Constant, Expr, Variable, _CALLS, _generated, _ieee,
                          _tree_source)


class Status(Enum):
    CONVERGED = "converged"
    OSCILLATING = "oscillating"
    DIVERGED = "diverged"
    DOMAIN_ERROR = "domain-error"
    SYMMETRIC_STALL = "symmetric-stall"
    MAX_ITERATIONS = "max-iterations"


class IterationRecord(NamedTuple):
    """One completed update step (an immutable named tuple).

    ``x``/``y`` are the iterate the step produced and its function value
    (``y`` is NaN when the step landed outside the domain).  For the
    three-point method, ``delta``/``n_used``/``y_minus``/``y_plus`` are the
    probe spacing, the power used, and the two side evaluations that made
    the step; baselines leave them ``None``.  A record holds no step
    number: step k's record is ``trace[k - 1]``, so
    ``enumerate(trace, 1)`` numbers them, and a periodic tail holds the
    same record at several places.
    """

    x: float
    y: float
    delta: Optional[float] = None
    n_used: Optional[float] = None
    y_minus: Optional[float] = None
    y_plus: Optional[float] = None


# A record from the tuple of all its fields, past the named tuple's
# slower constructor.
_new_record = partial(tuple.__new__, IterationRecord)


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


def is_finite(value: float) -> bool:
    """True if ``value`` converts to a finite float: an int beyond float
    range is no more finite than ``inf``, where ``math.isfinite`` would
    raise ``OverflowError`` for it."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_budget(tolerance: float, max_iter: int) -> None:
    """The budget rule every solver config checks when built: a positive,
    finite ``tolerance`` and an integer ``max_iter`` in 1 .. MAX_ITER_CAP.

    Raises ``ValueError`` naming the first field that breaks it (a
    ``max_iter`` that is no integer raises ``TypeError``).
    """
    if not (tolerance > 0.0 and is_finite(tolerance)):
        raise ValueError("tolerance must be positive and finite")
    if not 1 <= operator.index(max_iter) <= MAX_ITER_CAP:
        raise ValueError(f"max_iter must be at least 1 and at most {MAX_ITER_CAP}")


class CheckedRecord:
    """Base of a named tuple that checks itself when built, by ``_replace``
    too: list it before the fields tuple and define ``_check(self)``, which
    raises on a bad record."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# Copies that :func:`iterate` still checks once a state recurs.  Say the
# state made trace[first] and recurs at len(trace) == first + p: the copy
# appended at length t is the record trace[t - p] itself, and every record
# was accepted, so the accepted iterates are the trace's x values.  detect_cycle
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
    scale = abs(last)
    scale = scale if scale > 1.0 else 1.0               # max(1.0, |last|)
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
        # A NaN or infinite |y| fails the comparison, so it is never kept.
        ay = abs(rec.y)
        if ay < best_ay:
            best_x, best_ay = rec.x, ay
    return best_x


def _same_fields(a: Optional[IterationRecord], b: Optional[IterationRecord]) -> bool:
    """True if ``a`` and ``b`` hold the same values bit for bit in every
    field (or are both ``None``).  ``==`` alone matches 0.0 with -0.0, so a
    zero field must also agree in sign."""
    if a is None or b is None:
        return a is b
    if a != b:
        return False
    return 0.0 not in a or all(math.copysign(1.0, u) == math.copysign(1.0, v)
                               for u, v in zip(a, b) if u == 0.0)


def iterate(step: Callable[[IterationRecord, Optional[IterationRecord]],
                           Tuple[float, tuple]],
            fx: Callable[[float], Optional[float]], x0: float, y0: float,
            tolerance: float, max_iter: int,
            prev: Optional[IterationRecord] = None, note: str = "") -> SolveOutcome:
    """Run ``step`` from (x0, y0) until |x_k - x_{k-1}| + |y_k| < tolerance
    holds or a failure is classified.

    ``step(cur, prev)`` gets the current and the previous accepted point as
    records (the start is ``IterationRecord(x0, y0)``; ``prev`` starts as
    given) and returns the next iterate with its record's extra fields, all
    four or ``()`` for none, or raises :class:`StepError`, which ends the
    run.  Every computed record is built by ``_new_record``, past the named
    tuple's slower constructor.
    ``fx`` evaluates f, ``None`` off the domain; an off-domain iterate is
    recorded and ends the run Diverged.  A start whose ``y`` is exactly 0,
    ``prev`` (checked first) or (x0, y0), is a root: the run converges
    there with no step and an empty trace.  A failure's note comes from the
    break that classifies it, unless ``note`` was already set.

    Contract: ``step`` and ``fx`` are pure, so a step's result depends only
    on the fields of ``cur`` and ``prev``.  Once the state ``(prev, cur)``
    recurs bit for bit, with ``p`` the distance from the record the state
    first produced, every later record equals the one ``p`` before it.  So
    at the first recurrence the driver stops calling ``step`` and ``fx``
    and fills the rest of the ``max_iter`` places with the last ``p``
    records themselves, in turn, from one lazy ``islice(cycle(...))``: a
    copy is the record one period back, not a new one.  Only the cycle test
    can end the run on a copy, and only on the first
    :data:`CHECKED_REPLAYS` (the argument is at that constant), which are
    appended and tested one at a time; if it does not fire, the run ends
    max-iterations, and the trace is extended by the rest of the iterator.
    A copy is never strictly better than the record it copies, so the
    best iterate comes from before the copies.

    ``fx`` is called once per iterate the run visits: a computed record's
    ``y`` is ``fx`` at its ``x``, so a step back onto an iterate the run
    computed (0.0 and -0.0 apart) reuses that record's ``y``.  The start's
    ``y0`` (and ``prev.y``) is taken as given, so a step back onto a start
    calls ``fx``.  The table of states that the recurrence test reads is
    looked up by the new iterate right after the step, and serves both.
    It maps an iterate to the trace length at which the run stepped from
    it, or to a tuple of lengths where it did so more than once, and the
    states' records are read back from the trace and the two start
    records, so a step adds an int to it and builds no tuple.
    """
    cur = IterationRecord(x0, y0)
    for start in (prev, cur):
        if start is not None and start.y == 0.0:
            return SolveOutcome(Status.CONVERGED, start.x, (), note)
    x, k = x0, 0                        # cur.x and len(trace)
    trace: list[IterationRecord] = []
    accepted: list[float] = []
    # cur.x -> len(trace) when each state at that x was stepped from: an
    # int, or a tuple of them where several states share an x.  The state
    # stepped from at length i is (back(i - 2), back(i - 1)), where back(j)
    # is trace[j] for j >= 0 and heads[j], a start record, for j < 0.
    seen: dict = {}
    heads = (prev, cur)
    hits = None                         # seen's entry at x as a tuple, or None
    status = Status.MAX_ITERATIONS
    while k < max_iter:
        # Most passes reach a new x: the test spares them the loop.
        if hits:
            for first in hits:
                if (_same_fields((trace if first else heads)[first - 1], cur)
                        and _same_fields((trace if first > 1 else heads)[first - 2], prev)):
                    # The periodic tail (see the docstring): the period's
                    # own records, repeated.
                    root = best_iterate(x0, y0, trace)
                    copies = islice(cycle(trace[first:]), max_iter - k)
                    for rec in islice(copies, CHECKED_REPLAYS):
                        trace.append(rec)
                        accepted.append(rec.x)
                        if detect_cycle(accepted):
                            return SolveOutcome(Status.OSCILLATING, root, tuple(trace), note)
                    trace.extend(copies)
                    return SolveOutcome(Status.MAX_ITERATIONS, root, tuple(trace), note)
        seen[x] = hits + (k,) if hits else k
        try:
            x_new, extras = step(cur, prev)
        except StepError as err:
            status = err.status or Status.DIVERGED
            note = note or str(err)
            break
        y_new = None
        hits = seen.get(x_new)
        if hits is not None:
            if hits.__class__ is int:
                hits = (hits,)
            for first in hits:
                # f at an iterate this run computed (first > 0), the same
                # zero included: the start's y is taken as given, so it is
                # never reused.
                if first and math.copysign(1.0, trace[first - 1].x) == math.copysign(1.0, x_new):
                    y_new = trace[first - 1].y
                    break
        if y_new is None and math.isfinite(x_new):
            y_new = fx(x_new)
        k += 1
        rec = _new_record((x_new, math.nan if y_new is None else y_new)
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
        prev, cur, x = cur, rec, x_new

    return SolveOutcome(status, best_iterate(x0, y0, trace), tuple(trace), note)


# The factories of whole-tree functions, keyed by their shape (see
# compile_tree), which names no constant and no function, so fresh trees
# of one shape share a factory.  The table is emptied when it holds
# _TREE_TABLE of them; like the expression caches it takes no lock, and
# either of two racing factories serves.
_TREES: dict = {}
_TREE_TABLE = 128


def compile_tree(f: Expr) -> None:
    """Compile ``f`` into one function, which ``evaluate`` runs from then
    on in place of its node closures, with the same results.  Each solver
    calls it on the expressions it iterates on; a later call returns at once.

    One walk of the tree collects the values the function binds (the
    constants and math functions, as ``k0``, ``k1``, ...) and its shape:
    one entry per distinct node, left operand before right, of the node's
    tag (its operator, ``neg`` for unary minus, ``call``, or ``read`` for
    a leaf root) and its operand tokens.  A token is ``x``, a constant's
    kind (``c`` finite, ``f`` not) with its slot, or the index of an
    earlier entry; a call's entry ends with its function's slot.  So a
    node held twice is one entry, computed once, and the shape fixes the
    source.  The factory is kept in ``_TREES`` by the shape; only a shape
    it does not hold is written and compiled, by
    ``expressions._tree_source``, the writer of the node forms, so each
    entry's statement and checks are those of its node's form, with its
    operands read as ``expressions._operand`` reads them.  The function
    is kept as the root's ``_compiled``, marked ``_tree``.  The walk
    keeps two frames per level, as ``expressions._compile`` does, so a
    tree too deep for one keeps its closures and ``evaluate`` raises its
    ValueError.
    """
    d = f.__dict__
    if "_tree" in d:
        return
    shape: list = []
    bound: list = []
    index: dict = {}        # id of a node -> its entry's index in shape

    def read(node: Expr):
        if isinstance(node, Variable):
            return "x"
        if isinstance(node, Constant):
            value = _ieee(node.value)
            bound.append(value)
            return "c" if math.isfinite(value) else "f", len(bound) - 1
        i = index.get(id(node))
        if i is None:
            walk(node)
            i = index[id(node)] = len(shape) - 1
        return i

    def walk(node: Expr) -> None:
        if isinstance(node, Binary):
            shape.append((node.op, read(node.left), read(node.right)))
        elif isinstance(node, Call):
            a = read(node.arg)
            bound.append(_CALLS[node.name][0])
            shape.append(("call", a, len(bound) - 1))
        elif isinstance(node, (Variable, Constant)):
            shape.append(("read", read(node)))
        else:
            shape.append(("neg", read(node.operand)))

    try:
        walk(f)
    except RecursionError:
        return
    key = tuple(shape)
    factory = _TREES.get(key)
    if factory is None:
        if len(_TREES) >= _TREE_TABLE:
            _TREES.clear()
        factory = _TREES[key] = _generated("tree", _tree_source(key, len(bound)))
    d["_compiled"] = d["_tree"] = factory(*bound)
