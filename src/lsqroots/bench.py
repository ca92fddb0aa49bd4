"""Built-in benchmark suite, runner, and convergence diagnostics.

The suite holds fourteen test problems in two groups: seven where all
methods converge (compared by iteration count) and seven chosen to make
Newton and/or secant fail by oscillation, divergence, or off-shooting
out of the function's domain.  Reference roots, starting points, and the
expected per-method columns are stored with each problem; the runner
re-solves everything and reports deviations.

Per-step convergence order is diagnosed with the log-ratio

    C_k = log|x_{k+1} - r| / log|x_k - r|

and the error-term curve f(n) = E^(n/4) + E^(1/n) - E (whose minimum
over n sits at n = 2 for any 0 < E < 1) is exposed for direct plotting.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .baselines import solve_baseline
from .expressions import Expr, evaluate, parse
from .lsq3 import SolverConfig, solve
from .outcomes import CheckedRecord, IterationRecord, SolveOutcome, Status, is_finite

Expected = Union[int, str]

_FIXED = SolverConfig()
_VARIABLE = SolverConfig(mode="variable")

#: Solver per method identifier, in report-row order.  The entries look
#: ``solve`` and ``solve_baseline`` up in this module at call time.
SOLVERS: Dict[str, Callable[[Expr, float], SolveOutcome]] = {
    "newton": lambda f, x0: solve_baseline("newton", f, x0),
    "secant": lambda f, x0: solve_baseline("secant", f, x0),
    "lsq3-fixed": lambda f, x0: solve(f, x0, _FIXED),
    "lsq3-variable": lambda f, x0: solve(f, x0, _VARIABLE),
}

#: Canonical method identifiers, in report-row order.
METHOD_ORDER = tuple(SOLVERS)

#: Header per column of the rendered comparison tables, in the printed
#: tables' order.
_TABLE_HEADERS = {"secant": "secant", "newton": "Newton",
                  "lsq3-fixed": "3-point N=1", "lsq3-variable": "3-point N=var"}
TABLE_COLUMNS = tuple(_TABLE_HEADERS)

#: Label of a failed run in the printed tables, by status; any other
#: failure is "Fails".  A converged cell prints its iteration count.
_TABLE_LABELS = {Status.OSCILLATING: "Oscillates", Status.DIVERGED: "Diverges"}

ROOT_MATCH_ATOL = 1e-9

# Errors below this (relative to the root scale) are dominated by the
# 15-digit precision of the stored reference roots and by final rounding;
# rate estimates there are noise.
RATE_TRUST_FLOOR = 1e-12


class _ProblemFields(NamedTuple):
    id: str
    source: str
    expression: Expr
    reference_roots: Tuple[float, ...]
    starts: Tuple[float, ...]
    #: per start, per method: expected iteration count or failure label
    expected: Dict[float, Dict[str, Expected]]
    table: int


class Problem(CheckedRecord, _ProblemFields):
    """One suite problem (an immutable named tuple), checked when built,
    by ``_replace`` too."""

    __slots__ = ()

    def _check(self):
        if not self.reference_roots:
            raise ValueError(f"{self.id}: needs at least one reference root")
        for r in self.reference_roots:
            y = evaluate(self.expression, r)
            if y is None or abs(y) >= 1e-9:
                raise ValueError(f"{self.id}: stored root {r!r} gives f(r)={y!r}")
        if not self.starts:
            raise ValueError(f"{self.id}: needs at least one start")


class RunRow(NamedTuple):
    problem: str
    start: float
    method: str
    status: Status
    root: float
    iterations: int
    final_rate: Optional[float]
    expected: Optional[Expected]
    deviation: str


class BenchReport(NamedTuple):
    rows: Tuple[RunRow, ...]
    #: the problems that were run, in row order
    suite: Tuple[Problem, ...]

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {"runs": len(self.rows)}
        for row in self.rows:
            key = row.status.value
            counts[key] = counts.get(key, 0) + 1
        counts["wrong-root"] = sum(1 for r in self.rows if r.deviation == "WRONG_ROOT")
        counts["label-mismatch"] = sum(1 for r in self.rows if r.deviation == "mismatch")
        return counts


def _problem(pid: str, source: str, roots: Sequence[float], table: int,
             rows: Sequence[Tuple[float, Expected, Expected, Expected, Expected]]) -> Problem:
    # row layout follows the printed tables: start, then TABLE_COLUMNS
    expected = {row[0]: dict(zip(TABLE_COLUMNS, row[1:])) for row in rows}
    return Problem(
        id=pid,
        source=source,
        expression=parse(source),
        reference_roots=tuple(roots),
        starts=tuple(r[0] for r in rows),
        expected=expected,
        table=table,
    )


def builtin_suite() -> Tuple[Problem, ...]:
    """The fourteen stock problems with reference data."""
    return (
        _problem("cubic-poly", "x^3 + 4*x^2 - 10", [1.365230013414100], 1, [
            (0.5, 10, 8, 8, 8),
            (1.0, 8, 6, 6, 7),
        ]),
        _problem("sin-square", "sin(x)^2 - x^2 + 1", [-1.404491648215340], 1, [
            (-1.0, 9, 7, 7, 7),
            (-3.0, 10, 7, 7, 6),
        ]),
        _problem("repeated-root-poly", "(x - 2) * (x + 2)^4", [-2.000000000000000], 1, [
            (-3.0, 168, 119, 116, 10),
            (1.4, 116, 81, 81, 14),
            (1.5, 252, 16, 15, 10),
        ]),
        _problem("sixth-power", "(x - 1)^6 - 1", [2.000000000000000], 1, [
            (2.5, 11, 8, 8, 8),
            (3.5, 15, 11, 11, 9),
        ]),
        _problem("sin-exp-log", "sin(x) * exp(x) + ln(x^2 + 1)", [-0.603231971557215], 1, [
            (-0.8, 8, 7, 6, 7),
            (-0.65, 8, 5, 5, 6),
        ]),
        _problem("sharp-exponential", "exp(x^2 + 7*x - 30) - 1", [3.000000000000000], 1, [
            (4.0, 27, 20, 20, 11),
            (4.5, 39, 28, 28, 16),
        ]),
        _problem("log-linear", "x - 3*ln(x)", [1.857183860207840], 1, [
            (2.0, 7, 5, 5, 5),
            (0.5, 11, 8, 8, 8),
        ]),
        _problem("quintic-dense", "2*x^5 - 3*x^4 + 4*x^3 - x^2 + 10*x - 13",
                 [1.053392031515730], 2, [
            (3.0, 13, "Oscillates", 10, 7),
            (-2.5, 14, "Oscillates", 11, 8),
        ]),
        _problem("log", "log(x)", [1.000000000000000], 2, [
            (3.0, "Fails", "Fails", "Fails", 7),
        ]),
        _problem("arctan", "arctan(x)", [0.000000000000000], 2, [
            (3.0, "Diverges", "Diverges", "Diverges", 7),
            (-3.0, "Diverges", "Diverges", "Diverges", 7),
        ]),
        _problem("quintic-sparse", "x^5 - x + 1", [-1.167303978261420], 2, [
            (2.0, 48, "Oscillates", "Oscillates", 10),
            (-3.0, 14, "Oscillates", 11, 7),
        ]),
        _problem("cubic-two-cycle", "0.5*x^3 - 6*x^2 + 21.5*x - 22",
                 [4.000000000000000], 2, [
            (3.0, 7, "Oscillates", "Oscillates", 7),
        ]),
        _problem("cube-root", "cbrt(x)", [0.000000000000000], 2, [
            (1.0, "Oscillates", "Diverges", "Diverges", 14),
            (-1.0, "Oscillates", "Diverges", "Diverges", 14),
        ]),
        _problem("gauss-bump", "10*x*exp(-x^2) - 1",
                 [1.679630610428450, 0.101025848315685], 2, [
            (3.0, "Diverges", "Diverges", "Diverges", 11),
            (-1.0, "Diverges", "Diverges", "Diverges", 13),
        ]),
    )


# ---------------------------------------------------------------------------
# Convergence-order diagnostics
# ---------------------------------------------------------------------------

def convergence_rates(trace: Sequence[IterationRecord], r: float) -> List[float]:
    """Log-ratio convergence rates C_k along a trace, against root ``r``.

    Adjacent pairs with an error of 1 or more are skipped (pre-asymptotic,
    the log ratio is meaningless there); the sequence is truncated once an
    error underflows to exactly zero.
    """
    if len(trace) < 3:
        raise ValueError("need at least 3 trace records to estimate rates")
    errors = [abs(rec.x - r) for rec in trace]
    rates: List[float] = []
    for e0, e1 in zip(errors, errors[1:]):
        if e0 == 0.0 or e1 == 0.0:
            break
        if e0 >= 1.0 or e1 >= 1.0:
            continue
        rates.append(math.log(e1) / math.log(e0))
    return rates


def final_rate(trace: Sequence[IterationRecord], r: float) -> Optional[float]:
    """Last trustworthy C_k: both errors inside (trust floor, 1).

    The tail of a converged trace sits at the reference root's own
    precision floor, where log ratios collapse to 1; those entries are
    excluded.
    """
    if len(trace) < 3:
        return None
    floor = RATE_TRUST_FLOOR * max(1.0, abs(r))
    # Scan from the end: the first trusted pair met is the last one.
    records = reversed(trace)
    e1 = abs(next(records).x - r)
    for rec in records:
        e0 = abs(rec.x - r)
        if not (e0 <= floor or e1 <= floor or e0 >= 1.0 or e1 >= 1.0):
            return math.log(e1) / math.log(e0)
        e1 = e0
    return None


# ---------------------------------------------------------------------------
# Error-term curve
# ---------------------------------------------------------------------------

# ``n_grid`` refuses larger grids before building them.
MAX_GRID_POINTS = 1_000_000

def f_n_curve(E: float, n_grid: Iterable[float]) -> List[Tuple[float, float]]:
    """Evaluate f(n) = E^(n/4) + E^(1/n) - E on a grid of n values."""
    if not 0.0 < E < 1.0:
        raise ValueError("E must lie strictly between 0 and 1")
    out = []
    for n in n_grid:
        if n <= 0.0:
            raise ValueError("grid values must be positive")
        out.append((n, E ** (n / 4.0) + E ** (1.0 / n) - E))
    return out


def n_grid(start: float, stop: float, step: float) -> List[float]:
    """Inclusive arithmetic grid, computed without drift, of at most
    :data:`MAX_GRID_POINTS` points: ``start + i * step`` up to ``stop``,
    and no point lies beyond ``stop``.  A ``stop`` that the grid reaches
    but for a rounding error (``n_grid(1.0, 4.0, 0.01)``) is its last
    point; a ``stop`` below ``start`` gives an empty grid.

    A grid too large to count, whose number of steps overflows a float
    (``n_grid(0, 1e308, 1e-308)``), is refused like any other oversized
    grid, with ``ValueError``; reversed that far, it is empty.
    """
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not is_finite(value):
            raise ValueError(f"grid {name} must be finite, got {value!r}")
    if step <= 0.0:
        raise ValueError("step must be positive")
    # A relative 1e-9 more steps keeps a stop that the quotient misses by
    # its rounding error; the point it admits is clipped to ``stop``.
    steps = max((stop - start) / step, -1.0) * (1.0 + 1e-9)
    if steps == math.inf:
        raise ValueError(f"grid of more than 1e308 points exceeds {MAX_GRID_POINTS}")
    count = math.floor(steps)
    if count + 1 > MAX_GRID_POINTS:
        raise ValueError(f"grid of {count + 1} points exceeds {MAX_GRID_POINTS}")
    return [min(start + i * step, stop) for i in range(count + 1)]


# ---------------------------------------------------------------------------
# Benchmark runner
# ---------------------------------------------------------------------------

def run_benchmark(suite: Optional[Sequence[Problem]] = None,
                  methods: Optional[Sequence[str]] = None) -> BenchReport:
    """Run every (problem, start, method) combination and collect rows.

    Solver failures are data, not errors.  A converged run whose root is
    not within 1e-9 of any stored reference root carries the deviation
    flag ``WRONG_ROOT``.  The problems' ids must differ, since the
    reports key their rows by id; a repeated id raises ``ValueError``
    before anything is solved.
    """
    suite = builtin_suite() if suite is None else tuple(suite)
    ids = set()
    for problem in suite:
        if problem.id in ids:
            raise ValueError(f"problem id {problem.id!r} appears more than once")
        ids.add(problem.id)
    if methods is None:
        methods = METHOD_ORDER
    else:
        unknown = [m for m in methods if m not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        methods = tuple(m for m in METHOD_ORDER if m in methods)

    rows: List[RunRow] = []
    for problem in suite:
        for start in problem.starts:
            for method in methods:
                outcome = SOLVERS[method](problem.expression, start)
                rows.append(_make_row(problem, start, method, outcome))
    return BenchReport(tuple(rows), suite)


def _make_row(problem: Problem, start: float, method: str,
              outcome: SolveOutcome) -> RunRow:
    expected = problem.expected.get(start, {}).get(method)
    rate: Optional[float] = None
    deviation = ""
    if outcome.status is Status.CONVERGED:
        matched = min(problem.reference_roots, key=lambda r: abs(outcome.root - r))
        if abs(outcome.root - matched) <= ROOT_MATCH_ATOL:
            rate = final_rate(outcome.trace, matched)
            if isinstance(expected, int):
                deviation = format(outcome.iterations - expected, "+d")
            elif expected is not None:
                deviation = "mismatch"  # the printed table expected a failure
        else:
            deviation = "WRONG_ROOT"
    else:
        if isinstance(expected, str):
            label = _TABLE_LABELS.get(outcome.status, "Fails")
            deviation = "match" if label == expected else "mismatch"
        elif expected is not None:
            deviation = "mismatch"  # the printed table expected convergence
    return RunRow(
        problem=problem.id,
        start=start,
        method=method,
        status=outcome.status,
        root=outcome.root,
        iterations=outcome.iterations,
        final_rate=rate,
        expected=expected,
        deviation=deviation,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(v: Optional[float]) -> str:
    return "" if v is None else format(v, ".15g")


def emit_report(report: BenchReport, format: str = "csv") -> str:
    """Render the report as RFC-4180 CSV or per-problem Markdown tables."""
    if format == "csv":
        return _emit_csv(report)
    if format == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown format {format!r}")


def _emit_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["problem", "start", "method", "status", "root",
                     "iterations", "final_rate", "expected", "deviation"])
    for row in report.rows:
        writer.writerow([
            row.problem,
            _fmt(row.start),
            row.method,
            row.status.value,
            _fmt(row.root),
            str(row.iterations),
            _fmt(row.final_rate),
            "" if row.expected is None else str(row.expected),
            row.deviation,
        ])
    return buf.getvalue()


def _cell(row: RunRow) -> str:
    if row.status is Status.CONVERGED:
        text = str(row.iterations)
    else:
        text = _TABLE_LABELS.get(row.status, "Fails")
    if row.deviation in ("mismatch", "WRONG_ROOT") and row.expected is not None:
        text += f" (expected {row.expected})"
    return text


def _emit_markdown(report: BenchReport) -> str:
    by_key = {(r.problem, r.start, r.method): r for r in report.rows}
    lines: List[str] = []
    for problem in report.suite:
        cells_present = any((problem.id, s, m) in by_key
                            for s in problem.starts for m in TABLE_COLUMNS)
        if not cells_present:
            continue
        roots = ", ".join(map(_fmt, problem.reference_roots))
        lines.append(f"### {problem.id}: `{problem.source}` (table {problem.table})")
        lines.append(f"roots: {roots}")
        lines.append("")
        lines.append("| start | " + " | ".join(_TABLE_HEADERS.values()) + " |")
        lines.append("|---" * (len(TABLE_COLUMNS) + 1) + "|")
        for start in problem.starts:
            cells = []
            for method in TABLE_COLUMNS:
                row = by_key.get((problem.id, start, method))
                cells.append(_cell(row) if row is not None else "-")
            lines.append("| " + " | ".join([_fmt(start)] + cells) + " |")
        lines.append("")
    summary = report.summary()
    lines.append("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.items())))
    lines.append("")
    return "\n".join(lines)
