"""Scalar root finding by three-point least-squares fitting, with Newton
and secant baselines and a table-reproduction benchmark harness."""

from .baselines import BaselineConfig, solve_baseline
from .bench import (
    BenchReport,
    Problem,
    builtin_suite,
    convergence_rates,
    emit_report,
    f_n_curve,
    final_rate,
    run_benchmark,
)
from .expressions import (
    Expr,
    ParseError,
    differentiate,
    evaluate,
    parse,
    render,
)
from .lsq3 import SolverConfig, solve
from .outcomes import IterationRecord, SolveOutcome, Status

__all__ = [
    "BaselineConfig", "BenchReport", "Expr", "IterationRecord", "ParseError",
    "Problem", "SolveOutcome", "SolverConfig", "Status", "builtin_suite",
    "convergence_rates", "differentiate", "emit_report", "evaluate",
    "f_n_curve", "final_rate", "parse", "render", "run_benchmark", "solve",
    "solve_baseline",
]
