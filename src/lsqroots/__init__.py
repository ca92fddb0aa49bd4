"""Scalar root finding by three-point least-squares fitting, with Newton
and secant baselines and a table-reproduction benchmark harness.

The benchmark names resolve on first use, so ``import lsqroots`` does not
load :mod:`lsqroots.bench` (and its ``csv`` and ``dataclasses``).
"""

from .baselines import BaselineConfig, solve_baseline
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

_BENCH_NAMES = (
    "BenchReport", "Problem", "builtin_suite", "convergence_rates",
    "emit_report", "f_n_curve", "final_rate", "run_benchmark",
)

__all__ = [
    "BaselineConfig", "BenchReport", "Expr", "IterationRecord", "ParseError",
    "Problem", "SolveOutcome", "SolverConfig", "Status", "builtin_suite",
    "convergence_rates", "differentiate", "emit_report", "evaluate",
    "f_n_curve", "final_rate", "parse", "render", "run_benchmark", "solve",
    "solve_baseline",
]


def __getattr__(name: str):
    if name in _BENCH_NAMES:
        from . import bench
        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_BENCH_NAMES})
