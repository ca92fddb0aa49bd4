"""Scalar root finding by three-point least-squares fitting, with Newton
and secant baselines and a table-reproduction benchmark harness.

``import lsqroots`` loads only the expression layer,
:mod:`lsqroots.expressions`, whose names (``parse``, ``evaluate``,
``differentiate``, ``render``, ``Expr``, ``ParseError``) every use of the
package shares.  Every other name, and the submodules ``outcomes``,
``lsq3``, ``baselines`` and ``bench``, load on first use: ``lsqroots.solve``
imports :mod:`lsqroots.lsq3` (and with it :mod:`lsqroots.outcomes`),
``lsqroots.builtin_suite`` imports :mod:`lsqroots.bench`.
"""

from .expressions import (
    Expr,
    ParseError,
    differentiate,
    evaluate,
    parse,
    render,
)

# Each name resolved on first use, by the submodule that defines it; a
# submodule maps to itself.
_LAZY = {
    "outcomes": "outcomes", "IterationRecord": "outcomes",
    "SolveOutcome": "outcomes", "Status": "outcomes",
    "lsq3": "lsq3", "SolverConfig": "lsq3", "solve": "lsq3",
    "baselines": "baselines", "BaselineConfig": "baselines",
    "solve_baseline": "baselines",
    "bench": "bench", "BenchReport": "bench", "Problem": "bench",
    "builtin_suite": "bench", "convergence_rates": "bench",
    "emit_report": "bench", "f_n_curve": "bench", "final_rate": "bench",
    "run_benchmark": "bench",
}

__all__ = sorted(["Expr", "ParseError", "differentiate", "evaluate", "parse", "render",
                  *(name for name, module in _LAZY.items() if name != module)])


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's own path, which ``-X importtime`` reports
    # (``importlib.import_module`` bypasses it); with a non-empty fromlist
    # it returns the submodule itself.
    module = __import__(f"{__name__}.{module_name}", fromlist=(name,))
    return module if name == module_name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
