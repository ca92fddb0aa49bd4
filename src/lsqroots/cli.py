"""Command-line interface: solve, bench, rate, and fncurve subcommands."""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time
from typing import List, Optional

from .baselines import METHODS, BaselineConfig, solve_baseline
from .expressions import ParseError, parse
from .lsq3 import SolverConfig, solve
from .outcomes import SolveOutcome, Status

# The bench, rate and fncurve handlers import .bench themselves: solve
# never needs it, and loading it would add to every cold start.


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this CLI reserves 2 for solver hard
    # errors and reports usage problems with exit 1 instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")

    # argparse's own print_help drops an OSError from the write, so --help
    # on a closed pipe would exit 0 with its text lost; this one lets main
    # report it.
    def print_help(self, file=None):
        file = file or _stdout()
        file.write(self.format_help())
        file.flush()


# The flags that take a real number.  argparse reads only -<digits> and
# -<digits>.<digits> as negative numbers, so it takes a value like -1e-3
# or -inf after one of these, or an expression like -x+1 after --expr, for
# a flag; main joins such a value to its flag (--x0=-1e-3, --expr=-x+1),
# which argparse reads as the flag's value.  A word that starts with -- is
# left alone: after --expr it is the next flag of a missing expression.
_NUMBER_FLAGS = frozenset(("--x0", "--x1", "--root", "--delta0", "--tol",
                           "--from", "--to", "--E", "--step"))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: List[str]) -> List[str]:
    joined: List[str] = []
    for arg in argv:
        if joined and arg.startswith("-") and (
                (joined[-1] == "--expr" and not arg.startswith("--"))
                or (joined[-1] in _NUMBER_FLAGS and _is_number(arg))):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _fmt(v: float) -> str:
    return format(v, ".15g")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lsqroots", description=__doc__)
    parser.add_argument("--timing", action="store_true",
                        help="print wall time to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    # A solver flag left out is None; the config then holds its default.
    defaults = SolverConfig()

    def add_solver_flags(p):
        p.add_argument("--expr", required=True, help="expression in x")
        p.add_argument("--x0", required=True, type=float, help="starting point")
        p.add_argument("--x1", type=float,
                       help="second start (secant only; default x0 + 0.1)")
        p.add_argument("--method", required=True, choices=(*METHODS, "lsq3"))
        p.add_argument("--n", help="lsq3 power: 'variable' or 'fixed:<real>' "
                       f"(default {defaults.mode}:{defaults.n_value:g})")
        p.add_argument("--delta0", type=float,
                       help=f"initial probe spacing for lsq3 (default {defaults.delta0})")
        p.add_argument("--tol", type=float)
        p.add_argument("--max-iter", type=int)

    p_solve = sub.add_parser("solve", help="find one root")
    p_solve.set_defaults(run=_cmd_solve)
    add_solver_flags(p_solve)
    p_solve.add_argument("--trace", action="store_true",
                         help="print one line per iteration record")

    p_bench = sub.add_parser("bench", help="run the built-in comparison suite")
    p_bench.set_defaults(run=_cmd_bench)
    p_bench.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_bench.add_argument("--out", default=None, help="write to file instead of stdout")

    p_rate = sub.add_parser("rate", help="per-step convergence rates of one run")
    p_rate.set_defaults(run=_cmd_rate)
    add_solver_flags(p_rate)
    p_rate.add_argument("--root", type=float, default=None,
                        help="reference root (default: the root found)")

    p_curve = sub.add_parser("fncurve", help="error-term curve f(n) over a grid")
    p_curve.set_defaults(run=_cmd_fncurve)
    p_curve.add_argument("--E", required=True, type=float, help="error magnitude in (0, 1)")
    p_curve.add_argument("--from", dest="n_from", required=True, type=float)
    p_curve.add_argument("--to", dest="n_to", required=True, type=float)
    p_curve.add_argument("--step", required=True, type=float)
    return parser


def _parse_power(text: str):
    if text == "variable":
        return "variable", 1.0
    if text == "fixed":
        return "fixed", 1.0
    if text.startswith("fixed:"):
        try:
            return "fixed", float(text[len("fixed:"):])
        except ValueError:
            pass
    raise _UsageError(f"lsqroots: invalid --n value {text!r} "
                      "(expected 'variable' or 'fixed:<real>')")


# The solver flags that one method alone takes, in the order they are
# checked; given with another method, each is a usage error.
_METHOD_FLAGS = {"x1": "secant", "n": "lsq3", "delta0": "lsq3"}


def _run_solver(args) -> SolveOutcome:
    try:
        expr = parse(args.expr)
    except ParseError as err:
        raise _UsageError(f"lsqroots: bad --expr: {err}")
    for flag, value in (("--x0", args.x0), ("--x1", args.x1)):
        if value is not None and not math.isfinite(value):
            raise _UsageError(f"lsqroots: {flag} must be finite, got {value!r}")
    for flag, method in _METHOD_FLAGS.items():
        if getattr(args, flag) is not None and args.method != method:
            raise _UsageError(f"lsqroots: --{flag} applies to --method {method} only")
    settings = {name: value for name, value in (
        ("delta0", args.delta0), ("tolerance", args.tol), ("max_iter", args.max_iter))
        if value is not None}
    if args.n is not None:
        settings["mode"], settings["n_value"] = _parse_power(args.n)
    try:
        config = (SolverConfig if args.method == "lsq3" else BaselineConfig)(**settings)
    except ValueError as err:
        raise _UsageError(f"lsqroots: bad solver flags: {err}") from None
    if args.method == "lsq3":
        return solve(expr, args.x0, config)
    return solve_baseline(args.method, expr, args.x0, args.x1, config)


def _cmd_solve(args) -> int:
    outcome = _run_solver(args)
    if args.trace:
        print("k,x,y,delta,n,y_minus,y_plus")
        for k, rec in enumerate(outcome.trace, 1):
            cells = [str(k), _fmt(rec.x), _fmt(rec.y)]
            for v in (rec.delta, rec.n_used, rec.y_minus, rec.y_plus):
                cells.append("" if v is None else _fmt(v))
            print(",".join(cells))
    print(f"status {outcome.status.value}")
    print(f"root {_fmt(outcome.root)}")
    print(f"iterations {outcome.iterations}")
    if outcome.note:
        print(f"note {outcome.note}")
    return 2 if outcome.status is Status.DOMAIN_ERROR else 0


def _cmd_rate(args) -> int:
    from .bench import convergence_rates, final_rate
    if args.root is not None and not math.isfinite(args.root):
        raise _UsageError(f"lsqroots: --root must be finite, got {args.root!r}")
    outcome = _run_solver(args)
    if outcome.status is Status.DOMAIN_ERROR:
        print(f"status {outcome.status.value}")
        return 2
    root = args.root if args.root is not None else outcome.root
    rates = convergence_rates(outcome.trace, root) if len(outcome.trace) >= 3 else []
    print("step,rate")
    for k, rate in enumerate(rates, start=1):
        print(f"{k},{_fmt(rate)}")
    last = final_rate(outcome.trace, root)
    print(f"final_rate,{'' if last is None else _fmt(last)}")
    return 0


def _cmd_bench(args) -> int:
    from .bench import emit_report, run_benchmark
    text = emit_report(run_benchmark(), args.format)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as err:
            raise _UsageError(f"lsqroots: cannot write {args.out}: {err.strerror or err}")
    else:
        _stdout().write(text)
    return 0


def _cmd_fncurve(args) -> int:
    from .bench import f_n_curve, n_grid
    try:
        points = f_n_curve(args.E, n_grid(args.n_from, args.n_to, args.step))
    except (ValueError, OverflowError) as err:
        raise _UsageError(f"lsqroots: {err}")
    print("n,f")
    for n, f in points:
        print(f"{_fmt(n)},{_fmt(f)}")
    return 0


# The errno of a write to stdout that cannot be done: a reader that left
# early (``| head -1``), a full device (``> /dev/full``) or no stdout at all
# (``>&-``).  tools/stdout_errors.py keeps the same rule for the tools,
# which cannot import one checkout's lsqroots.
_UNWRITABLE = frozenset((errno.EPIPE, errno.ENOSPC, errno.EBADF))


def _stdout():
    """``sys.stdout``; an OSError where the process started without one
    (``>&-``), where print would drop the output silently."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(
            _join_negative_values(sys.argv[1:] if argv is None else argv))
        code = args.run(args)
        # Every command but bench --out prints its result, and print drops
        # it silently where there is no stdout; so a missing stdout is
        # found here, after the command's own usage errors.
        if not getattr(args, "out", None):
            _stdout().flush()
    except _UsageError as err:
        print(str(err).rstrip(), file=sys.stderr)
        return 1
    except OSError as err:
        if err.errno not in _UNWRITABLE:
            raise
        print(f"lsqroots: cannot write output: {err.strerror}", file=sys.stderr)
        return 1
    if args.timing:
        print(f"elapsed {time.perf_counter() - started:.6f}s", file=sys.stderr)
    return code


def script() -> int:
    """``main`` for a process of its own: ``python -m lsqroots.cli`` and
    the ``lsqroots`` command.  Output that main could not write stays in
    stdout's buffer, so stdout's descriptor is then pointed at the null
    device, where the flush at interpreter exit puts it without an
    "Exception ignored" line.  main itself leaves the caller's stdout as
    it is."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(script())
