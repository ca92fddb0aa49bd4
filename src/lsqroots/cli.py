"""Command-line interface: solve, bench, rate, and fncurve subcommands."""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional

from .baselines import BaselineConfig, solve_baseline
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

    def add_solver_flags(p):
        p.add_argument("--expr", required=True, help="expression in x")
        p.add_argument("--x0", required=True, type=float, help="starting point")
        p.add_argument("--x1", type=float, default=None,
                       help="second start (secant only; default x0 + 0.1)")
        p.add_argument("--method", required=True,
                       choices=("newton", "secant", "lsq3"))
        p.add_argument("--n", default=None,
                       help="lsq3 power: 'variable' or 'fixed:<real>' (default fixed:1)")
        p.add_argument("--delta0", type=float, default=None,
                       help="initial probe spacing for lsq3 (default 0.1)")
        p.add_argument("--tol", type=float, default=1e-15)
        p.add_argument("--max-iter", type=int, default=500)

    p_solve = sub.add_parser("solve", help="find one root")
    add_solver_flags(p_solve)
    p_solve.add_argument("--trace", action="store_true",
                         help="print one line per iteration record")

    p_bench = sub.add_parser("bench", help="run the built-in comparison suite")
    p_bench.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_bench.add_argument("--out", default=None, help="write to file instead of stdout")

    p_rate = sub.add_parser("rate", help="per-step convergence rates of one run")
    add_solver_flags(p_rate)
    p_rate.add_argument("--root", type=float, default=None,
                        help="reference root (default: the root found)")

    p_curve = sub.add_parser("fncurve", help="error-term curve f(n) over a grid")
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


def _run_solver(args) -> SolveOutcome:
    try:
        expr = parse(args.expr)
    except ParseError as err:
        raise _UsageError(f"lsqroots: bad --expr: {err}")
    for flag, value in (("--x0", args.x0), ("--x1", args.x1)):
        if value is not None and not math.isfinite(value):
            raise _UsageError(f"lsqroots: {flag} must be finite, got {value!r}")
    if args.x1 is not None and args.method != "secant":
        raise _UsageError("lsqroots: --x1 applies to --method secant only")
    if args.method != "lsq3" and args.n is not None:
        raise _UsageError("lsqroots: --n applies to --method lsq3 only")
    if args.method != "lsq3" and args.delta0 is not None:
        raise _UsageError("lsqroots: --delta0 applies to --method lsq3 only")
    try:
        if args.method == "lsq3":
            mode, n_value = _parse_power("fixed:1" if args.n is None else args.n)
            delta0 = (SolverConfig._field_defaults["delta0"] if args.delta0 is None
                      else args.delta0)
            config = SolverConfig(mode=mode, n_value=n_value, delta0=delta0,
                                  tolerance=args.tol, max_iter=args.max_iter)
        else:
            config = BaselineConfig(tolerance=args.tol, max_iter=args.max_iter)
    except ValueError as err:
        raise _UsageError(f"lsqroots: bad solver flags: {err}") from None
    if args.method == "lsq3":
        return solve(expr, args.x0, config)
    return solve_baseline(args.method, expr, args.x0, args.x1, config)


def _cmd_solve(args, out) -> int:
    outcome = _run_solver(args)
    if args.trace:
        print("k,x,y,delta,n,y_minus,y_plus", file=out)
        for rec in outcome.trace:
            cells = [str(rec.k), _fmt(rec.x), _fmt(rec.y)]
            for v in (rec.delta, rec.n_used, rec.y_minus, rec.y_plus):
                cells.append("" if v is None else _fmt(v))
            print(",".join(cells), file=out)
    print(f"status {outcome.status.value}", file=out)
    print(f"root {_fmt(outcome.root)}", file=out)
    print(f"iterations {outcome.iterations}", file=out)
    if outcome.note:
        print(f"note {outcome.note}", file=out)
    return 2 if outcome.status is Status.DOMAIN_ERROR else 0


def _cmd_rate(args, out) -> int:
    from .bench import convergence_rates, final_rate
    if args.root is not None and not math.isfinite(args.root):
        raise _UsageError(f"lsqroots: --root must be finite, got {args.root!r}")
    outcome = _run_solver(args)
    if outcome.status is Status.DOMAIN_ERROR:
        print(f"status {outcome.status.value}", file=out)
        return 2
    root = args.root if args.root is not None else outcome.root
    rates = convergence_rates(outcome.trace, root) if len(outcome.trace) >= 3 else []
    print("step,rate", file=out)
    for k, rate in enumerate(rates, start=1):
        print(f"{k},{_fmt(rate)}", file=out)
    last = final_rate(outcome.trace, root)
    print(f"final_rate,{'' if last is None else _fmt(last)}", file=out)
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
        sys.stdout.write(text)
    return 0


def _cmd_fncurve(args, out) -> int:
    from .bench import f_n_curve, n_grid
    try:
        points = f_n_curve(args.E, n_grid(args.n_from, args.n_to, args.step))
    except (ValueError, OverflowError) as err:
        raise _UsageError(f"lsqroots: {err}")
    print("n,f", file=out)
    for n, f in points:
        print(f"{_fmt(n)},{_fmt(f)}", file=out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(
            _join_negative_values(sys.argv[1:] if argv is None else argv))
        if args.command == "solve":
            code = _cmd_solve(args, sys.stdout)
        elif args.command == "rate":
            code = _cmd_rate(args, sys.stdout)
        elif args.command == "bench":
            code = _cmd_bench(args)
        else:
            code = _cmd_fncurve(args, sys.stdout)
    except _UsageError as err:
        print(str(err).rstrip(), file=sys.stderr)
        return 1
    if args.timing:
        print(f"elapsed {time.perf_counter() - started:.6f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
