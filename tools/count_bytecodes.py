"""Count the bytecodes that each function executes over one workload.

    python tools/count_bytecodes.py [--checkout DIR]
        [--workload suite|basin|expr-scan] [--seed N] [--starts N]
        [--inputs N] [--top N]

``suite`` is one ``lsqroots bench`` pass: ``run_benchmark`` of the stock
suite plus its CSV and Markdown reports.  ``basin`` is one solve per
(problem, start, method) over ``--starts`` seeded starts per stock problem,
the inputs of ``tools/ab_inprocess.py --workload basin``.  ``expr-scan``
is the benchmark's expr-scan operation on ``--inputs`` seeded random
expressions, those of ``tools/ab_inprocess.py --workload expr-scan``:
parse, differentiate, render and evaluate, where parsing and compiling
dominate.  The package is
imported from ``DIR/src`` (default: this checkout), so two checkouts can be
sized one after the other.

A ``sys.settrace`` opcode event is counted for every bytecode executed in
a Python frame; work done inside C functions is not counted.  The count
depends only on the code and the inputs, so it sizes a change the same way
on a busy host as on an idle one, where wall time can swing by 2x.  Fewer
bytecodes is not the same as less time (one bytecode can call a costly C
function), so it is a guide before timed runs, not a substitute for them.

Prints the total and the count per operation, then the ``--top`` functions
by count, each as ``module:qualified name``.  Uses the standard library
only.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent


def count_opcodes(op, inputs) -> Counter:
    """Bytecodes executed per code object while ``op`` runs on each input."""
    counts: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        for inp in inputs:
            op(inp)
    finally:
        sys.settrace(previous)
    return counts


def label(code) -> str:
    """``module:qualified name`` of a code object, the module named by its
    file's path from its top package, or by the file's name."""
    path = Path(code.co_filename)
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if parts[-1] == "__init__":
        parts.pop()
    return f"{'.'.join(parts)}:{code.co_qualname}"


def by_function(counts: Counter) -> Counter:
    """The counts of ``count_opcodes`` keyed by :func:`label`."""
    totals: Counter = Counter()
    for code, n in counts.items():
        totals[label(code)] += n
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the source checkout to measure (default: this one)")
    parser.add_argument("--workload", choices=("suite", "basin", "expr-scan"), default="suite")
    parser.add_argument("--seed", type=int, default=1,
                        help="basin start or expr-scan expression seed (default 1)")
    parser.add_argument("--starts", type=int, default=10,
                        help="basin starts per stock problem (default 10)")
    parser.add_argument("--inputs", type=int, default=100,
                        help="expr-scan expressions (default 100)")
    parser.add_argument("--top", type=int, default=25,
                        help="functions listed, by count (default 25)")
    args = parser.parse_args(argv)
    if args.starts < 1 or args.inputs < 1 or args.top < 0:
        parser.error("--starts and --inputs must be positive and --top not negative")

    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    sys.path.insert(1, str(TOOLS))
    pkg = importlib.import_module("lsqroots")
    ab_inprocess = importlib.import_module("ab_inprocess")
    side = ab_inprocess.Side(pkg)
    if args.workload == "suite":
        op, inputs, what = side.suite_pass, [None], "1 suite pass"
    elif args.workload == "basin":
        inputs = ab_inprocess.basin_inputs(ab_inprocess.load_reference(), side,
                                           args.seed, args.starts)
        op, what = side.basin, f"{len(inputs)} basin solves, seed {args.seed}"
    else:
        inputs = ab_inprocess.expr_inputs(ab_inprocess.load_reference(), args.seed, args.inputs)
        op, what = side.expr_scan, f"{len(inputs)} expressions, seed {args.seed}"

    totals = by_function(count_opcodes(op, inputs))
    total = sum(totals.values())
    print(f"{args.workload}: {what}: {total:,} bytecodes, "
          f"{total / len(inputs):,.1f} per operation")
    print(f"{'bytecodes':>12}  {'share':>6}  function")
    for name, n in totals.most_common(args.top):
        print(f"{n:>12,}  {n / total:>6.1%}  {name}")
    return 0


if __name__ == "__main__":
    import stdout_errors
    sys.exit(stdout_errors.run(main))
