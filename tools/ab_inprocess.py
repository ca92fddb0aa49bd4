"""Compare two checkouts of lsqroots in one process, chunk by chunk.

    python tools/ab_inprocess.py A B [--workload expr-scan|basin|suite]
        [--seed N] [--chunks N] [--inputs N] [--starts N]

``A`` and ``B`` are the roots of two source checkouts.  The ``src/lsqroots``
of each is copied into a temporary directory as the packages
``lsqroots_a`` and ``lsqroots_b``, and both are imported into this process.
Uses the standard library only; the inputs come from the benchmark's
``perfbench/reference.py`` next to this tool, which is read, never edited.

1. **Check.** Both sides must give the same expr-scan values (bits and
   ``None``) on ``--inputs`` random expressions, the same outcomes of a
   short lsq3 solve of each (SHORT_STEPS steps at most, fixed and
   variable power in turn, from one of its grid points) and of a short
   Newton solve from the same point, which also compiles the random
   derivative, where the differentiation rules share nodes, the same
   ``parse`` outcome (the tree's ``repr``, or the ``ParseError`` message
   and position) on PARSE_TEXTS seeded random token texts, most of them
   malformed, the same derivative tree (its ``repr``) of every expr-scan
   expression and every stock expression, the same values (bits and
   ``None``) on each random expression's grid, from its node closures and
   from a whole-tree copy, with one of its constant leaves replaced by
   ``Constant(inf)`` and then by ``Constant(10**400)``, which parsed text
   cannot hold (diff lines ``leaf inf <text>: ...``), the same basin
   outcomes on ``--starts`` starts per stock problem and method, and the
   same suite CSV and Markdown.  Solve outcomes compare by status, root bits, note
   and the whole trace: every field of every record by name, the bits of
   a float or ``None``; a side whose records still carry a step number
   ``k`` must hold each record's place in the trace there.  A difference
   is printed and the tool exits 1 without timing.  The check also counts
   each side's f and f' evaluations over its basin solves and its suite
   pass, by rebinding ``evaluate`` in the copy's ``lsq3`` and ``baselines``
   (and ``differentiate`` in ``baselines``, to tell f' apart) as the
   benchmark's probes do; the counts are printed after the timing.
2. **Timing.** ``--chunks`` chunks of 25 operations of one workload run
   on both sides, alternating which side runs first.  The tool prints each
   side's microseconds per operation and the quartiles of the per-chunk
   time ratio B/A.  Both sides share one process, so a slow phase of the
   host slows both halves of a chunk alike, where separate processes can
   differ by up to 2x.

The operations are the benchmark's: expr-scan parses a random expression,
differentiates it, parses its rendering and evaluates the three trees on a
16-point grid in [-4, 4]; basin is one solve through the checkout's
``bench.SOLVERS``; suite is ``run_benchmark`` of the stock suite plus its
CSV and Markdown reports.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHUNK = 25
GRID = 16
SHORT_STEPS = 5
PARSE_TEXTS = 2000
# Tokens that reach every branch of the parser: numbers with exponents,
# operators, whitespace, names that are and are not functions, and
# non-ASCII characters that str.isdigit takes for digits.
PARSE_TOKENS = (*"0123456789", ".", "e", "E", *"+-*/^()", " ", "\t", "\x1c",
                "x", "sin", "sinx", "q", "_", "\u00b2", "\u0663")


def load_reference():
    spec = importlib.util.spec_from_file_location(
        "_ab_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_copy(checkout: Path, name: str, into: Path):
    """``checkout``'s ``src/lsqroots`` copied into ``into`` and imported as ``name``."""
    shutil.copytree(checkout / "src" / "lsqroots", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def _bits(v):
    return None if v is None else v.hex()


def solve_difference(oa, ob):
    """The first difference between two solve outcomes, as a message, or
    ``None`` when they agree bit for bit, trace included."""
    ka = (oa.status.value, oa.root.hex(), oa.iterations, oa.note)
    kb = (ob.status.value, ob.root.hex(), ob.iterations, ob.note)
    if ka != kb:
        return f"{ka} != {kb}"
    for k, (ra, rb) in enumerate(zip(oa.trace, ob.trace), 1):
        fa, fb = ra._asdict(), rb._asdict()
        # Records once carried their step number k; it must be their place.
        for number in (fa.pop("k", k), fb.pop("k", k)):
            if number != k:
                return f"record {k} k: {number} != {k}"
        if fa.keys() != fb.keys():
            return f"record {k} fields: {tuple(fa)} != {tuple(fb)}"
        for name, u in fa.items():
            bu, bv = _bits(u), _bits(fb[name])
            if bu != bv:
                return f"record {k} {name}: {bu} != {bv}"
    return None


class Evaluations:
    """f and f' evaluations counted on one side."""

    def __init__(self):
        self.f = self.fp = 0

    def __str__(self):
        return f"{self.f:,} f + {self.fp:,} f'"


@contextlib.contextmanager
def counting(pkg, evaluations: Evaluations):
    """Count into ``evaluations`` every ``evaluate`` call of ``pkg``'s
    solvers while the block runs; an expression that ``baselines`` got from
    ``differentiate`` counts as f'."""
    lsq3, baselines = pkg.lsq3, pkg.baselines
    # both modules import the one expressions.evaluate
    evaluate, differentiate = lsq3.evaluate, baselines.differentiate
    derivatives = {}

    def counted_differentiate(e):
        d = differentiate(e)
        derivatives[id(d)] = d          # keep d alive so its id stays unique
        return d

    def counted_evaluate(e, x):
        if id(e) in derivatives:
            evaluations.fp += 1
        else:
            evaluations.f += 1
        return evaluate(e, x)

    lsq3.evaluate = baselines.evaluate = counted_evaluate
    baselines.differentiate = counted_differentiate
    try:
        yield
    finally:
        lsq3.evaluate = baselines.evaluate = evaluate
        baselines.differentiate = differentiate


def evaluations_line(scope: str, a: Evaluations, b: Evaluations) -> str:
    return f"evaluations, {scope}: A {a}, B {b}, B/A {(b.f + b.fp) / (a.f + a.fp):.4f}"


class Side:
    """One checkout's operations, each a function of one input."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.suite = pkg.builtin_suite()
        self.solvers = pkg.bench.SOLVERS

    def expr_scan(self, inp):
        text, grid = inp
        pkg = self.pkg
        parse, evaluate = pkg.parse, pkg.evaluate
        e = parse(text)
        d = pkg.differentiate(e)
        e2 = parse(pkg.render(e))
        return ([evaluate(e, x) for x in grid], [evaluate(d, x) for x in grid],
                [evaluate(e2, x) for x in grid])

    def short_solve(self, text, x0, method):
        """At most SHORT_STEPS steps of ``method`` (``newton``, or an lsq3
        power mode) on ``text`` from ``x0``."""
        pkg = self.pkg
        if method == "newton":
            config = pkg.BaselineConfig(max_iter=SHORT_STEPS)
            return pkg.solve_baseline("newton", pkg.parse(text), x0, None, config)
        config = pkg.SolverConfig(mode=method, max_iter=SHORT_STEPS)
        return pkg.solve(pkg.parse(text), x0, config)

    def parse_outcome(self, text):
        try:
            return repr(self.pkg.parse(text))
        except self.pkg.ParseError as err:
            return str(err), err.position

    def derivative_tree(self, e):
        return repr(self.pkg.differentiate(e))

    def non_finite_leaf(self, text, grid, i, value):
        """The bits on ``grid`` of ``text`` with its constant leaf ``i``
        (counted left to right, modulo their number) replaced by
        ``Constant(value)``, a constant that parsed text cannot hold: from
        the node closures, then from a whole-tree copy.  ``None`` when the
        text holds no constant."""
        ex = self.pkg.expressions
        nodes = (ex.Constant, ex.Variable, ex.Unary, ex.Binary, ex.Call)

        def fields(e):
            return [getattr(e, name) for name in e.__match_args__]

        def constants(e):
            if isinstance(e, ex.Constant):
                return [e]
            return [c for v in fields(e) if isinstance(v, nodes) for c in constants(v)]

        def rebuilt(e):
            if e is target:
                return ex.Constant(value)
            return type(e)(*(rebuilt(v) if isinstance(v, nodes) else v for v in fields(e)))

        e = self.pkg.parse(text)
        leaves = constants(e)
        if not leaves:
            return None
        target = leaves[i % len(leaves)]
        closures, whole = rebuilt(e), rebuilt(e)
        self.pkg.outcomes.compile_tree(whole)
        return [[_bits(self.pkg.evaluate(t, x)) for x in grid] for t in (closures, whole)]

    def basin(self, inp):
        index, x0, method = inp
        return self.solvers[method](self.suite[index].expression, x0)

    def suite_pass(self, inp):
        report = self.pkg.run_benchmark(self.pkg.builtin_suite())
        return self.pkg.emit_report(report, "csv"), self.pkg.emit_report(report, "markdown")


def expr_inputs(reference, seed: int, count: int) -> list:
    """The benchmark's expr-scan inputs ``0 .. count-1`` as (text, grid)."""
    inputs = []
    step = 8.0 / GRID
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        text = reference.render_tree(reference.gen_tree(rng))
        u = rng.random()
        inputs.append((text, [-4.0 + (j + u) * step for j in range(GRID)]))
    return inputs


def parse_texts(seed: int, count: int) -> list:
    """``count`` texts of up to 40 random tokens each."""
    rng = random.Random(f"parse:{seed}")
    return ["".join(rng.choice(PARSE_TOKENS) for _ in range(rng.randint(0, 40)))
            for _ in range(count)]


def basin_inputs(reference, side: Side, seed: int, starts: int) -> list:
    """(problem index, start, method) over each stock problem's start window,
    for every method of ``side``'s bench."""
    rng = random.Random(seed)
    inputs = []
    for index, problem in enumerate(side.suite):
        lo, hi = reference.window(problem.id)
        for x0 in reference.stratified_starts(rng, lo, hi, starts):
            inputs.extend((index, x0, method) for method in side.pkg.bench.METHOD_ORDER)
    rng.shuffle(inputs)
    return inputs


def check(a: Side, b: Side, exprs: list, texts: list, solves: list):
    """The differences between the two sides' outputs, as messages, and
    the lines that give each side's evaluations over the basin solves and
    over the suite pass."""
    diffs = []
    for text in texts:
        oa, ob = a.parse_outcome(text), b.parse_outcome(text)
        if oa != ob:
            diffs.append(f"parse {text!r}: {oa!r} != {ob!r}")
    for i, (text, grid) in enumerate(exprs):
        ra, rb = a.expr_scan((text, grid)), b.expr_scan((text, grid))
        if [[_bits(v) for v in vs] for vs in ra] != [[_bits(v) for v in vs] for vs in rb]:
            diffs.append(f"expr-scan {text!r}: values differ")
        x0, mode = grid[i % GRID], ("fixed", "variable")[i % 2]
        for method, label in ((mode, f"lsq3 {text!r}/{x0!r}/{mode}"),
                              ("newton", f"newton {text!r}/{x0!r}")):
            diff = solve_difference(a.short_solve(text, x0, method),
                                    b.short_solve(text, x0, method))
            if diff is not None:
                diffs.append(f"{label}: {diff}")
        if a.derivative_tree(a.pkg.parse(text)) != b.derivative_tree(b.pkg.parse(text)):
            diffs.append(f"differentiate {text!r}: trees differ")
        for value, label in ((math.inf, "inf"), (10 ** 400, "10**400")):
            if a.non_finite_leaf(text, grid, i, value) != b.non_finite_leaf(text, grid, i, value):
                diffs.append(f"leaf {label} {text!r}: values differ")
    for pa, pb in zip(a.suite, b.suite):
        if a.derivative_tree(pa.expression) != b.derivative_tree(pb.expression):
            diffs.append(f"differentiate {pa.id}: trees differ")
    basin_a, basin_b, suite_a, suite_b = (Evaluations() for _ in range(4))
    with counting(a.pkg, basin_a), counting(b.pkg, basin_b):
        for inp in solves:
            diff = solve_difference(a.basin(inp), b.basin(inp))
            if diff is not None:
                diffs.append(f"basin {a.suite[inp[0]].id}/{inp[1]!r}/{inp[2]}: {diff}")
    with counting(a.pkg, suite_a), counting(b.pkg, suite_b):
        csv_a, md_a = a.suite_pass(None)
        csv_b, md_b = b.suite_pass(None)
    if csv_a != csv_b:
        diffs.append("suite CSV differs")
    if md_a != md_b:
        diffs.append("suite Markdown differs")
    return diffs, [evaluations_line(f"{len(solves)} basin solves", basin_a, basin_b),
                   evaluations_line("suite pass", suite_a, suite_b)]


def _time_chunk(op, chunk: list) -> float:
    started = time.perf_counter()
    for inp in chunk:
        op(inp)
    return time.perf_counter() - started


def interleave(op_a, op_b, inputs: list, chunks: int):
    """Per-chunk seconds of each side; odd chunks run B first."""
    times_a, times_b = [], []
    for c in range(chunks):
        chunk = [inputs[(c * CHUNK + j) % len(inputs)] for j in range(CHUNK)]
        if c % 2:
            tb = _time_chunk(op_b, chunk)
            ta = _time_chunk(op_a, chunk)
        else:
            ta = _time_chunk(op_a, chunk)
            tb = _time_chunk(op_b, chunk)
        times_a.append(ta)
        times_b.append(tb)
    return times_a, times_b


def compare(args, reference, a: Side, b: Side) -> int:
    """Check, then time, A against B; the exit status."""
    exprs = expr_inputs(reference, args.seed, args.inputs)
    texts = parse_texts(args.seed, PARSE_TEXTS)
    solves = basin_inputs(reference, a, args.seed, args.starts)
    diffs, evaluations = check(a, b, exprs, texts, solves)
    if diffs:
        for line in diffs[:20]:
            print(line)
        print(f"check failed: {len(diffs)} differences")
        return 1
    print(f"check: identical on {len(exprs)} expressions, {len(texts)} parse texts, "
          f"{len(solves)} basin solves and the suite CSV and Markdown")

    if args.workload == "expr-scan":
        op_a, op_b, inputs = a.expr_scan, b.expr_scan, exprs
    elif args.workload == "basin":
        op_a, op_b, inputs = a.basin, b.basin, solves
    else:
        op_a, op_b, inputs = a.suite_pass, b.suite_pass, [None]
    times_a, times_b = interleave(op_a, op_b, inputs, args.chunks)
    ops = args.chunks * CHUNK
    ratios = [tb / ta for ta, tb in zip(times_a, times_b)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"{args.workload}: {args.chunks} chunks of {CHUNK} operations, seed {args.seed}")
    print(f"A {sum(times_a) / ops * 1e6:.1f} us/op  ({args.a})")
    print(f"B {sum(times_b) / ops * 1e6:.1f} us/op  ({args.b})")
    print(f"B/A per chunk: median {median:.3f}, IQR {q1:.3f}-{q3:.3f}")
    for line in evaluations:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="root of checkout A")
    parser.add_argument("b", type=Path, help="root of checkout B")
    parser.add_argument("--workload", choices=("expr-scan", "basin", "suite"),
                        default="expr-scan")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--chunks", type=int, default=200,
                        help=f"timed chunks of {CHUNK} operations, at least 2 (default 200)")
    parser.add_argument("--inputs", type=int, default=1000,
                        help="expr-scan expressions, checked and timed (default 1000)")
    parser.add_argument("--starts", type=int, default=50,
                        help="basin starts per stock problem (default 50)")
    args = parser.parse_args(argv)
    if args.chunks < 2 or args.inputs < 1 or args.starts < 1:
        parser.error("--chunks must be at least 2, --inputs and --starts positive")

    reference = load_reference()
    # The copies stay on disk for the whole run: a module may import a
    # sibling on first use (lsqroots.bench does).
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as tmp:
        sys.path.insert(0, tmp)
        a = Side(_import_copy(args.a.resolve(), "lsqroots_a", Path(tmp)))
        b = Side(_import_copy(args.b.resolve(), "lsqroots_b", Path(tmp)))
        return compare(args, reference, a, b)


if __name__ == "__main__":
    import stdout_errors
    sys.exit(stdout_errors.run(main))
