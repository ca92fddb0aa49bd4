"""The four workloads: inputs from a seed, one operation, output checks.

Each workload provides

* ``setup_code``: the program calls, after ``import lsqroots``, that build
  what the operations need; run in fresh interpreters to time set-up;
* ``setup(api)``: the same program calls in-process; ``prepare(api)``
  adds the benchmark's own input generation;
* ``input(i)``: the i-th input.  Inputs 0 .. n_count-1 form the counting
  pass, whose exact counts are the same for the same seed; the timed loop
  continues from n_count;
* ``run(api, inp)``: one timed operation; ``count_op`` is the in-process
  form used by the counting and traced passes (it differs only for cli);
* ``check_counted`` / ``check_timed``: lists of failed output checks.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import subprocess
import sys
from typing import Dict, List, Optional

from lsqroots.baselines import BaselineConfig
from lsqroots.lsq3 import SolverConfig

from reference import (
    STOCK, eval_tree, gen_tree, render_tree, residual_ok, same_bits,
    stratified_starts, tree_shape, window,
)

METHODS = ("newton", "secant", "lsq3-fixed", "lsq3-variable")

FIXED = SolverConfig(mode="fixed", n_value=1.0)
VARIABLE = SolverConfig(mode="variable")
BASELINE = BaselineConfig()


def solve_one(api, method: str, f, x0: float):
    if method in ("newton", "secant"):
        return api["baselines.solve_baseline"](method, f, x0, config=BASELINE)
    return api["lsq3.solve"](f, x0, FIXED if method == "lsq3-fixed" else VARIABLE)


def outcome_errors(outcome, problem_id: str, max_iter: int = 500) -> List[str]:
    """Checks every outcome must pass, whatever its status."""
    errors = []
    if outcome.iterations != len(outcome.trace):
        errors.append(f"iterations {outcome.iterations} != trace length {len(outcome.trace)}")
    if not 0 <= outcome.iterations <= max_iter:
        errors.append(f"iterations {outcome.iterations} outside 0..{max_iter}")
    if not math.isfinite(outcome.root):
        errors.append(f"non-finite root {outcome.root!r}")
    elif outcome.converged and not residual_ok(problem_id, outcome.root):
        errors.append(f"converged root {outcome.root!r} fails the residual check")
    return errors


def stock_by_id(api) -> Dict[str, object]:
    """The program's stock problems, checked against the reference table."""
    suite = api["bench.builtin_suite"]()
    problems = {p.id: p for p in suite}
    if set(problems) != set(STOCK):
        raise RuntimeError(f"stock problem ids differ from the reference table: "
                           f"{sorted(set(problems) ^ set(STOCK))}")
    return problems


class Workload:
    setup_code = ""
    n_count = 1
    in_process = True           # does ``run`` do its work in this process?

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.converged: Dict[str, List[int]] = {m: [0, 0] for m in METHODS}

    def note_solve(self, method: str, converged_ok: bool) -> None:
        tally = self.converged[method]
        tally[0] += converged_ok
        tally[1] += 1

    def setup(self, api):
        """The program calls that build what the operations need."""
        return None

    def prepare(self, api) -> None:
        self.setup(api)

    def input(self, i: int):
        return None

    def count_op(self, api, inp):
        return self.run(api, inp)

    def properties(self, counts) -> Dict[str, object]:
        return {}


class Suite(Workload):
    """One ``lsqroots bench`` pass: 108 solves, CSV and Markdown reports."""

    setup_code = "lsqroots.builtin_suite()"

    def setup(self, api):
        return api["bench.builtin_suite"]()

    def run(self, api, inp):
        report = api["bench.run_benchmark"](api["bench.builtin_suite"]())
        return (report, api["bench.emit_report"](report, "csv"),
                api["bench.emit_report"](report, "markdown"))

    def check_counted(self, i, inp, result):
        report, csv_text, md_text = result
        self.csv, self.md = csv_text, md_text
        errors = []
        for row in report.rows:
            ok = True
            if row.status.value == "converged" and not residual_ok(row.problem, row.root):
                errors.append(f"{row.problem}/{row.start}/{row.method}: converged root "
                              f"{row.root!r} fails the residual check")
                ok = False
            self.note_solve(row.method, ok and row.status.value == "converged")
        return errors

    def check_timed(self, i, inp, result):
        errors = []
        if result[1] != self.csv:
            errors.append("CSV differs from the first pass")
        if result[2] != self.md:
            errors.append("Markdown differs from the first pass")
        return errors


class Basin(Workload):
    """One solve from a stratified-uniform start in each stock window."""

    setup_code = "lsqroots.builtin_suite()"

    def setup(self, api):
        return stock_by_id(api)

    def prepare(self, api):
        problems = self.setup(api)
        rng = random.Random(self.seed)
        per_problem = 2 if self.tiny else 50
        self.ops = []
        for pid, problem in problems.items():
            lo, hi = window(pid)
            for x0 in stratified_starts(rng, lo, hi, per_problem):
                for method in METHODS:
                    self.ops.append((pid, problem.expression, x0, method))
        rng.shuffle(self.ops)
        self.n_count = len(self.ops)
        self.reference: List[Optional[tuple]] = [None] * self.n_count
        self.max_iter_hits = 0

    def input(self, i):
        return self.ops[i % self.n_count]

    def run(self, api, inp):
        pid, f, x0, method = inp
        return solve_one(api, method, f, x0)

    def check_counted(self, i, inp, outcome):
        pid, _, _, method = inp
        errors = outcome_errors(outcome, pid)
        self.note_solve(method, outcome.converged and not errors)
        self.max_iter_hits += outcome.status.value == "max-iterations"
        self.reference[i] = (outcome.status, outcome.root.hex(), outcome.iterations)
        return errors

    def check_timed(self, i, inp, outcome):
        if (outcome.status, outcome.root.hex(), outcome.iterations) != self.reference[i % self.n_count]:
            return [f"solve {inp[0]}/{inp[2]!r}/{inp[3]} differs from the counting pass"]
        return []

    def properties(self, counts):
        undefined = 0
        for pid, _, x0, method in self.ops:
            if method == "newton":          # each start appears once per method
                try:
                    y = STOCK[pid][0](x0)
                    undefined += not math.isfinite(y)
                except (ValueError, OverflowError, ZeroDivisionError):
                    undefined += 1
        starts = self.n_count // len(METHODS)
        return {
            "start_window": f"[min(roots) - 4, max(roots) + 4], {starts // len(STOCK)} "
                            "stratified-uniform starts per problem, 4 methods each",
            "solves": self.n_count,
            "undefined_at_x0_share": undefined / starts,
            "max_iter_share": self.max_iter_hits / self.n_count,
        }


class ExprScan(Workload):
    """Parse, differentiate, render round-trip, and a grid scan of f and f'."""

    GRID = 16
    LO, HI = -4.0, 4.0

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.n_count = 20 if tiny else 1000
        self.shapes: List[tuple] = []

    def input(self, i):
        rng = random.Random(f"{self.seed}:{i}")
        tree = gen_tree(rng)
        step = (self.HI - self.LO) / self.GRID
        u = rng.random()
        grid = [self.LO + (j + u) * step for j in range(self.GRID)]
        return tree, render_tree(tree), grid

    def run(self, api, inp):
        _, text, grid = inp
        parse, evaluate = api["expressions.parse"], api["expressions.evaluate"]
        e = parse(text)
        d = api["expressions.differentiate"](e)
        e2 = parse(api["expressions.render"](e))
        return ([evaluate(e, x) for x in grid], [evaluate(d, x) for x in grid],
                [evaluate(e2, x) for x in grid])

    def check_counted(self, i, inp, result):
        self.shapes.append(tree_shape(inp[0]) + (len(inp[1]),))
        return self.check_timed(i, inp, result)

    def check_timed(self, i, inp, result):
        tree, text, grid = inp
        ys, dys, ys2 = result
        errors = []
        for x, y, dy, y2 in zip(grid, ys, dys, ys2):
            want = eval_tree(tree, x)
            if not same_bits(y, want):
                errors.append(f"evaluate({text!r}, {x!r}) = {y!r}, reference {want!r}")
            if not same_bits(y2, y):
                errors.append(f"render round-trip of {text!r} at {x!r}: {y2!r} != {y!r}")
            if dy is not None and not (type(dy) is float and math.isfinite(dy)):
                errors.append(f"derivative of {text!r} at {x!r} is {dy!r}")
        return errors[:3]

    def properties(self, counts):
        def dist(values):
            s = sorted(values)
            return {"mean": sum(s) / len(s), "p50": s[len(s) // 2],
                    "p90": s[(9 * len(s)) // 10], "max": s[-1]}
        return {
            "node_count": dist([s[0] for s in self.shapes]),
            "depth": dist([s[1] for s in self.shapes]),
            "text_chars": dist([s[2] for s in self.shapes]),
            "evaluate_none_share": counts.none / max(1, counts.count("expressions.evaluate")),
        }


class Cli(Workload):
    """A cold ``python -m lsqroots.cli solve`` subprocess, one at a time.

    The argument lists are the paper's 108 (problem, start, method) runs in
    seeded order, so the solves are the suite's and cost the same on every
    seed; the operation's cost is start-up, import and argument handling.
    """

    setup_code = "import lsqroots.cli"
    in_process = False

    def __init__(self, seed, tiny, root: str, env: Dict[str, str]):
        super().__init__(seed, tiny)
        self.root, self.env = root, env

    def setup(self, api):
        return stock_by_id(api)

    def prepare(self, api):
        self.argvs = []
        for pid, problem in self.setup(api).items():
            for x0 in problem.starts:
                for method in METHODS:
                    argv = ["solve", "--expr", problem.source, "--x0", repr(x0),
                            "--method", "lsq3" if method.startswith("lsq3") else method]
                    if method == "lsq3-variable":
                        argv += ["--n", "variable"]
                    self.argvs.append((pid, method, argv))
        random.Random(self.seed).shuffle(self.argvs)
        if self.tiny:
            del self.argvs[4:]
        self.n_count = len(self.argvs)
        self.reference: List[Optional[tuple]] = [None] * self.n_count

    def input(self, i):
        return self.argvs[i % self.n_count]

    def run(self, api, inp):
        proc = subprocess.run([sys.executable, "-m", "lsqroots.cli", *inp[2]],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60)
        return proc.returncode, proc.stdout

    def count_op(self, api, inp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api["cli.main"](inp[2])
        return code, out.getvalue()

    def check_counted(self, i, inp, result):
        pid, method, _ = inp
        code, stdout = result
        self.reference[i] = result
        fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
        errors = []
        if code not in (0, 2) or "status" not in fields:
            errors.append(f"main exited {code} with {stdout!r}")
        converged = fields.get("status") == "converged"
        if converged and not residual_ok(pid, float(fields["root"])):
            errors.append(f"converged root {fields['root']} of {pid} fails the residual check")
        self.note_solve(method, converged and not errors)
        return errors

    def check_timed(self, i, inp, result):
        if result != self.reference[i % self.n_count]:
            return [f"cli {' '.join(inp[2])!r} gave {result!r}, in-process main gave "
                    f"{self.reference[i % self.n_count]!r}"]
        return []


def make(name: str, seed: int, tiny: bool, root: str, env: Dict[str, str]) -> Workload:
    if name == "suite":
        return Suite(seed, tiny)
    if name == "basin":
        return Basin(seed, tiny)
    if name == "expr-scan":
        return ExprScan(seed, tiny)
    return Cli(seed, tiny, root, env)
