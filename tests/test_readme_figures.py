"""The figures the README quotes, recomputed.

Each test reads its figures from the README's own text, by a pattern
over the sentence that states them, and recomputes them from the
package, so a change to either side alone fails.
"""

import re
from pathlib import Path

import lsqroots.baselines
import lsqroots.bench
import lsqroots.lsq3
import lsqroots.outcomes
import test_outcomes
from lsqroots.bench import METHOD_ORDER, SOLVERS, builtin_suite, run_benchmark
import lsqroots.expressions
from lsqroots.expressions import (FUNCTIONS, Binary, Call, Constant, Unary, Variable,
                                  evaluate, parse)
from lsqroots.outcomes import Status
from test_acceptance import ROOT_TOL
from test_family_f import FAMILY_F_OK, PROBLEMS, STARTS

README = Path(__file__).resolve().parent.parent / "README.md"

SPACINGS = re.compile(
    r"Over the (\S+) lsq3 runs of `lsqroots bench`, `select_delta` chooses (\S+) "
    r"spacings: (\S+) by the β rule, (\S+) at the floor, and (\S+) where no β "
    r"qualified \(each after a step of 1e6 or more, giving a spacing of at least "
    r"1\)\. (\S+) of the (\S+) exceed the previous spacing\.")


STUCK_NEWTON = re.compile(
    r"Newton on `sin\(x\) \* exp\(x\) \+ ln\(x\^2 \+ 1\)` from -6\.0 sits at one "
    r"point for (\S+) of its (\S+) steps and spends (\S+) evaluations of f and f′ and "
    r"(\S+) cycle tests, where a driver that computes and tests every step spends "
    r"(\S+) and (\S+)\.")

TAIL_REPEATS = re.compile(
    r"cube-root from 1\.0 with lsq3-fixed keeps (\S+) distinct records in its (\S+)-record "
    r"trace, and over the (\S+) solves that `tests/golden/basin\.txt` pins \((\S+) seeded "
    r"starts per stock problem and method, at (\S+) steps\), (\S+) of the (\S+) records "
    r"\((\S+)%\) are repeats\.")

FAMILY_F = re.compile(
    r"the solves that converge to a point where \|f\| < 1e-9: Newton (\S+), secant "
    r"(\S+), lsq3-fixed (\S+) and lsq3-variable (\S+) of (\S+)\.")

TRIAGE = re.compile(
    r"and (\S+) from (\S+) and (\S+) from (\S+) take (\S+) and (\S+) iterations "
    r"where the paper reports (\S+) and (\S+) \(criterion 2\)\.")

FORMS = re.compile(
    r"(\S+) operators by (\S+) kinds on each side give (\S+) forms\.")

CALL_FORMS = re.compile(
    r"A call or unary minus of `x` is the function itself, or `operator\.neg`; of a "
    r"finite constant or a closure, a call and a unary minus each have a form of their "
    r"own: (\S+) more\.")

CHECKED_FORMS = re.compile(
    r"Of the (\S+) forms, the (\S+) with a closure operand of `\^` or a closure "
    r"divisor of `/` read both operands, left then right, and raise unless each "
    r"closure value is finite\.")

WHOLE_TREES = re.compile(
    r"kept by its shape in `outcomes\._TREES`, a table of at most (\S+) that "
    r"is emptied when full\..* Of the (\S+) evaluations in one `lsqroots bench` "
    r"pass, (\S+) run a whole-tree function: every solver evaluation\. The other "
    r"(\S+) are the root checks made when the suite's problems are built\.")

SECOND_PASS = re.compile(
    r"the fresh trees of a second `lsqroots bench` pass, (\S+) expressions and "
    r"Newton's (\S+) derivatives, find every factory there\.")


def readme_text(pattern):
    """The groups that ``pattern`` captures in the README, its lines joined
    by single spaces."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = pattern.search(text)
    assert match, f"the README no longer states {pattern.pattern[:40]!r}..."
    return match.groups()


def readme_figures(pattern):
    """The numbers that ``pattern`` captures in the README, as ints
    (thousands separators dropped)."""
    return [int(group.replace(",", "")) for group in readme_text(pattern)]


def test_the_spacing_figures_are_those_of_one_bench_pass(monkeypatch):
    runs, chosen, by_beta, at_floor, no_beta, larger, chosen_again = readme_figures(SPACINGS)
    assert chosen_again == chosen
    select_delta, betas = lsqroots.lsq3.select_delta, lsqroots.lsq3._BETAS
    calls = []

    def counted(x_k, x_prev, delta_prev, ratio):
        delta = select_delta(x_k, x_prev, delta_prev, ratio)
        calls.append((x_k - x_prev, delta_prev, delta))
        return delta

    monkeypatch.setattr(lsqroots.lsq3, "select_delta", counted)
    rows = run_benchmark().rows
    kinds = {"beta": 0, "floor": 0, "none": 0}
    for dx, delta_prev, delta in calls:
        # The beta rule's spacing: the largest beta that qualifies.
        rule = next((beta * dx ** 2 for beta in betas
                     if beta * dx ** 2 < 1.0 and beta * dx ** 2 <= delta_prev), None)
        if rule is None:
            kinds["none"] += 1
            assert abs(dx) >= 1e6 and delta >= 1.0
        else:
            kinds["beta" if delta == rule else "floor"] += 1
    assert sum(row.method.startswith("lsq3") for row in rows) == runs
    assert len(calls) == chosen
    assert kinds == {"beta": by_beta, "floor": at_floor, "none": no_beta}
    assert sum(delta > delta_prev for _, delta_prev, delta in calls) == larger


def test_the_stuck_newton_figures_are_those_of_its_run(monkeypatch):
    stuck, budget, evaluations, cycle_tests, every_evaluation, every_test = \
        readme_figures(STUCK_NEWTON)
    f = parse("sin(x) * exp(x) + ln(x^2 + 1)")
    evaluate = lsqroots.baselines.evaluate
    evaluated = []
    tested = []

    def counted(e, x):
        evaluated.append(x)
        return evaluate(e, x)

    def counted_test(detect_cycle):
        def test(xs):
            tested.append(len(xs))
            return detect_cycle(xs)
        return test

    monkeypatch.setattr(lsqroots.baselines, "evaluate", counted)
    monkeypatch.setattr(lsqroots.outcomes, "detect_cycle",
                        counted_test(lsqroots.outcomes.detect_cycle))
    out = SOLVERS["newton"](f, -6.0)
    assert out.status is Status.MAX_ITERATIONS and out.iterations == budget
    assert sum(rec.x == out.trace[-1].x for rec in out.trace) == stuck
    assert (len(evaluated), len(tested)) == (evaluations, cycle_tests)

    # the driver without the periodic tail or the reused values
    evaluated.clear()
    tested.clear()
    monkeypatch.setattr(lsqroots.baselines, "iterate", test_outcomes.reference_iterate)
    monkeypatch.setattr(test_outcomes, "reference_detect_cycle",
                        counted_test(test_outcomes.reference_detect_cycle))
    assert test_outcomes.outcome_digest(SOLVERS["newton"](f, -6.0)) == \
        test_outcomes.outcome_digest(out)
    assert (len(evaluated), len(tested)) == (every_evaluation, every_test)


def distinct_records(outcome):
    """How many records of ``outcome``'s trace are records of their own,
    not a repeat of one at another place."""
    return len({id(rec) for rec in outcome.trace})


def test_the_tail_repeat_figures_are_those_of_their_runs():
    kept, length, solves, per_problem, max_iter, repeats, records, percent = \
        readme_figures(TAIL_REPEATS)
    cube_root = {p.id: p for p in builtin_suite()}["cube-root"].expression
    out = SOLVERS["lsq3-fixed"](cube_root, 1.0)
    assert (distinct_records(out), out.iterations) == (kept, length)

    # the sample of tests/golden/basin.txt (see test_golden_traces.basin_lines)
    solvers = test_outcomes.solvers_with_max_iter(max_iter)
    outcomes = [solvers[method](problem.expression, x0) for problem, method, x0
                in test_outcomes.basin_runs(per_problem=per_problem, seed=2024)]
    assert len(outcomes) == solves
    assert sum(out.iterations for out in outcomes) == records
    assert sum(out.iterations - distinct_records(out) for out in outcomes) == repeats
    assert round(100 * repeats / records) == percent


def test_the_family_f_figures_are_the_pinned_totals():
    *ok, starts = readme_figures(FAMILY_F)
    assert dict(zip(METHOD_ORDER, ok)) == FAMILY_F_OK
    assert starts == len(PROBLEMS) * STARTS


def test_the_triaged_count_gaps_are_those_of_one_bench_pass():
    # criterion 2's rows that converge to a listed root but miss the
    # paper's count by more than 3 are exactly the two the README names
    p1, s1, p2, s2, n1, n2, e1, e2 = readme_text(TRIAGE)
    named = {(p1, float(s1.replace("−", "-")), int(n1), int(e1)),
             (p2, float(s2.replace("−", "-")), int(n2), int(e2))}
    problems = {p.id: p for p in builtin_suite()}
    gaps = set()
    for row in run_benchmark().rows:
        problem = problems[row.problem]
        if problem.table != 1 or not row.method.startswith("lsq3"):
            continue
        expected = problem.expected[row.start][row.method]
        on_root = min(abs(row.root - r) for r in problem.reference_roots) <= ROOT_TOL
        if row.status is Status.CONVERGED and on_root and abs(row.iterations - expected) > 3:
            assert row.method == "lsq3-variable"
            gaps.add((row.problem, row.start, row.iterations, expected))
    assert gaps == named


def test_the_form_figures_are_those_of_the_generated_forms(monkeypatch):
    operators, kinds, forms = readme_figures(FORMS)
    forms_again, checked = readme_figures(CHECKED_FORMS)
    assert forms_again == forms
    # one operand of each kind: the variable, a finite constant, a closure
    operands = {"x": Variable(), "c": Constant(2.0), "f": Call("abs", Variable())}
    monkeypatch.setattr(lsqroots.expressions, "_NODES", {})
    for op in "+-*/^":
        for left in operands.values():
            for right in operands.values():
                evaluate(Binary(op, left, right), 1.5)
    nodes = lsqroots.expressions._NODES
    assert len({op for op, _, _ in nodes}) == operators
    assert len({kind for _, ka, kb in nodes for kind in (ka, kb)}) == kinds
    assert len(nodes) == forms
    tested = sorted(op + ka + kb for (op, ka, kb), factory in nodes.items()
                    if "isfinite" in factory(None, None).__code__.co_names)
    assert len(tested) == checked
    assert tested == sorted(op + ka + kb for op, ka, kb in nodes
                            if "f" in ka + kb and (op == "^" or op == "/" and kb == "f"))


def test_the_call_and_minus_form_figure_is_that_of_the_generated_forms(monkeypatch):
    more, = readme_figures(CALL_FORMS)
    operands = {"x": Variable(), "c": Constant(2.0), "f": Call("abs", Variable())}
    monkeypatch.setattr(lsqroots.expressions, "_NODES", {})
    for operand in operands.values():
        evaluate(Unary("-", operand), 1.5)
        for name in FUNCTIONS:
            evaluate(Call(name, operand), 1.5)
    # a call or minus of x generates nothing: it is the function itself
    assert sorted(lsqroots.expressions._NODES) == [("call", "c"), ("call", "f"),
                                                    ("neg", "c"), ("neg", "f")]
    assert len(lsqroots.expressions._NODES) == more


def test_the_whole_tree_figures_are_those_of_one_bench_pass(monkeypatch):
    table, total, whole, checks = readme_figures(WHOLE_TREES)
    assert lsqroots.outcomes._TREE_TABLE == table
    # evaluations by the module that makes them, and by whether they run
    # a whole-tree function
    counts = {}
    for module in (lsqroots.bench, lsqroots.lsq3, lsqroots.baselines):
        def counted(e, x, name=module.__name__):
            key = name, "_tree" in vars(e)
            counts[key] = counts.get(key, 0) + 1
            return evaluate(e, x)
        monkeypatch.setattr(module, "evaluate", counted)
    run_benchmark(builtin_suite())
    assert sum(counts.values()) == total
    assert counts.keys() == {("lsqroots.bench", False), ("lsqroots.lsq3", True),
                             ("lsqroots.baselines", True)}
    assert counts["lsqroots.bench", False] == checks
    assert counts["lsqroots.lsq3", True] + counts["lsqroots.baselines", True] == whole


def test_a_second_bench_pass_compiles_no_whole_tree(monkeypatch):
    expressions, derivatives = readme_figures(SECOND_PASS)
    monkeypatch.setattr(lsqroots.outcomes, "_TREES", {})
    run_benchmark(builtin_suite())
    real_compile_tree = lsqroots.outcomes.compile_tree
    compiled = []

    def counted(e):
        compiled.append(e)
        real_compile_tree(e)
    for module in (lsqroots.lsq3, lsqroots.baselines):
        monkeypatch.setattr(module, "compile_tree", counted)
    generated = len(lsqroots.outcomes._TREES)
    monkeypatch.setattr(lsqroots.outcomes, "_generated", None)     # a miss would raise
    suite = builtin_suite()
    run_benchmark(suite)
    roots = {id(p.expression) for p in suite}
    derived = {id(vars(p.expression)["_derivative"]) for p in suite}
    assert (len(roots), len(derived)) == (expressions, derivatives)
    assert {id(e) for e in compiled} == roots | derived
    assert all("_tree" in vars(e) for e in compiled)
    assert len(lsqroots.outcomes._TREES) == generated
