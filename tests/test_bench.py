import math
from pathlib import Path

import pytest

import lsqroots.bench
from lsqroots.bench import (
    METHOD_ORDER,
    BenchReport,
    Problem,
    builtin_suite,
    convergence_rates,
    emit_report,
    f_n_curve,
    final_rate,
    n_grid,
    run_benchmark,
)
from lsqroots.expressions import evaluate, parse
from lsqroots.outcomes import IterationRecord, Status


def record(x):
    return IterationRecord(x=x, y=0.0)


def test_suite_shape():
    suite = builtin_suite()
    assert len(suite) == 14
    assert sum(len(p.starts) for p in suite) == 27
    assert sum(len(p.starts) for p in suite if p.table == 1) == 15
    assert sum(len(p.starts) for p in suite if p.table == 2) == 12


def test_suite_roots_are_roots():
    for problem in builtin_suite():
        for r in problem.reference_roots:
            y = evaluate(problem.expression, r)
            assert y is not None and abs(y) < 1e-9, (problem.id, r, y)


def test_suite_stores_expected_columns():
    suite = {p.id: p for p in builtin_suite()}
    cubic = suite["cubic-poly"]
    assert cubic.reference_roots == (1.365230013414100,)
    assert cubic.starts == (0.5, 1.0)
    assert cubic.expected[0.5]["newton"] == 8
    arctan = suite["arctan"]
    assert arctan.expected[3.0]["newton"] == "Diverges"
    assert arctan.expected[3.0]["lsq3-variable"] == 7
    gauss = suite["gauss-bump"]
    assert gauss.reference_roots == (1.679630610428450, 0.101025848315685)
    assert gauss.starts == (3.0, -1.0)


def test_problem_rejects_bad_root():
    with pytest.raises(ValueError):
        Problem(id="bad", source="x - 1", expression=parse("x - 1"),
                reference_roots=(2.0,), starts=(0.0,), expected={}, table=1)


@pytest.mark.parametrize("change, message", [
    ({"reference_roots": (2.0,)}, "stored root 2.0"),
    ({"starts": ()}, "at least one start"),
    # run_benchmark would fail at the first converged run, matching its root
    ({"reference_roots": ()}, "line: needs at least one reference root"),
], ids=["bad-root", "no-starts", "no-roots"])
def test_problem_checks_run_when_built_and_when_replaced(change, message):
    fields = dict(id="line", source="x - 1", expression=parse("x - 1"),
                  reference_roots=(1.0,), starts=(0.0,), expected={}, table=1)
    good = Problem(**fields)
    with pytest.raises(ValueError, match=message):
        Problem(**{**fields, **change})
    with pytest.raises(ValueError, match=message):
        good._replace(**change)


def test_rates_exact_powers():
    trace = [record(0.5), record(1e-2), record(1e-4)]
    rates = convergence_rates(trace, 0.0)
    assert rates[-1] == 2.0


def test_rates_cubic_powers():
    trace = [record(0.5), record(1e-3), record(1e-9)]
    assert convergence_rates(trace, 0.0)[-1] == 3.0


def test_rates_skip_pre_asymptotic_entries():
    trace = [record(3.0), record(1.5), record(1e-2), record(1e-4)]
    # pairs touching errors >= 1 are dropped
    assert convergence_rates(trace, 0.0) == [math.log(1e-4) / math.log(1e-2)]


def test_rates_truncate_at_exact_zero():
    trace = [record(1e-2), record(1e-4), record(0.0), record(1e-3)]
    assert convergence_rates(trace, 0.0) == [2.0]


def test_rates_require_three_records():
    with pytest.raises(ValueError):
        convergence_rates([record(0.1), record(0.01)], 0.0)


def test_rates_match_brute_force_recomputation():
    from lsqroots.lsq3 import solve
    out = solve(parse("x^3 + 4*x^2 - 10"), 0.5)
    r = 1.365230013414100
    reported = convergence_rates(out.trace, r)
    errors = [abs(rec.x - r) for rec in out.trace]
    brute = []
    for e0, e1 in zip(errors, errors[1:]):
        if e0 == 0.0 or e1 == 0.0:
            break
        if e0 >= 1.0 or e1 >= 1.0:
            continue
        brute.append(math.log(e1) / math.log(e0))
    assert reported == brute  # bit-exact


def test_final_rate_ignores_precision_floor():
    trace = [record(1e-2), record(1e-4), record(3e-15), record(3e-15)]
    assert final_rate(trace, 0.0) == 2.0


def test_error_curve_value_at_two():
    pts = dict(f_n_curve(1e-22, [2.0]))
    expected = 1e-22 ** 0.5 + 1e-22 ** 0.5 - 1e-22
    assert pts[2.0] == expected
    assert pts[2.0] == pytest.approx(2.0e-11, rel=1e-12)


def test_error_curve_value_at_four():
    pts = dict(f_n_curve(0.25, [4.0]))
    assert pts[4.0] == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_error_curve_minimum_sits_at_two():
    grid = n_grid(1.0, 4.0, 0.01)
    pts = f_n_curve(1e-22, grid)
    n_min = min(pts, key=lambda p: p[1])[0]
    assert abs(n_min - 2.0) <= 0.05


def test_error_curve_derivative_changes_sign_across_two():
    grid = n_grid(1.0, 4.0, 0.01)
    values = [f for _, f in f_n_curve(1e-22, grid)]
    i2 = grid.index(min(grid, key=lambda n: abs(n - 2.0)))
    assert values[i2 - 1] > values[i2] < values[i2 + 1]


@pytest.mark.parametrize("start, stop, step, expected", [
    # an off-grid stop is not rounded up to the next point
    (1.0, 3.0, 0.75, [1.0, 1.75, 2.5]),
    (1.0, 0.96, 0.1, []),
    (1.0, 1.04, 0.1, [1.0]),
    (2.0, 2.0, 0.5, [2.0]),
    # an on-grid stop missed by rounding (0.2 / 0.1 is 1.9999999999999998)
    # is kept, and the point that would overshoot it is the stop itself
    (0.1, 0.3, 0.1, [0.1, 0.2, 0.3]),
])
def test_grid_points_lie_between_start_and_stop(start, stop, step, expected):
    assert n_grid(start, stop, step) == expected


def test_grid_keeps_an_on_grid_stop():
    grid = n_grid(1.0, 4.0, 0.01)
    assert len(grid) == 301
    assert grid[0] == 1.0 and grid[-1] == 4.0
    assert max(grid) == 4.0


def test_grid_size_is_capped_before_allocation(monkeypatch):
    assert len(n_grid(0.0, 9.0, 1.0)) == 10
    monkeypatch.setattr(lsqroots.bench, "MAX_GRID_POINTS", 10)
    assert n_grid(0.0, 9.0, 1.0) == [float(i) for i in range(10)]
    with pytest.raises(ValueError, match="grid of 11 points exceeds 10"):
        n_grid(0.0, 10.0, 1.0)
    # 10^12 + 1 points: refused by the count alone
    with pytest.raises(ValueError, match="exceeds 10"):
        n_grid(1.0, 2.0, 1e-12)
    # more steps than a float can hold: refused before int() overflows
    with pytest.raises(ValueError, match="exceeds 10$"):
        n_grid(0.0, 1e308, 1e-308)
    assert n_grid(1e308, -1e308, 1e-308) == []


@pytest.mark.parametrize("args, name", [
    ((math.nan, 2.0, 0.5), "start"), ((1.0, math.inf, 0.5), "stop"),
    ((1.0, 2.0, math.nan), "step"), ((1.0, 2.0, math.inf), "step"),
])
def test_grid_names_a_non_finite_argument(args, name):
    with pytest.raises(ValueError, match=f"grid {name} must be finite"):
        n_grid(*args)


def test_error_curve_domain_checks():
    with pytest.raises(ValueError):
        f_n_curve(0.0, [2.0])
    with pytest.raises(ValueError):
        f_n_curve(1.0, [2.0])
    with pytest.raises(ValueError):
        f_n_curve(0.5, [0.0])


def test_run_benchmark_empty_method_set():
    report = run_benchmark(methods=())
    assert report.rows == ()


def test_markdown_of_an_empty_run_is_the_summary_alone():
    report = run_benchmark(methods=())
    assert emit_report(report, "markdown") == "summary: label-mismatch=0, runs=0, wrong-root=0\n"


def test_run_benchmark_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_benchmark(methods=("bisection",))


def test_run_benchmark_rejects_a_repeated_problem_id_before_solving(monkeypatch):
    # The Markdown report keys its rows by (problem, start, method), so the
    # second problem's row would be printed in the first one's table.
    a = Problem(id="p", source="x^2-2", expression=parse("x^2-2"),
                reference_roots=(2.0 ** 0.5,), starts=(1.0,), expected={}, table=1)
    b = Problem(id="p", source="x-3", expression=parse("x-3"),
                reference_roots=(3.0,), starts=(1.0,), expected={}, table=1)
    solved = []
    monkeypatch.setitem(lsqroots.bench.SOLVERS, "newton",
                        lambda f, x0: solved.append(x0))
    with pytest.raises(ValueError, match="problem id 'p' appears more than once"):
        run_benchmark([a, b], ["newton"])
    assert solved == []


def test_report_row_ordering():
    report = run_benchmark()
    assert len(report.rows) == 27 * 4
    suite = builtin_suite()
    expected_keys = [
        (p.id, s, m) for p in suite for s in p.starts for m in METHOD_ORDER
    ]
    assert [(r.problem, r.start, r.method) for r in report.rows] == expected_keys


def test_csv_shape_and_quoting():
    report = run_benchmark(methods=("newton",))
    text = emit_report(report, "csv")
    lines = text.split("\n")
    assert lines[0] == "problem,start,method,status,root,iterations,final_rate,expected,deviation"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 1 + 27 + 1
    assert "\r" not in text


def test_csv_roots_have_15_significant_digits():
    report = run_benchmark(methods=("newton",))
    text = emit_report(report, "csv")
    row = next(line for line in text.split("\n") if line.startswith("cubic-poly,0.5,"))
    assert ",1.3652300134141," in row


def test_csv_single_run():
    suite = [p for p in builtin_suite() if p.id == "cubic-poly"]
    suite[0] = Problem(id="cubic-poly", source=suite[0].source,
                       expression=suite[0].expression,
                       reference_roots=suite[0].reference_roots,
                       starts=(0.5,), expected=suite[0].expected, table=1)
    report = run_benchmark(suite=suite, methods=("lsq3-fixed",))
    lines = emit_report(report, "csv").strip().split("\n")
    assert len(lines) == 2


def test_benchmark_is_deterministic():
    a = emit_report(run_benchmark(), "csv")
    b = emit_report(run_benchmark(), "csv")
    assert a == b


@pytest.mark.parametrize("fmt, name", [("csv", "bench.csv"), ("markdown", "bench.md")])
def test_report_matches_golden_file(fmt, name):
    # tests/golden holds the reports of the suite as committed; any change
    # to a status, root, iteration count or rate shows up here.
    golden = (Path(__file__).parent / "golden" / name).read_bytes()
    assert emit_report(run_benchmark(), fmt).encode() == golden


def test_markdown_layout():
    report = run_benchmark()
    text = emit_report(report, "markdown")
    assert "### cubic-poly: `x^3 + 4*x^2 - 10` (table 1)" in text
    # column order follows the printed tables: secant first
    assert "| start | secant | Newton | 3-point N=1 | 3-point N=var |" in text
    assert "summary:" in text


def test_markdown_of_a_custom_suite_shows_its_table():
    p = Problem(id="shifted-line", source="x - 2", expression=parse("x - 2"),
                reference_roots=(2.0,), starts=(0.0,), expected={}, table=1)
    report = run_benchmark(suite=[p], methods=("newton",))
    assert emit_report(report, "markdown") == (
        "### shifted-line: `x - 2` (table 1)\n"
        "roots: 2\n"
        "\n"
        "| start | secant | Newton | 3-point N=1 | 3-point N=var |\n"
        "|---|---|---|---|---|\n"
        "| 0 | - | 2 | - | - |\n"
        "\n"
        "summary: converged=1, label-mismatch=0, runs=1, wrong-root=0\n"
    )
    assert report.suite == (p,)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(BenchReport((), ()), "yaml")


def test_wrong_root_flagging():
    # a problem listing only the far root; converging to the near root flags
    p = Problem(id="two-roots", source="(x - 1) * (x - 5)",
                expression=parse("(x - 1) * (x - 5)"),
                reference_roots=(5.0,), starts=(0.0,),
                expected={0.0: {"newton": 4}}, table=1)
    report = run_benchmark(suite=[p], methods=("newton",))
    row = report.rows[0]
    assert row.status is Status.CONVERGED
    assert row.deviation == "WRONG_ROOT"
