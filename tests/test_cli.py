import pytest

from lsqroots.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_cubic(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "x^3 + 4*x^2 - 10", "--x0", "0.5",
        "--method", "lsq3", "--n", "variable",
    )
    assert code == 0
    assert "status converged" in out
    assert "root 1.3652300134141" in out


def test_solve_fixed_power_syntax(capsys):
    # double root at 3 with an asymmetric cofactor; the power-2 fit applies
    code, out, _ = run_cli(
        capsys, "solve", "--expr", "(x - 3)^2 * (x + 1)", "--x0", "4.0",
        "--method", "lsq3", "--n", "fixed:2.0",
    )
    assert code == 0
    assert "status converged" in out
    assert "root 3" in out


def test_solve_trace_line_count_matches_iterations(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--expr", "x^3 + 4*x^2 - 10", "--x0", "0.5",
        "--method", "newton", "--trace",
    )
    assert code == 0
    lines = out.strip().split("\n")
    iterations = int(next(l for l in lines if l.startswith("iterations ")).split()[1])
    header_idx = lines.index("k,x,y,delta,n,y_minus,y_plus")
    trace_lines = [l for l in lines[header_idx + 1:] if l[:1].isdigit()]
    assert len(trace_lines) == iterations


def test_solve_domain_error_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--expr", "ln(x)", "--x0", "-5", "--method", "newton",
    )
    assert code == 2
    assert "status domain-error" in out


def test_solve_outcome_statuses_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--expr", "arctan(x)", "--x0", "3.0", "--method", "newton",
    )
    assert code == 0
    assert "status diverged" in out


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "x", "--x0", "1", "--method", "newton", "--bogus",
    )
    assert code == 1
    assert out == ""
    assert "usage" in err


def test_missing_required_flag(capsys):
    code, _, err = run_cli(capsys, "solve", "--expr", "x", "--method", "newton")
    assert code == 1
    assert "--x0" in err


def test_bad_expression_reports_position(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--expr", "x ++ 1", "--x0", "0", "--method", "newton",
    )
    assert code == 1
    assert "position" in err


def test_n_flag_rejected_for_newton(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--expr", "x", "--x0", "1",
        "--method", "newton", "--n", "variable",
    )
    assert code == 1
    assert "lsq3" in err


def test_x1_rejected_for_newton(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--expr", "x", "--x0", "1",
        "--method", "newton", "--x1", "2",
    )
    assert code == 1
    assert "secant" in err


def test_fncurve_argmin_near_two(capsys):
    code, out, _ = run_cli(
        capsys, "fncurve", "--E", "1e-22", "--from", "1", "--to", "4", "--step", "0.01",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,f"
    pairs = [tuple(map(float, l.split(","))) for l in lines[1:]]
    assert len(pairs) == 301
    n_min = min(pairs, key=lambda p: p[1])[0]
    assert abs(n_min - 2.0) <= 0.05


def test_fncurve_rejects_bad_magnitude(capsys):
    code, _, err = run_cli(
        capsys, "fncurve", "--E", "2.0", "--from", "1", "--to", "4", "--step", "0.5",
    )
    assert code == 1
    assert "between 0 and 1" in err


def test_rate_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "rate", "--expr", "x^3 + 4*x^2 - 10", "--x0", "0.5",
        "--method", "lsq3", "--root", "1.365230013414100",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,rate"
    final = lines[-1]
    assert final.startswith("final_rate,")
    assert 1.7 <= float(final.split(",")[1]) <= 2.3


def test_bench_csv_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "bench", "--format", "csv")
    code2, out2, _ = run_cli(capsys, "bench", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("problem,start,method,")


def test_bench_markdown_to_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    code, out, _ = run_cli(capsys, "bench", "--format", "markdown", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "### cubic-poly" in target.read_text()


def test_timing_goes_to_stderr_only(capsys):
    _, out1, err1 = run_cli(
        capsys, "--timing", "solve", "--expr", "x - 2", "--x0", "5", "--method", "newton",
    )
    _, out2, err2 = run_cli(
        capsys, "solve", "--expr", "x - 2", "--x0", "5", "--method", "newton",
    )
    assert "elapsed" in err1 and "elapsed" not in err2
    assert out1 == out2  # stdout identical with and without --timing


def test_solve_prints_the_off_domain_note(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--expr", "x*ln(x) - 1", "--x0", "0.1", "--method", "newton",
    )
    assert code == 0
    assert "status diverged" in out
    assert "note iterate left the domain at x=-0.844474580521726\n" in out
