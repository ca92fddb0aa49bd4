import errno
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsqroots.bench
import lsqroots.cli
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


def test_solve_from_an_exact_root_converges_without_a_step(capsys):
    code, out, err = run_cli(capsys, "solve", "--expr", "x^2", "--x0", "0",
                             "--method", "lsq3")
    assert (code, out, err) == (0, "status converged\nroot 0\niterations 0\n", "")


def test_secant_from_an_exact_root_converges_before_its_second_start(capsys):
    # the defaulted second start, 0.1, is off the domain of x*sqrt(-x)
    code, out, err = run_cli(capsys, "solve", "--expr", "x*sqrt(-x)", "--x0", "0",
                             "--method", "secant")
    assert (code, err) == (0, "")
    assert out == ("status converged\nroot 0\niterations 0\n"
                   "note secant second start defaulted to x1=0.1\n")


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


def test_solve_trace_of_a_periodic_run_is_pinned(capsys):
    # cube-root from 1.0 settles into a period-30 cycle: rows 231-500 are
    # the periodic tail, numbered by their place in the trace.  The digest
    # was taken before records lost their k field, with
    #   PYTHONPATH=src python -m lsqroots.cli solve --expr "cbrt(x)" --x0 1.0 \
    #       --method lsq3 --trace | sha256sum
    code, out, _ = run_cli(capsys, "solve", "--expr", "cbrt(x)", "--x0", "1.0",
                           "--method", "lsq3", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,x,y,delta,n,y_minus,y_plus" and len(lines) == 1 + 500 + 3
    assert [line.split(",")[0] for line in lines[1:501]] == [str(k) for k in range(1, 501)]
    assert lines[231].split(",")[1:] == lines[201].split(",")[1:]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "36484c0bb3a5e5e00ca00bba4673789ef31f59d3c3851110d81c95c78b3edf2d"


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


@pytest.mark.parametrize("expr, x0", [
    ("x*1e259", "1"), ("x*1e259", "-3"), ("x/1e-300", "1"), ("1e300*x", "-3"),
])
def test_variable_power_on_a_steep_line_exits_cleanly(capsys, expr, x0):
    # the probe spacing shrinks until its square underflows to zero
    code, out, _ = run_cli(
        capsys, "solve", "--expr", expr, "--x0", x0, "--method", "lsq3", "--n", "variable",
    )
    assert code == 0
    assert any(line.startswith("status ") for line in out.splitlines())


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


@pytest.mark.parametrize("method", ["newton", "secant"])
@pytest.mark.parametrize("command", ["solve", "rate"])
@pytest.mark.parametrize("delta0", ["0.5", "0.1", "1.5"])
def test_delta0_rejected_for_baselines(capsys, command, method, delta0):
    code, out, err = run_cli(
        capsys, command, "--expr", "x - 1", "--x0", "3",
        "--method", method, "--delta0", delta0,
    )
    assert code == 1
    assert out == ""
    assert err == "lsqroots: --delta0 applies to --method lsq3 only\n"


@pytest.mark.parametrize("method", ["newton", "secant"])
@pytest.mark.parametrize("command", ["solve", "rate"])
@pytest.mark.parametrize("n", ["fixed:1", "fixed:1.0", "variable"])
def test_n_rejected_for_baselines(capsys, command, method, n):
    # "fixed:1" is lsq3's default power, but given to a baseline it is
    # still a flag that does not apply
    code, out, err = run_cli(
        capsys, command, "--expr", "x - 1", "--x0", "3",
        "--method", method, "--n", n,
    )
    assert code == 1
    assert out == ""
    assert err == "lsqroots: --n applies to --method lsq3 only\n"


def test_lsq3_power_defaults_to_fixed_one(capsys):
    argv = ("solve", "--expr", "x^3 - 2*x - 5", "--x0", "3", "--method", "lsq3", "--trace")
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--n", "fixed:1") == (0, default, "")
    assert default.splitlines()[1].split(",")[4] == "1"


def test_lsq3_fixed_power_without_a_value_is_fixed_one(capsys):
    argv = ("solve", "--expr", "x^3 - 2*x - 5", "--x0", "3", "--method", "lsq3", "--trace")
    code, fixed_one, _ = run_cli(capsys, *argv, "--n", "fixed:1")
    assert code == 0
    assert run_cli(capsys, *argv, "--n", "fixed") == (0, fixed_one, "")


def test_rate_domain_error_prints_only_the_status(capsys):
    code, out, err = run_cli(
        capsys, "rate", "--expr", "ln(x)", "--x0", "-1", "--method", "newton",
    )
    assert (code, out, err) == (2, "status domain-error\n", "")


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


def test_fncurve_grid_stops_at_to(capsys):
    code, out, _ = run_cli(
        capsys, "fncurve", "--E", "0.5", "--from", "1", "--to", "3", "--step", "0.75",
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["n", "1", "1.75", "2.5"]


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


@pytest.mark.parametrize("parts", [("missing", "report.csv"), ()])
def test_bench_to_an_unwritable_path_is_one_line_error(tmp_path, capsys, parts):
    # a file in a missing directory, and a directory itself
    target = tmp_path.joinpath(*parts)
    code, out, err = run_cli(capsys, "bench", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"lsqroots: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("root", ["nan", "inf", "-inf"])
def test_rate_non_finite_root_is_usage_error(capsys, root):
    code, out, err = run_cli(
        capsys, "rate", "--expr", "x - 1", "--x0", "3", "--method", "newton", f"--root={root}",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("lsqroots: ") and err.count("\n") == 1
    assert "--root must be finite" in err


@pytest.mark.parametrize("fmt, name", [("csv", "bench.csv"), ("markdown", "bench.md")])
def test_bench_builds_the_suite_once_and_prints_the_golden_report(monkeypatch, capsys, fmt, name):
    real = lsqroots.bench.builtin_suite
    builds = []

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(lsqroots.bench, "builtin_suite", counting)
    code, out, err = run_cli(capsys, "bench", "--format", fmt)
    assert (code, err) == (0, "")
    assert out.encode() == (Path(__file__).parent / "golden" / name).read_bytes()
    assert len(builds) == 1


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


@pytest.mark.parametrize("flags, message", [
    (("--x0", "inf", "--method", "newton"), "--x0 must be finite"),
    (("--x0", "nan", "--method", "lsq3"), "--x0 must be finite"),
    (("--x0", "1", "--method", "lsq3", "--delta0", "1.5"), "delta0 must lie in (0, 1)"),
    (("--x0", "1", "--method", "secant", "--tol", "0"), "tolerance must be positive"),
    (("--x0", "1", "--method", "lsq3", "--tol", "nan"), "tolerance must be positive"),
    (("--x0", "1", "--method", "newton", "--tol", "inf"), "tolerance must be positive"),
    (("--x0", "1", "--method", "lsq3", "--max-iter", "0"), "max_iter must be at least 1"),
    (("--x0", "1", "--method", "lsq3", "--n", "fixed:0"), "fixed power must be nonzero"),
    (("--x0", "1", "--method", "newton", "--max-iter", "1000001"), "at most 1000000"),
    (("--x0", "0", "--method", "lsq3", "--n", "fixed:inf"), "power must be finite, got inf"),
    (("--x0", "0", "--method", "lsq3", "--n", "fixed:nan"), "power must be finite, got nan"),
    (("--x0", "0", "--method", "secant", "--x1", "inf"), "--x1 must be finite, got inf"),
    (("--x0", "0", "--method", "secant", "--x1", "nan"), "--x1 must be finite, got nan"),
    (("--x0", "1", "--method", "lsq3", "--n", "foo"),
     "lsqroots: invalid --n value 'foo' (expected 'variable' or 'fixed:<real>')"),
    (("--x0", "1", "--method", "lsq3", "--n", "fixed:abc"),
     "lsqroots: invalid --n value 'fixed:abc' (expected 'variable' or 'fixed:<real>')"),
])
@pytest.mark.parametrize("command", ["solve", "rate"])
def test_invalid_numeric_flag_is_one_line_usage_error(capsys, command, flags, message):
    code, out, err = run_cli(capsys, command, "--expr", "x - 1", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("lsqroots: ") and err.count("\n") == 1
    assert message in err


def test_fncurve_non_finite_bound_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "fncurve", "--E", "0.5", "--from", "1", "--to", "inf", "--step", "1",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("lsqroots: ") and err.count("\n") == 1


def test_fncurve_oversized_grid_is_usage_error(capsys):
    # 10^12 + 1 points: refused before any is built
    code, out, err = run_cli(
        capsys, "fncurve", "--E", "0.5", "--from", "1", "--to", "2", "--step", "1e-12",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("lsqroots: ") and err.count("\n") == 1
    assert "exceeds" in err
    # too large to count: (to - from) / step overflows to inf
    code, out, err = run_cli(
        capsys, "fncurve", "--E", "0.5", "--from", "0", "--to", "1e308", "--step", "1e-308",
    )
    assert (code, out) == (1, "")
    assert err == "lsqroots: grid of more than 1e308 points exceeds 1000000\n"


# Each numeric flag with the other flags its command needs.
NUMERIC_FLAGS = {
    "--x0": ("solve", "--expr", "x + 0.001", "--method", "newton"),
    "--x1": ("solve", "--expr", "x + 0.001", "--x0", "1", "--method", "secant"),
    "--root": ("rate", "--expr", "x + 0.001", "--x0", "1", "--method", "newton"),
    "--delta0": ("solve", "--expr", "x + 0.001", "--x0", "1", "--method", "lsq3"),
    "--tol": ("solve", "--expr", "x + 0.001", "--x0", "1", "--method", "newton"),
    "--from": ("fncurve", "--E", "0.5", "--to", "2", "--step", "0.5"),
    "--to": ("fncurve", "--E", "0.5", "--from", "1", "--step", "0.5"),
    "--E": ("fncurve", "--from", "1", "--to", "2", "--step", "0.5"),
    "--step": ("fncurve", "--E", "0.5", "--from", "1", "--to", "2"),
}


@pytest.mark.parametrize("value", ["-1e-3", "-1.5e2", "-2E+1"])
@pytest.mark.parametrize("flag", sorted(NUMERIC_FLAGS))
def test_negative_number_with_an_exponent_is_the_flag_value(capsys, flag, value):
    spaced = run_cli(capsys, *NUMERIC_FLAGS[flag], flag, value)
    joined = run_cli(capsys, *NUMERIC_FLAGS[flag], f"{flag}={value}")
    assert "expected one argument" not in spaced[2]
    assert spaced == joined


@pytest.mark.parametrize("command", [("solve",), ("rate", "--root", "1")])
@pytest.mark.parametrize("expr", ["-x+1", "-(x - 1)^3", "-x^3+1"])
def test_expression_with_a_leading_minus_is_the_flag_value(capsys, command, expr):
    rest = ("--x0", "0", "--method", "newton")
    spaced = run_cli(capsys, *command, "--expr", expr, *rest)
    joined = run_cli(capsys, *command, f"--expr={expr}", *rest)
    assert spaced == joined
    assert spaced[0] == 0 and spaced[2] == ""


def test_a_missing_expression_is_still_named(capsys):
    # the flag after a bare --expr is not taken for its value
    code, out, err = run_cli(capsys, "solve", "--expr", "--x0", "0", "--method", "newton")
    assert (code, out) == (1, "")
    assert "argument --expr: expected one argument" in err


def test_negative_start_with_an_exponent_solves(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "x+0.001", "--x0", "-1e-3", "--method", "newton",
    )
    assert (code, err) == (0, "")
    assert "status converged\nroot -0.001\n" in out


@pytest.mark.parametrize("flag, message", [
    ("--x0", "--x0 must be finite, got -inf"),
    ("--x1", "--x1 must be finite, got -inf"),
    ("--root", "--root must be finite, got -inf"),
    ("--delta0", "delta0 must lie in (0, 1)"),
    ("--tol", "tolerance must be positive"),
    ("--from", "grid start must be finite, got -inf"),
    ("--to", "grid stop must be finite, got -inf"),
    ("--E", "E must lie strictly between 0 and 1"),
    ("--step", "grid step must be finite, got -inf"),
])
def test_negative_infinity_is_a_non_finite_usage_error(capsys, flag, message):
    code, out, err = run_cli(capsys, *NUMERIC_FLAGS[flag], flag, "-inf")
    assert code == 1
    assert out == ""
    assert err.startswith("lsqroots: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("flag, name", [("--from", "start"), ("--to", "stop"),
                                        ("--step", "step")])
def test_fncurve_nan_grid_argument_is_named(capsys, flag, name):
    code, out, err = run_cli(capsys, *NUMERIC_FLAGS[flag], flag, "nan")
    assert code == 1
    assert out == ""
    assert err == f"lsqroots: grid {name} must be finite, got nan\n"



# The package these tests import, for the subprocesses below.
SRC = str(Path(lsqroots.cli.__file__).resolve().parents[1])


def _cli_process(argv, **streams):
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + old if old else ""))
    return subprocess.run([sys.executable, "-m", "lsqroots.cli", *argv], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=120, **streams)


@pytest.mark.parametrize("argv", [
    ["fncurve", "--E", "0.5", "--from", "1", "--to", "4", "--step", "0.001"],
    ["solve", "--expr", "x-1", "--x0", "3", "--method", "newton"],
    ["bench"],
    ["solve", "--help"],
], ids=["fncurve", "solve", "bench", "help"])
def test_output_that_cannot_be_written_is_one_line_error(argv, unwritable_stdout):
    streams, reason = unwritable_stdout
    proc = _cli_process(argv, **streams)
    assert proc.returncode == 1
    # No traceback, and no "Exception ignored" from the flush at exit.
    assert proc.stderr == f"lsqroots: cannot write output: {reason}\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--expr", "(", "--x0", "3", "--method", "newton"], "lsqroots: bad --expr: "),
    (["rate", "--expr", "x-1", "--x0", "3", "--method", "newton", "--root", "nan"],
     "lsqroots: --root must be finite, got nan"),
], ids=["bad-expr", "nan-root"])
def test_usage_error_is_reported_before_a_closed_stdout(argv, message):
    # A usage error needs only stderr, so it is the error reported.
    proc = _cli_process(argv, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1


class _FailingStdout:
    """A stdout on descriptor 1 whose every write and flush raises ``error``."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        raise self.error

    def fileno(self):
        return 1


def test_main_in_process_leaves_the_callers_descriptor_alone(capsys, monkeypatch):
    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", _FailingStdout(BrokenPipeError(errno.EPIPE, "Broken pipe")))
    code = main(["solve", "--expr", "x-1", "--x0", "3", "--method", "newton"])
    after = os.fstat(1)
    assert code == 1
    assert capsys.readouterr().err == "lsqroots: cannot write output: Broken pipe\n"
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def test_main_lets_other_os_errors_through(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(PermissionError(errno.EACCES, "denied")))
    with pytest.raises(PermissionError):
        main(["solve", "--expr", "x-1", "--x0", "3", "--method", "newton"])
