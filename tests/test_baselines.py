import math

import pytest

from lsqroots.baselines import (
    BaselineConfig,
    FlatSecantError,
    ZeroDerivativeError,
    newton_step,
    secant_step,
    solve_baseline,
)
from lsqroots.expressions import parse
from lsqroots.outcomes import MAX_ITER_CAP, Status


def test_newton_step_hand_value():
    # f = x^2 - 4 at x = 3
    assert newton_step(3.0, 5.0, 6.0) == pytest.approx(3.0 - 5.0 / 6.0, rel=1e-15)


def test_newton_step_exact_on_line():
    assert newton_step(7.0, 5.0, 1.0) == 2.0


def test_newton_step_rejects_zero_derivative():
    with pytest.raises(ZeroDerivativeError):
        newton_step(0.0, 1.0, 0.0)


def test_secant_step_hand_value():
    # f = x^2 - 2 through (1, -1) and (2, 2)
    assert secant_step(1.0, -1.0, 2.0, 2.0) == pytest.approx(2.0 - 2.0 / 3.0, rel=1e-15)


def test_secant_step_exact_on_line():
    # f = x - 2 through any two distinct points
    assert secant_step(5.0, 3.0, 9.0, 7.0) == 2.0


def test_secant_step_rejects_flat_chord():
    with pytest.raises(FlatSecantError):
        secant_step(1.0, 5.0, 2.0, 5.0)


def test_newton_cubic():
    out = solve_baseline("newton", parse("x^3 + 4*x^2 - 10"), 0.5)
    assert out.status is Status.CONVERGED
    assert out.root == pytest.approx(1.365230013414100, abs=1e-12)
    assert abs(out.iterations - 8) <= 2


def test_newton_diverges_on_arctan():
    out = solve_baseline("newton", parse("arctan(x)"), 3.0)
    assert out.status is Status.DIVERGED


def test_secant_log_problem():
    out = solve_baseline("secant", parse("x - 3*ln(x)"), 2.0)
    assert out.status is Status.CONVERGED
    assert out.root == pytest.approx(1.857183860207840, abs=1e-12)
    assert abs(out.iterations - 7) <= 3
    assert "x1=" in out.note  # defaulted second start is recorded


def test_secant_explicit_second_start():
    out = solve_baseline("secant", parse("x^3 + 4*x^2 - 10"), 0.5, x1=0.6)
    assert out.status is Status.CONVERGED
    assert out.root == pytest.approx(1.365230013414100, abs=1e-12)


def test_newton_oscillates_on_exact_two_cycle():
    # Newton on 0.5x^3 - 6x^2 + 21.5x - 22 from 3.0 hops 3 -> 5 -> 3 exactly
    out = solve_baseline("newton", parse("0.5*x^3 - 6*x^2 + 21.5*x - 22"), 3.0)
    assert out.status is Status.OSCILLATING


def test_newton_rejected_methods_and_starts():
    with pytest.raises(ValueError):
        solve_baseline("muller", parse("x"), 1.0)
    with pytest.raises(ValueError):
        solve_baseline("newton", parse("x"), math.nan)
    with pytest.raises(ValueError, match="x1 applies to method 'secant' only"):
        solve_baseline("newton", parse("x - 1"), 0.0, x1=5.0)


@pytest.mark.parametrize("x1", [math.inf, -math.inf, math.nan])
def test_non_finite_second_start_raises_like_the_first(x1):
    with pytest.raises(ValueError, match="x1 must be finite"):
        solve_baseline("secant", parse("x - 1"), 0.0, x1=x1)
    with pytest.raises(ValueError, match="x1 must be finite"):
        solve_baseline("newton", parse("x - 1"), 0.0, x1=x1)
    # a finite second start where f is undefined is still a status (from
    # a first start that is not a root, which would converge at once)
    out = solve_baseline("secant", parse("ln(x)"), 2.0, x1=-1.0)
    assert out.status is Status.DOMAIN_ERROR
    assert (out.root, out.trace, out.note) == (2.0, (), "f undefined at second start x1=-1.0")


def test_newton_domain_error_at_start():
    out = solve_baseline("newton", parse("ln(x)"), -2.0)
    assert out.status is Status.DOMAIN_ERROR
    assert out.iterations == 0


def test_newton_halves_error_on_double_root():
    # multiplicity 2 turns Newton linear with ratio 1/2
    f = parse("(x - 0.7)^2")
    out = solve_baseline("newton", f, 1.7)
    errors = [abs(rec.x - 0.7) for rec in out.trace[:6]]
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    assert len(ratios) >= 5
    for r in ratios[:5]:
        assert 0.45 <= r <= 0.55


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        BaselineConfig(max_iter=0)
    # the same cap as the three-point solver's
    assert BaselineConfig(max_iter=MAX_ITER_CAP).max_iter == MAX_ITER_CAP
    with pytest.raises(ValueError, match="at most 1000000"):
        BaselineConfig(max_iter=MAX_ITER_CAP + 1)
    with pytest.raises(TypeError):
        BaselineConfig(max_iter=50.5)
    with pytest.raises(ValueError):
        BaselineConfig()._replace(tolerance=math.inf)
    assert BaselineConfig._fields == ("tolerance", "max_iter")


def test_straight_line_fit_tracks_newton():
    # the N=1 three-point iteration behaves like a derivative-free Newton:
    # iteration counts agree within 2 on every convergent suite problem,
    # and the two methods fail together on the rest
    from lsqroots.bench import run_benchmark
    report = run_benchmark(methods=("newton", "lsq3-fixed"))
    rows = {(r.problem, r.start, r.method): r for r in report.rows}
    for (pid, start, method), newton_row in rows.items():
        if method != "newton":
            continue
        lsq3_row = rows[(pid, start, "lsq3-fixed")]
        if newton_row.status is Status.CONVERGED and lsq3_row.status is Status.CONVERGED:
            assert abs(newton_row.iterations - lsq3_row.iterations) <= 2, (pid, start)
        else:
            assert newton_row.status is not Status.CONVERGED, (pid, start)
            assert lsq3_row.status is not Status.CONVERGED, (pid, start)
