import math
import random
from functools import partial

import pytest

from lsqroots.expressions import evaluate, parse
from lsqroots.lsq3 import (
    N_CLAMP,
    ProbeDomainError,
    SolverConfig,
    SymmetricStallError,
    adjust_delta,
    estimate_power,
    lsq3_step,
    select_delta,
    solve,
)
from lsqroots.outcomes import MAX_ITER_CAP, Status


# ---------------------------------------------------------------------------
# lsq3_step
# ---------------------------------------------------------------------------

def mean_over_slope(y_minus, y0, y_plus, delta):
    # independent N=1 oracle: a least-squares straight line through the
    # three points crosses zero at x - mean(y)/slope
    return ((y_minus + y0 + y_plus) / 3.0) / ((y_plus - y_minus) / (2.0 * delta))


def test_step_is_exact_on_a_line_through_origin():
    # f(x) = x sampled at 4.9, 5.0, 5.1; exact up to rounding of the samples
    assert lsq3_step(5.0, 4.9, 5.0, 5.1, 0.1, 1.0) == pytest.approx(0.0, abs=1e-13)


def test_step_matches_straight_line_fit_on_square():
    # f(x) = x^2 at x=1, delta=0.1
    expected = 1.0 - mean_over_slope(0.81, 1.0, 1.21, 0.1)
    got = lsq3_step(1.0, 0.81, 1.0, 1.21, 0.1, 1.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.49666666666666665, rel=1e-12)


def test_step_with_power_two_on_shifted_square():
    # f(x) = (x-3)^2 at x=4, delta=0.1, N=2: oracle is the explicit
    # N=2 weighting (y_minus + 2*y0 + y_plus)/4
    y_minus, y0, y_plus, delta = 0.81, 1.0, 1.21, 0.1
    slope = (y_plus - y_minus) / (2.0 * delta)
    expected = 4.0 - 2.0 * (((y_minus + 2.0 * y0 + y_plus) / 4.0) / slope)
    got = lsq3_step(4.0, y_minus, y0, y_plus, delta, 2.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(2.995, rel=1e-12)


def test_step_rejects_flat_probes_and_zero_power():
    with pytest.raises(ValueError):
        lsq3_step(1.0, 2.0, 3.0, 2.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        lsq3_step(1.0, 1.0, 2.0, 3.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        lsq3_step(1.0, 1.0, 2.0, 3.0, -0.1, 1.0)


def test_step_specializations_match_explicit_forms():
    # the general weighting reduces to the dedicated N=1/2/3 forms
    rng = random.Random(20240817)
    for _ in range(10_000):
        y_minus = rng.uniform(-100.0, 100.0)
        y0 = rng.uniform(-100.0, 100.0)
        y_plus = rng.uniform(-100.0, 100.0)
        if y_plus == y_minus:
            continue
        delta = rng.uniform(1e-6, 1.0)
        x = rng.uniform(-10.0, 10.0)
        slope = (y_plus - y_minus) / (2.0 * delta)
        explicit = {
            1.0: x - 1.0 * (((y_minus + y0 + y_plus) / 3.0) / slope),
            2.0: x - 2.0 * (((y_minus + 2.0 * y0 + y_plus) / 4.0) / slope),
            3.0: x - 3.0 * (((2.0 * y_minus + 5.0 * y0 + 2.0 * y_plus) / 9.0) / slope),
        }
        for n, expected in explicit.items():
            got = lsq3_step(x, y_minus, y0, y_plus, delta, n)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_step_is_schroders_step_plus_the_lsq_term():
    # x - N*y0/s - (N+1)*delta^2*d2/(6s): the first two terms are Schröder's
    # multiple-root step with central differences, the third is the fit's
    rng = random.Random(20261019)
    for _ in range(20_000):
        y_minus, y0, y_plus = (rng.uniform(-100.0, 100.0) for _ in range(3))
        if y_plus == y_minus:
            continue
        x = rng.uniform(-10.0, 10.0)
        delta = 10.0 ** rng.uniform(-8.0, 0.0)
        n = 3.5 - rng.uniform(0.0, 6.5)        # in (-3, 3.5]
        if n == 0.0:
            continue
        s = (y_plus - y_minus) / (2.0 * delta)
        d2 = (y_minus - 2.0 * y0 + y_plus) / delta ** 2
        schroder = n * y0 / s
        lsq_term = (n + 1.0) * delta ** 2 * d2 / (6.0 * s)
        got = lsq3_step(x, y_minus, y0, y_plus, delta, n)
        scale = max(abs(x), abs(schroder), abs(lsq_term), abs(got))
        assert abs(got - (x - schroder - lsq_term)) <= 1e-14 * scale


def test_step_lands_on_root_of_any_line():
    rng = random.Random(7)
    for _ in range(500):
        a = rng.uniform(-5.0, 5.0)
        if abs(a) < 1e-3:
            continue
        b = rng.uniform(-5.0, 5.0)
        x = rng.uniform(-10.0, 10.0)
        delta = rng.uniform(1e-4, 0.9)
        f = lambda t: a * t + b
        got = lsq3_step(x, f(x - delta), f(x), f(x + delta), delta, 1.0)
        assert got == pytest.approx(-b / a, rel=1e-12, abs=1e-9)


# ---------------------------------------------------------------------------
# estimate_power
# ---------------------------------------------------------------------------

def test_power_is_one_on_lines():
    assert estimate_power(4.9, 5.0, 5.1, 0.1) == 1.0
    rng = random.Random(99)
    for _ in range(200):
        a = rng.uniform(-4.0, 4.0)
        if abs(a) < 1e-3:
            continue
        b = rng.uniform(-4.0, 4.0)
        x = rng.uniform(-5.0, 5.0)
        delta = rng.uniform(1e-3, 0.5)
        f = lambda t: a * (t - b)
        assert estimate_power(f(x - delta), f(x), f(x + delta), delta) == 1.0


def test_power_is_two_on_quadratics():
    assert estimate_power(0.81, 1.0, 1.21, 0.1) == pytest.approx(2.0, abs=1e-9)
    rng = random.Random(4242)
    for _ in range(200):
        a = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-3.0, 3.0)
        x = b + rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        delta = rng.uniform(1e-3, 0.5)
        f = lambda t: a * (t - b) ** 2
        got = estimate_power(f(x - delta), f(x), f(x + delta), delta)
        assert got == pytest.approx(2.0, abs=1e-9)


def test_power_falls_back_to_one_when_value_is_zero():
    # y0 = 0 kills the curvature term
    assert estimate_power(-0.1, 0.0, 0.1, 0.1) == 1.0


def test_power_falls_back_to_one_when_delta_squared_underflows():
    # below ~1.5e-162 delta * delta is 0.0; the power must not divide by it
    for delta in (1e-170, 1.5e-162, 5e-324):
        assert delta * delta == 0.0
        assert estimate_power(-1.0, 0.5, 3.0, delta) == 1.0
    # just above the underflow the square is a subnormal and the
    # straight-line answer still holds
    delta = 1e-161
    assert delta * delta != 0.0
    assert estimate_power(-1.0, 0.0, 1.0, delta) == 1.0


def test_power_approaches_three_on_cubics():
    delta = 1e-4
    f = lambda t: (t - 0.5) ** 3
    x = 1.5  # x - b = 1
    got = estimate_power(f(x - delta), f(x), f(x + delta), delta)
    assert abs(got - 3.0) < 1e-3


def test_power_clamps_into_range():
    # (x-2)(x+2)^4 near its quadruple root estimates N about 4.4, which
    # the upper clamp bound caps
    f = lambda t: (t - 2.0) * (t + 2.0) ** 4
    x, delta = -3.0, 0.01
    assert N_CLAMP == (-3.0, 3.5)
    assert estimate_power(f(x - delta), f(x), f(x + delta), delta) == 3.5


# ---------------------------------------------------------------------------
# select_delta
# ---------------------------------------------------------------------------

RATIO = 1e-3  # the fixed-mode floor ratio


def test_select_delta_takes_largest_admissible_beta():
    # beta = 1 gives 0.25 > delta_prev; beta = 0.1 is the largest admissible
    assert select_delta(1.0, 0.5, 0.1, RATIO) == 0.1 * 0.25


def test_select_delta_stagnation_returns_floor():
    # no step: the scale term vanishes and the floor is about one ulp of |x|
    assert select_delta(2.0, 2.0, 0.1, RATIO) == 2e-16 * 2.0
    assert select_delta(0.0, 0.0, 0.1, RATIO) == 1e-300


def test_select_delta_keeps_spacing_below_previous():
    got = select_delta(1.1, 1.0, 1.0, RATIO)
    assert got == pytest.approx(0.01, rel=1e-15)
    got = select_delta(1.1, 1.0, 0.005, RATIO)
    assert got == pytest.approx(0.001, rel=1e-15)


def test_select_delta_floors_tiny_candidates():
    # the beta rule gives 1e-16; the floor is ratio * |step|
    x_k = 1.0 + 1e-8
    assert select_delta(x_k, 1.0, 0.05, RATIO) == RATIO * (x_k - 1.0)
    # the floor's scale term is the smaller of |step| and |x|
    assert select_delta(1e-5, 1.0, 1e-9, RATIO) == RATIO * 1e-5


def test_select_delta_grows_after_a_long_step():
    # even 1e-12 * step^2 is >= 1: no beta qualifies, the spacing grows
    got = select_delta(1e10, 0.0, 0.1, RATIO)
    assert got == pytest.approx(1e8, rel=1e-15)
    # ... unless the floor is larger
    assert select_delta(2e6, 0.0, 0.1, RATIO) == RATIO * 2e6


# ---------------------------------------------------------------------------
# adjust_delta
# ---------------------------------------------------------------------------

def test_adjust_delta_stalls_on_even_symmetry():
    with pytest.raises(SymmetricStallError):
        adjust_delta(partial(evaluate, parse("x^2")), 0.0, 0.1)


def test_adjust_delta_passes_through_on_monotone_function():
    d, ym, yp = adjust_delta(partial(evaluate, parse("x")), 5.0, 0.1)
    assert (d, ym, yp) == (0.1, 4.9, 5.1)


def test_adjust_delta_halves_out_of_domain_probes():
    # ln probes at 0.05 +/- 0.1 fail, then 0.05 +/- 0.05 hits ln(0),
    # then 0.05 +/- 0.025 is valid
    d, ym, yp = adjust_delta(partial(evaluate, parse("ln(x)")), 0.05, 0.1)
    assert d == 0.025
    assert ym == math.log(0.05 - 0.025)
    assert yp == math.log(0.05 + 0.025)


def test_adjust_delta_rejects_a_non_positive_delta():
    with pytest.raises(ValueError, match="delta must be positive"):
        adjust_delta(partial(evaluate, parse("x")), 0.0, 0.0)


def test_adjust_delta_gives_up_deep_inside_invalid_region():
    with pytest.raises(ProbeDomainError):
        adjust_delta(partial(evaluate, parse("sqrt(x)")), -100.0, 0.5)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_cubic_fixed_one():
    out = solve(parse("x^3 + 4*x^2 - 10"), 0.5, SolverConfig(mode="fixed", n_value=1.0))
    assert out.status is Status.CONVERGED
    assert out.root == pytest.approx(1.365230013414100, abs=1e-12)
    assert abs(out.iterations - 8) <= 3


def test_solve_line_lands_immediately():
    # one essentially-exact step, one confirming step, at most one more to
    # absorb rounding of the long first jump
    out = solve(parse("x - 2"), 100.0)
    assert out.status is Status.CONVERGED
    assert out.root == 2.0
    assert 2 <= out.iterations <= 3
    assert abs(out.trace[0].x - 2.0) < 1e-9


def test_solve_arctan_variable_power():
    out = solve(parse("arctan(x)"), 3.0, SolverConfig(mode="variable"))
    assert out.status is Status.CONVERGED
    assert abs(out.root) < 1e-9
    assert abs(out.iterations - 7) <= 3


def test_solve_reports_domain_error_at_start():
    out = solve(parse("ln(x)"), -1.0)
    assert out.status is Status.DOMAIN_ERROR
    assert out.iterations == 0


def test_solve_symmetric_stall_on_pure_square():
    # a peak of |f| that is not a root: every probe pair is symmetric
    out = solve(parse("x^2 + 1"), 0.0)
    assert out.status is Status.SYMMETRIC_STALL


def test_solve_rejects_non_finite_start():
    with pytest.raises(ValueError):
        solve(parse("x"), math.inf)


def test_converged_trace_satisfies_stopping_rule():
    cfg = SolverConfig()
    out = solve(parse("x^3 + 4*x^2 - 10"), 0.5, cfg)
    assert out.status is Status.CONVERGED
    last, prev = out.trace[-1], out.trace[-2]
    assert abs(last.x - prev.x) + abs(last.y) < cfg.tolerance
    assert len(out.trace) == out.iterations


def test_variable_mode_trace_respects_clamp():
    cfg = SolverConfig(mode="variable")
    lo, hi = N_CLAMP
    for source, x0 in [("x^3 + 4*x^2 - 10", 0.5), ("arctan(x)", 3.0), ("log(x)", 3.0)]:
        out = solve(parse(source), x0, cfg)
        for rec in out.trace:
            assert rec.delta > 0.0
            assert lo <= rec.n_used <= hi


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(delta0=1.5)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    # the trace of a stuck run holds max_iter records, so the budget is capped
    assert SolverConfig(max_iter=MAX_ITER_CAP).max_iter == MAX_ITER_CAP == 1_000_000
    with pytest.raises(ValueError, match="at most 1000000"):
        SolverConfig(max_iter=MAX_ITER_CAP + 1)
    with pytest.raises(TypeError):
        SolverConfig(max_iter=50.5)
    with pytest.raises(ValueError):
        SolverConfig(mode="fixed", n_value=0.0)
    for mode in ("fixed", "variable"):
        for n in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="power must be finite"):
                SolverConfig(mode=mode, n_value=n)
    with pytest.raises(ValueError):
        SolverConfig(mode="newton")
    with pytest.raises(ValueError):
        SolverConfig()._replace(delta0=1.5)
    # the clamp, the beta series and the floor are constants, not settings
    assert SolverConfig._fields == (
        "mode", "n_value", "delta0", "tolerance", "max_iter")
    with pytest.raises(TypeError):
        SolverConfig(n_clamp=(2.0, 3.0))
