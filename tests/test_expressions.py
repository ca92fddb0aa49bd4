import math
import random

import pytest

from lsqroots.expressions import (
    Binary,
    Call,
    Constant,
    ParseError,
    Unary,
    Variable,
    differentiate,
    evaluate,
    parse,
    render,
)

# Every function used by the built-in benchmark suite, with an interval on
# which it is smooth and well inside its domain (for finite differencing).
SUITE_SOURCES = [
    ("x^3 + 4*x^2 - 10", 0.3, 3.0),
    ("sin(x)^2 - x^2 + 1", -3.0, -0.5),
    ("(x - 2) * (x + 2)^4", -3.5, 3.5),
    ("(x - 1)^6 - 1", 1.5, 3.5),
    ("sin(x) * exp(x) + ln(x^2 + 1)", -1.0, 1.0),
    ("exp(x^2 + 7*x - 30) - 1", 2.0, 4.0),
    ("x - 3*ln(x)", 0.4, 3.0),
    ("2*x^5 - 3*x^4 + 4*x^3 - x^2 + 10*x - 13", -3.0, 3.0),
    ("log(x)", 0.5, 4.0),
    ("arctan(x)", -3.5, 3.5),
    ("x^5 - x + 1", -3.0, 3.0),
    ("0.5*x^3 - 6*x^2 + 21.5*x - 22", 2.0, 5.5),
    ("cbrt(x)", 0.2, 2.0),
    ("10*x*exp(-x^2) - 1", -2.0, 2.0),
]


def central_diff(e, x, h=1e-6):
    lo = evaluate(e, x - h)
    hi = evaluate(e, x + h)
    assert lo is not None and hi is not None
    return (hi - lo) / (2.0 * h)


def test_parse_polynomial_eval():
    e = parse("x^3 + 4*x^2 - 10")
    assert evaluate(e, 1.0) == -5.0


def test_parse_variable_identity():
    e = parse("x")
    assert isinstance(e, Variable)
    assert evaluate(e, 7.0) == 7.0


def test_parse_sin_combination():
    e = parse("sin(x)^2 - x^2 + 1")
    assert evaluate(e, 0.0) == 1.0


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert evaluate(parse("-x^2"), 3.0) == -9.0


def test_power_accepts_negative_exponent():
    assert evaluate(parse("2^-3"), 0.0) == 0.125


def test_division_left_associative():
    assert evaluate(parse("8/4/2"), 0.0) == 1.0


def test_whitespace_and_scientific_notation():
    assert evaluate(parse("  1e-2 + 2.5E+1 "), 0.0) == 25.01


@pytest.mark.parametrize("bad, pos", [
    ("x +", 3),
    ("(x + 1", 6),
    ("x * * 2", 4),
    ("", 0),
    ("1e999", 0),           # a literal that overflows a double
    ("x + 2.5E+308", 4),
])
def test_syntax_error_carries_position(bad, pos):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.position == pos


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError):
        parse("sin(y)")
    with pytest.raises(ParseError):
        parse("foo(x)")


def test_non_finite_constant_evaluates_to_none():
    for value in (math.inf, -math.inf, math.nan):
        assert evaluate(Constant(value), 0.0) is None
        # even where arithmetic on it would give a finite number
        assert evaluate(Call("arctan", Constant(value)), 0.0) is None
        assert evaluate(Binary("/", Variable(), Constant(value)), 1.0) is None


def test_non_finite_x_evaluates_to_none():
    for value in (math.inf, -math.inf, math.nan):
        assert evaluate(parse("x"), value) is None
        # even where arithmetic on it would give a finite number
        assert evaluate(parse("exp(-x)"), value) is None
        assert evaluate(parse("arctan(x)"), value) is None
        assert evaluate(parse("2"), value) is None


def test_constant_folded_to_infinity_evaluates_to_none():
    # d/dx (1e308*x + 1e308*x) folds to the constant 1e308 + 1e308 = inf
    half = Binary("*", Constant(1e308), Variable())
    d = differentiate(Binary("+", half, half))
    assert d == Constant(math.inf)
    assert evaluate(d, 1.0) is None


def test_eval_log_out_of_domain():
    assert evaluate(parse("ln(x)"), -1.0) is None
    assert evaluate(parse("ln(x)"), 0.0) is None


def test_eval_real_cube_root():
    v = evaluate(parse("cbrt(x)"), -8.0)
    assert v == pytest.approx(-2.0, rel=1e-12)


def test_eval_gauss_bump_at_zero():
    assert evaluate(parse("10*x*exp(-x^2) - 1"), 0.0) == -1.0


def test_eval_division_by_zero():
    assert evaluate(parse("1/(x - 2)"), 2.0) is None


def test_eval_fractional_power_of_negative_base():
    assert evaluate(parse("x^0.5"), -4.0) is None
    assert evaluate(parse("x^2"), -4.0) == 16.0


def test_eval_overflow_is_domain_error():
    assert evaluate(parse("exp(x)"), 1000.0) is None


def test_domain_error_propagates_through_subexpressions():
    assert evaluate(parse("1 + 0*ln(x)"), -1.0) is None
    assert evaluate(parse("sin(x) + sqrt(x)"), -2.0) is None


def test_derivative_of_sin_matches_cos():
    d = differentiate(parse("sin(x)"))
    for x in (-2.0, -0.3, 0.0, 1.1, 2.7):
        assert evaluate(d, x) == pytest.approx(math.cos(x), rel=1e-12)


def test_derivative_of_polynomial():
    d = differentiate(parse("x^3 + 4*x^2 - 10"))
    assert evaluate(d, 1.0) == pytest.approx(11.0, rel=1e-12)


def test_derivative_of_arctan():
    d = differentiate(parse("arctan(x)"))
    assert evaluate(d, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert evaluate(d, 2.0) == pytest.approx(0.2, rel=1e-12)


def test_derivative_of_cbrt():
    d = differentiate(parse("cbrt(x)"))
    # d/dx x^(1/3) at 8 is 1/(3 * 8^(2/3)) = 1/12
    assert evaluate(d, 8.0) == pytest.approx(1.0 / 12.0, rel=1e-12)


@pytest.mark.parametrize("source, lo, hi", SUITE_SOURCES)
def test_derivative_matches_central_differences(source, lo, hi):
    e = parse(source)
    d = differentiate(e)
    rng = random.Random(hash(source) & 0xFFFF)
    for _ in range(20):
        x = rng.uniform(lo, hi)
        fd = central_diff(e, x)
        sym = evaluate(d, x)
        assert sym is not None
        assert abs(sym - fd) / max(1.0, abs(fd)) < 1e-6


def test_render_constant():
    assert render(Constant(2.0)) == "2"


def test_render_binary():
    assert render(Binary("+", Variable(), Constant(1.0))) == "(x + 1)"


def test_render_unary():
    assert render(Unary("-", Variable())) == "(-x)"


def test_derivative_survives_render_round_trip():
    d = differentiate(parse("x^2"))
    again = parse(render(d))
    assert evaluate(again, 3.0) == 6.0


@pytest.mark.parametrize("source, lo, hi", SUITE_SOURCES)
def test_parse_render_fixpoint(source, lo, hi):
    e = parse(source)
    e2 = parse(render(e))
    e3 = parse(render(e2))
    rng = random.Random(len(source))
    for _ in range(100):
        x = rng.uniform(lo - 1.0, hi + 1.0)
        a, b, c = evaluate(e, x), evaluate(e2, x), evaluate(e3, x)
        # bit-identical, including agreement on domain errors
        assert a == b == c or (a is None and b is None and c is None)


def test_evaluation_deterministic():
    e = parse("sin(x) * exp(x) + ln(x^2 + 1)")
    xs = [0.1 * k for k in range(-20, 21)]
    first = [evaluate(e, x) for x in xs]
    second = [evaluate(e, x) for x in xs]
    assert first == second
