import copy
import math
import pickle
import random
import struct
import sys
import threading

import pytest

import lsqroots.expressions as expressions
from lsqroots.cli import main
from lsqroots.outcomes import compile_tree
from lsqroots.expressions import (
    FUNCTIONS,
    MAX_DEPTH,
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

# With SUITE_SOURCES, a call of every function and each rule of the
# operators, the quotient rule and the general u^v rule included.
RULE_SOURCES = [
    ("cos(x)", -3.0, 3.0),
    ("tan(x)", -1.2, 1.2),
    ("log10(x)", 0.5, 4.0),
    ("abs(x)", -3.0, -0.5),
    ("abs(x)", 0.5, 3.0),
    ("sqrt(x)", 0.5, 4.0),
    ("x / (x + 2)", -1.0, 3.0),
    ("x ^ x", 0.5, 2.0),
    ("2 ^ sin(x)", -3.0, 3.0),
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
    # whitespace is whatever str.isspace accepts
    assert evaluate(parse("1\x1c+\u3000x"), 2.0) == 3.0


@pytest.mark.parametrize("bad, pos", [
    ("x +", 3),
    ("(x + 1", 6),
    ("x * * 2", 4),
    ("", 0),
    ("1e999", 0),           # a literal that overflows a double
    ("x + 2.5E+308", 4),
    ("x)", 1),
    ("1.2.3", 0),
    ("2ex", 1),             # 'e' without digits is not an exponent
    ("sin(" + "-" * MAX_DEPTH + "x)", 0),
])
def test_syntax_error_carries_position(bad, pos):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.position == pos


@pytest.mark.parametrize("bad, message", [
    ("x)", "unexpected character ')' (at position 1)"),
    ("1.2.3", "invalid number '1.2.3' (at position 0)"),
    ("2ex", "unexpected character 'e' (at position 1)"),
    # the call's own depth check: the minuses alone are MAX_DEPTH deep
    ("sin(" + "-" * MAX_DEPTH + "x)", f"nested deeper than {MAX_DEPTH} levels (at position 0)"),
    # a digit is an ASCII digit, whatever str.isdigit or float accept
    ("\u0663", "unexpected character '\u0663' (at position 0)"),
    ("\u00b2", "unexpected character '\u00b2' (at position 0)"),
    ("3\u00b2", "unexpected character '\u00b2' (at position 1)"),
    ("x\u0663", "unknown identifier 'x\u0663' (at position 0)"),
])
def test_syntax_error_names_what_it_rejects(bad, message):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert str(err.value).endswith(message)


def test_power_exponent_minus_signs_fold_from_the_right():
    two, three, x = Constant(2.0), Constant(3.0), Variable()
    assert parse("2^-3^-x") == Binary("^", two, Unary("-", Binary("^", three, Unary("-", x))))
    assert parse("-2^--x") == Unary("-", Binary("^", two, Unary("-", Unary("-", x))))


# Text nested n levels deep, one kind of nesting each.
NESTINGS = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "calls": lambda n: "sin(" * n + "x" + ")" * n,
    "unary minus": lambda n: "-" * n + "x",
    "power chain": lambda n: "^".join(["x"] * (n + 1)),
    "sum chain": lambda n: "+".join(["x"] * (n + 1)),
    "product chain": lambda n: "*".join(["x"] * (n + 1)),
    "quotient chain": lambda n: "/".join(["x"] * (n + 1)),
    "negated groups": lambda n: "(-" * n + "x" + ")" * n,
    "power groups": lambda n: "x^(" * n + "x" + ")" * n,
    "negated call": lambda n: "sin(" + "-" * (n - 1) + "x)",
    # each '^-' is two levels: the power and the minus on its exponent
    "negative exponents": lambda n: "-" * (n % 2) + "x^-" * (n // 2) + "x",
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_deepest_accepted_nesting_works_end_to_end(kind):
    e = parse(NESTINGS[kind](MAX_DEPTH))
    y = evaluate(e, 0.9)
    assert y is not None
    d = differentiate(e)
    assert evaluate(d, 0.9) is not None
    assert evaluate(parse(render(e)), 0.9) == y


@pytest.mark.parametrize("kind", NESTINGS)
def test_deepest_accepted_nesting_compares_prints_pickles_and_copies(kind):
    # Value semantics recurse once per level, like evaluate does; at the
    # parser's depth bound they stay inside the default recursion limit.
    text = NESTINGS[kind](MAX_DEPTH)
    e, fresh = parse(text), parse(text)
    y = evaluate(e, 0.9)
    assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
    for clone in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert clone == fresh and hash(clone) == hash(fresh)
        assert evaluate(clone, 0.9) == y


@pytest.mark.parametrize("kind", NESTINGS)
def test_one_level_deeper_is_a_parse_error(kind, capsys):
    text = NESTINGS[kind](MAX_DEPTH + 1)
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
        parse(text)
    assert main(["solve", f"--expr={text}", "--x0", "1", "--method", "newton"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lsqroots: bad --expr: expression nested deeper")


def _frame_depth():
    """The number of frames on the stack of the caller, itself included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("kind", NESTINGS)
def test_deepest_accepted_nesting_parses_in_a_small_stack(kind):
    # The parser recurses only into parentheses, two frames a level: 100
    # groups or calls reach 203 frames above the caller.  A parser that
    # recursed through every precedence level needed 609 for 100 groups
    # and 709 for 100 calls, which this limit does not leave room for.
    text = NESTINGS[kind](MAX_DEPTH)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 400)
    try:
        parse(text)
    finally:
        sys.setrecursionlimit(limit)


def test_nesting_far_past_the_limit_is_a_parse_error():
    for kind, make in NESTINGS.items():
        with pytest.raises(ParseError):
            parse(make(5000))


def sum_chain(n):
    """``x + x + ... + x``, ``n`` ``Binary("+")`` nodes deep, built by hand:
    the parser's depth bound does not apply."""
    e = Variable()
    for _ in range(n):
        e = Binary("+", e, Variable())
    return e


WALKS = {"evaluate": lambda e: evaluate(e, 1.0), "differentiate": differentiate,
         "render": render}


@pytest.mark.parametrize("action", WALKS)
def test_a_hand_built_tree_too_deep_to_walk_is_a_value_error(action):
    e = sum_chain(5000)
    for _ in range(2):      # a failed walk leaves no half-built cache behind
        with pytest.raises(ValueError, match=f"nested too deeply to {action}"):
            WALKS[action](e)
    e = sum_chain(100)
    assert evaluate(e, 1.0) == 101.0
    assert differentiate(e) == Constant(101.0)
    assert render(e).count("+") == 100


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


@pytest.mark.parametrize("source, x", [
    ("x*x", 10 ** 200),       # an int result beyond float range
    ("x", 10 ** 400),         # an int x beyond float range
    ("x + 1", -10 ** 400),
    ("ln(x*x)", 10 ** 200),
])
def test_an_int_beyond_float_range_evaluates_to_none(source, x):
    assert evaluate(parse(source), x) is None


def test_a_small_int_x_is_not_converted():
    v = evaluate(parse("x"), 2)
    assert v == 2 and type(v) is int


def test_domain_error_propagates_through_subexpressions():
    assert evaluate(parse("1 + 0*ln(x)"), -1.0) is None
    assert evaluate(parse("sin(x) + sqrt(x)"), -2.0) is None


def test_nodes_of_different_classes_are_unequal():
    assert (Constant(1.0) == Variable()) is False
    assert Constant(1.0).__eq__(Variable()) is NotImplemented


def test_derivative_folds_a_unit_power_to_a_constant():
    # x^1 -> 1 * x^0 * 1, and x^0 folds to 1
    assert differentiate(parse("x^1")) == Constant(1.0)


def test_derivative_is_built_once_per_expression():
    e = parse("x^3 + 4*x^2 - 10")
    d = differentiate(e)
    assert differentiate(e) is d
    assert differentiate(parse("x^3 + 4*x^2 - 10")) is not d
    assert differentiate(d) is differentiate(d)


def test_differentiated_expression_pickles_copies_and_compares_as_fresh():
    text = "sin(x) * exp(x) + ln(x^2 + 1)"
    fresh = parse(text)
    used = parse(text)
    d = differentiate(used)
    assert evaluate(d, 0.5) is not None
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used), copy.copy(used)):
        assert clone == fresh and hash(clone) == hash(fresh)
        assert differentiate(clone) == d
        assert differentiate(clone) is not d
        assert evaluate(differentiate(clone), 0.5) == evaluate(d, 0.5)


def paired_nodes(a, b):
    """The nodes of two trees of the same shape, in step, root first."""
    yield a, b
    for name in a._fields:
        u = getattr(a, name)
        if isinstance(u, (Constant, Variable, Unary, Binary, Call)):
            yield from paired_nodes(u, getattr(b, name))


def bits(v):
    return None if v is None else v.hex()


# The suite's expressions, and four whose derivatives reuse subtrees of
# the expression.
CACHE_SOURCES = [source for source, _, _ in SUITE_SOURCES] + [
    "sin(x^2) / (x^2 + 1)", "x^x", "sqrt(abs(x - 1)) * log10(x^2 + 2)",
    "tan(x)^3 - cbrt(x) * exp(-x)",
]


@pytest.mark.parametrize("text", CACHE_SOURCES)
def test_compiled_subtrees_pickle_copy_compare_and_evaluate_as_fresh(text):
    e = parse(text)
    d = differentiate(e)
    evaluate(e, 0.7)
    evaluate(d, 0.7)
    # and the roots compiled whole, as the solvers compile them
    compile_tree(e)
    compile_tree(d)
    pairs = [*paired_nodes(e, parse(text)), *paired_nodes(d, differentiate(parse(text)))]
    assert any("_compiled" in vars(used) for used, _ in pairs[1:])
    assert "_tree" in vars(e) and "_tree" in vars(d)
    for used, fresh in pairs:
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        for clone in (pickle.loads(pickle.dumps(used)), copy.copy(used), copy.deepcopy(used)):
            assert clone == fresh and hash(clone) == hash(fresh)
            assert "_compiled" not in vars(clone) and "_tree" not in vars(clone)
        deep = copy.deepcopy(used)
        assert all("_compiled" not in vars(node) for node, _ in paired_nodes(deep, deep))
    for used, fresh in pairs:
        for x in (-2.5, -0.0, 0.7, 1.0, 3.0):
            assert bits(evaluate(used, x)) == bits(evaluate(fresh, x))


def compiled_nodes(e):
    """The ids of the distinct nodes of ``e`` that compile to a closure of
    their own: all but the variable and finite constants."""
    return {id(n) for n, _ in paired_nodes(e, e)
            if not isinstance(n, Variable)
            and not (isinstance(n, Constant) and math.isfinite(n.value))}


@pytest.mark.parametrize("text", CACHE_SOURCES)
def test_a_derivative_compiles_only_the_nodes_its_expression_lacks(monkeypatch, text):
    compile_ = expressions._compile
    calls = []
    monkeypatch.setattr(expressions, "_compile", lambda n: calls.append(id(n)) or compile_(n))
    for evaluate_first in (False, True):
        e = parse(text)
        if evaluate_first:
            evaluate(e, 0.7)
        held = compiled_nodes(e) if evaluate_first else set()
        d = differentiate(e)
        assert not isinstance(d, (Variable, Constant))
        calls.clear()
        evaluate(d, 0.7)
        # each node once, a node the tree holds twice included
        assert sorted(calls) == sorted(compiled_nodes(d) - held)


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


def test_the_derivative_sources_call_every_function():
    trees = [parse(source) for source, _, _ in SUITE_SOURCES + RULE_SOURCES]
    called = {node.name for e in trees for node, _ in paired_nodes(e, e)
              if isinstance(node, Call)}
    assert called == set(FUNCTIONS)


@pytest.mark.parametrize("source, lo, hi", SUITE_SOURCES + RULE_SOURCES)
def test_derivative_matches_central_differences(source, lo, hi):
    e = parse(source)
    d = differentiate(e)
    rng = random.Random(source)
    for _ in range(20):
        x = rng.uniform(lo, hi)
        fd = central_diff(e, x)
        sym = evaluate(d, x)
        assert sym is not None
        assert abs(sym - fd) / max(1.0, abs(fd)) < 1e-6


def test_render_constant():
    assert render(Constant(2.0)) == "2"


def test_render_keeps_the_sign_of_a_negative_constant():
    # "-2 ^ x" would parse as -(2^x)
    e = Binary("^", Constant(-2.0), Variable())
    assert render(e) == "((-2) ^ x)"
    assert evaluate(parse(render(e)), 2.0) == evaluate(e, 2.0) == 4.0
    zero = evaluate(parse(render(Constant(-0.0))), 1.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == -1.0
    assert render(Constant(-2.5)) == "(-2.5)"


def test_render_non_finite_constant_parses_off_domain():
    for value in (math.inf, -math.inf, math.nan):
        e = Binary("+", Variable(), Constant(value))
        again = parse(render(e))
        for x in (-1.0, 0.0, 2.5):
            assert evaluate(again, x) is evaluate(e, x) is None


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


# Trees with subtrees that occur twice (x^2, sin(x)), so two nodes of one
# tree can race for the same compile.
SHARED_TEXTS = [
    "sin(x)^2 + cos(3*x) / (x - 0.5) - sin(x)",
    "exp(-x^2) * ln(abs(x) + 1) - x^3 / (x^2 + 1)",
    "arctan(x)^x + sqrt(x*x + 1) * cbrt(x - 2)",
    "tan(x/4) - log10(x^2 + 2) * (1 - x)^3",
]


def _grid_and_derivative(e, grid):
    """Bits of ``e`` on the grid, the derivative's repr and its bits."""
    def bits(v):
        return v if v is None else struct.pack("<d", v)
    d = differentiate(e)
    return [bits(evaluate(e, x)) for x in grid], repr(d), [bits(evaluate(d, x)) for x in grid]


def test_a_fresh_tree_shared_by_four_threads_gives_single_thread_bits(monkeypatch):
    grid = [-3.0 + 0.25 * k for k in range(25)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for text in SHARED_TEXTS * 5:
            want = _grid_and_derivative(parse(text), grid)
            shared = parse(text)
            # no binary node form is generated yet: the threads race on them too
            monkeypatch.setattr(expressions, "_NODES", {})
            start = threading.Barrier(4)
            got = [None] * 4

            def work(i):
                start.wait(timeout=30)
                got[i] = _grid_and_derivative(shared, grid)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [want] * 4, text
            assert expressions._NODES, text
    finally:
        sys.setswitchinterval(interval)
