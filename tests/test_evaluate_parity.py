"""``evaluate`` against a reference tree-walking interpreter, bit for bit.

``reference_evaluate`` walks the tree recursively and applies the
documented semantics directly: IEEE double operations, left operand
before right, and ``None`` for any step that leaves the real domain or
produces a non-finite value (a non-finite constant or ``x`` included).  The
compiled closures in ``lsqroots.expressions`` must agree with it on every
result, including the sign of zero and where ``None`` appears, and so
must the one function that a solver compiles from a whole tree.
"""

import copy
import itertools
import math
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsqroots import expressions, outcomes
from lsqroots.bench import builtin_suite
from lsqroots.expressions import (
    FUNCTIONS,
    Binary,
    Call,
    Constant,
    Unary,
    Variable,
    _cbrt,
    _form_source,
    differentiate,
    evaluate,
    parse,
    render,
)
from lsqroots.outcomes import compile_tree


class _Off(Exception):
    pass


def _walk(e, x):
    if isinstance(e, Constant):
        if not math.isfinite(e.value):
            raise _Off
        return e.value
    if isinstance(e, Variable):
        return x
    if isinstance(e, Unary):
        return -_walk(e.operand, x)
    if isinstance(e, Binary):
        a = _walk(e.left, x)
        b = _walk(e.right, x)
        op = e.op
        if op == "+":
            v = a + b
        elif op == "-":
            v = a - b
        elif op == "*":
            v = a * b
        elif op == "/":
            if b == 0.0:
                raise _Off
            v = a / b
        else:  # '^'
            try:
                v = math.pow(a, b)
            except (ValueError, OverflowError):
                raise _Off from None
        if not math.isfinite(v):
            raise _Off
        return v
    u = _walk(e.arg, x)
    name = e.name
    try:
        if name == "sin":
            v = math.sin(u)
        elif name == "cos":
            v = math.cos(u)
        elif name == "tan":
            v = math.tan(u)
        elif name == "arctan":
            v = math.atan(u)
        elif name == "exp":
            v = math.exp(u)
        elif name in ("ln", "log"):
            v = math.log(u)
        elif name == "log10":
            v = math.log10(u)
        elif name == "abs":
            v = abs(u)
        elif name == "cbrt":
            v = _cbrt(u)
        else:  # sqrt
            v = math.sqrt(u)
    except (ValueError, OverflowError):
        raise _Off from None
    if not math.isfinite(v):
        raise _Off
    return v


def reference_evaluate(e, x):
    if not math.isfinite(x):
        return None
    try:
        return _walk(e, x)
    except _Off:
        return None


def bits(v):
    """``None`` or the exact bit pattern of a float (so 0.0 != -0.0)."""
    return None if v is None else v.hex()


def assert_parity(e, xs):
    for x in xs:
        assert bits(evaluate(e, x)) == bits(reference_evaluate(e, x)), (e, x)


def exact(v):
    """``None``, the bits of a float or an int with its type."""
    return v if v is None or isinstance(v, int) else v.hex()


def whole(e):
    """A copy of ``e`` compiled as a solver compiles it: one function for
    the whole tree, which ``evaluate`` then runs."""
    clone = copy.deepcopy(e)
    compile_tree(clone)
    assert "_tree" in vars(clone)
    return clone


def assert_tables_agree(e, xs):
    """A whole-tree copy of ``e`` compiled with ``_TREES`` as earlier trees
    left it, and one compiled with ``_TREES`` emptied, give the same bits,
    or both ``None``, at each of ``xs``."""
    warm = whole(e)
    with mock.patch.object(outcomes, "_TREES", {}):
        cold = whole(e)
    for x in xs:
        assert exact(evaluate(warm, x)) == exact(evaluate(cold, x)), (e, x)


def assert_granularities_agree(e, xs):
    """``e``'s node closures and a whole-tree copy give the same bits, or
    both ``None``, at each of ``xs``."""
    w = whole(e)
    for x in xs:
        assert exact(evaluate(w, x)) == exact(evaluate(e, x)), (e, x)


# ---------------------------------------------------------------------------
# Random trees
# ---------------------------------------------------------------------------

numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0, 10.0]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)

trees = st.recursive(
    st.one_of(st.builds(Constant, numbers), st.just(Variable())),
    lambda kids: st.one_of(
        st.builds(Unary, st.just("-"), kids),
        st.builds(Binary, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
    ),
    max_leaves=20,
)

points = st.lists(st.one_of(numbers, st.sampled_from([math.inf, -math.inf, math.nan])),
                  min_size=1, max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(trees, points)
def test_random_trees_match_reference(e, xs):
    assert_parity(e, xs)
    assert_parity(whole(e), xs)
    assert_parity(differentiate(e), xs)
    assert_tables_agree(e, xs)
    assert_tables_agree(differentiate(e), xs)
    again = parse(render(e))
    for x in xs:
        assert bits(evaluate(again, x)) == bits(reference_evaluate(e, x)), (render(e), x)


# Besides the numbers above, constants that only a tree built by hand can
# hold: infinities, nan, ints beyond float range and small ints; and int
# points, which the operators keep ints.
wide_numbers = st.one_of(numbers, st.sampled_from(
    [math.inf, -math.inf, math.nan, 10 ** 400, -10 ** 400, 0, 3, -7]))

wide_trees = st.recursive(
    st.one_of(st.builds(Constant, wide_numbers), st.just(Variable())),
    lambda kids: st.one_of(
        st.builds(Unary, st.just("-"), kids),
        st.builds(Binary, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
    ),
    max_leaves=20,
)

wide_points = st.lists(st.one_of(numbers, st.sampled_from(
    [math.inf, -math.inf, math.nan, 0, 3, -7, 2 ** 60, 10 ** 400])), min_size=1, max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(wide_trees, wide_points)
def test_a_solver_compiled_tree_matches_its_node_closures(e, xs):
    assert_granularities_agree(e, xs)
    assert_granularities_agree(differentiate(e), xs)
    assert_tables_agree(e, xs)
    assert_tables_agree(differentiate(e), xs)


def test_suite_expressions_and_derivatives_match_reference():
    xs = [k / 16.0 for k in range(-80, 81)] + [1e-300, -1e-300, 1e300, 700.0, -700.0,
                                              math.inf, -math.inf, math.nan]
    problems = builtin_suite()
    assert len(problems) == 14
    for problem in problems:
        f = problem.expression
        assert_parity(f, xs)
        assert_parity(differentiate(f), xs)
        assert_parity(differentiate(differentiate(f)), xs)


# ---------------------------------------------------------------------------
# Where the evaluator checks finiteness, and where it relies on non-finite
# values staying non-finite
# ---------------------------------------------------------------------------

XS = [-10.0, -9.0, -2.0, -1.0, -0.5, -0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 3.0, 9.0, 10.0,
      1e300, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("text", [
    "arctan(x*1e308*10)",             # a call maps inf to a finite value
    "1/(x*1e308*10)",                 # a/inf = 0
    "(x*1e308*10)^0",                 # inf^0 = 1
    "exp(-(x*1e308*10))",             # exp(-inf) = 0
    "0*(x*1e308*10)",                 # 0*inf is nan: no check needed
    "(x*1e308*10)-(x*1e308*10)",      # inf-inf is nan: no check needed
    "-(x*1e308*10)",                  # -inf stays infinite
    "1/(x-x)",                        # ZeroDivisionError
    "(x-9)^(1/3)",                    # ValueError: fractional power of a negative base
    "exp(1000*x)",                    # OverflowError
])
def test_finiteness_checks_match_reference(text):
    assert_parity(parse(text), XS)


# Operands by how a parent reads them: the variable, finite constants, and
# closures, one of which overflows to inf for |x| > 1.8.
OPERANDS = [
    Variable(),
    Constant(0.0), Constant(-0.0), Constant(0.5), Constant(2.0), Constant(-3.0),
    Binary("*", Variable(), Constant(1e308)),
    Binary("-", Variable(), Constant(1.0)),
    Call("ln", Variable()),
    Unary("-", Variable()),
]


@pytest.mark.parametrize("op", "+-*/^")
def test_every_operand_pair_matches_reference(op):
    for left in OPERANDS:
        for right in OPERANDS:
            assert_parity(Binary(op, left, right), XS)


@pytest.mark.parametrize("operand", OPERANDS, ids=repr)
def test_unary_minus_and_calls_match_reference(operand):
    assert_parity(Unary("-", operand), XS)
    for name in FUNCTIONS:
        assert_parity(Call(name, operand), XS)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_constant_anywhere_is_off_domain(value):
    bad = Constant(value)
    trees = [bad, Unary("-", bad)] + [Call(name, bad) for name in FUNCTIONS]
    for op in "+-*/^":
        for other in OPERANDS:
            trees += [Binary(op, bad, other), Binary(op, other, bad)]
    # and below nodes that would hide it without a check
    trees += [Binary("^", Binary("+", bad, Variable()), Constant(0.0)),
              Binary("/", Constant(1.0), Binary("*", Variable(), bad)),
              Call("arctan", Unary("-", bad))]
    for e in trees:
        assert_parity(e, XS)
        assert all(evaluate(e, x) is None for x in XS), e
        assert_granularities_agree(e, XS)


# Operands of the binary node forms, by kind: finite constants with signed
# zeros, subnormals and values whose sum or product overflows, and
# closures, the hand-built non-finite constants among them.
KIND_OPERANDS = {
    "x": [Variable()],
    "c": [Constant(v) for v in (0.0, -0.0, 5e-324, -5e-324, 2.5, 1e308, -1.7976931348623157e308)],
    "f": [Unary("-", Variable()), Binary("*", Variable(), Constant(1e308)),
          Call("abs", Variable()), Constant(math.inf), Constant(-math.inf), Constant(math.nan)],
}
# The same kinds of value for x, and ints, which a ``+ - *`` node keeps ints
INLINE_XS = [0.0, -0.0, 5e-324, -5e-324, 0.5, -2.0, 1e308, -1.7976931348623157e308,
             math.inf, math.nan, 0, 3, -7, 2 ** 60]


FORMS = ["".join(form) for form in itertools.product("+-*/^", "xcf", "xcf")]


@pytest.mark.parametrize("key", FORMS)
def test_every_inlined_node_matches_reference(key):
    op, ka, kb = key
    for left in KIND_OPERANDS[ka]:
        for right in KIND_OPERANDS[kb]:
            e = Binary(op, left, right)
            for x in INLINE_XS:
                assert exact(evaluate(e, x)) == exact(reference_evaluate(e, x)), (e, x)
            # the node was compiled to its form's generated closure
            inner = expressions._NODES[op, ka, kb](None, None).__code__
            assert e.__dict__["_compiled"].__code__ is inner, e
            assert_granularities_agree(e, INLINE_XS)


def test_the_generated_forms_read_as_written():
    assert len(FORMS) == 45
    assert _form_source("+", "f", "c") == ("add_fc", (
        "def add_fc(a, b):\n"
        "    return lambda x: a(x) + b\n"))
    assert _form_source("^", "x", "f") == ("pow_xf", (
        "def pow_xf(a, b):\n"
        "    def node(x):\n"
        "        v = b(x)\n"
        "        if isfinite(v):\n"
        "            return math.pow(x, v)\n"
        "        raise ValueError\n"
        "    return node\n"))
    checked = [key for key in FORMS if "isfinite" in _form_source(*key)[1]]
    assert checked == ["/xf", "/cf", "/ff", "^xf", "^cf", "^fx", "^fc", "^ff"]


@pytest.mark.parametrize("sign", [1, -1])
def test_an_int_constant_beyond_float_range_reads_as_inf(sign):
    huge, inf = Constant(sign * 10 ** 400), Constant(sign * math.inf)
    pairs = [(huge, inf), (Unary("-", huge), Unary("-", inf))]
    for op in "+-*/^":
        for other in OPERANDS:
            pairs += [(Binary(op, huge, other), Binary(op, inf, other)),
                      (Binary(op, other, huge), Binary(op, other, inf))]
    for e, like in pairs:
        assert "(0 / 0)" in render(e)
        assert render(e) == render(like)
        assert all(evaluate(e, x) is None for x in XS + [0, 3]), e
        assert_granularities_agree(e, XS + [0, 3])
        de, dlike = differentiate(e), differentiate(like)
        for x in XS:
            assert bits(evaluate(de, x)) == bits(evaluate(dlike, x)), (e, x)


# ---------------------------------------------------------------------------
# Whole-tree factories, kept by the shape of the tree
# ---------------------------------------------------------------------------

def _sum(c=1.0):
    return Binary("+", Variable(), Constant(c))


_U, _V = _sum(), Binary("+", _sum(), Variable())
# Trees that differ only where a shape key could lose track: sharing, the
# two minuses, a constant's kind, a leaf root.
APART = {
    "a node held twice, two equal nodes": (Binary("*", _U, _U), Binary("*", _sum(), _sum())),
    "the same entries, other operands": (Binary("*", _V, _V), Binary("*", _V, _V.left)),
    "unary minus, binary minus": (Unary("-", _U), Binary("-", _U, _U)),
    "(x-1)^2, -x": (Binary("^", Binary("-", Variable(), Constant(1.0)), Constant(2.0)),
                    Unary("-", Variable())),
    "a finite divisor, a non-finite one": (Binary("/", Variable(), Constant(2.0)),
                                           Binary("/", Variable(), Constant(math.inf))),
    "a constant root, an x root": (Constant(2.0), Variable()),
}


@pytest.mark.parametrize("pair", list(APART), ids=list(APART))
def test_trees_of_other_shapes_get_factories_of_their_own(pair):
    for first, second in (APART[pair], APART[pair][::-1]):
        with mock.patch.object(outcomes, "_TREES", {}):
            compiled = [whole(first), whole(second)]
            assert len(outcomes._TREES) == 2
        codes = [vars(e)["_compiled"].__code__ for e in compiled]
        assert codes[0] is not codes[1]
        for e in compiled:
            assert_parity(e, XS)
            assert_granularities_agree(e, XS + [0, 3])


def test_sin_and_cos_of_one_operand_share_a_factory_but_not_a_function():
    u = Binary("*", Constant(3.0), Variable())
    with mock.patch.object(outcomes, "_TREES", {}):
        sin, cos = whole(Call("sin", u)), whole(Call("cos", u))
        assert len(outcomes._TREES) == 1
    f, g = vars(sin)["_compiled"], vars(cos)["_compiled"]
    assert f is not g and f.__code__ is g.__code__
    assert_parity(sin, XS)
    assert_parity(cos, XS)
    assert evaluate(sin, 0.5) == math.sin(1.5) and evaluate(cos, 0.5) == math.cos(1.5)


# ---------------------------------------------------------------------------
# An evaluated expression is still a plain value
# ---------------------------------------------------------------------------

def test_evaluated_expression_pickles_copies_and_compares_as_fresh():
    text = "sin(x) * exp(x) + ln(x^2 + 1)"
    fresh = parse(text)
    used = parse(text)
    assert evaluate(used, 0.5) is not None
    assert pickle.dumps(used) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used), copy.copy(used)):
        assert clone == fresh
        assert hash(clone) == hash(fresh)
        assert bits(evaluate(clone, 0.5)) == bits(evaluate(fresh, 0.5))
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    # the frozen-dataclass forms: repr, no writes, positional match
    assert repr(parse("x + 1")) == "Binary(op='+', left=Variable(), right=Constant(value=1.0))"
    for node, field in ((used, "op"), (used.left, "left"), (Constant(1.0), "value"),
                        (Variable(), "value")):
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert used == fresh
    match used:
        case Binary("+", Binary("*", Call("sin", Variable()), _), Call(name, _)):
            assert name == "ln"
        case _:
            pytest.fail(f"no positional match for {used!r}")
