"""``differentiate`` against a frozen copy of the earlier smart constructors
and derivative rules.

The frozen copy below tests constants through ``_is_const`` and builds a
new ``Constant`` for every 0, 1 and 2 the rules write; the package tests
each operand for a constant once and shares one node for each of those
three values.  Both must give the same tree: the same shape, the same
operators and functions, and the same bits for every constant, the sign
of a zero and a NaN included.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsqroots.expressions import (
    FUNCTIONS,
    Binary,
    Call,
    Constant,
    Unary,
    Variable,
    _add,
    _div,
    _mul,
    _pow,
    _sub,
    differentiate,
)


def frozen_is_const(e, v=None):
    return isinstance(e, Constant) and (v is None or e.value == v)


def frozen_add(a, b):
    if isinstance(a, Constant) and isinstance(b, Constant):
        return Constant(a.value + b.value)
    if frozen_is_const(a, 0.0):
        return b
    if frozen_is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def frozen_sub(a, b):
    if isinstance(a, Constant) and isinstance(b, Constant):
        return Constant(a.value - b.value)
    if frozen_is_const(b, 0.0):
        return a
    if frozen_is_const(a, 0.0):
        return Unary("-", b)
    return Binary("-", a, b)


def frozen_mul(a, b):
    if isinstance(a, Constant) and isinstance(b, Constant):
        v = a.value * b.value
        if math.isfinite(v):
            return Constant(v)
    if frozen_is_const(a, 0.0) or frozen_is_const(b, 0.0):
        return Constant(0.0)
    if frozen_is_const(a, 1.0):
        return b
    if frozen_is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def frozen_div(a, b):
    if frozen_is_const(a, 0.0):
        return Constant(0.0)
    if frozen_is_const(b, 1.0):
        return a
    if isinstance(a, Constant) and isinstance(b, Constant) and b.value != 0.0:
        v = a.value / b.value
        if math.isfinite(v):
            return Constant(v)
    return Binary("/", a, b)


def frozen_pow(a, b):
    if frozen_is_const(b, 1.0):
        return a
    if frozen_is_const(b, 0.0):
        return Constant(1.0)
    return Binary("^", a, b)


def frozen_differentiate(e):
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, Variable):
        return Constant(1.0)
    if isinstance(e, Unary):
        return frozen_sub(Constant(0.0), frozen_differentiate(e.operand))
    if isinstance(e, Binary):
        u, v = e.left, e.right
        du, dv = frozen_differentiate(u), frozen_differentiate(v)
        if e.op == "+":
            return frozen_add(du, dv)
        if e.op == "-":
            return frozen_sub(du, dv)
        if e.op == "*":
            return frozen_add(frozen_mul(du, v), frozen_mul(u, dv))
        if e.op == "/":
            return frozen_div(frozen_sub(frozen_mul(du, v), frozen_mul(u, dv)), frozen_pow(v, Constant(2.0)))
        # u^v
        if isinstance(v, Constant):
            # power rule: c * u^(c-1) * u'
            return frozen_mul(frozen_mul(v, frozen_pow(u, Constant(v.value - 1.0))), du)
        # general case: u^v * (v' ln u + v u'/u)
        return frozen_mul(
            frozen_pow(u, v),
            frozen_add(frozen_mul(dv, Call("ln", u)), frozen_mul(v, frozen_div(du, u))),
        )
    # Call
    u = e.arg
    du = frozen_differentiate(u)
    name = e.name
    if name == "sin":
        outer = Call("cos", u)
    elif name == "cos":
        outer = Unary("-", Call("sin", u))
    elif name == "tan":
        outer = frozen_div(Constant(1.0), frozen_pow(Call("cos", u), Constant(2.0)))
    elif name == "arctan":
        outer = frozen_div(Constant(1.0), frozen_add(Constant(1.0), frozen_pow(u, Constant(2.0))))
    elif name == "exp":
        outer = Call("exp", u)
    elif name in ("ln", "log"):
        outer = frozen_div(Constant(1.0), u)
    elif name == "log10":
        outer = frozen_div(Constant(1.0), frozen_mul(u, Constant(math.log(10.0))))
    elif name == "abs":
        # d|u| = u/|u| * u'; undefined at u=0, surfaces as a domain error there
        outer = frozen_div(u, Call("abs", u))
    elif name == "cbrt":
        outer = frozen_div(Constant(1.0), frozen_mul(Constant(3.0), frozen_pow(Call("cbrt", u), Constant(2.0))))
    else:  # sqrt
        outer = frozen_div(Constant(1.0), frozen_mul(Constant(2.0), Call("sqrt", u)))
    return frozen_mul(outer, du)


def shape(e):
    """The tree as nested tuples, each constant as the hex of its value."""
    if isinstance(e, Constant):
        return "c", e.value.hex()
    if isinstance(e, Variable):
        return ("x",)
    if isinstance(e, Unary):
        return e.op, shape(e.operand)
    if isinstance(e, Binary):
        return e.op, shape(e.left), shape(e.right)
    return e.name, shape(e.arg)


def assert_parity(e):
    assert shape(differentiate(e)) == shape(frozen_differentiate(e)), e


SPECIAL = [-0.0, 0.0, 1.0, -1.0]
OPERANDS = [Constant(v) for v in SPECIAL + [2.0, 0.5, 1e308, math.inf, -math.inf, math.nan]]
OPERANDS += [Variable(), Call("sin", Variable()), Binary("*", Constant(2.0), Variable())]
CONSTRUCTORS = [(_add, frozen_add), (_sub, frozen_sub), (_mul, frozen_mul),
                (_div, frozen_div), (_pow, frozen_pow)]


@pytest.mark.parametrize("new, old", CONSTRUCTORS)
def test_constructors_fold_like_the_frozen_ones(new, old):
    for a in OPERANDS:
        for b in OPERANDS:
            assert shape(new(a, b)) == shape(old(a, b)), (new.__name__, a, b)


def test_hand_built_trees_with_signed_zero_and_unit_operands():
    leaves = [Constant(v) for v in SPECIAL] + [Variable()]
    trees = []
    for a in leaves:
        trees.append(Unary("-", a))
        trees.extend(Call(name, a) for name in FUNCTIONS)
        for b in leaves:
            trees.extend(Binary(op, a, b) for op in "+-*/^")
    for inner in list(trees):
        trees.append(Binary("*", inner, Variable()))
        trees.append(Binary("^", Variable(), inner))
        trees.append(Call("sqrt", inner))
    for e in trees:
        assert_parity(e)


numbers = st.one_of(
    st.sampled_from(SPECIAL + [2.0, 3.0, 0.5, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.floats(),
)

trees = st.recursive(
    st.one_of(st.builds(Constant, numbers), st.builds(Variable)),
    lambda kids: st.one_of(
        st.builds(Unary, st.just("-"), kids),
        st.builds(Binary, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
    ),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(trees)
def test_random_trees_differentiate_like_the_frozen_rules(e):
    assert_parity(e)
    # the second derivative folds the constants the first one made
    assert_parity(frozen_differentiate(e))
