"""``evaluate`` against a reference tree-walking interpreter, bit for bit.

``reference_evaluate`` walks the tree recursively and applies the
documented semantics directly: IEEE double operations, left operand
before right, and ``None`` for any step that leaves the real domain or
produces a non-finite value (a non-finite constant or ``x`` included).  The
compiled closures in ``lsqroots.expressions`` must agree with it on every
result, including the sign of zero and where ``None`` appears.
"""

import copy
import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from lsqroots.bench import builtin_suite
from lsqroots.expressions import (
    FUNCTIONS,
    Binary,
    Call,
    Constant,
    Unary,
    Variable,
    _cbrt,
    differentiate,
    evaluate,
    parse,
)


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
    assert_parity(differentiate(e), xs)


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
