"""Univariate math expressions: parsing, evaluation, symbolic differentiation.

Grammar (infix, single variable ``x``):

    expr   := term   (('+' | '-') term)*
    term   := unary  (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # '^' binds tighter than unary minus
    atom   := NUMBER | 'x' | NAME '(' expr ')' | '(' expr ')'

'^' is right-associative, so "2^3^2" is 2^(3^2) and "-x^2" is -(x^2).
Parentheses, and the nodes of the parsed tree, may nest at most
``MAX_DEPTH`` (100) levels deep; deeper text raises ``ParseError``.
A tree built from the node classes has no such bound: where it is too
deep for Python's recursion limit, ``evaluate``, ``differentiate`` and
``render`` raise ``ValueError``.
A NUMBER is written with the ASCII digits 0-9 only, while whitespace,
which may separate any two tokens, is any character ``str.isspace``
accepts: U+001C-U+001F, U+0085 and U+3000 among them.
The parser reads the text in one pass: one loop reads an ``expr``,
folding each operand into the pending product and sum as it goes, and
unary minus runs and ``^`` chains are loops too, so only parentheses
and function calls recurse.
Supported functions: sin, cos, tan, arctan, exp, ln, log (natural log),
log10, abs, cbrt, sqrt.  cbrt is the real, sign-preserving cube root.

Evaluation is plain IEEE double arithmetic.  Anything that leaves the
real domain (ln of a non-positive value, division by zero, fractional
power of a negative base, overflow to inf, nan) makes the whole
evaluation return ``None`` instead of a number, so callers can classify
off-domain iterates without catching exceptions.  Each node is compiled
once, by the first ``evaluate`` that reaches it, into a closure that the
node keeps, so a derivative reuses the closures of the subtrees it shares
with its expression.  A node reads a Variable or finite Constant operand
inline and calls the closure of any other operand.  A node's closure
comes from the factory of its form, its operator and how it reads each
operand, generated on the form's first use (a call or unary minus of
``x`` is the function itself).
A value that is not finite stays so through ``+ - *`` and unary minus,
so finiteness is checked only where it could be lost: the divisor of
``/``, both operands of ``^`` and the argument of a call.  A hand-built
constant that is not finite, an int beyond float range included, is
read as inf or nan.  ``evaluate`` checks the final value once and turns
the domain errors that the math raises into ``None``.
One writer, ``_tree_source``, writes all generated code: a form is the
tree of one node, and ``outcomes.compile_tree`` has it write a whole
tree as one straight-line function with every operator inline and every
check where a closure has it, which it keeps as the root's closure,
marked ``_tree``.  The solvers call it on each expression they iterate
on; a tree that only ``evaluate`` sees keeps its node closures, which
cost far less to build than one ``compile()``.
``differentiate`` caches its result on the expression's root node.  The
caches are not part of a node's value, so equality, hashing, copying and
pickling see only the tree.  They take no lock, and nor do the tables
of generated code: two threads that reach a fresh node at once may both
compile it, build its derivative or generate its code, and either result
serves, so a tree can be shared between threads.
"""

from __future__ import annotations

import math
import operator
import re
from math import isfinite
from typing import Callable, Optional, Tuple, Union


class ParseError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --------------------------------------------------------------------------
# AST nodes.  Immutable: expression trees can be shared between threads or
# solver runs freely.  Each class lists its fields in ``_fields`` and
# writes them straight into ``__dict__`` (``__setattr__`` refuses), and
# compares, hashes and prints by them like a frozen dataclass would.  They
# are not dataclasses because importing ``dataclasses`` (about 4 ms) and
# building the classes with it slowed every cold start of the CLI.
# --------------------------------------------------------------------------

class _cached:
    """A node attribute computed on first read and stored in the node's
    ``__dict__`` under its own name, where later reads find it first.

    Unlike ``functools.cached_property`` before Python 3.12 it takes no
    lock: two threads that race on a first read both compute the value.
    The values are pure functions of the tree, so either one serves.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, node, owner=None):
        if node is None:
            return self
        value = node.__dict__[self.name] = self.func(node)
        return value


class _Node:
    """Base of the node classes: value semantics over ``_fields``, and the
    compiled form of a node.

    ``repr``, ``==``, ``hash``, pickling and copying recurse once per
    level, so on a hand-built tree too deep for Python's recursion limit
    they raise ``RecursionError``, like any nested Python object; only
    ``evaluate``, ``differentiate`` and ``render`` turn it into a
    ``ValueError``.
    """

    _fields: Tuple[str, ...] = ()
    __match_args__: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple(d[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        fields = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @_cached
    def _compiled(self) -> Callable[[float], float]:
        return _compile(self)

    @_cached
    def _derivative(self) -> Expr:
        return _differentiate(self)

    def __getstate__(self):
        # Only the fields: the caches are rebuilt on demand, and the
        # compiled functions cannot be pickled.
        d = self.__dict__
        return {name: d[name] for name in self._fields}


class Constant(_Node):
    _fields = __match_args__ = ("value",)

    def __init__(self, value: float):
        self.__dict__["value"] = value


class Variable(_Node):
    pass


class Unary(_Node):
    _fields = __match_args__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):  # op is only '-'
        d = self.__dict__
        d["op"] = op
        d["operand"] = operand


class Binary(_Node):
    _fields = __match_args__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):  # op in + - * / ^
        d = self.__dict__
        d["op"] = op
        d["left"] = left
        d["right"] = right


class Call(_Node):
    _fields = __match_args__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        d = self.__dict__
        d["name"] = name
        d["arg"] = arg


Expr = Union[Constant, Variable, Unary, Binary, Call]

def _cbrt(v: float) -> float:
    # math.cbrt only exists on 3.11+; this keeps the real cube root of
    # negative inputs (pow would reject them).
    if v == 0.0:
        return 0.0
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _ieee(v: float) -> float:
    """``v``, or for an int beyond float range the infinity of its sign,
    as IEEE arithmetic holds it.  ``isfinite`` and the float operations
    raise OverflowError on such an int, so evaluation, differentiation and
    rendering read a constant's value through this and treat a
    ``Constant(10**400)`` as they treat ``Constant(inf)``."""
    try:
        isfinite(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf
    return v


# Each function: its value, and its derivative as a tree of its argument
# ``u``, built with the smart constructors of the differentiation section
# (``_differentiate`` multiplies it by u').
_CALLS = {
    "sin": (math.sin, lambda u: Call("cos", u)),
    "cos": (math.cos, lambda u: Unary("-", Call("sin", u))),
    "tan": (math.tan, lambda u: _div(_ONE, _pow(Call("cos", u), _TWO))),
    "arctan": (math.atan, lambda u: _div(_ONE, _add(_ONE, _pow(u, _TWO)))),
    "exp": (math.exp, lambda u: Call("exp", u)),
    "ln": (math.log, lambda u: _div(_ONE, u)),
    "log": (math.log, lambda u: _div(_ONE, u)),
    "log10": (math.log10, lambda u: _div(_ONE, _mul(u, Constant(math.log(10.0))))),
    # u/|u| is undefined at u = 0, which surfaces as a domain error there
    "abs": (abs, lambda u: _div(u, Call("abs", u))),
    "cbrt": (_cbrt, lambda u: _div(_ONE, _mul(Constant(3.0), _pow(Call("cbrt", u), _TWO)))),
    "sqrt": (math.sqrt, lambda u: _div(_ONE, _mul(_TWO, Call("sqrt", u)))),
}

FUNCTIONS = tuple(_CALLS)


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

# Parentheses (a call's included) may nest at most this deep, and so may
# the nodes of the parsed tree (every chain link, power, call and unary
# minus adds a level).  That bounds the recursion of the parser and of
# everything that walks a parsed tree (evaluation, differentiation,
# rendering) well inside Python's default recursion limit.
MAX_DEPTH = 100


def _too_deep(position: int) -> ParseError:
    return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", position)


def _nested_too_deep(action: str) -> ValueError:
    # A tree built without the parser has no depth bound, and evaluate,
    # differentiate and render recurse at every level.  Each turns the
    # RecursionError into this error at its public entry point, so no
    # node has to count its depth.
    return ValueError(f"expression nested too deeply to {action} "
                      f"within Python's recursion limit")


def parse(text: str) -> Expr:
    """Parse an infix expression over the variable ``x`` into an AST."""
    node, _, pos = _expr(text, 0, 0)
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return node


# Each parse function takes the text, the position to read from and the
# number of open parentheses, and returns ``(node, depth, pos)``: depth
# counts the nodes above the deepest leaf (a leaf has depth 0), and pos is
# that of the next character that is not whitespace, or the text's length.
# ``_atom`` returns the minus signs before its atom too, which its caller
# applies: ``(node, depth, pos, minuses, at)``.

def _expr(text: str, pos: int, groups: int):
    """A ``+ -`` chain of ``* /`` chains of unary operands, in one loop.

    The left operand of the pending ``+ -`` link is kept in ``total`` and
    that of the pending ``* /`` link in ``product``; each operand is folded
    into them as soon as it is read, so the depth checks and errors come in
    the order a recursive descent would give them.
    """
    n = len(text)
    total = product = None
    while True:
        node, depth, pos, minuses, at = _atom(text, pos, groups)
        if pos < n and text[pos] == "^":
            node, depth, pos = _power(text, pos, groups, node, depth)
        if minuses:
            depth += minuses
            if depth > MAX_DEPTH:
                raise _too_deep(at)
            for _ in range(minuses):
                node = Unary("-", node)
        if product is not None:
            node = Binary(product_op, product, node)
            depth = max(depth, product_depth) + 1
            if depth > MAX_DEPTH:
                raise _too_deep(product_at)
        ch = text[pos] if pos < n else ""
        if ch == "*" or ch == "/":
            product, product_depth, product_op, product_at = node, depth, ch, pos
            pos += 1
            continue
        product = None
        if total is not None:
            node = Binary(total_op, total, node)
            depth = max(depth, total_depth) + 1
            if depth > MAX_DEPTH:
                raise _too_deep(total_at)
        if ch == "+" or ch == "-":
            total, total_depth, total_op, total_at = node, depth, ch, pos
            pos += 1
            continue
        return node, depth, pos


def _power(text: str, pos: int, groups: int, first: Expr, first_depth: int):
    """The ``^`` chain after the atom ``first``, at the first ``^``.

    a ^ -b ^ c is a ^ (-(b ^ c)): collect the atoms and the minus signs
    after each '^', then fold from the right.
    """
    n = len(text)
    operands = [(first, first_depth)]
    links = []
    while pos < n and text[pos] == "^":
        at = pos
        node, depth, pos, minuses, _ = _atom(text, pos + 1, groups)
        links.append((at, minuses))
        operands.append((node, depth))
    node, depth = operands.pop()
    while links:
        at, minuses = links.pop()
        base, base_depth = operands.pop()
        depth = max(base_depth, depth + minuses) + 1
        if depth > MAX_DEPTH:
            raise _too_deep(at)
        for _ in range(minuses):
            node = Unary("-", node)
        node = Binary("^", base, node)
    return node, depth, pos


# A NUMBER: ASCII digits and points, then an exponent only where a digit
# follows the 'e' and its sign ("1e+" ends before the 'e').
_NUMBER = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?").match


def _atom(text: str, pos: int, groups: int):
    """An operand from ``pos``: whitespace, a run of minus signs, each
    followed by whitespace, then a name (``x``, or a function's before its
    call), a number or a parenthesised expression.  Every name is read by
    one path, so ``x(`` is a call of the unknown function ``x``.  Returns
    ``(node, depth, pos, minuses, at)``, where ``at`` is where the run of
    ``minuses`` signs starts; the caller applies them.  Only a group, a
    call's included, recurses."""
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    at = pos
    minuses = 0
    while pos < n and text[pos] == "-":
        minuses += 1
        pos += 1
        while pos < n and text[pos].isspace():
            pos += 1
    if pos == n:
        raise ParseError("unexpected end of expression", pos)
    start = pos
    ch = text[pos]
    name = None
    if ch.isalpha() or ch == "_":
        pos += 1
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        while pos < n and text[pos].isspace():
            pos += 1
        if pos == n or text[pos] != "(":
            if name == "x":
                return Variable(), 0, pos, minuses, at
            raise ParseError(f"unknown identifier {name!r}", start)
        if name not in _CALLS:
            raise ParseError(f"unknown function {name!r}", start)
    elif "0" <= ch <= "9" or ch == ".":
        token = _NUMBER(text, pos).group()
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"invalid number {token!r}", start) from None
        if not isfinite(value):
            raise ParseError(f"number {token!r} is out of range", start)
        pos += len(token)
        while pos < n and text[pos].isspace():
            pos += 1
        return Constant(value), 0, pos, minuses, at
    elif ch != "(":
        raise ParseError(f"unexpected character {ch!r}", pos)
    # A group, or a call's argument: the '(' is at pos.
    if groups >= MAX_DEPTH:
        raise _too_deep(pos)
    node, depth, pos = _expr(text, pos + 1, groups + 1)
    if pos == n or text[pos] != ")":
        raise ParseError("missing ')'", pos)
    if name is not None:
        if depth >= MAX_DEPTH:
            raise _too_deep(start)
        node, depth = Call(name, node), depth + 1
    pos += 1
    while pos < n and text[pos].isspace():
        pos += 1
    return node, depth, pos, minuses, at


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

# A node's form is its op and how it reads each operand: "x" reads the
# variable, "c" a finite constant, and "f" calls the operand's closure.
# ``_form`` generates the closure factory of a form on its first use and
# keeps it here, keyed by ``(op, left kind, right kind)``, or by
# ``("call" | "neg", kind)``.  Like ``_cached`` it takes no lock: two
# threads that race on a fresh form both generate it, and either serves.
_NODES: dict = {}

_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}


def _tree_source(shape: tuple, slots: int, name: str = "tree") -> str:
    """The source of ``name(k0, ..., k<slots - 1>)``, the factory of the
    functions of ``shape``: the one writer of the package's generated code.

    A shape is a tuple of entries ``(tag, *operands)``, one per node, each
    operand before the nodes that read it.  The tag is a binary operator,
    ``neg`` for unary minus, ``call`` (whose entry ends with the slot of
    its function) or ``read`` for a leaf root.  An operand is ``x``, a
    constant's kind (``c`` finite, ``f`` not) with its slot, the index of
    an earlier entry, or, for a node form's closure operand,
    ``("call", slot)``: the slot's function called on ``x`` where it is
    read.  Entry i is a statement ``t<i> = ...`` with the operator inline
    (``^`` through ``math.pow``), and the last entry is returned.  A
    non-finite value stays so through ``+ - *`` and unary minus, so before
    its statement an entry checks that each operand but ``x`` and a finite
    constant is finite only where that could be lost: a call's argument
    (arctan(inf) = pi/2), both operands of ``^`` (inf^0 = 1) and the
    divisor of ``/`` (a/inf = 0).
    """
    lines = []
    last = len(shape) - 1
    for i, (tag, *tokens) in enumerate(shape):
        fn = f"k{tokens.pop()}" if tag == "call" else ""
        # (kind, name) of each operand
        reads = [("x", "x") if t == "x" else ("f", f"t{t}") if t.__class__ is int
                 else ("f", f"k{t[1]}(x)") if t[0] == "call" else (t[0], f"k{t[1]}")
                 for t in tokens]
        if fn or tag == "^" or tag == "/" and reads[-1][0] == "f":
            for j, (_, u) in enumerate(reads):
                if u.endswith("(x)"):       # called once, into a name the check reads
                    lines.append(f"        u{j} = {u}\n")
                    reads[j] = "f", f"u{j}"
            test = " and ".join(f"isfinite({u})" for k, u in reads if k == "f")
            if test:
                lines.append(f"        if not ({test}):\n            raise ValueError\n")
        (_, a), (_, b) = reads[0], reads[-1]
        value = (a if tag == "read" else f"-{a}" if tag == "neg" else f"{fn}({a})" if fn
                 else f"math.pow({a}, {b})" if tag == "^" else f"{a} {tag} {b}")
        lines.append(f"        {'return' if i == last else f't{i} ='} {value}\n")
    return (f"def {name}({', '.join(f'k{i}' for i in range(slots))}):\n"
            f"    def f(x):\n{''.join(lines)}    return f\n")


def _generated(name: str, source: str) -> Callable:
    """The function ``name`` that ``source`` defines, run in this module's
    globals.  Its code names this module's file and ``name``, so
    tracebacks and profiles place it here."""
    space: dict = {}
    exec(compile(source, f"{__file__}<{name}>", "exec"), globals(), space)
    return space[name]


def _form(key: tuple) -> Callable:
    """The factory of the node form ``key``, kept in ``_NODES``: the
    factory of a one-node shape, whose operands are the factory's
    arguments in order, a call's function after its argument.  A closure
    operand is a ``call`` operand, called on ``x`` where it is read."""
    tag, *kinds = key
    tokens = ["x" if kind == "x" else ("call" if kind == "f" else "c", slot)
              for slot, kind in enumerate(kinds)]
    if tag == "call":
        tokens.append(1)
    name = f"{_NAMES.get(tag, tag)}_{''.join(kinds)}"
    factory = _NODES[key] = _generated(name, _tree_source(((tag, *tokens),), len(tokens), name))
    return factory


def _operand(e: Expr) -> Tuple[str, object]:
    """How a parent reads ``e``: ``("x", None)``, ``("c", value)`` for a
    finite constant, or ``("f", closure)``.  The closure is compiled once
    per node and kept in its ``__dict__`` under ``_compiled``, the key that
    ``_cached`` stores a root's closure under, so a subtree shared between
    trees, or within one, compiles once."""
    if isinstance(e, Variable):
        return "x", None
    if isinstance(e, Constant):
        c = _ieee(e.value)
        if isfinite(c):
            return "c", e.value
        # A non-finite constant (only a hand-built or folded tree holds
        # one) is read through a closure, which the checks then see; built
        # here, it costs the frames that compile_tree's walk gives it.
        return "f", lambda x: c
    d = e.__dict__
    f = d.get("_compiled")
    if f is None:
        f = d["_compiled"] = _compile(e)
    return "f", f


def _compile(e: Expr) -> Callable[[float], float]:
    """A closure computing ``e`` at a finite ``x`` with the tree's IEEE
    operations, left operand before right.

    A node reads a Variable or finite Constant operand inline and calls
    the closure of any other operand.  A call or unary minus of ``x`` is
    the function itself, or ``operator.neg``; any other node's closure is
    made by the factory of its form (``_form``).  A ``/`` node that calls
    both operands checks the dividend too, which is harmless: a non-finite
    dividend over a finite divisor is not finite.  Off the domain a
    closure raises ZeroDivisionError, ValueError or OverflowError, or
    returns a value that is not finite.
    """
    if isinstance(e, Binary):
        ka, a = _operand(e.left)
        kb, b = _operand(e.right)
        key = e.op, ka, kb
        return (_NODES.get(key) or _form(key))(a, b)
    if isinstance(e, Call):
        fn = _CALLS[e.name][0]
        kind, a = _operand(e.arg)
        if kind == "x":
            return fn
        key = "call", kind
        return (_NODES.get(key) or _form(key))(a, fn)
    if isinstance(e, Unary):
        kind, a = _operand(e.operand)
        if kind == "x":
            return operator.neg
        key = "neg", kind
        return (_NODES.get(key) or _form(key))(a)
    if isinstance(e, Variable):
        return lambda x: x
    c = _ieee(e.value)
    return lambda x: c


def evaluate(e: Expr, x: float) -> Optional[float]:
    """Evaluate ``e`` at ``x``; ``None`` marks a domain error.

    A domain error in any subexpression makes the whole result ``None``;
    it is never silently coerced to a number.  A non-finite ``x`` is
    outside every domain, so the result is ``None`` too, and so is an int
    ``x``, or an int result, beyond float range.  An int ``x`` is not
    converted, since converting every argument would cost every call:
    ``evaluate(parse("x"), 2)`` is ``2``.  The first call compiles the
    nodes of ``e`` that no earlier call reached; each keeps its closure.
    """
    try:
        if not isfinite(x):
            return None
        v = e._compiled(x)
        return v if isfinite(v) else None
    except (ZeroDivisionError, ValueError, OverflowError):
        return None
    except RecursionError:
        raise _nested_too_deep("evaluate") from None


# --------------------------------------------------------------------------
# Symbolic differentiation
# --------------------------------------------------------------------------
#
# Smart constructors fold constants and drop additive/multiplicative
# identities so derivative trees stay readable.  No deeper simplification.
# The rules share one node for each of the constants 0, 1 and 2.

_ZERO, _ONE, _TWO = Constant(0.0), Constant(1.0), Constant(2.0)


def _add(a: Expr, b: Expr) -> Expr:
    ca, cb = isinstance(a, Constant), isinstance(b, Constant)
    if ca and cb:
        return Constant(_ieee(a.value) + _ieee(b.value))
    if ca and a.value == 0.0:
        return b
    if cb and b.value == 0.0:
        return a
    return Binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    ca, cb = isinstance(a, Constant), isinstance(b, Constant)
    if ca and cb:
        return Constant(_ieee(a.value) - _ieee(b.value))
    if cb and b.value == 0.0:
        return a
    if ca and a.value == 0.0:
        return Unary("-", b)
    return Binary("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    ca, cb = isinstance(a, Constant), isinstance(b, Constant)
    if ca and cb:
        v = _ieee(a.value) * _ieee(b.value)
        if isfinite(_ieee(v)):
            return Constant(v)
    if ca and a.value == 0.0 or cb and b.value == 0.0:
        return _ZERO
    if ca and a.value == 1.0:
        return b
    if cb and b.value == 1.0:
        return a
    return Binary("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    ca, cb = isinstance(a, Constant), isinstance(b, Constant)
    if ca and a.value == 0.0:
        return _ZERO
    if cb and b.value == 1.0:
        return a
    if ca and cb and b.value != 0.0:
        v = _ieee(a.value) / _ieee(b.value)
        if isfinite(v):
            return Constant(v)
    return Binary("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Constant):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _ONE
    return Binary("^", a, b)


def differentiate(e: Expr) -> Expr:
    """Return the symbolic derivative of ``e`` with respect to ``x``.

    The first call builds it and caches it on ``e``, so a solver that
    differentiates the same expression again gets the same tree, compiled
    on its first evaluation.
    """
    try:
        return e._derivative
    except RecursionError:
        raise _nested_too_deep("differentiate") from None


def _differentiate(e: Expr) -> Expr:
    if isinstance(e, Constant):
        return _ZERO
    if isinstance(e, Variable):
        return _ONE
    if isinstance(e, Unary):
        return _sub(_ZERO, _differentiate(e.operand))
    if isinstance(e, Binary):
        u, v = e.left, e.right
        du, dv = _differentiate(u), _differentiate(v)
        if e.op == "+":
            return _add(du, dv)
        if e.op == "-":
            return _sub(du, dv)
        if e.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if e.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, _TWO))
        # u^v
        if isinstance(v, Constant):
            # power rule: c * u^(c-1) * u'
            return _mul(_mul(v, _pow(u, Constant(_ieee(v.value) - 1.0))), du)
        # general case: u^v * (v' ln u + v u'/u)
        return _mul(
            _pow(u, v),
            _add(_mul(dv, Call("ln", u)), _mul(v, _div(du, u))),
        )
    # Call: the chain rule, f(u)' = f'(u) * u'
    return _mul(_CALLS[e.name][1](e.arg), _differentiate(e.arg))


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def render(e: Expr) -> str:
    """Unambiguous text form; parse(render(e)) evaluates identically to e.

    The grammar has no inf or nan, so a non-finite constant, which is
    off the domain at every x, renders as ``(0 / 0)``, which is too.
    """
    try:
        return _render(e)
    except RecursionError:
        raise _nested_too_deep("render") from None


def _render(e: Expr) -> str:
    if isinstance(e, Constant):
        if not isfinite(_ieee(e.value)):
            return "(0 / 0)"
        # The grammar has no negative literals: a set sign bit (-0.0
        # included) renders as a parenthesised unary minus.
        v = abs(e.value)
        text = str(int(v)) if v == int(v) and v < 1e16 else repr(v)
        return f"(-{text})" if math.copysign(1.0, e.value) < 0.0 else text
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Unary):
        return f"(-{_render(e.operand)})"
    if isinstance(e, Binary):
        return f"({_render(e.left)} {e.op} {_render(e.right)})"
    return f"{e.name}({_render(e.arg)})"
