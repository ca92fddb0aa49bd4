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
Supported functions: sin, cos, tan, arctan, exp, ln, log (natural log),
log10, abs, cbrt, sqrt.  cbrt is the real, sign-preserving cube root.

Evaluation is plain IEEE double arithmetic.  Anything that leaves the
real domain (ln of a non-positive value, division by zero, fractional
power of a negative base, overflow to inf, nan) makes the whole
evaluation return ``None`` instead of a number, so callers can classify
off-domain iterates without catching exceptions.  An expression is
compiled once, on its first ``evaluate``, into closures, and they are
cached on the expression's root node.  A node reads a Variable or finite
Constant operand inline and calls the closure of any other operand.  A
value that is not finite stays so through ``+ - *`` and unary minus, so
finiteness is checked only where it could be lost: the divisor of ``/``,
both operands of ``^`` and the argument of a call.  ``evaluate`` checks
the final value once and turns the domain errors that the math raises
into ``None``.  ``differentiate`` caches its result on the root node
too.  The caches are not part of a node's value, so equality, hashing,
copying and pickling see only the tree.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
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

class _Node:
    """Base of the node classes: value semantics over ``_fields``, and the
    compiled form of a root node."""

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

    @cached_property
    def _compiled(self) -> Callable[[float], float]:
        return _compile(self)

    @cached_property
    def _derivative(self) -> Expr:
        return _differentiate(self)

    def __getstate__(self):
        # The caches are rebuilt on demand; the closures cannot be pickled.
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        state.pop("_derivative", None)
        return state


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


_CALLS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "arctan": math.atan,
    "exp": math.exp, "ln": math.log, "log": math.log, "log10": math.log10,
    "abs": abs, "cbrt": _cbrt, "sqrt": math.sqrt,
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


class _Parser:
    """Recursive descent; each rule returns ``(node, depth)``, where depth
    counts the nodes above the deepest leaf (a leaf has depth 0).

    Only parentheses recurse: unary minus and the right-associative '^'
    chain are parsed with loops, so any text within the nesting limit
    parses within the recursion limit.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.groups = 0

    def parse(self) -> Expr:
        node, _ = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return node

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    @staticmethod
    def _too_deep(position: int) -> ParseError:
        return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", position)

    def _expr(self):
        node, depth = self._term()
        while self._peek() in ("+", "-"):
            at = self.pos
            self.pos += 1
            right, right_depth = self._term()
            node = Binary(self.text[at], node, right)
            depth = max(depth, right_depth) + 1
            if depth > MAX_DEPTH:
                raise self._too_deep(at)
        return node, depth

    def _term(self):
        node, depth = self._unary()
        while self._peek() in ("*", "/"):
            at = self.pos
            self.pos += 1
            right, right_depth = self._unary()
            node = Binary(self.text[at], node, right)
            depth = max(depth, right_depth) + 1
            if depth > MAX_DEPTH:
                raise self._too_deep(at)
        return node, depth

    def _minuses(self) -> int:
        count = 0
        while self._peek() == "-":
            self.pos += 1
            count += 1
        return count

    def _unary(self):
        if self._peek() != "-":
            return self._power()
        at = self.pos
        minuses = self._minuses()
        node, depth = self._power()
        depth += minuses
        if depth > MAX_DEPTH:
            raise self._too_deep(at)
        for _ in range(minuses):
            node = Unary("-", node)
        return node, depth

    def _power(self):
        first = self._atom()
        if self._peek() != "^":
            return first
        # a ^ -b ^ c is a ^ (-(b ^ c)): collect the operands and the minus
        # signs after each '^', then fold from the right.
        operands = [first]
        links = []
        while self._peek() == "^":
            at = self.pos
            self.pos += 1
            links.append((at, self._minuses()))
            operands.append(self._atom())
        node, depth = operands.pop()
        while links:
            at, minuses = links.pop()
            base, base_depth = operands.pop()
            depth = max(base_depth, depth + minuses) + 1
            if depth > MAX_DEPTH:
                raise self._too_deep(at)
            for _ in range(minuses):
                node = Unary("-", node)
            node = Binary("^", base, node)
        return node, depth

    def _group(self):
        """The expression after a '(' up to its ')'."""
        self.groups += 1
        if self.groups > MAX_DEPTH:
            raise self._too_deep(self.pos - 1)
        result = self._expr()
        if self._peek() != ")":
            raise ParseError("missing ')'", self.pos)
        self.pos += 1
        self.groups -= 1
        return result

    def _atom(self):
        ch = self._peek()
        if ch == "":
            raise ParseError("unexpected end of expression", self.pos)
        if ch == "(":
            self.pos += 1
            return self._group()
        if ch.isdigit() or ch == ".":
            return self._number(), 0
        if ch.isalpha() or ch == "_":
            return self._name()
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def _number(self) -> Constant:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos].isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' was not an exponent after all
        token = text[start:self.pos]
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"invalid number {token!r}", start) from None
        if not math.isfinite(value):
            raise ParseError(f"number {token!r} is out of range", start)
        return Constant(value)

    def _name(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start:self.pos]
        if self._peek() == "(":
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", start)
            self.pos += 1
            arg, depth = self._group()
            if depth >= MAX_DEPTH:
                raise self._too_deep(start)
            return Call(name, arg), depth + 1
        if name == "x":
            return Variable(), 0
        raise ParseError(f"unknown identifier {name!r}", start)


def parse(text: str) -> Expr:
    """Parse an infix expression over the variable ``x`` into an AST."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

# A binary node, by how it reads its operands ``a`` and ``b``: "f" calls
# the operand's closure, "x" reads the variable and "c" a finite constant.
_PAIRS = {
    "ff": lambda op, a, b: lambda x: op(a(x), b(x)),
    "fx": lambda op, a, b: lambda x: op(a(x), x),
    "fc": lambda op, a, b: lambda x: op(a(x), b),
    "xf": lambda op, a, b: lambda x: op(x, b(x)),
    "xx": lambda op, a, b: lambda x: op(x, x),
    "xc": lambda op, a, b: lambda x: op(x, b),
    "cf": lambda op, a, b: lambda x: op(a, b(x)),
    "cx": lambda op, a, b: lambda x: op(a, x),
    "cc": lambda op, a, b: lambda x: op(a, b),
}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": math.pow}


def _checked(pair: str, op, a, b) -> Callable[[float], float]:
    """The ``_PAIRS[pair]`` node, raising ValueError where the value of a
    closure operand is not finite."""
    if pair == "ff":
        def node(x: float) -> float:
            u = a(x)
            v = b(x)
            if math.isfinite(u) and math.isfinite(v):
                return op(u, v)
            raise ValueError
    elif pair == "fx":
        def node(x: float) -> float:
            u = a(x)
            if math.isfinite(u):
                return op(u, x)
            raise ValueError
    elif pair == "fc":
        def node(x: float) -> float:
            u = a(x)
            if math.isfinite(u):
                return op(u, b)
            raise ValueError
    elif pair == "xf":
        def node(x: float) -> float:
            v = b(x)
            if math.isfinite(v):
                return op(x, v)
            raise ValueError
    else:  # "cf"
        def node(x: float) -> float:
            v = b(x)
            if math.isfinite(v):
                return op(a, v)
            raise ValueError
    return node


def _operand(e: Expr) -> Tuple[str, object]:
    """How a parent reads ``e``: ``("x", None)``, ``("c", value)`` for a
    finite constant, or ``("f", closure)``."""
    if isinstance(e, Variable):
        return "x", None
    if isinstance(e, Constant) and math.isfinite(e.value):
        return "c", e.value
    return "f", _compile(e)


def _compile(e: Expr) -> Callable[[float], float]:
    """A closure computing ``e`` at a finite ``x`` with the tree's IEEE
    operations, left operand before right.

    A node reads a Variable or finite Constant operand inline and calls
    the closure of any other operand.  A non-finite value stays
    non-finite through ``+ - *`` and unary minus, so only a node that
    could map it to a finite value checks its closure operands: the
    divisor of ``/`` (a/inf = 0), both operands of ``^`` (inf^0 = 1) and
    the argument of a call (arctan(inf) = pi/2).  A ``/`` node that
    calls both operands checks the dividend too, which is harmless: a
    non-finite dividend over a finite divisor is not finite.  Off the
    domain a closure raises ZeroDivisionError, ValueError or
    OverflowError, or returns a value that is not finite.
    """
    if isinstance(e, Binary):
        ka, a = _operand(e.left)
        kb, b = _operand(e.right)
        pair = ka + kb
        if "f" in pair and (e.op == "^" or e.op == "/" and kb == "f"):
            return _checked(pair, _BINARY[e.op], a, b)
        return _PAIRS[pair](_BINARY[e.op], a, b)
    if isinstance(e, Call):
        fn = _CALLS[e.name]
        kind, a = _operand(e.arg)
        if kind == "x":
            return fn
        if kind == "c":
            return lambda x: fn(a)

        def call(x: float) -> float:
            u = a(x)
            if math.isfinite(u):
                return fn(u)
            raise ValueError
        return call
    if isinstance(e, Unary):
        kind, a = _operand(e.operand)
        if kind == "x":
            return operator.neg
        if kind == "c":
            return lambda x: -a
        return lambda x: -a(x)
    if isinstance(e, Variable):
        return lambda x: x
    # A non-finite constant (the parser rejects them, but a tree built
    # directly or folded by differentiate can hold one) is read through
    # this closure, so the checks above and in evaluate see it.
    c = e.value
    return lambda x: c


def evaluate(e: Expr, x: float) -> Optional[float]:
    """Evaluate ``e`` at ``x``; ``None`` marks a domain error.

    A domain error in any subexpression makes the whole result ``None``;
    it is never silently coerced to a number.  A non-finite ``x`` is
    outside every domain, so the result is ``None`` too.  The first call
    compiles ``e`` and caches the result on it.
    """
    if not math.isfinite(x):
        return None
    try:
        v = e._compiled(x)
    except (ZeroDivisionError, ValueError, OverflowError):
        return None
    return v if math.isfinite(v) else None


# --------------------------------------------------------------------------
# Symbolic differentiation
# --------------------------------------------------------------------------
#
# Smart constructors fold constants and drop additive/multiplicative
# identities so derivative trees stay readable.  No deeper simplification.

def _is_const(e: Expr, v: Optional[float] = None) -> bool:
    return isinstance(e, Constant) and (v is None or e.value == v)


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        return Constant(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        return Constant(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Unary("-", b)
    return Binary("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        v = a.value * b.value
        if math.isfinite(v):
            return Constant(v)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Constant(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Constant(0.0)
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Constant) and isinstance(b, Constant) and b.value != 0.0:
        v = a.value / b.value
        if math.isfinite(v):
            return Constant(v)
    return Binary("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Constant(1.0)
    return Binary("^", a, b)


def differentiate(e: Expr) -> Expr:
    """Return the symbolic derivative of ``e`` with respect to ``x``.

    The first call builds it and caches it on ``e``, so a solver that
    differentiates the same expression again gets the same tree, compiled
    on its first evaluation.
    """
    return e._derivative


def _differentiate(e: Expr) -> Expr:
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, Variable):
        return Constant(1.0)
    if isinstance(e, Unary):
        return _sub(Constant(0.0), _differentiate(e.operand))
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
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, Constant(2.0)))
        # u^v
        if isinstance(v, Constant):
            # power rule: c * u^(c-1) * u'
            return _mul(_mul(v, _pow(u, Constant(v.value - 1.0))), du)
        # general case: u^v * (v' ln u + v u'/u)
        return _mul(
            _pow(u, v),
            _add(_mul(dv, Call("ln", u)), _mul(v, _div(du, u))),
        )
    # Call
    u = e.arg
    du = _differentiate(u)
    name = e.name
    if name == "sin":
        outer: Expr = Call("cos", u)
    elif name == "cos":
        outer = Unary("-", Call("sin", u))
    elif name == "tan":
        outer = _div(Constant(1.0), _pow(Call("cos", u), Constant(2.0)))
    elif name == "arctan":
        outer = _div(Constant(1.0), _add(Constant(1.0), _pow(u, Constant(2.0))))
    elif name == "exp":
        outer = Call("exp", u)
    elif name in ("ln", "log"):
        outer = _div(Constant(1.0), u)
    elif name == "log10":
        outer = _div(Constant(1.0), _mul(u, Constant(math.log(10.0))))
    elif name == "abs":
        # d|u| = u/|u| * u'; undefined at u=0, surfaces as a domain error there
        outer = _div(u, Call("abs", u))
    elif name == "cbrt":
        outer = _div(Constant(1.0), _mul(Constant(3.0), _pow(Call("cbrt", u), Constant(2.0))))
    else:  # sqrt
        outer = _div(Constant(1.0), _mul(Constant(2.0), Call("sqrt", u)))
    return _mul(outer, du)


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def render(e: Expr) -> str:
    """Unambiguous text form; parse(render(e)) evaluates identically to e.

    The grammar has no inf or nan, so a non-finite constant, which is
    off the domain at every x, renders as ``(0 / 0)``, which is too.
    """
    if isinstance(e, Constant):
        if not math.isfinite(e.value):
            return "(0 / 0)"
        # The grammar has no negative literals: a set sign bit (-0.0
        # included) renders as a parenthesised unary minus.
        v = abs(e.value)
        text = str(int(v)) if v == int(v) and v < 1e16 else repr(v)
        return f"(-{text})" if math.copysign(1.0, e.value) < 0.0 else text
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Unary):
        return f"(-{render(e.operand)})"
    if isinstance(e, Binary):
        return f"({render(e.left)} {e.op} {render(e.right)})"
    return f"{e.name}({render(e.arg)})"
