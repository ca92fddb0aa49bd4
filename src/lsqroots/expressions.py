"""Univariate math expressions: parsing, evaluation, symbolic differentiation.

Grammar (infix, single variable ``x``):

    expr   := term   (('+' | '-') term)*
    term   := unary  (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # '^' binds tighter than unary minus
    atom   := NUMBER | 'x' | NAME '(' expr ')' | '(' expr ')'

'^' is right-associative, so "2^3^2" is 2^(3^2) and "-x^2" is -(x^2).
Supported functions: sin, cos, tan, arctan, exp, ln, log (natural log),
log10, abs, cbrt, sqrt.  cbrt is the real, sign-preserving cube root.

Evaluation is plain IEEE double arithmetic.  Anything that leaves the
real domain (ln of a non-positive value, division by zero, fractional
power of a negative base, overflow to inf, nan) makes the whole
evaluation return ``None`` instead of a number, so callers can classify
off-domain iterates without catching exceptions.  An expression is
compiled once, on its first ``evaluate``, into a chain of closures (one
per node), and the chain is cached on the expression's root node; the
cache is not part of the node's value, so equality, hashing, copying and
pickling see only the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union


class ParseError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --------------------------------------------------------------------------
# AST nodes.  Frozen dataclasses: expression trees are immutable and can be
# shared between threads or solver runs freely.
# --------------------------------------------------------------------------

class _Node:
    """Base of the node classes: holds the compiled form of a root node."""

    @cached_property
    def _compiled(self) -> Callable[[float], float]:
        return _compile(self)

    def __getstate__(self):
        # The compiled closures cannot be pickled and are rebuilt on demand.
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state


@dataclass(frozen=True)
class Constant(_Node):
    value: float


@dataclass(frozen=True)
class Variable(_Node):
    pass


@dataclass(frozen=True)
class Unary(_Node):
    op: str  # only '-'
    operand: "Expr"


@dataclass(frozen=True)
class Binary(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    name: str
    arg: "Expr"


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

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Expr:
        node = self._expr()
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

    def _expr(self) -> Expr:
        node = self._term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = Binary(op, node, self._term())
        return node

    def _term(self) -> Expr:
        node = self._unary()
        while self._peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = Binary(op, node, self._unary())
        return node

    def _unary(self) -> Expr:
        if self._peek() == "-":
            self.pos += 1
            return Unary("-", self._unary())
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            # right-associative; the exponent may start with a unary minus
            return Binary("^", base, self._unary())
        return base

    def _atom(self) -> Expr:
        ch = self._peek()
        if ch == "":
            raise ParseError("unexpected end of expression", self.pos)
        if ch == "(":
            self.pos += 1
            node = self._expr()
            if self._peek() != ")":
                raise ParseError("missing ')'", self.pos)
            self.pos += 1
            return node
        if ch.isdigit() or ch == ".":
            return self._number()
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

    def _name(self) -> Expr:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start:self.pos]
        if self._peek() == "(":
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", start)
            self.pos += 1
            arg = self._expr()
            if self._peek() != ")":
                raise ParseError("missing ')'", self.pos)
            self.pos += 1
            return Call(name, arg)
        if name == "x":
            return Variable()
        raise ParseError(f"unknown identifier {name!r}", start)


def parse(text: str) -> Expr:
    """Parse an infix expression over the variable ``x`` into an AST."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

class _DomainError(Exception):
    pass


def _compile(e: Expr) -> Callable[[float], float]:
    """One closure per node, computing the node's value at ``x``.

    Each closure applies its node's IEEE operation to its children's
    values, left before right, and raises _DomainError wherever the
    result leaves the real domain or is not finite.
    """
    if isinstance(e, Constant):
        c = e.value
        if not math.isfinite(c):
            # The parser rejects these, but a tree built directly or a
            # constant folded by differentiate can still hold one.
            def off_domain(x: float) -> float:
                raise _DomainError
            return off_domain
        return lambda x: c
    if isinstance(e, Variable):
        return lambda x: x
    if isinstance(e, Unary):
        f = _compile(e.operand)
        return lambda x: -f(x)
    if isinstance(e, Call):
        f, fn = _compile(e.arg), _CALLS[e.name]

        def call(x: float) -> float:
            u = f(x)
            try:
                v = fn(u)
            except (ValueError, OverflowError):
                raise _DomainError from None
            if math.isfinite(v):
                return v
            raise _DomainError
        return call

    fa, fb = _compile(e.left), _compile(e.right)
    op = e.op
    if op == "+":
        def binary(x: float) -> float:
            v = fa(x) + fb(x)
            if math.isfinite(v):
                return v
            raise _DomainError
    elif op == "-":
        def binary(x: float) -> float:
            v = fa(x) - fb(x)
            if math.isfinite(v):
                return v
            raise _DomainError
    elif op == "*":
        def binary(x: float) -> float:
            v = fa(x) * fb(x)
            if math.isfinite(v):
                return v
            raise _DomainError
    elif op == "/":
        def binary(x: float) -> float:
            a = fa(x)
            b = fb(x)
            if b == 0.0:
                raise _DomainError
            v = a / b
            if math.isfinite(v):
                return v
            raise _DomainError
    else:  # '^'
        def binary(x: float) -> float:
            a = fa(x)
            b = fb(x)
            try:
                v = math.pow(a, b)
            except (ValueError, OverflowError):
                # negative base with fractional exponent, 0^negative, overflow
                raise _DomainError from None
            if math.isfinite(v):
                return v
            raise _DomainError
    return binary


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
        return e._compiled(x)
    except _DomainError:
        return None


# --------------------------------------------------------------------------
# Symbolic differentiation
# --------------------------------------------------------------------------
#
# Smart constructors fold constants and drop additive/multiplicative
# identities so derivative trees stay readable.  No deeper simplification.

def _const(v: float) -> Constant:
    return Constant(v)


def _is_const(e: Expr, v: Optional[float] = None) -> bool:
    return isinstance(e, Constant) and (v is None or e.value == v)


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        return _const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        return _const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Unary("-", b)
    return Binary("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        v = a.value * b.value
        if math.isfinite(v):
            return _const(v)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _const(0.0)
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Constant) and isinstance(b, Constant) and b.value != 0.0:
        v = a.value / b.value
        if math.isfinite(v):
            return _const(v)
    return Binary("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _const(1.0)
    return Binary("^", a, b)


def differentiate(e: Expr) -> Expr:
    """Return the symbolic derivative of ``e`` with respect to ``x``."""
    if isinstance(e, Constant):
        return _const(0.0)
    if isinstance(e, Variable):
        return _const(1.0)
    if isinstance(e, Unary):
        return _sub(_const(0.0), differentiate(e.operand))
    if isinstance(e, Binary):
        u, v = e.left, e.right
        du, dv = differentiate(u), differentiate(v)
        if e.op == "+":
            return _add(du, dv)
        if e.op == "-":
            return _sub(du, dv)
        if e.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if e.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, _const(2.0)))
        # u^v
        if isinstance(v, Constant):
            # power rule: c * u^(c-1) * u'
            return _mul(_mul(v, _pow(u, _const(v.value - 1.0))), du)
        # general case: u^v * (v' ln u + v u'/u)
        return _mul(
            _pow(u, v),
            _add(_mul(dv, Call("ln", u)), _mul(v, _div(du, u))),
        )
    # Call
    u = e.arg
    du = differentiate(u)
    name = e.name
    if name == "sin":
        outer: Expr = Call("cos", u)
    elif name == "cos":
        outer = Unary("-", Call("sin", u))
    elif name == "tan":
        outer = _div(_const(1.0), _pow(Call("cos", u), _const(2.0)))
    elif name == "arctan":
        outer = _div(_const(1.0), _add(_const(1.0), _pow(u, _const(2.0))))
    elif name == "exp":
        outer = Call("exp", u)
    elif name in ("ln", "log"):
        outer = _div(_const(1.0), u)
    elif name == "log10":
        outer = _div(_const(1.0), _mul(u, _const(math.log(10.0))))
    elif name == "abs":
        # d|u| = u/|u| * u'; undefined at u=0, surfaces as a domain error there
        outer = _div(u, Call("abs", u))
    elif name == "cbrt":
        outer = _div(_const(1.0), _mul(_const(3.0), _pow(Call("cbrt", u), _const(2.0))))
    else:  # sqrt
        outer = _div(_const(1.0), _mul(_const(2.0), Call("sqrt", u)))
    return _mul(outer, du)


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def render(e: Expr) -> str:
    """Unambiguous text form; parse(render(e)) evaluates identically to e."""
    if isinstance(e, Constant):
        v = e.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Unary):
        return f"(-{render(e.operand)})"
    if isinstance(e, Binary):
        return f"({render(e.left)} {e.op} {render(e.right)})"
    return f"{e.name}({render(e.arg)})"
