"""``parse`` against a frozen copy of the earlier recursive-descent parser.

``FrozenParser`` is the package's ``_Parser`` class as it was written
with a separate ``_skip_ws`` that ``_peek`` and ``parse`` called, and
with one later change made in both: a digit is an ASCII digit, not any
character ``str.isdigit`` accepts.  The package's one-pass parser must
give an equal tree for every text, or raise ``ParseError`` with the same
message and position.  The texts are drawn from a token alphabet that
reaches every branch of the lexer: numbers with exponents, operators,
three kinds of whitespace, names that are and are not functions, and
non-ASCII characters that ``str.isdigit`` takes for digits.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsqroots.expressions import (
    FUNCTIONS,
    MAX_DEPTH,
    Binary,
    Call,
    Constant,
    ParseError,
    Unary,
    Variable,
    parse,
)

# The operators that FrozenParser._expr chains, by level, loosest first.
_CHAINED = (("+", "-"), ("*", "/"))


class FrozenParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.groups = 0

    def parse(self):
        node, _ = self._expr(0)
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return node

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    @staticmethod
    def _too_deep(position):
        return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", position)

    def _expr(self, level):
        operators = _CHAINED[level]
        node, depth = self._unary() if level else self._expr(1)
        while self._peek() in operators:
            at = self.pos
            self.pos += 1
            right, right_depth = self._unary() if level else self._expr(1)
            node = Binary(self.text[at], node, right)
            depth = max(depth, right_depth) + 1
            if depth > MAX_DEPTH:
                raise self._too_deep(at)
        return node, depth

    def _minuses(self):
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
        self.groups += 1
        if self.groups > MAX_DEPTH:
            raise self._too_deep(self.pos - 1)
        result = self._expr(0)
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
        if "0" <= ch <= "9" or ch == ".":
            return self._number(), 0
        if ch.isalpha() or ch == "_":
            return self._name()
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def _number(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and ("0" <= text[self.pos] <= "9" or text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and "0" <= text[self.pos] <= "9":
                while self.pos < len(text) and "0" <= text[self.pos] <= "9":
                    self.pos += 1
            else:
                self.pos = mark
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


def outcome(parse_text, text):
    """The tree's repr (constants print exactly), or the error's message and position."""
    try:
        return "tree", repr(parse_text(text))
    except ParseError as err:
        return "error", str(err), err.position


def assert_parity(text):
    assert outcome(parse, text) == outcome(lambda t: FrozenParser(t).parse(), text), text


TOKENS = [*"0123456789", ".", "e", "E", *"+-*/^()", " ", "\t", "\x1c",
          "x", "sin", "sinx", "q", "_", "²", "½", "٣"]

texts = st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(texts)
def test_random_token_texts_parse_like_the_frozen_parser(text):
    assert_parity(text)


def _nestings(n):
    """Texts that nest ``n`` levels deep in each way the grammar nests."""
    return [
        "(" * n + "x" + ")" * n,
        "(" * n + "x" + ")" * (n - 1),
        "sin(" * n + "x" + ")" * n,
        "-" * n + "x",
        "- " * n + "2",
        "x^" * n + "x",
        "2^-" * n + "x",
        "x+" * n + "x",
        "x*" * n + "x",
        "x" + "*x" * (n - 1) + "+x" * (n - 1),
        "(-" * n + "x" + ")" * n,
        "abs(" * (n // 2) + "-(" * (n // 2) + "x" + ")" * (2 * (n // 2)),
        "\t(" * n + " x " + ")\x1c" * n,
    ]


@pytest.mark.parametrize("n", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
def test_nesting_at_the_limit_parses_like_the_frozen_parser(n):
    for text in _nestings(n):
        assert_parity(text)


def test_nesting_below_the_limit_parses_like_the_frozen_parser():
    for n in range(1, MAX_DEPTH - 1):
        for text in _nestings(n):
            assert_parity(text)


def _rendered_tree(rng, depth):
    """The fully parenthesised text of a random tree ``depth`` levels deep
    at most, in the form ``render`` gives and the expr-scan benchmark
    parses: spaces around binary operators, minus signs in parentheses."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.6:
            return "x"
        return str(rng.randint(1, 9)) if r < 0.8 else repr(round(rng.uniform(0.1, 9.9), 2))
    r = rng.random()
    if r < 0.65:
        op = rng.choice("+-*/^")
        return f"({_rendered_tree(rng, depth - 1)} {op} {_rendered_tree(rng, depth - 1)})"
    if r < 0.9:
        return f"{rng.choice(FUNCTIONS)}({_rendered_tree(rng, depth - 1)})"
    return f"(-{_rendered_tree(rng, depth - 1)})"


def test_rendered_trees_and_their_fragments_parse_like_the_frozen_parser():
    rng = random.Random(16)
    for _ in range(400):
        text = _rendered_tree(rng, rng.randint(3, 9))
        for variant in (text, text[:len(text) // 2], "".join(text.split()), text + ")"):
            assert_parity(variant)


@pytest.mark.parametrize("text", [
    "", " ", "\x1c", "x ", " x\t", "x y", "x )", "1e", "1e+", "1E-3", "2.5e3x",
    "²", "٣ + x", "½", "sinx(x)", "sin (x)", "sin", "q(x)", "_", "1..2", "1e٣", "2.5E-٣",
    # where a run of minus signs, and the operand after it, ends
    "-", "- -", "x^", "x^-", "x^ - -2", "x*-", "(-)", "-\t-x^-\x1c-2", "--x^--x",
    "2^-(x)", "x ^\t-\t(- x)",
    # what a NUMBER takes
    ".", ".5", "5.", "1.e5", "1e5.5", "1e999", "-.5e-3", "0x1", "1e+x",
    # where a name that starts with x ends, and whether a call follows it
    "x(x)", "x (1)", "x\t(", "xx", "x1", "x_1", "-x(2)", "sin x",
])
def test_hand_picked_texts_parse_like_the_frozen_parser(text):
    assert_parity(text)
