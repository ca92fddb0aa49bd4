"""Reference data the benchmark checks the program against.

Nothing here imports lsqroots: the checks must not depend on the layers
being measured.

* ``STOCK`` holds an independent plain-Python version of each of the 14
  stock problems plus the start window the ``basin`` workload samples.
* ``gen_tree`` / ``render_tree`` / ``eval_tree`` generate random expression
  trees, write them as fully parenthesised text for the program's parser,
  and evaluate them with the documented semantics (IEEE doubles, ``None``
  on any domain error), so ``evaluate(parse(text), x)`` can be compared
  bit for bit.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Tuple

# A converged root must satisfy |f(root)| <= RESIDUAL_TOL under the
# reference function.  The solvers stop at |x_k - x_{k-1}| + |y_k| < 1e-15,
# so this leaves room for rounding differences between the two evaluators
# and still rejects any point that is not a root.
RESIDUAL_TOL = 1e-9

# Every start window is [min(roots) - WINDOW, max(roots) + WINDOW].  The
# paper's own starts lie at most 3.55 from the nearest stored root.
WINDOW = 4.0


def _cbrt(v: float) -> float:
    return 0.0 if v == 0.0 else math.copysign(abs(v) ** (1.0 / 3.0), v)


#: problem id -> (reference function, stored roots)
STOCK: Dict[str, Tuple[Callable[[float], float], Tuple[float, ...]]] = {
    "cubic-poly": (lambda x: x ** 3 + 4 * x ** 2 - 10, (1.365230013414100,)),
    "sin-square": (lambda x: math.sin(x) ** 2 - x ** 2 + 1, (-1.404491648215340,)),
    "repeated-root-poly": (lambda x: (x - 2) * (x + 2) ** 4, (-2.0,)),
    "sixth-power": (lambda x: (x - 1) ** 6 - 1, (2.0,)),
    "sin-exp-log": (lambda x: math.sin(x) * math.exp(x) + math.log(x * x + 1),
                    (-0.603231971557215,)),
    "sharp-exponential": (lambda x: math.exp(x * x + 7 * x - 30) - 1, (3.0,)),
    "log-linear": (lambda x: x - 3 * math.log(x), (1.857183860207840,)),
    "quintic-dense": (lambda x: 2 * x ** 5 - 3 * x ** 4 + 4 * x ** 3 - x ** 2 + 10 * x - 13,
                      (1.053392031515730,)),
    "log": (lambda x: math.log(x), (1.0,)),
    "arctan": (lambda x: math.atan(x), (0.0,)),
    "quintic-sparse": (lambda x: x ** 5 - x + 1, (-1.167303978261420,)),
    "cubic-two-cycle": (lambda x: 0.5 * x ** 3 - 6 * x ** 2 + 21.5 * x - 22, (4.0,)),
    "cube-root": (_cbrt, (0.0,)),
    "gauss-bump": (lambda x: 10 * x * math.exp(-x * x) - 1,
                   (1.679630610428450, 0.101025848315685)),
}


def window(problem_id: str) -> Tuple[float, float]:
    roots = STOCK[problem_id][1]
    return min(roots) - WINDOW, max(roots) + WINDOW


def stratified_starts(rng: random.Random, lo: float, hi: float, count: int) -> List[float]:
    """One uniform draw in each of ``count`` equal slices of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def residual_ok(problem_id: str, root: float) -> bool:
    """True if ``root`` is a root of the reference function."""
    fn = STOCK[problem_id][0]
    try:
        y = fn(root)
    except (ValueError, OverflowError, ZeroDivisionError):
        return False
    return math.isfinite(y) and abs(y) <= RESIDUAL_TOL


# ---------------------------------------------------------------------------
# Random expression trees
# ---------------------------------------------------------------------------
#
# Nodes are tuples: ("x",), ("c", value), ("neg", a), (op, a, b) for
# op in + - * / ^, and ("call", name, a).

FUNCTIONS = ("sin", "cos", "tan", "arctan", "exp", "ln", "log", "log10",
             "abs", "cbrt", "sqrt")
_EXPONENTS = (2.0, 3.0, 0.5, -1.0, 1.5, 4.0)

# Size distribution: the depth limit is uniform on 2..MAX_DEPTH and a node
# below the root becomes a leaf with probability LEAF_P.  Trees stay far
# below the nesting that exhausts the program's recursive parser, so no
# generated input is expected to raise; any that does is counted as an
# error, never filtered.
MAX_DEPTH = 7
LEAF_P = 0.25


def gen_tree(rng: random.Random, depth: int = 0, limit: Optional[int] = None) -> tuple:
    if limit is None:
        limit = rng.randint(2, MAX_DEPTH)
    if depth >= limit or (depth > 0 and rng.random() < LEAF_P):
        if rng.random() < 0.65:
            return ("x",)
        if rng.random() < 0.5:
            return ("c", float(rng.randint(1, 9)))
        return ("c", round(rng.uniform(0.1, 9.9), 2))
    r = rng.random()
    if r < 0.55:
        op = rng.choice("+-*/")
        return (op, gen_tree(rng, depth + 1, limit), gen_tree(rng, depth + 1, limit))
    if r < 0.65:
        base = gen_tree(rng, depth + 1, limit)
        if rng.random() < 0.75:
            return ("^", base, ("c", rng.choice(_EXPONENTS)))
        return ("^", base, gen_tree(rng, depth + 1, limit))
    if r < 0.9:
        return ("call", rng.choice(FUNCTIONS), gen_tree(rng, depth + 1, limit))
    return ("neg", gen_tree(rng, depth + 1, limit))


def render_tree(t: tuple) -> str:
    kind = t[0]
    if kind == "x":
        return "x"
    if kind == "c":
        v = t[1]
        return str(int(v)) if v == int(v) else repr(v)
    if kind == "neg":
        return f"(-{render_tree(t[1])})"
    if kind == "call":
        return f"{t[1]}({render_tree(t[2])})"
    return f"({render_tree(t[1])} {kind} {render_tree(t[2])})"


def tree_shape(t: tuple) -> Tuple[int, int]:
    """(node count, depth) of a tree; a single leaf has depth 1."""
    kind = t[0]
    if kind in ("x", "c"):
        return 1, 1
    children = [t[1]] if kind == "neg" else [t[2]] if kind == "call" else [t[1], t[2]]
    shapes = [tree_shape(c) for c in children]
    return 1 + sum(s[0] for s in shapes), 1 + max(s[1] for s in shapes)


class _Undefined(Exception):
    pass


_CALLS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "arctan": math.atan,
    "exp": math.exp, "ln": math.log, "log": math.log, "log10": math.log10,
    "abs": abs, "cbrt": _cbrt, "sqrt": math.sqrt,
}


def _eval(t: tuple, x: float) -> float:
    kind = t[0]
    if kind == "x":
        return x
    if kind == "c":
        return t[1]
    if kind == "neg":
        return -_eval(t[1], x)
    if kind == "call":
        u = _eval(t[2], x)
        try:
            v = _CALLS[t[1]](u)
        except (ValueError, OverflowError):
            raise _Undefined from None
    else:
        a = _eval(t[1], x)
        b = _eval(t[2], x)
        if kind == "+":
            v = a + b
        elif kind == "-":
            v = a - b
        elif kind == "*":
            v = a * b
        elif kind == "/":
            if b == 0.0:
                raise _Undefined
            v = a / b
        else:
            try:
                v = math.pow(a, b)
            except (ValueError, OverflowError):
                raise _Undefined from None
    if not math.isfinite(v):
        raise _Undefined
    return v


def eval_tree(t: tuple, x: float) -> Optional[float]:
    """Value of the tree at ``x``, or ``None`` where it leaves the real domain."""
    try:
        return _eval(t, x)
    except _Undefined:
        return None


def same_bits(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return type(a) is float and type(b) is float and a.hex() == b.hex()
