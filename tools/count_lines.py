"""Count code, documentation and blank lines per module of ``src/lsqroots``.

A code line holds at least one token that is neither a comment nor part of
a module, class or function docstring.  A documentation line is any other
line that holds a comment or docstring text, a blank line inside a
docstring included.  Every other line is blank: it holds nothing but
whitespace.  Uses the standard library only:

    python tools/count_lines.py [directory]
    python tools/count_lines.py BEFORE AFTER

Given two package directories, it prints each module's three counts on
both sides, BEFORE first, and the change in its code lines; a module
that one side lacks reads 0 there.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lsqroots"

# Tokens that hold no text of their own.
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set:
    """(line, column) where each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(path: Path) -> tuple:
    """``(code, documentation, blank)`` line counts of one source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(ast.parse(source))
    code, doc = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        rows = range(tok.start[0], tok.end[0] + 1)
        is_doc = tok.type == tokenize.COMMENT or (
            tok.type == tokenize.STRING and tok.start in docstrings)
        (doc if is_doc else code).update(rows)
    lines = source.splitlines()
    doc -= code
    return len(code), len(doc), len(lines) - len(code) - len(doc)


def _row(name: str, sides: list) -> str:
    cells = "".join(f"{c:>7}" for counts in sides for c in counts)
    delta = f"{sides[1][0] - sides[0][0]:>+7}" if len(sides) == 2 else ""
    return f"{name:<16}{cells}{delta}"


def main(argv: list) -> int:
    roots = [Path(arg) for arg in argv] or [PACKAGE]
    if len(roots) > 2:
        print("usage: python tools/count_lines.py [directory [directory]]", file=sys.stderr)
        # Exit here, as argparse does, so that stdout_errors.run passes the
        # usage error on as it is.
        raise SystemExit(2)
    tables = [{path.name: count(path) for path in root.glob("*.py")} for root in roots]
    totals = [(0, 0, 0)] * len(tables)
    print(f"{'module':<16}" + f"{'code':>7}{'doc':>7}{'blank':>7}" * len(tables)
          + (f"{'delta':>7}" if len(tables) == 2 else ""))
    for name in sorted(set().union(*tables)):
        sides = [table.get(name, (0, 0, 0)) for table in tables]
        totals = [tuple(map(sum, zip(t, c))) for t, c in zip(totals, sides)]
        print(_row(name, sides))
    print(_row("total", totals))
    return 0

if __name__ == "__main__":
    import stdout_errors
    sys.exit(stdout_errors.run(main, sys.argv[1:]))
