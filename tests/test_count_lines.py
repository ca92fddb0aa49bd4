"""``tools/count_lines.py``: which lines count as code, documentation or blank."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SAMPLE = '''"""Module docstring,

two paragraphs."""

# a comment line
import math  # a trailing comment keeps a code line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is code,

        blank line included"""
        return text
'''


def test_sample_split(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # code: import, class, def, the 3 lines of the assignment, return
    # doc: 3 module docstring lines, the comment, 2 docstrings
    # blank: the rest
    assert count_lines.count(path) == (7, 6, 4)
    assert sum(count_lines.count(path)) == len(SAMPLE.splitlines())
