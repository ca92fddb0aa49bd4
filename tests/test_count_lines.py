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


def _package(root, modules):
    root.mkdir()
    for name, source in modules.items():
        (root / name).write_text(source)
    return root


def test_one_directory_prints_a_row_per_module_and_the_total(tmp_path, capsys):
    root = _package(tmp_path / "pkg", {"b.py": "x = 1\n\n", "a.py": SAMPLE})
    assert count_lines.main([str(root)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module             code    doc  blank",
        "a.py                  7      6      4",
        "b.py                  1      0      1",
        "total                 8      6      5",
    ]


def test_two_directories_print_both_sides_and_the_code_delta(tmp_path, capsys):
    before = _package(tmp_path / "before", {"a.py": SAMPLE, "gone.py": "x = 1\ny = 2\n"})
    after = _package(tmp_path / "after", {"a.py": SAMPLE + "z = 3\n", "new.py": "# doc\n"})
    assert count_lines.main([str(before), str(after)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module             code    doc  blank   code    doc  blank  delta",
        "a.py                  7      6      4      8      6      4     +1",
        "gone.py               2      0      0      0      0      0     -2",
        "new.py                0      0      0      0      1      0     +0",
        "total                 9      6      4      8      7      4     -1",
    ]
