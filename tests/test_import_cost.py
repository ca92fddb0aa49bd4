"""``tools/import_cost.py``: the lsqroots modules an import statement loads,
each with its median self and cumulative time."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "import_cost.py"

SOLVE_PATH = {"lsqroots", "lsqroots.expressions", "lsqroots.outcomes", "lsqroots.lsq3",
              "lsqroots.baselines"}


@pytest.mark.parametrize("code, modules", [
    ("import lsqroots", {"lsqroots", "lsqroots.expressions"}),
    ("import lsqroots.cli", SOLVE_PATH | {"lsqroots.cli"}),
    ("import lsqroots; lsqroots.builtin_suite()", SOLVE_PATH | {"lsqroots.bench"}),
])
def test_the_report_lists_the_modules_the_statement_loads(code, modules):
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "2", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"{code}: medians of 2 fresh interpreters, PYTHONDONTWRITEBYTECODE=1"
    assert lines[1].split() == ["self_ms", "cumulative_ms", "module"]
    rows = [line.split() for line in lines[2:]]
    assert [row[2] for row in rows] == sorted(modules)
    for own, cumulative, _ in rows:
        assert 0.0 < float(own) <= float(cumulative)


def test_a_failing_statement_is_reported():
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "1", "import lsqroots.nope"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: 'import lsqroots.nope' failed:")
    assert "ModuleNotFoundError" in proc.stderr
