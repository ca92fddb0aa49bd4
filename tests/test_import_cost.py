"""``tools/import_cost.py``: the lsqroots modules an import statement loads,
each with its median self and cumulative time."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "import_cost.py"
_spec = importlib.util.spec_from_file_location("import_cost", TOOL)
import_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_cost)

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


def test_two_checkouts_are_reported_side_by_side():
    proc = subprocess.run([sys.executable, str(TOOL), "--checkout", str(ROOT),
                           "--checkout", str(ROOT), "--runs", "2", "import lsqroots"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("import lsqroots: medians of 2 fresh interpreters per checkout, "
                        "taken in turn, PYTHONDONTWRITEBYTECODE=1")
    assert lines[1:3] == [f"A {ROOT}", f"B {ROOT}"]
    assert lines[3].split() == ["self_A", "self_B", "cumul_A", "cumul_B", "module"]
    rows = [line.split() for line in lines[4:]]
    assert [row[4] for row in rows] == ["lsqroots", "lsqroots.expressions"]
    for *times, _ in rows:
        own_a, own_b, cumulative_a, cumulative_b = map(float, times)
        assert 0.0 < own_a <= cumulative_a and 0.0 < own_b <= cumulative_b


def test_two_checkouts_start_their_interpreters_in_turn(monkeypatch):
    started = []

    def import_times(code, src):
        started.append(src.parent.name)
        return {"lsqroots": (1000 * len(started), 2000 * len(started))}

    monkeypatch.setattr(import_cost, "import_times", import_times)
    costs = import_cost.package_costs("import lsqroots", [ROOT, ROOT], 4)
    assert started == ["0", "1", "1", "0", "0", "1", "1", "0"]
    # Medians of the runs 1, 4, 5, 8 and 2, 3, 6, 7 (ms).
    assert costs == [{"lsqroots": (4.5, 9.0)}, {"lsqroots": (4.5, 9.0)}]


def test_at_most_two_checkouts():
    proc = subprocess.run([sys.executable, str(TOOL), "--checkout", str(ROOT),
                           "--checkout", str(ROOT), "--checkout", str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "--checkout may be given at most twice" in proc.stderr
