"""The golden outputs on every supported interpreter.

``pyproject.toml`` asks for Python 3.10 or later.  For each of
``python3.10`` … ``python3.13`` on ``PATH``, this runs the golden-trace
script and ``lsqroots bench`` (CSV and Markdown) with ``PYTHONPATH=src``
and compares their output with ``tests/golden/``.  An interpreter that is
missing, or that cannot start (a pyenv shim whose version is not
installed exits with "command not found"), is skipped.

    PYTHONPATH=src python -m pytest tests/test_interpreters.py -v
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# Each command's arguments after the interpreter, and the file it reproduces.
COMMANDS = (
    (("tests/test_golden_traces.py",), "traces.txt"),
    (("-m", "lsqroots.cli", "bench", "--format", "csv"), "bench.csv"),
    (("-m", "lsqroots.cli", "bench", "--format", "markdown"), "bench.md"),
)


def run(python, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_each_interpreter_reproduces_the_golden_outputs(version):
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"python{version} is not on PATH")
    probe = run(python, "-c", "import sys; print(sys.version_info[:2])")
    if probe.returncode != 0:
        pytest.skip(f"python{version} cannot start (exit {probe.returncode})")
    assert probe.stdout.strip() == str(tuple(map(int, version.split("."))))
    for args, golden in COMMANDS:
        proc = run(python, *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_text(), f"{golden} differs"
