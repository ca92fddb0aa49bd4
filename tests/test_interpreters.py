"""The golden outputs on every supported interpreter.

``pyproject.toml`` asks for Python 3.10 or later.  For each of
``python3.10`` … ``python3.13``, this runs the golden-trace script and
``lsqroots bench`` (CSV and Markdown) with ``PYTHONPATH=src`` and compares
their output with ``tests/golden/``.  The interpreter is the one on
``PATH``, or, when that is missing or cannot start (a pyenv shim whose
version is installed but not selected exits 127, "command not found"),
pyenv's own build of it, ``$PYENV_ROOT/versions/<v>.*/bin/python<v>``
(``PYENV_ROOT`` defaults to ``~/.pyenv``).  A version that neither gives
is skipped.

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


def interpreter(version):
    """The first ``python<version>`` that starts, on ``PATH`` or in pyenv's
    versions, with what it printed for its version; ``None`` if none does."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which(f"python{version}"),
                  *sorted(pyenv.glob(f"versions/{version}.*/bin/python{version}"))]
    for python in candidates:
        if python is not None:
            probe = run(python, "-c", "import sys; print(sys.version_info[:2])")
            if probe.returncode == 0:
                return python, probe.stdout.strip()
    return None


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_each_interpreter_reproduces_the_golden_outputs(version):
    found = interpreter(version)
    if found is None:
        pytest.skip(f"no python{version} on PATH or in pyenv's versions can start")
    python, reported = found
    assert reported == str(tuple(map(int, version.split("."))))
    for args, golden in COMMANDS:
        proc = run(python, *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_text(), f"{golden} differs"
