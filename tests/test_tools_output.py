"""Each tool whose output cannot be written, to a pipe whose reader has
left, to a full device or to no stdout at all, exits 1 with one line on
stderr and no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TOOLS = [
    ("count_lines.py", []),
    ("count_bytecodes.py", ["--workload", "expr-scan", "--inputs", "1", "--top", "0"]),
    ("import_cost.py", ["--runs", "1"]),
    ("ab_inprocess.py", [str(ROOT), str(ROOT), "--chunks", "2", "--inputs", "1",
                         "--starts", "1"]),
]


@pytest.mark.parametrize("tool, args", TOOLS, ids=[tool for tool, _ in TOOLS])
def test_output_that_cannot_be_written_ends_the_tool_quietly(tool, args, unwritable_stdout):
    streams, reason = unwritable_stdout
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / tool), *args],
                          stderr=subprocess.PIPE, text=True, timeout=120, **streams)
    assert proc.returncode == 1
    assert proc.stderr == f"{tool}: cannot write output: {reason}\n"


def test_a_usage_error_is_reported_before_a_closed_stdout():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "count_lines.py"), "a", "b", "c"],
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr == "usage: python tools/count_lines.py [directory [directory]]\n"
