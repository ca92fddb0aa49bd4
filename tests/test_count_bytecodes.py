"""``tools/count_bytecodes.py``: counts per function, the same on every run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "count_bytecodes.py"
_spec = importlib.util.spec_from_file_location("count_bytecodes", TOOL)
count_bytecodes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_bytecodes)


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def loop(n):
    total = 0
    for i in range(n):
        total += i
    return total


def test_each_loop_pass_costs_the_same_bytecodes():
    counts = {n: count_bytecodes.count_opcodes(loop, [n])[loop.__code__] for n in (0, 10, 20)}
    assert 0 < counts[0] < counts[10] < counts[20]
    assert counts[20] - counts[10] == counts[10] - counts[0]
    assert count_bytecodes.label(loop.__code__) == "test_count_bytecodes:loop"


def test_basin_sample_counts_are_deterministic():
    outputs = [run_tool("--workload", "basin", "--starts", "1", "--seed", "3", "--top", "5")
               for _ in range(2)]
    assert all(proc.returncode == 0 for proc in outputs), outputs[0].stderr
    assert outputs[0].stdout == outputs[1].stdout
    lines = outputs[0].stdout.splitlines()
    assert lines[0].startswith("basin: 56 basin solves, seed 3: ")
    assert lines[0].endswith(" per operation")
    assert lines[1].split() == ["bytecodes", "share", "function"]
    assert len(lines) == 2 + 5
    names = [line.split()[-1] for line in lines[2:]]
    assert "lsqroots.outcomes:iterate" in names
    counts = [int(line.split()[0].replace(",", "")) for line in lines[2:]]
    assert counts == sorted(counts, reverse=True)


def test_a_suite_pass_lists_the_bench_layer():
    proc = run_tool("--workload", "suite", "--top", "40")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("suite: 1 suite pass: ")
    names = {line.split()[-1] for line in lines[2:]}
    assert {"lsqroots.bench:final_rate", "lsqroots.lsq3:select_delta",
            "lsqroots.expressions:evaluate"} <= names


def test_an_expr_scan_sample_counts_the_evaluator_and_the_parser():
    outputs = [run_tool("--workload", "expr-scan", "--inputs", "20", "--seed", "3", "--top", "40")
               for _ in range(2)]
    assert all(proc.returncode == 0 for proc in outputs), outputs[0].stderr
    assert outputs[0].stdout == outputs[1].stdout
    lines = outputs[0].stdout.splitlines()
    assert lines[0].startswith("expr-scan: 20 expressions, seed 3: ")
    names = {line.split()[-1] for line in lines[2:]}
    assert {"lsqroots.expressions:parse", "lsqroots.expressions:_compile",
            "lsqroots.expressions:evaluate", "lsqroots.expressions:_differentiate"} <= names
    assert not any(name.startswith(("lsqroots.lsq3:", "lsqroots.outcomes:")) for name in names)
