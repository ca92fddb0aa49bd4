"""``tools/ab_inprocess.py`` at a tiny size, a checkout against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), *args],
                          capture_output=True, text=True, timeout=120)


def test_a_checkout_against_itself_checks_identical_and_times_each_workload():
    for workload in ("expr-scan", "basin", "suite"):
        proc = run_tool(str(ROOT), str(ROOT), "--workload", workload, "--chunks", "2",
                        "--inputs", "5", "--starts", "1", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == ("check: identical on 5 expressions, 56 basin solves "
                            "and the suite CSV and Markdown")
        assert lines[1] == f"{workload}: 2 chunks of 25 operations, seed 3"
        assert lines[2].startswith("A ") and lines[3].startswith("B ")
        assert lines[4].startswith("B/A per chunk: median ")


def test_a_checkout_that_differs_fails_the_check(tmp_path):
    changed = tmp_path / "changed"
    (changed / "src").mkdir(parents=True)
    source = ROOT / "src" / "lsqroots"
    target = changed / "src" / "lsqroots"
    target.mkdir()
    for path in source.glob("*.py"):
        text = path.read_text()
        if path.name == "baselines.py":
            # every secant run gets a different default second start
            text = text.replace("x1 = x0 + 0.1", "x1 = x0 + 0.2")
            assert "x0 + 0.2" in text
        (target / path.name).write_text(text)
    proc = run_tool(str(ROOT), str(changed), "--inputs", "2", "--starts", "1")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("check failed: ")
    assert "suite CSV differs" in proc.stdout
