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
        assert lines[0] == ("check: identical on 5 expressions, 2000 parse texts, "
                            "56 basin solves and the suite CSV and Markdown")
        assert lines[1] == f"{workload}: 2 chunks of 25 operations, seed 3"
        assert lines[2].startswith("A ") and lines[3].startswith("B ")
        assert lines[4].startswith("B/A per chunk: median ")


def changed_copy(tmp_path, module, old, new):
    """A checkout whose ``module`` has ``old`` replaced by ``new``."""
    changed = tmp_path / "changed"
    source = ROOT / "src" / "lsqroots"
    target = changed / "src" / "lsqroots"
    target.mkdir(parents=True)
    for path in source.glob("*.py"):
        text = path.read_text()
        if path.name == module:
            assert old in text
            text = text.replace(old, new)
        (target / path.name).write_text(text)
    return changed


def test_a_checkout_that_differs_fails_the_check(tmp_path):
    # every secant run gets a different default second start
    changed = changed_copy(tmp_path, "baselines.py", "x1 = x0 + 0.1", "x1 = x0 + 0.2")
    proc = run_tool(str(ROOT), str(changed), "--inputs", "2", "--starts", "1")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("check failed: ")
    assert "suite CSV differs" in proc.stdout


def test_a_parser_that_words_an_error_differently_fails_the_check(tmp_path):
    changed = changed_copy(tmp_path, "expressions.py", "\"missing ')'\"", "\"no ')'\"")
    proc = run_tool(str(ROOT), str(changed), "--inputs", "2", "--starts", "1")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("check failed: ")
    assert all(line.startswith("parse ") for line in lines[:-1])
    assert "missing ')' (at position" in lines[0] and "no ')' (at position" in lines[0]


def test_a_derivative_rule_that_builds_another_tree_fails_the_check(tmp_path):
    # 1 * exp(u) has the values of exp(u), so only the trees tell them apart
    changed = changed_copy(tmp_path, "expressions.py",
                           '"exp": (math.exp, lambda u: Call("exp", u))',
                           '"exp": (math.exp, lambda u: Binary("*", _ONE, Call("exp", u)))')
    proc = run_tool(str(ROOT), str(changed), "--inputs", "2", "--starts", "1")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("check failed: ")
    assert all(line.startswith("differentiate ") for line in lines[:-1])
    for problem in ("sin-exp-log", "sharp-exponential", "gauss-bump"):
        assert f"differentiate {problem}: trees differ" in lines


def test_a_periodic_tail_that_writes_one_wrong_field_fails_the_check(tmp_path):
    # The copied tail writes each y_minus into y_plus as well: status, root,
    # iterations and the suite reports stay the same, only the traces differ.
    changed = changed_copy(tmp_path, "outcomes.py", "*map(cycle, columns)",
                           "*map(cycle, columns[:-1] + columns[-2:-1])")
    proc = run_tool(str(ROOT), str(changed), "--inputs", "2", "--starts", "1", "--seed", "3")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("check failed: ")
    assert lines[:-1] and all(line.startswith("basin ") and " y_plus: " in line
                              for line in lines[:-1])
