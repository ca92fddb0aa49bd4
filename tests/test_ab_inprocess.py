"""``tools/ab_inprocess.py`` at a tiny size, a checkout against itself."""

import importlib.util
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

from lsqroots.outcomes import IterationRecord, SolveOutcome, Status

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "tools" / "ab_inprocess.py")
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)


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
        basin, suite = evaluations(lines[5:])
        assert basin[0] == basin[1] and suite[0] == suite[1]
        assert all(f > 0 and fp > 0 for f, fp in basin + suite)


EVALUATIONS = re.compile(r"evaluations, (56 basin solves|suite pass): "
                         r"A ([\d,]+) f \+ ([\d,]+) f', B ([\d,]+) f \+ ([\d,]+) f', "
                         r"B/A (\d\.\d{4})")


def evaluations(lines):
    """(f, f') of A and of B, over the basin solves and over the suite
    pass, from the tool's last two lines."""
    assert len(lines) == 2
    counts = []
    for line, scope in zip(lines, ("56 basin solves", "suite pass")):
        match = EVALUATIONS.fullmatch(line)
        assert match and match[1] == scope, line
        f_a, fp_a, f_b, fp_b = (int(group.replace(",", "")) for group in match.groups()[1:5])
        assert float(match[6]) == round((f_b + fp_b) / (f_a + fp_a), 4)
        counts.append(((f_a, fp_a), (f_b, fp_b)))
    return counts


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
    changed = changed_copy(tmp_path, "outcomes.py", "cycle(trace[first:])",
                           "cycle([r._replace(y_plus=r.y_minus) for r in trace[first:]])")
    proc = run_tool(str(ROOT), str(changed), "--inputs", "2", "--starts", "1", "--seed", "3")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("check failed: ")
    assert lines[:-1] and all(line.startswith("basin ") and " y_plus: " in line
                              for line in lines[:-1])


def test_a_short_lsq3_solve_that_differs_fails_the_check(tmp_path):
    # another first probe spacing: the short solves of the random
    # expressions differ, as the stock basin solves do
    changed = changed_copy(tmp_path, "lsq3.py", "delta0: float = 0.1", "delta0: float = 0.11")
    proc = run_tool(str(ROOT), str(changed), "--inputs", "4", "--starts", "1", "--seed", "3")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("check failed: ")
    assert any(line.startswith("lsq3 ") for line in lines), lines


def test_a_whole_tree_shape_that_ignores_sharing_fails_the_check(tmp_path):
    # Each node operand reads as the entry walked last, as if no node were
    # held twice: parsed trees share no node, so f compiles right, but the
    # derivatives of the random expressions do, and the short Newton solves
    # that compile them whole differ
    changed = changed_copy(tmp_path, "outcomes.py",
                           "index[id(node)] = len(shape) - 1\n        return i\n",
                           "index[id(node)] = len(shape) - 1\n        return len(shape) - 1\n")
    proc = run_tool(str(ROOT), str(changed), "--inputs", "5", "--starts", "1", "--seed", "3")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("check failed: ")
    assert any(line.startswith("newton ") for line in lines), lines
    assert not any(line.startswith(("lsq3 ", "expr-scan ")) for line in lines), lines


def test_a_call_that_skips_its_argument_check_fails_the_check(tmp_path):
    # A call no longer checks that its argument is finite, so arctan(inf)
    # reads pi/2 and exp(-inf) 0 where the value should be None.  Parsed
    # text holds no constant that is not finite, so only the random
    # expressions with a leaf constant replaced by inf or 10**400 tell
    # the two sides apart.
    changed = changed_copy(tmp_path, "expressions.py", 'if fn or tag == "^"', 'if tag == "^"')
    proc = run_tool(str(ROOT), str(changed), "--inputs", "10", "--starts", "1", "--seed", "1")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("check failed: ")
    assert lines[:-1] and all(line.startswith("leaf ") and line.endswith(": values differ")
                              for line in lines[:-1]), lines
    assert {line.split()[1] for line in lines[:-1]} == {"inf", "10**400"}


def test_an_extra_evaluation_per_lsq3_solve_is_counted(tmp_path):
    # Each lsq3 solve evaluates f at its start twice: the outputs stay the
    # same, and B counts one f more per lsq3 solve: 28 of the 56 basin
    # solves and 54 of the suite pass's 108.
    changed = changed_copy(tmp_path, "lsq3.py", "y0 = fx(x0)", "y0 = (fx(x0), fx(x0))[0]")
    proc = run_tool(str(ROOT), str(changed), "--workload", "basin", "--chunks", "2",
                    "--inputs", "2", "--starts", "1", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    basin, suite = evaluations(proc.stdout.splitlines()[5:])
    for ((f_a, fp_a), (f_b, fp_b)), extra in ((basin, 28), (suite, 54)):
        assert (f_b - f_a, fp_b) == (extra, fp_a)


# A record of the earlier format, whose first field is its step number.
NumberedRecord = namedtuple("NumberedRecord", "k x y delta n_used y_minus y_plus",
                            defaults=(None,) * 4)


def test_records_with_and_without_a_step_number_compare_by_place():
    # Records that carried their step number k match the k-less records at
    # the same places; a k that is not the record's place is reported.
    rows = [(2.0, -0.0, 0.5, 1.0, -1.0, 1.0), (1.5, 0.25)]
    new = SolveOutcome(Status.MAX_ITERATIONS, 1.5, tuple(IterationRecord(*row) for row in rows))
    old = new._replace(trace=tuple(NumberedRecord(k, *row) for k, row in enumerate(rows, 1)))
    assert ab_inprocess.solve_difference(old, new) is None
    assert ab_inprocess.solve_difference(new, old) is None
    assert ab_inprocess.solve_difference(old, old) is None
    misnumbered = old._replace(trace=(old.trace[0], old.trace[1]._replace(k=1)))
    assert ab_inprocess.solve_difference(misnumbered, new) == "record 2 k: 1 != 2"
    assert ab_inprocess.solve_difference(new, misnumbered) == "record 2 k: 1 != 2"
    # the fields themselves are still compared bit for bit, a zero's sign too
    signed = new._replace(trace=(IterationRecord(2.0, 0.0, 0.5, 1.0, -1.0, 1.0), new.trace[1]))
    assert ab_inprocess.solve_difference(old, signed) == \
        f"record 1 y: {(-0.0).hex()} != {(0.0).hex()}"
