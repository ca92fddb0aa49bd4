"""Every suite run's full outcome, pinned bit for bit.

``tests/golden/bench.csv`` pins what the report prints; this pins what it
does not: each record's probe spacing, power and side values, the note,
and the exact bits of every float.  One line per ``lsqroots bench`` run:
``problem,start,method,<sha256 of the outcome>``.  ``golden/basin.txt``
pins the same digests beyond the suite: for each (problem, method), one
sha256 over the outcomes of ``basin_runs(per_problem=20, seed=2024)`` (from
``test_outcomes``) at ``max_iter`` 500, in the order of the starts.

Regenerate the golden files (only for a deliberate change of
behaviour, in a commit of its own that names the moved rows) with

    PYTHONPATH=src python tests/test_golden_traces.py > tests/golden/traces.txt
    PYTHONPATH=src python -m lsqroots.cli bench > tests/golden/bench.csv
    PYTHONPATH=src python -m lsqroots.cli bench --format markdown > tests/golden/bench.md
    PYTHONPATH=src python tests/test_golden_traces.py basin > tests/golden/basin.txt
"""

import hashlib
import struct
import sys
from pathlib import Path

from lsqroots.bench import METHOD_ORDER, SOLVERS, builtin_suite

GOLDEN = Path(__file__).parent / "golden" / "traces.txt"
BASIN_GOLDEN = Path(__file__).parent / "golden" / "basin.txt"


def _bits(v):
    return "" if v is None else struct.pack("<d", v).hex()


def outcome_digest(outcome) -> str:
    parts = [outcome.status.value, _bits(outcome.root), str(outcome.iterations),
             outcome.note]
    for k, rec in enumerate(outcome.trace, 1):
        parts.append(",".join([str(k)] + [
            _bits(v) for v in (rec.x, rec.y, rec.delta, rec.n_used,
                               rec.y_minus, rec.y_plus)]))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def trace_lines():
    for problem in builtin_suite():
        for start in problem.starts:
            for method in METHOD_ORDER:
                outcome = SOLVERS[method](problem.expression, start)
                yield f"{problem.id},{start!r},{method},{outcome_digest(outcome)}"


def basin_lines():
    # imported here: test_outcomes imports this module
    from test_outcomes import basin_runs, solvers_with_max_iter
    solvers = solvers_with_max_iter(500)
    digests = {}
    for problem, method, x0 in basin_runs(per_problem=20, seed=2024):
        outcome = solvers[method](problem.expression, x0)
        digests.setdefault((problem.id, method), []).append(outcome_digest(outcome))
    for (problem_id, method), group in digests.items():
        joined = hashlib.sha256("\n".join(group).encode()).hexdigest()
        yield f"{problem_id},{method},{joined}"


def test_every_run_matches_its_golden_trace():
    expected = GOLDEN.read_text().splitlines()
    got = list(trace_lines())
    assert len(got) == len(expected) == 108
    mismatched = [g for g, e in zip(got, expected) if g != e]
    assert not mismatched, mismatched


def test_every_basin_group_matches_its_golden_digest():
    expected = BASIN_GOLDEN.read_text().splitlines()
    got = list(basin_lines())
    assert len(got) == len(expected) == 14 * 4
    mismatched = [g for g, e in zip(got, expected) if g != e]
    assert not mismatched, mismatched


if __name__ == "__main__":
    for line in basin_lines() if sys.argv[1:] == ["basin"] else trace_lines():
        print(line)
