"""Every suite run's full outcome, pinned bit for bit.

``tests/golden/bench.csv`` pins what the report prints; this pins what it
does not: each record's probe spacing, power and side values, the note,
and the exact bits of every float.  One line per ``lsqroots bench`` run:
``problem,start,method,<sha256 of the outcome>``.

Regenerate all three golden files (only for a deliberate change of
behaviour, in a commit of its own that names the moved rows) with

    PYTHONPATH=src python tests/test_golden_traces.py > tests/golden/traces.txt
    PYTHONPATH=src python -m lsqroots.cli bench > tests/golden/bench.csv
    PYTHONPATH=src python -m lsqroots.cli bench --format markdown > tests/golden/bench.md
"""

import hashlib
import struct
from pathlib import Path

from lsqroots.bench import METHOD_ORDER, SOLVERS, builtin_suite

GOLDEN = Path(__file__).parent / "golden" / "traces.txt"


def _bits(v):
    return "" if v is None else struct.pack("<d", v).hex()


def outcome_digest(outcome) -> str:
    parts = [outcome.status.value, _bits(outcome.root), str(outcome.iterations),
             outcome.note]
    for rec in outcome.trace:
        parts.append(",".join([str(rec.k)] + [
            _bits(v) for v in (rec.x, rec.y, rec.delta, rec.n_used,
                               rec.y_minus, rec.y_plus)]))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def trace_lines():
    for problem in builtin_suite():
        for start in problem.starts:
            for method in METHOD_ORDER:
                outcome = SOLVERS[method](problem.expression, start)
                yield f"{problem.id},{start!r},{method},{outcome_digest(outcome)}"


def test_every_run_matches_its_golden_trace():
    expected = GOLDEN.read_text().splitlines()
    got = list(trace_lines())
    assert len(got) == len(expected) == 108
    mismatched = [g for g, e in zip(got, expected) if g != e]
    assert not mismatched, mismatched


if __name__ == "__main__":
    for line in trace_lines():
        print(line)
