"""The figures the README quotes, recomputed.

Each test reads its figures from the README's own text, by a pattern
over the sentence that states them, and recomputes them from the
package, so a change to either side alone fails.
"""

import re
from pathlib import Path

import lsqroots.lsq3
from lsqroots.bench import run_benchmark

README = Path(__file__).resolve().parent.parent / "README.md"

SPACINGS = re.compile(
    r"Over the (\S+) lsq3 runs of `lsqroots bench`, `select_delta` chooses (\S+) "
    r"spacings: (\S+) by the β rule, (\S+) at the floor, and (\S+) where no β "
    r"qualified \(each after a step of 1e6 or more, giving a spacing of at least "
    r"1\)\. (\S+) of the (\S+) exceed the previous spacing\.")


def readme_figures(pattern):
    """The numbers that ``pattern`` captures in the README, its lines
    joined by single spaces, as ints (thousands separators dropped)."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = pattern.search(text)
    assert match, f"the README no longer states {pattern.pattern[:40]!r}..."
    return [int(group.replace(",", "")) for group in match.groups()]


def test_the_spacing_figures_are_those_of_one_bench_pass(monkeypatch):
    runs, chosen, by_beta, at_floor, no_beta, larger, chosen_again = readme_figures(SPACINGS)
    assert chosen_again == chosen
    select_delta, betas = lsqroots.lsq3.select_delta, lsqroots.lsq3._BETAS
    calls = []

    def counted(x_k, x_prev, delta_prev, ratio):
        delta = select_delta(x_k, x_prev, delta_prev, ratio)
        calls.append((x_k - x_prev, delta_prev, delta))
        return delta

    monkeypatch.setattr(lsqroots.lsq3, "select_delta", counted)
    rows = run_benchmark().rows
    kinds = {"beta": 0, "floor": 0, "none": 0}
    for dx, delta_prev, delta in calls:
        # The beta rule's spacing: the largest beta that qualifies.
        rule = next((beta * dx ** 2 for beta in betas
                     if beta * dx ** 2 < 1.0 and beta * dx ** 2 <= delta_prev), None)
        if rule is None:
            kinds["none"] += 1
            assert abs(dx) >= 1e6 and delta >= 1.0
        else:
            kinds["beta" if delta == rule else "floor"] += 1
    assert sum(row.method.startswith("lsq3") for row in rows) == runs
    assert len(calls) == chosen
    assert kinds == {"beta": by_beta, "floor": at_floor, "none": no_beta}
    assert sum(delta > delta_prev for _, delta_prev, delta in calls) == larger
