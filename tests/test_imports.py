"""What importing the package loads.

``lsqroots solve`` pays for every module ``import lsqroots.cli`` loads, at
every cold start.  ``import lsqroots`` loads the expression layer alone;
the solvers, the outcome types and the bench load when a name of theirs
is first used.  Neither the package nor the CLI may load
``lsqroots.bench`` until a benchmark name is used, and no module of the
package loads ``dataclasses`` (nor, through it, ``inspect``).
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsqroots

SRC = str(Path(lsqroots.__file__).resolve().parent.parent)

PROBE = """\
import sys
before = set(sys.modules)
{code}
print(" ".join(sorted(set(sys.modules) - before)))
"""


def modules_added_by(code):
    """Names that running ``code`` adds to ``sys.modules`` in a fresh
    interpreter."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + old if old else ""))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(code=code)],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout.split()


@pytest.mark.parametrize("module", ["lsqroots", "lsqroots.cli"])
def test_import_loads_neither_dataclasses_nor_bench(module):
    added = modules_added_by(f"import {module}")
    assert module in added
    assert "dataclasses" not in added
    assert "lsqroots.bench" not in added


def test_import_loads_only_the_expression_layer():
    added = modules_added_by("import lsqroots")
    assert {name for name in added if name.startswith("lsqroots")} == {
        "lsqroots", "lsqroots.expressions"}


# What the first use of a name after ``import lsqroots`` loads of the package.
FIRST_USES = {
    "outcomes": {"outcomes"},
    "Status": {"outcomes"},
    "lsq3": {"lsq3", "outcomes"},
    "solve": {"lsq3", "outcomes"},
    "baselines": {"baselines", "outcomes"},
    "BaselineConfig": {"baselines", "outcomes"},
    "bench": {"bench", "lsq3", "baselines", "outcomes"},
    "builtin_suite": {"bench", "lsq3", "baselines", "outcomes"},
}


@pytest.mark.parametrize("name", FIRST_USES)
def test_a_name_loads_its_module_on_first_use(name):
    added = modules_added_by(f"import lsqroots\nlsqroots.{name}")
    assert {m for m in added if m.startswith("lsqroots.")} == {
        f"lsqroots.{module}" for module in FIRST_USES[name] | {"expressions"}}


DEFINED_IN = {
    "expressions": ("Expr", "ParseError", "differentiate", "evaluate", "parse", "render"),
    "outcomes": ("IterationRecord", "SolveOutcome", "Status"),
    "lsq3": ("SolverConfig", "solve"),
    "baselines": ("BaselineConfig", "solve_baseline"),
    "bench": ("BenchReport", "Problem", "builtin_suite", "convergence_rates",
              "emit_report", "f_n_curve", "final_rate", "run_benchmark"),
}


def test_building_the_suite_loads_neither_dataclasses_nor_inspect():
    added = modules_added_by("import lsqroots.bench\nlsqroots.builtin_suite()")
    assert "lsqroots.bench" in added
    assert "dataclasses" not in added
    assert "inspect" not in added


def test_every_exported_name_resolves():
    for name in lsqroots.__all__:
        assert getattr(lsqroots, name) is not None, name
    assert lsqroots.builtin_suite is lsqroots.bench.builtin_suite
    # each is the object its defining module exports
    assert sorted(sum(DEFINED_IN.values(), ())) == sorted(lsqroots.__all__)
    for module_name, names in DEFINED_IN.items():
        module = importlib.import_module(f"lsqroots.{module_name}")
        assert getattr(lsqroots, module_name) is module
        for name in names:
            assert getattr(lsqroots, name) is getattr(module, name), name
    assert set(lsqroots.__all__) <= set(dir(lsqroots))
    namespace = {}
    exec("from lsqroots import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lsqroots.__all__)
    with pytest.raises(AttributeError):
        lsqroots.no_such_name
