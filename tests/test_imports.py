"""What importing the package loads.

``lsqroots solve`` pays for every module ``import lsqroots.cli`` loads, at
every cold start.  Neither the package nor the CLI may load
``lsqroots.bench`` until a benchmark name is used, and no module of the
package loads ``dataclasses`` (nor, through it, ``inspect``).
"""

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


def test_building_the_suite_loads_neither_dataclasses_nor_inspect():
    added = modules_added_by("import lsqroots.bench\nlsqroots.builtin_suite()")
    assert "lsqroots.bench" in added
    assert "dataclasses" not in added
    assert "inspect" not in added


def test_every_exported_name_resolves():
    for name in lsqroots.__all__:
        assert getattr(lsqroots, name) is not None, name
    assert lsqroots.builtin_suite is lsqroots.bench.builtin_suite
    assert set(lsqroots.__all__) <= set(dir(lsqroots))
    namespace = {}
    exec("from lsqroots import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lsqroots.__all__)
    with pytest.raises(AttributeError):
        lsqroots.no_such_name
