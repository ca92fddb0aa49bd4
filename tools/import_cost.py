"""Time what one import statement costs each lsqroots module at a cold start.

    python tools/import_cost.py [--checkout DIR [--checkout DIR]] [--runs N] [CODE]

``CODE`` (default ``import lsqroots``) runs in ``--runs`` fresh
interpreters per checkout under ``-X importtime`` with
``PYTHONDONTWRITEBYTECODE=1``.  The ``src/lsqroots`` of each ``DIR``
(default: this checkout) is first copied, without any ``__pycache__``,
into a temporary directory that the interpreters import it from, so every
module of the package is compiled from source on every start, as on a
host that runs a fresh checkout with that variable set; the standard
library keeps its installed bytecode.  Compilation runs in C, which
``tools/count_bytecodes.py`` cannot see.

Prints, for each ``lsqroots`` module the statement imports, the median
over the runs of its self time (compiling and running its body) and its
cumulative time (with the modules it imports first), in milliseconds.
Given two checkouts A and B, it starts their interpreters in turn (A B,
B A, A B, ...), so that a drift in the host's speed reaches both alike,
and prints both sides' medians per module, A first.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_times(code: str, src: Path) -> dict:
    """``{module: (self_us, cumulative_us)}`` of one fresh interpreter
    running ``code`` with ``src`` on its path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{code!r} failed:\n{proc.stderr}")
    times = {}
    for line in proc.stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <indent><module>"
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            times[fields[2].strip()] = (int(fields[0]), int(fields[1]))
    return times


def package_costs(code: str, checkouts: list, runs: int) -> list:
    """Per checkout, ``{module: (median self ms, median cumulative ms)}``
    over ``runs`` fresh interpreters, for the ``lsqroots`` modules ``code``
    imports.  The checkouts' interpreters start in turn, the order
    reversed on every other run."""
    samples = [defaultdict(list) for _ in checkouts]
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for side, checkout in enumerate(checkouts):
            src = Path(tmp) / str(side) / "src"
            shutil.copytree(checkout / "src" / "lsqroots", src / "lsqroots",
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            sides.append((side, src))
        for run in range(runs):
            for side, src in (sides if run % 2 == 0 else sides[::-1]):
                for module, cost in import_times(code, src).items():
                    if module == "lsqroots" or module.startswith("lsqroots."):
                        samples[side][module].append(cost)
    return [{module: tuple(statistics.median(c[i] for c in costs) / 1000.0 for i in (0, 1))
             for module, costs in side.items()} for side in samples]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("code", nargs="?", default="import lsqroots",
                        help="the statement to time (default: import lsqroots)")
    parser.add_argument("--checkout", type=Path, action="append",
                        help="root of a source checkout to measure; give it twice to "
                             "compare two (default: this one)")
    parser.add_argument("--runs", type=int, default=20,
                        help="fresh interpreters per checkout, one run each (default 20)")
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in args.checkout or [ROOT]]
    if args.runs < 1:
        parser.error("--runs must be positive")
    if len(checkouts) > 2:
        parser.error("--checkout may be given at most twice")

    try:
        costs = package_costs(args.code, checkouts, args.runs)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(costs) == 1:
        print(f"{args.code}: medians of {args.runs} fresh interpreters, "
              "PYTHONDONTWRITEBYTECODE=1")
        print(f"{'self_ms':>9}  {'cumulative_ms':>13}  module")
        for module in sorted(costs[0]):
            own, cumulative = costs[0][module]
            print(f"{own:>9.2f}  {cumulative:>13.2f}  {module}")
        return 0
    print(f"{args.code}: medians of {args.runs} fresh interpreters per checkout, "
          "taken in turn, PYTHONDONTWRITEBYTECODE=1")
    for name, checkout in zip("AB", checkouts):
        print(f"{name} {checkout}")
    print(f"{'self_A':>9}{'self_B':>9}{'cumul_A':>10}{'cumul_B':>10}  module")
    for module in sorted(set(costs[0]) | set(costs[1])):
        (own_a, cum_a), (own_b, cum_b) = (side.get(module, (0.0, 0.0)) for side in costs)
        print(f"{own_a:>9.2f}{own_b:>9.2f}{cum_a:>10.2f}{cum_b:>10.2f}  {module}")
    return 0


if __name__ == "__main__":
    import stdout_errors
    sys.exit(stdout_errors.run(main))
