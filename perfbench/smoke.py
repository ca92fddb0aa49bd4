"""Smoke test of the benchmark itself; run from the checkout root:

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, and checks
that each run prints exactly the metrics BENCHMARK.json names, with
their units, plus an error_share line; that exact metrics repeat
exactly for the same seed; and that the benchmark refuses to run, with
a non-zero exit and no result, where there are no lsqroots sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Exact metrics: counts and shares from the counting pass, the same on
# every run with the same seed.
EXACT = re.compile(r"(\.calls|_share\..*|^converged_share|none_share|retry_share"
                   r"|_per_call\.(fixed|variable|newton|secant)|^evals_per_op)$")


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc, workload: str, trace: int) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], out.keys()
    assert out["correct"] and out["failed"] == 0, proc.stderr
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in spec), (
        sorted(set(out["metrics"]) ^ {m["name"] for m in spec}))
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    share = [line for line in lines if line.startswith("error_share ")]
    assert len(share) == 1 and float(share[0].split()[1]) == 0.0, share
    return out["metrics"]


def exact(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if EXACT.search(k)}


def main() -> int:
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = exact(result(run(workload, trace), workload, trace))
            second = exact(result(run(workload, trace), workload, trace))
            assert first and first == second, (workload, trace, first, second)
        print(f"ok {workload}")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
