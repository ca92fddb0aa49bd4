"""lsqroots benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/lsqroots`` must exist).
Order of a run:

1. counting pass: the seed's input set once, with counting wrappers
   installed; gives the exact counts and runs the output checks;
2. ``--trace 0``: a timed closed loop of operations for ``--seconds``
   (and at least MIN_OPS operations).  Spread over the loop, between
   operations, SETUP_RUNS fresh interpreters each time ``import lsqroots``
   plus the workload's set-up calls; their median is ``setup_s``.
   Prints the end-to-end metrics.
   After every CALIBRATE_EVERY_S of operation time, the loop also times
   ``calibration_work``, fixed pure-Python work that does not call the
   program.  Every end-to-end timing is scaled by REFERENCE_CAL_S /
   (median calibration time), over the CALIBRATE_WINDOW samples around an
   in-process op, or over the whole run for child processes: a shared
   host whose speed drifts by up to 2x slows both alike, while a change in
   the program's own cost shows in full.  The unscaled figures are printed
   as ``wall`` lines.
   ``--trace 1``: half the time untraced, half with spans recorded at
   every layer boundary; prints the per-layer metrics and the tracing
   overhead, and writes the spans to ``.perfbench/``.

Human-readable lines come first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  Failed output
checks go to stderr and count toward error_share.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 100           # so op_p90_ms has at least ten samples beyond it
MAX_LOOP_S = 150.0      # hard stop for a loop that cannot reach MIN_OPS
SETUP_RUNS = 15
CHILD_RUNS = 5          # fresh interpreters per cli.* layer metric
SPAN_CAP = 200_000      # traced phase ends at the first op boundary past this
MAX_PRINTED_FAILURES = 20
CALIBRATE_EVERY_S = 0.005   # op time per calibration sample of about 0.5 ms
CALIBRATE_WINDOW = 31       # samples around an op that give its scale, ~0.2 s
# Near the median of calibration_work on the 2-vCPU x86-64 VM the bounds
# were set on, under CPython 3.11: it fixes the unit, so scaled timings
# are of the same order as wall time there.
REFERENCE_CAL_S = 0.00050

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import lsqroots
{code}
print(repr(time.perf_counter() - t0))
"""


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def child_seconds(code: str, env) -> float:
    """Seconds a fresh interpreter reports for running ``code``."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def interpreter_seconds(env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env,
                   capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def calibration_work() -> float:
    """A fixed amount of the interpreter work the program does: float
    arithmetic, a math call, tuples, list and dict updates."""
    acc = 0.0
    pairs = []
    for i in range(400):
        x = i * 0.01 + 1.0
        acc += math.sqrt(x) * x - acc * 1e-3
        pairs.append((x, acc))
    table = {}
    for x, a in pairs:
        table[round(x, 1)] = a
    return acc + len(table)


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Failures:
    def __init__(self, workload: str):
        self.workload = workload
        self.count = 0

    def record(self, i: int, messages) -> None:
        if not messages:
            return
        self.count += 1
        if self.count <= MAX_PRINTED_FAILURES:
            for msg in messages:
                print(f"FAIL {self.workload} op {i}: {msg}", file=sys.stderr)


def call_op(op, api, inp, i, failures):
    """Run one op; an exception is a failure, reported with its traceback."""
    try:
        return op(api, inp), True
    except Exception:  # the run must go on and report every failure
        failures.record(i, [traceback.format_exc().rstrip()])
        return None, False


def counting_pass(wl, counts, failures):
    with counts.installed() as api:
        for i in range(wl.n_count):
            inp = wl.input(i)
            result, ok = call_op(wl.count_op, api, inp, i, failures)
            if ok:
                failures.record(i, wl.check_counted(i, inp, result))


def calibrate(samples: list, owed_s: float) -> float:
    """Time calibration_work into ``samples`` once for every CALIBRATE_EVERY_S
    of ``owed_s``, the operation time since the last sample; return the rest."""
    clock = time.perf_counter
    while owed_s >= CALIBRATE_EVERY_S:
        owed_s -= CALIBRATE_EVERY_S
        t0 = clock()
        calibration_work()
        samples.append(clock() - t0)
    return owed_s


def local_scale(samples: list, mark: int) -> float:
    """REFERENCE_CAL_S over the median of the CALIBRATE_WINDOW samples
    centred on ``mark``, the number of samples taken before an operation."""
    lo = max(0, min(mark, len(samples)) - CALIBRATE_WINDOW // 2)
    return REFERENCE_CAL_S / statistics.median(samples[lo:lo + CALIBRATE_WINDOW])


def timed_loop(wl, op, api, seconds, min_ops, failures, stop=None, pause=None, pauses=0,
               calibrations=None, marks=None):
    """Closed loop from input n_count on; returns per-op latencies (s).

    ``pause`` runs ``pauses`` times, evenly spread over the loop and between
    operations; the time it takes is added to the loop's deadline.  If
    ``calibrations`` is a list, each op is followed by the calibration
    samples it owes, and the number of samples taken before each op is
    appended to ``marks``.
    """
    latencies = []
    owed = CALIBRATE_EVERY_S            # the first op is followed by one
    clock = time.perf_counter
    began = clock()
    deadline = next_pause = began + seconds
    if pauses:
        next_pause, interval = began, seconds / pauses
    i = wl.n_count
    while True:
        if pauses and clock() >= next_pause:
            t0 = clock()
            pause()
            pauses -= 1
            deadline += clock() - t0
            next_pause += interval
        now = clock()
        if now - began > MAX_LOOP_S:
            print(f"warning: stopped after {len(latencies)} ops at the "
                  f"{MAX_LOOP_S:.0f} s limit", file=sys.stderr)
            break
        if now >= deadline and len(latencies) >= min_ops:
            break
        if stop is not None and stop():
            break
        inp = wl.input(i)
        t0 = clock()
        result, ok = call_op(op, api, inp, i, failures)
        latencies.append(clock() - t0)
        if ok:
            failures.record(i, wl.check_timed(i, inp, result))
        i += 1
        if calibrations is not None:
            marks.append(len(calibrations))
            owed = calibrate(calibrations, owed + latencies[-1])
    return latencies


def converged_shares(wl):
    m = {}
    total_ok = total = 0
    for method, (ok, n) in wl.converged.items():
        m[f"converged_share.{method}"] = (ok / n if n else 0.0, "share")
        total_ok += ok
        total += n
    m["converged_share"] = (total_ok / total if total else 0.0, "share")
    return m


def end_to_end(wl, counts, setup_s, latencies, attempted, failed):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "op_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
        "evals_per_op": (counts.evals / wl.n_count, "evals/op"),
        "ok_share": (1.0 - failed / attempted, "share"),
    }


def per_layer(wl, counts, tracer, untraced, traced, main_s, children):
    totals = tracer.totals()

    def span(layer):
        return totals.get(layer, (0, 0.0, 0.0))

    def per_call(layer, scale, column=1):
        n, *times = span(layer)
        return times[column - 1] / n * scale if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    op_time = span("op")[1]
    m = {}
    for layer in ("expressions.evaluate", "expressions.parse", "expressions.differentiate",
                  "lsq3.solve", "lsq3.adjust_delta", "baselines.solve_baseline",
                  "outcomes.detect_cycle"):
        m[f"{layer}.calls"] = (counts.count(layer), "count")
    for layer in ("expressions.evaluate", "expressions.parse", "expressions.differentiate",
                  "expressions.render", "lsq3.estimate_power", "lsq3.select_delta",
                  "lsq3.lsq3_step", "outcomes.detect_cycle", "outcomes.best_iterate",
                  "bench.final_rate"):
        m[f"{layer}.us_per_call"] = (per_call(layer, 1e6), "us")
    for layer in ("lsq3.solve", "lsq3.adjust_delta", "baselines.solve_baseline"):
        m[f"{layer}.self_us_per_call"] = (per_call(layer, 1e6, column=2), "us")
    for layer in ("bench.builtin_suite", "bench.run_benchmark", "bench.emit_report"):
        m[f"{layer}.ms"] = (per_call(layer, 1e3), "ms")
    m["expressions.evaluate.none_share"] = (
        ratio(counts.none, counts.count("expressions.evaluate")), "share")
    for layer in ("expressions.evaluate", "outcomes.detect_cycle"):
        m[f"{layer}.time_share"] = (ratio(span(layer)[1], op_time), "share")
    m["lsq3.adjust_delta.retry_share"] = (
        ratio(counts.probe_pairs - counts.useful_probes, counts.probe_pairs), "share")
    for prefix, methods in (("lsq3.solve", {"fixed": "lsq3-fixed", "variable": "lsq3-variable"}),
                            ("baselines.solve_baseline", {"newton": "newton", "secant": "secant"})):
        for label, method in methods.items():
            tally = counts.methods[method]
            m[f"{prefix}.iterations_per_call.{label}"] = (
                ratio(tally.iterations, tally.calls), "iterations")
            m[f"{prefix}.evals_per_call.{label}"] = (ratio(tally.evals, tally.calls), "evals")
    m["cli.interpreter_ms"] = (statistics.median(children["interpreter"]) * 1e3, "ms")
    m["cli.import_ms"] = (statistics.median(children["import"]) * 1e3, "ms")
    m["cli.main.ms"] = (statistics.median(main_s) * 1e3 if main_s else 0.0, "ms")
    m.update(converged_shares(wl))
    untraced_rate = len(untraced) / sum(untraced)
    traced_rate = len(traced) / sum(traced)
    m["tracing.ops_per_s.untraced"] = (untraced_rate, "1/s")
    m["tracing.ops_per_s.traced"] = (traced_rate, "1/s")
    m["tracing.overhead"] = (untraced_rate / traced_rate, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "basin", "expr-scan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest input sets and op counts, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "lsqroots" / "__init__.py").is_file():
        print(f"error: no lsqroots sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    min_ops = 10 if args.tiny else MIN_OPS
    env = child_env()

    import workloads
    from probes import Counts, Probe, Tracer

    wl = workloads.make(args.workload, args.seed, args.tiny, str(ROOT), env)
    # A warm-up child first, so byte-code compilation is never timed.
    code = SETUP_CHILD.format(code=wl.setup_code)
    child_seconds(code, env)

    plain = Probe().api()
    wl.prepare(plain)
    failures = Failures(args.workload)
    counts = Counts()
    counting_pass(wl, counts, failures)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in wl.properties(counts).items():
        print(f"input {key} {json.dumps(value)}")

    if args.trace == 0:
        # Set-up samples are spread over the run, so that their median sees
        # the same machine load as the timed operations.
        setups, calibrations, marks = [], [], []
        latencies = timed_loop(wl, wl.run, plain, args.seconds, min_ops, failures,
                               pause=lambda: setups.append(child_seconds(code, env)),
                               pauses=3 if args.tiny else SETUP_RUNS,
                               calibrations=calibrations, marks=marks)
        attempted = wl.n_count + len(latencies)
        # An op in this process is scaled by the host speed around it.  Child
        # processes run on whichever CPU is free, so set-up samples and cli
        # ops are scaled by the speed over the whole run.
        run_scale = REFERENCE_CAL_S / statistics.median(calibrations)
        if wl.in_process:
            scaled = [t * local_scale(calibrations, m) for t, m in zip(latencies, marks)]
        else:
            scaled = [t * run_scale for t in latencies]
        setup_s = statistics.median(setups)
        metrics = end_to_end(wl, counts, setup_s * run_scale, scaled, attempted, failures.count)
        wall = end_to_end(wl, counts, setup_s, latencies, attempted, failures.count)
        for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms"):
            print(f"wall {name} {wall[name][0]!r} {wall[name][1]}")
        print(f"calibration {len(calibrations)} samples, median "
              f"{statistics.median(calibrations) * 1e3!r} ms, run scale {run_scale!r}")
        info = converged_shares(wl)
        print(f"ops {len(latencies)} timed + {wl.n_count} counted")
    else:
        half = args.seconds / 2
        untraced = timed_loop(wl, wl.count_op, plain, half, min_ops, failures)
        main_s = untraced if args.workload == "cli" else []
        tracer = Tracer()
        with tracer.installed() as api:
            wl.setup(api)            # spans for the program's set-up calls
            traced = timed_loop(wl, tracer.wrap("op", wl.count_op, "perfbench"), api, half,
                                min_ops, failures, stop=lambda: len(tracer) >= SPAN_CAP)
        children = {
            "interpreter": [interpreter_seconds(env) for _ in range(CHILD_RUNS)],
            "import": [child_seconds(SETUP_CHILD.format(code="import lsqroots.cli"), env)
                       for _ in range(CHILD_RUNS)],
        }
        attempted = wl.n_count + len(untraced) + len(traced)
        metrics = per_layer(wl, counts, tracer, untraced, traced, main_s, children)
        info = {}
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.csv")
        print(f"spans {len(tracer)} written to .perfbench/spans-{args.workload}.csv")

    error_share = failures.count / attempted
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"error_share {error_share!r} ({failures.count} of {attempted} ops)")
    print(json.dumps({
        "correct": failures.count == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
