"""Counting and tracing wrappers, installed by rebinding module names.

The program is not edited.  Each lsqroots module looks up the functions
it calls (``evaluate`` in ``lsqroots.lsq3``, ``final_rate`` in
``lsqroots.bench``, ...) as module globals at call time, so replacing
those globals for the length of a pass puts a wrapper at every layer
boundary.  Calls the benchmark itself makes go through ``Probe.api``,
which hands out the same wrappers.

``Counts`` records exact call counts and f / f' evaluation counts.
``Tracer`` records spans (name, parent, start, end) in memory and derives
inclusive and self time from them after the pass.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import lsqroots.baselines
import lsqroots.bench
import lsqroots.cli
import lsqroots.expressions
import lsqroots.lsq3

# (module, global name, layer name).  Only names looked up through module
# globals are listed; ``differentiate`` and ``render`` recurse through
# their own module globals, so ``lsqroots.expressions`` is never patched
# and the benchmark's direct calls are wrapped in ``api`` instead.
PATCHES = (
    (lsqroots.lsq3, "evaluate", "expressions.evaluate"),
    (lsqroots.lsq3, "adjust_delta", "lsq3.adjust_delta"),
    (lsqroots.lsq3, "estimate_power", "lsq3.estimate_power"),
    (lsqroots.lsq3, "select_delta", "lsq3.select_delta"),
    (lsqroots.lsq3, "lsq3_step", "lsq3.lsq3_step"),
    (lsqroots.lsq3, "detect_cycle", "outcomes.detect_cycle"),
    (lsqroots.lsq3, "best_iterate", "outcomes.best_iterate"),
    (lsqroots.baselines, "evaluate", "expressions.evaluate"),
    (lsqroots.baselines, "differentiate", "expressions.differentiate"),
    (lsqroots.baselines, "detect_cycle", "outcomes.detect_cycle"),
    (lsqroots.baselines, "best_iterate", "outcomes.best_iterate"),
    (lsqroots.bench, "evaluate", "expressions.evaluate"),
    (lsqroots.bench, "parse", "expressions.parse"),
    (lsqroots.bench, "solve", "lsq3.solve"),
    (lsqroots.bench, "solve_baseline", "baselines.solve_baseline"),
    (lsqroots.bench, "final_rate", "bench.final_rate"),
    (lsqroots.bench, "builtin_suite", "bench.builtin_suite"),
    (lsqroots.cli, "parse", "expressions.parse"),
    (lsqroots.cli, "solve", "lsq3.solve"),
    (lsqroots.cli, "solve_baseline", "baselines.solve_baseline"),
)

# Functions the benchmark calls directly, by layer name.
API = {
    "expressions.parse": lsqroots.expressions.parse,
    "expressions.evaluate": lsqroots.expressions.evaluate,
    "expressions.differentiate": lsqroots.expressions.differentiate,
    "expressions.render": lsqroots.expressions.render,
    "lsq3.solve": lsqroots.lsq3.solve,
    "baselines.solve_baseline": lsqroots.baselines.solve_baseline,
    "bench.builtin_suite": lsqroots.bench.builtin_suite,
    "bench.run_benchmark": lsqroots.bench.run_benchmark,
    "bench.emit_report": lsqroots.bench.emit_report,
    "cli.main": lsqroots.cli.main,
}

# The evaluate call sites whose calls are f / f' evaluations of a solve;
# "perfbench" marks the benchmark's own calls (the expr-scan grid).
_EVAL_SITES = ("lsqroots.lsq3", "lsqroots.baselines", "perfbench")


class Probe:
    """Base: hands out unwrapped functions."""

    def wrap(self, layer: str, fn: Callable, site: str) -> Callable:
        return fn

    def api(self) -> Dict[str, Callable]:
        return {name: self.wrap(name, fn, "perfbench") for name, fn in API.items()}

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for (mod, attr, layer), (_, _, fn) in zip(PATCHES, saved):
                setattr(mod, attr, self.wrap(layer, fn, mod.__name__))
            yield self.api()
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


class MethodTally:
    __slots__ = ("calls", "iterations", "evals")

    def __init__(self):
        self.calls = self.iterations = self.evals = 0


class Counts(Probe):
    """Exact counts: calls per layer, f and f' evaluations, probe retries."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.none = 0                     # evaluate calls that returned None
        self.f_evals = 0                  # solver and grid evaluations of f
        self.fp_evals = 0                 # ... and of a derivative f'
        self.probe_pairs = 0              # probe pairs tried by adjust_delta
        self.useful_probes = 0            # ... and pairs it returned
        self.methods: Dict[str, MethodTally] = defaultdict(MethodTally)
        self._derivatives: Dict[int, object] = {}

    @property
    def evals(self) -> int:
        return self.f_evals + self.fp_evals

    def count(self, layer: str) -> int:
        return self.calls.get(layer, 0)

    def wrap(self, layer, fn, site):
        calls = self.calls
        calls.setdefault(layer, 0)
        if layer == "expressions.evaluate":
            return self._wrap_evaluate(fn, site in _EVAL_SITES)
        if layer == "expressions.differentiate":
            def differentiate(e):
                calls[layer] += 1
                d = fn(e)
                self._derivatives[id(d)] = d   # keep d alive so its id stays unique
                return d
            return differentiate
        if layer == "lsq3.adjust_delta":
            def adjust_delta(*args, **kwargs):
                calls[layer] += 1
                before = self.evals
                try:
                    result = fn(*args, **kwargs)
                    self.useful_probes += 1
                    return result
                finally:
                    self.probe_pairs += (self.evals - before) // 2
            return adjust_delta
        if layer == "lsq3.solve":
            def solve(f, x0, config=None):
                mode = "fixed" if config is None else config.mode
                return self._solve(layer, "lsq3-" + mode, fn, f, x0, config)
            return solve
        if layer == "baselines.solve_baseline":
            def solve_baseline(method, *args, **kwargs):
                return self._solve(layer, method, fn, method, *args, **kwargs)
            return solve_baseline

        def counted(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap_evaluate(self, fn, counts_as_eval: bool):
        calls = self.calls
        derivatives = self._derivatives

        def evaluate(e, x):
            calls["expressions.evaluate"] += 1
            y = fn(e, x)
            if y is None:
                self.none += 1
            if counts_as_eval:
                if id(e) in derivatives:
                    self.fp_evals += 1
                else:
                    self.f_evals += 1
            return y
        return evaluate

    def _solve(self, layer, method, fn, *args, **kwargs):
        self.calls[layer] += 1
        before = self.evals
        outcome = fn(*args, **kwargs)
        tally = self.methods[method]
        tally.calls += 1
        tally.iterations += outcome.iterations
        tally.evals += self.evals - before
        return outcome


class Tracer(Probe):
    """Spans kept in flat arrays; ``stack`` holds the open span ids."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def __len__(self):
        return len(self.start)

    def _name_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.names)
            self.names.append(layer)
        return self._ids[layer]

    def wrap(self, layer, fn, site):
        nid = self._name_id(layer)
        parent, name, start, end, stack = self.parent, self.name, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(nid)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
        return traced

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """layer -> (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: Dict[str, List[float]] = {}
        names = self.names
        for i in range(n):
            d = end[i] - start[i]
            acc = out.setdefault(names[self.name[i]], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += d
            acc[2] += d - child[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def write(self, path) -> None:
        """Write the spans as CSV: id,parent,name,start_s,end_s."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            names, parent, name, start, end = self.names, self.parent, self.name, self.start, self.end
            for i in range(len(start)):
                fh.write(f"{i},{parent[i]},{names[name[i]]},{start[i]!r},{end[i]!r}\n")
