"""``detect_cycle`` against a direct statement of its rule, and the
iteration driver ``iterate`` on scripted steps and against a driver
without the periodic tail.

``reference_detect_cycle`` checks every period's full window, pairwise
match first and span second, with no shortcut; ``detect_cycle`` must give
the same verdict on every sequence.  ``reference_iterate`` calls the step
for every iteration; ``iterate``, which copies the tail of a run once a
state recurs, must give the same outcome, trace included, bit for bit.
"""

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsqroots.baselines
import lsqroots.lsq3
import lsqroots.outcomes
from lsqroots.baselines import BaselineConfig, solve_baseline
from lsqroots.bench import SOLVERS, builtin_suite, n_grid
from lsqroots.expressions import Binary, Constant, ParseError, Variable, evaluate, parse, render
from lsqroots.lsq3 import SolverConfig, solve
from lsqroots.outcomes import (
    CHECKED_REPLAYS,
    CYCLE_MATCH_RTOL,
    CYCLE_MAX_PERIOD,
    CYCLE_MIN_DIAMETER,
    CYCLE_MIN_INDEX,
    DIVERGENCE_BOUND,
    IterationRecord,
    SolveOutcome,
    Status,
    StepError,
    best_iterate,
    detect_cycle,
    iterate,
)
from test_expressions import sum_chain
from test_golden_traces import _bits, outcome_digest


def reference_detect_cycle(xs):
    if len(xs) < CYCLE_MIN_INDEX:
        return False
    scale = max(1.0, abs(xs[-1]))
    for period in range(2, CYCLE_MAX_PERIOD + 1):
        window = xs[-2 * period:]
        if all(
            abs(window[i] - window[i + period]) <= CYCLE_MATCH_RTOL * scale
            for i in range(period)
        ):
            if max(window) - min(window) > CYCLE_MIN_DIAMETER * scale:
                return True
    return False


def converging(rng):
    root = rng.uniform(-5.0, 5.0)
    ratio = rng.choice([1.0, -1.0]) * rng.uniform(0.05, 0.999)
    err = rng.uniform(-2.0, 2.0)
    return [root + err * ratio ** k for k in range(rng.randint(1, 40))]


def stalled(rng):
    x = rng.uniform(-1e3, 1e3)
    noise = rng.choice([0.0, 1e-16, 1e-12, 1e-9]) * max(1.0, abs(x))
    return [x + rng.uniform(-noise, noise) for _ in range(rng.randint(1, 20))]


def cycle(rng):
    period = rng.randint(2, 4)
    size = 10.0 ** rng.uniform(-6, 3)
    base = rng.uniform(-5.0, 5.0) * rng.choice([1.0, 1e3])
    pattern = [base + size * rng.uniform(-1.0, 1.0) for _ in range(period)]
    noise = rng.choice([0.0, 0.0, 1e-10, 3e-9, 1e-8, 3e-8, 1e-6]) * max(1.0, abs(base))
    prefix = [rng.uniform(-10.0, 10.0) for _ in range(rng.randint(0, 6))]
    body = [pattern[k % period] + rng.uniform(-noise, noise)
            for k in range(rng.randint(2 * period, 16))]
    return prefix + body


def on_span_edge(rng):
    # A period-2 cycle whose span is the minimum diameter itself, or one
    # float step either side of it.
    low = rng.choice([0.0, -0.25, 0.5, 3.0, -40.0])
    high = low + CYCLE_MIN_DIAMETER * max(1.0, abs(low))
    high = rng.choice([high, math.nextafter(high, math.inf), math.nextafter(high, -math.inf)])
    pair = [low, high] if rng.random() < 0.5 else [high, low]
    return pair * rng.randint(4, 8)


FAMILIES = [converging, stalled, cycle, on_span_edge]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_verdicts_match_reference_on_generated_sequences(family):
    rng = random.Random(family.__name__)
    verdicts = set()
    for _ in range(3000):
        xs = family(rng)
        expected = reference_detect_cycle(xs)
        assert detect_cycle(xs) == expected, xs
        verdicts.add(expected)
    if family in (cycle, on_span_edge):
        assert verdicts == {False, True}


def test_span_boundary_is_exclusive():
    assert not detect_cycle([0.0, CYCLE_MIN_DIAMETER] * 4)
    assert detect_cycle([0.0, math.nextafter(CYCLE_MIN_DIAMETER, 1.0)] * 4)


@pytest.mark.parametrize("period, head", [
    (2, [5.0, 6.0, 7.0, 8.0, 1.0]),
    (3, [9.0, 9.0, 2.0, 3.0]),
    (4, [2.0, 3.0, 4.0]),
])
def test_match_tolerance_is_inclusive(period, head):
    # the last iterate repeats its period's partner at exactly the tolerance
    # (scale 1), then one ulp over; the other periods' last pairs are far apart
    for gap, verdict in ((CYCLE_MATCH_RTOL, True),
                         (math.nextafter(CYCLE_MATCH_RTOL, 1.0), False)):
        xs = head + [gap] + head[1 - period:] + [0.0]
        assert len(xs) == 8 and xs[-1 - period] == gap
        assert reference_detect_cycle(xs) is verdict
        assert detect_cycle(xs) is verdict


def test_period_four_span_counts_the_eighth_last_iterate():
    # Without xs[-8] the span is 4e-9 short of the minimum diameter; with
    # it, 2e-9 over, and xs[-8] still matches xs[-4] within the tolerance.
    d = CYCLE_MIN_DIAMETER
    xs = [-6e-9, 0.3 * d, d - 4e-9, 0.6 * d, 0.0, 0.3 * d, d - 4e-9, 0.6 * d]
    assert reference_detect_cycle(xs)
    assert detect_cycle(xs)


pool = st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-9, 1.002, -1.0, 2.5, 1e6, math.nan, math.inf])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.one_of(pool, st.floats()), max_size=14))
def test_verdicts_match_reference_on_arbitrary_floats(xs):
    assert detect_cycle(xs) == reference_detect_cycle(xs)


# ---------------------------------------------------------------------------
# The iteration driver
# ---------------------------------------------------------------------------

class Stall(StepError):
    status = Status.SYMMETRIC_STALL


def scripted(*moves):
    """A step that plays ``moves`` in order: a float is the next iterate,
    an exception is raised.  The (cur, prev) pairs it saw are in ``calls``."""
    moves = list(moves)

    def step(cur, prev):
        step.calls.append((cur, prev))
        move = moves.pop(0)
        if isinstance(move, Exception):
            raise move
        return move, ()
    step.calls = []
    return step


def fx(x):
    """f(x) = x on x >= 0, undefined below."""
    return x if x >= 0.0 else None


def run(step, x0=5.0, max_iter=50, **kwargs):
    out = iterate(step, fx, x0, fx(x0), 1e-15, max_iter, **kwargs)
    assert out.iterations == len(out.trace)
    assert all(type(rec) is IterationRecord for rec in out.trace)
    if not out.converged:
        assert out.root == best_iterate(x0, fx(x0), out.trace)
    return out


def test_converged_returns_the_last_iterate():
    out = run(scripted(2.0, 0.0, 0.0))
    assert out.status is Status.CONVERGED
    assert out.root == 0.0
    assert out.iterations == 3
    assert out.note == ""


def test_max_iterations_returns_the_best_iterate():
    out = run(scripted(3.0, 1.0, 2.0, 4.0), max_iter=4)
    assert out.status is Status.MAX_ITERATIONS
    assert out.iterations == 4
    assert out.root == 1.0


def test_oscillating_once_the_cycle_repeats():
    out = run(scripted(*[1.0, 3.0] * 10))
    assert out.status is Status.OSCILLATING
    assert out.iterations == CYCLE_MIN_INDEX


def test_iterate_beyond_the_bound_diverges():
    out = run(scripted(2.0, 2 * DIVERGENCE_BOUND))
    assert out.status is Status.DIVERGED
    assert out.iterations == 2
    assert out.root == 2.0
    assert out.note == ""


@pytest.mark.parametrize("x_new", [math.inf, -math.inf, math.nan])
def test_non_finite_iterate_diverges_at_once(x_new):
    out = run(scripted(x_new))
    assert out.status is Status.DIVERGED
    assert out.iterations == 1
    assert math.isnan(out.trace[0].y)
    assert out.note == f"iterate left the domain at x={x_new!r}"
    assert out.root == 5.0


def test_one_off_domain_iterate_diverges():
    step = scripted(4.0, -1.0, 1.0)
    out = run(step)
    assert len(step.calls) == 2
    assert out.status is Status.DIVERGED
    assert [rec.x for rec in out.trace] == [4.0, -1.0]
    assert math.isnan(out.trace[-1].y)
    assert out.root == 4.0
    assert out.note == "iterate left the domain at x=-1.0"


def test_one_step_error_diverges_without_a_record():
    step = scripted(StepError("a"), 1.0)
    out = run(step)
    assert len(step.calls) == 1
    assert out.status is Status.DIVERGED
    assert out.iterations == 0
    assert out.root == 5.0
    assert out.note == "a"


def test_step_error_with_a_status_ends_the_run_at_once():
    out = run(scripted(4.0, Stall("flat"), 1.0))
    assert out.status is Status.SYMMETRIC_STALL
    assert out.iterations == 1
    assert out.root == 4.0
    assert out.note == "flat"


def test_a_note_set_before_the_run_is_kept():
    for moves in [(-1.0,), (Stall("flat"),),
                  (StepError("a"),), (0.0, 0.0), (2.0, 3.0, 4.0)]:
        assert run(scripted(*moves), max_iter=3, note="given").note == "given"


def test_only_the_classifying_break_sets_the_note():
    # a step error or an off-domain iterate names itself; the other endings
    # leave the note empty
    for moves, status, note in [
        ((2.0, 3.0, 1.0, 4.0), Status.MAX_ITERATIONS, ""),
        ((2.0, 2 * DIVERGENCE_BOUND), Status.DIVERGED, ""),
        ((2.0, 3.0, -1.0), Status.DIVERGED, "iterate left the domain at x=-1.0"),
        ((2.0, 3.0, StepError("a")), Status.DIVERGED, "a"),
    ]:
        out = run(scripted(*moves), max_iter=4)
        assert (out.status, out.note) == (status, note)


def test_step_sees_the_last_two_accepted_points():
    start = IterationRecord(9.0, 9.0)
    step = scripted(4.0, 3.0, 2.0, 1.0)
    out = run(step, max_iter=4, prev=start)
    xs = [(cur.x, prev.x) for cur, prev in step.calls]
    assert xs == [(5.0, 9.0), (4.0, 5.0), (3.0, 4.0), (2.0, 3.0)]
    # the first previous point is the one given, and the current point is
    # the accepted record itself
    assert step.calls[0][1] is start
    assert step.calls[1][0] is out.trace[0]
    assert step.calls[2][1] is out.trace[0]


def test_a_start_that_is_an_exact_root_converges_without_a_step():
    for prev, x0, root in [(None, 0.0, 0.0), (IterationRecord(0.0, 0.0), 3.0, 0.0),
                           (IterationRecord(2.0, 2.0), 0.0, 0.0),
                           (IterationRecord(-0.0, -0.0), -0.0, -0.0)]:
        step = scripted()
        out = run(step, x0=x0, prev=prev, note="given")
        assert step.calls == []
        assert out == (Status.CONVERGED, root, (), "given")
        assert math.copysign(1.0, out.root) == math.copysign(1.0, root)


# The starts of the exact-root cases: each is a root of its expression, and
# each made one method report a failure before the rule above.
EXACT_ROOTS = [("(x-1)^2", 1.0), ("abs(x)", 0.0), ("x^2", 0.0), ("cos(x)-1", 0.0)]


@pytest.mark.parametrize("method", list(SOLVERS))
@pytest.mark.parametrize("source, x0", EXACT_ROOTS)
def test_every_method_converges_at_once_from_an_exact_root(method, source, x0):
    out = SOLVERS[method](parse(source), x0)
    assert (out.status, out.root, out.trace) == (Status.CONVERGED, x0, ())


def test_secant_converges_at_once_when_either_start_is_an_exact_root():
    for x0, x1 in [(0.0, 0.5), (0.5, 0.0)]:
        out = solve_baseline("secant", parse("x^2"), x0, x1)
        assert (out.status, out.root, out.trace) == (Status.CONVERGED, 0.0, ())


def test_step_extras_fill_the_record():
    def step(cur, prev):
        return cur.x / 2.0, (0.1, 2.0, -1.0, 1.0)
    out = iterate(step, fx, 1.0, 1.0, 1e-15, 3)
    assert out.trace[0] == IterationRecord(0.5, 0.5, 0.1, 2.0, -1.0, 1.0)


def test_records_are_immutable_named_tuples():
    rec = IterationRecord(0.5, 0.25)
    assert rec == (0.5, 0.25, None, None, None, None)
    assert IterationRecord._fields == ("x", "y", "delta", "n_used", "y_minus", "y_plus")
    with pytest.raises(AttributeError):
        rec.x = 1.0


# ---------------------------------------------------------------------------
# The periodic tail, against a driver that calls every step
# ---------------------------------------------------------------------------

def reference_iterate(step, fx, x0, y0, tolerance, max_iter, prev=None, note=""):
    """The driver's rule with no periodic tail and the shortcut-free cycle test."""
    cur = IterationRecord(x0, y0)
    for start in (prev, cur):
        if start is not None and start.y == 0.0:
            return SolveOutcome(Status.CONVERGED, start.x, (), note)
    trace = []
    accepted = []
    status = Status.MAX_ITERATIONS
    for _ in range(max_iter):
        try:
            x_new, extras = step(cur, prev)
        except StepError as err:
            status = err.status or Status.DIVERGED
            note = note or str(err)
            break

        y_new = fx(x_new) if math.isfinite(x_new) else None
        rec = IterationRecord(x_new, math.nan if y_new is None else y_new, *extras)
        trace.append(rec)
        if y_new is None:
            status = Status.DIVERGED
            note = note or f"iterate left the domain at x={x_new!r}"
            break

        if abs(x_new - cur.x) + abs(y_new) < tolerance:
            return SolveOutcome(Status.CONVERGED, x_new, tuple(trace), note)
        if abs(x_new) > DIVERGENCE_BOUND:
            status = Status.DIVERGED
            break
        accepted.append(x_new)
        if reference_detect_cycle(accepted):
            status = Status.OSCILLATING
            break
        prev, cur = cur, rec

    return SolveOutcome(status, best_iterate(x0, y0, trace), tuple(trace), note)


def basin_runs(per_problem, seed):
    """(problem id, method, start) for seeded starts in [root - 6, root + 6]."""
    rng = random.Random(seed)
    for problem in builtin_suite():
        root = problem.reference_roots[0]
        for _ in range(per_problem):
            x0 = rng.uniform(root - 6.0, root + 6.0)
            for method in SOLVERS:
                yield problem, method, x0


def solvers_with_max_iter(max_iter):
    """The method table with every config spelt out, at ``max_iter``."""
    baseline = BaselineConfig(max_iter=max_iter)
    fixed = SolverConfig(mode="fixed", n_value=1.0, max_iter=max_iter)
    variable = SolverConfig(mode="variable", max_iter=max_iter)
    return {
        "newton": lambda f, x0: solve_baseline("newton", f, x0, None, baseline),
        "secant": lambda f, x0: solve_baseline("secant", f, x0, None, baseline),
        "lsq3-fixed": lambda f, x0: solve(f, x0, fixed),
        "lsq3-variable": lambda f, x0: solve(f, x0, variable),
    }


def test_all_methods_match_the_driver_without_replay(monkeypatch):
    tables = {max_iter: solvers_with_max_iter(max_iter) for max_iter in (9, 37, 500)}
    assert all(table.keys() == SOLVERS.keys() for table in tables.values())
    runs = [(max_iter, p, m, x0) for max_iter in tables
            for p, m, x0 in basin_runs(per_problem=20, seed=2024)]
    fast = [outcome_digest(tables[n][m](p.expression, x0)) for n, p, m, x0 in runs]
    monkeypatch.setattr(lsqroots.lsq3, "iterate", reference_iterate)
    monkeypatch.setattr(lsqroots.baselines, "iterate", reference_iterate)
    slow = [outcome_digest(tables[n][m](p.expression, x0)) for n, p, m, x0 in runs]
    mismatched = [(n, p.id, m, x0) for (n, p, m, x0), a, b in zip(runs, fast, slow) if a != b]
    assert not mismatched
    assert len(runs) == 3 * 14 * 20 * 4


def test_a_stuck_newton_run_replays_its_fixed_point(monkeypatch):
    # Newton from -6.0 sits at x = 3.2375629840239215 for 493 steps: the
    # steps that return it reuse its y, the copied tail saves the
    # evaluations, and all but its first checked copies save the cycle tests
    f = parse("sin(x) * exp(x) + ln(x^2 + 1)")
    real = lsqroots.baselines.evaluate
    real_detect_cycle = lsqroots.outcomes.detect_cycle
    calls = []
    cycle_tests = []

    def counting(expr, x):
        calls.append(x)
        return real(expr, x)

    def counting_detect_cycle(xs):
        cycle_tests.append(len(xs))
        return real_detect_cycle(xs)

    monkeypatch.setattr(lsqroots.baselines, "evaluate", counting)
    monkeypatch.setattr(lsqroots.outcomes, "detect_cycle", counting_detect_cycle)
    out = SOLVERS["newton"](f, -6.0)
    assert out.status is Status.MAX_ITERATIONS
    assert len(out.trace) == out.iterations == 500
    assert out.trace[-1].x == 3.2375629840239215
    assert len(calls) <= 30
    assert len(cycle_tests) <= 30
    assert cycle_tests == list(range(1, len(cycle_tests) + 1))
    calls.clear()
    monkeypatch.setattr(lsqroots.baselines, "iterate", reference_iterate)
    assert outcome_digest(SOLVERS["newton"](f, -6.0)) == outcome_digest(out)
    assert len(calls) == 1 + 2 * 500


@pytest.mark.parametrize("method", list(SOLVERS))
def test_a_tree_too_deep_to_evaluate_is_an_argument_error(method):
    with pytest.raises(ValueError, match="nested too deeply to evaluate"):
        SOLVERS[method](sum_chain(5000), 1.0)


def inf_chain(n):
    """``x + inf + ... + inf``, ``n`` ``Binary("+")`` nodes deep, built by
    hand: off the domain at every x, its deepest operand a constant that
    a parent reads through a closure."""
    e = Variable()
    for _ in range(n):
        e = Binary("+", e, Constant(math.inf))
    return e


# Each chain, and whether a solver that takes it converges (True) or ends
# with f undefined at the start (False).
CHAINS = [(sum_chain, True), (inf_chain, False)]


def outcome_or_error(run, chain, levels):
    """``run`` on a fresh ``chain(levels)``, or the ValueError it raised."""
    try:
        return run(chain(levels))
    except ValueError as err:
        return err


@pytest.mark.parametrize("method", list(SOLVERS))
def test_a_solver_takes_exactly_the_chains_that_evaluate_takes(method):
    # The deepest chain evaluate takes from here, found by bisection: the
    # solver, called the same way, takes it and refuses one level more.
    # Both walks keep two frames per level, so the frame each starts from
    # moves both bounds alike.
    def evaluated(e):
        return evaluate(e, 1.0)

    def solved(e):
        return SOLVERS[method](e, 1.0)

    for chain, solvable in CHAINS:
        evaluated(chain(2))             # the chain's node forms, generated once
        lo, hi = 1, 5000
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if isinstance(outcome_or_error(evaluated, chain, mid), ValueError):
                hi = mid
            else:
                lo = mid
        assert 100 < lo < sys.getrecursionlimit() // 2
        out = outcome_or_error(solved, chain, lo)
        assert not isinstance(out, ValueError), (chain.__name__, lo)
        if solvable:
            assert out.converged and abs(out.root) < 1e-12
        else:
            assert out.status is Status.DOMAIN_ERROR and out.note == "f undefined at starting point"
        err = outcome_or_error(solved, chain, lo + 1)
        assert isinstance(err, ValueError) and "nested too deeply to evaluate" in str(err), \
            (chain.__name__, lo)


def node_closures_only(monkeypatch):
    """Make the solvers keep each tree's node closures, as they did before
    they compiled the trees they iterate on."""
    for module in (lsqroots.lsq3, lsqroots.baselines):
        monkeypatch.setattr(module, "compile_tree", lambda e: None)


def nested(levels):
    """An expression ``levels`` nodes deep with its root at 0.5: a call, a
    product or a quotient around each level, around ``x - 0.5``."""
    text = "x - 0.5"
    for k in range(levels - 1):
        text = ("sin({})", "2 * ({})", "arctan({})", "({}) / 2")[k % 4].format(text)
    return text


@pytest.mark.parametrize("method", list(SOLVERS))
def test_each_method_solves_an_expression_as_deep_as_the_parser_allows(method, monkeypatch):
    with pytest.raises(ParseError, match="deeper than 100 levels"):
        parse(nested(101))
    e = parse(nested(100))
    out = SOLVERS[method](e, 0.45)
    assert out.converged and out.root == 0.5
    assert "_tree" in vars(e)
    node_closures_only(monkeypatch)
    assert outcome_digest(SOLVERS[method](parse(nested(100)), 0.45)) == outcome_digest(out)


@pytest.mark.parametrize("method", list(SOLVERS))
def test_four_threads_racing_on_a_fresh_trees_first_solve_get_one_outcome(method, monkeypatch):
    problems = builtin_suite()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for problem in problems:
            text, x0 = render(problem.expression), problem.starts[0]
            want = outcome_digest(SOLVERS[method](parse(text), x0))
            shared = parse(text)
            # no whole-tree function is compiled yet: the threads race on those too
            monkeypatch.setattr(lsqroots.outcomes, "_TREES", {})
            start = threading.Barrier(4)
            got = [None] * 4

            def work(i):
                start.wait(timeout=30)
                got[i] = outcome_digest(SOLVERS[method](shared, x0))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [want] * 4, problem.id
            assert "_tree" in vars(shared)
    finally:
        sys.setswitchinterval(interval)


# Each argument that must be finite, as a call that passes it ``v``, and
# the message that refuses a non-finite one.
_FINITE_ARGUMENTS = {
    "lsq3 x0": (lambda v: solve(parse("x-1"), v), "x0 must be finite"),
    "newton x0": (lambda v: solve_baseline("newton", parse("x-1"), v), "x0 must be finite"),
    "secant x0": (lambda v: solve_baseline("secant", parse("x-1"), v), "x0 must be finite"),
    "secant x1": (lambda v: solve_baseline("secant", parse("x-1"), 0.0, v),
                  "x1 must be finite"),
    "n_value": (lambda v: SolverConfig(n_value=v), "power must be finite"),
    "lsq3 tolerance": (lambda v: SolverConfig(tolerance=v), "tolerance must be positive"),
    "baseline tolerance": (lambda v: BaselineConfig(tolerance=v),
                           "tolerance must be positive"),
    "grid start": (lambda v: n_grid(v, 1.0, 0.5), "grid start must be finite"),
    "grid stop": (lambda v: n_grid(0.0, v, 0.5), "grid stop must be finite"),
    "grid step": (lambda v: n_grid(0.0, 1.0, v), "grid step must be finite"),
}


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["10**400", "-10**400"])
@pytest.mark.parametrize("argument", list(_FINITE_ARGUMENTS))
def test_an_int_beyond_float_range_is_not_finite(argument, value):
    call, message = _FINITE_ARGUMENTS[argument]
    with pytest.raises(ValueError, match=message):
        call(value)


def test_a_newton_run_stuck_at_a_pole_is_not_converged():
    # At the double nearest pi/2, tan(x) is about 1.6e16 and the Newton
    # step tan(x)/f'(x) is below half an ulp of x, so every step returns x:
    # an exact period-1 recurrence, with nothing near a root.
    out = solve_baseline("newton", parse("tan(x)"), math.pi / 2)
    assert not out.converged


def test_a_state_differing_only_in_the_sign_of_a_zero_is_not_replayed():
    # Each step flips the sign of the zero in y_minus; nothing else moves.
    def step(cur, prev):
        step.calls += 1
        flip = -math.copysign(0.0, 1.0 if cur.y_minus is None else cur.y_minus)
        return 2.0, (None, None, flip, None)
    step.calls = 0
    out = iterate(step, fx, 2.0, 2.0, 1e-15, 20)
    assert out.status is Status.MAX_ITERATIONS
    assert [math.copysign(1.0, rec.y_minus) for rec in out.trace] == [-1.0, 1.0] * 10
    # (none, start), (start, -0), (-0, +0) and (+0, -0) are new states; then
    # (-0, +0) recurs exactly and the rest is copied
    assert step.calls == 4
    assert outcome_digest(reference_iterate(step, fx, 2.0, 2.0, 1e-15, 20)) == outcome_digest(out)


def test_a_failing_step_is_taken_once():
    # a pure step that fails from the start: the first failure ends the run
    for move in (-1.0, StepError("no step")):
        def step(cur, prev):
            step.calls += 1
            if isinstance(move, Exception):
                raise move
            return move, ()
        step.calls = 0
        out = run(step, max_iter=10)
        assert out.status is Status.DIVERGED
        assert step.calls == 1
        assert out.iterations <= 1


# ---------------------------------------------------------------------------
# One evaluation per visited iterate
# ---------------------------------------------------------------------------

def counting(f):
    """``f`` that lists the bits of every ``x`` it is called at in ``xs``."""
    def counted(x):
        counted.xs.append(_bits(x))
        return f(x)
    counted.xs = []
    return counted


def run_both(step, f, x0, max_iter=50):
    """``iterate`` and ``reference_iterate`` on ``step`` from x0, each with
    its own counting ``f``: the outcome, which must be the same bit for bit,
    and the points ``f`` was called at after the start by each driver."""
    ours, theirs = counting(f), counting(f)
    out = iterate(step, ours, x0, f(x0), 1e-15, max_iter)
    ref = reference_iterate(step, theirs, x0, f(x0), 1e-15, max_iter)
    assert outcome_digest(out) == outcome_digest(ref)
    return out, ours.xs, theirs.xs


def test_a_step_that_stays_put_is_evaluated_once():
    # every step returns cur.x: the second step's y is the first's
    out, xs, ref_xs = run_both(lambda cur, prev: (cur.x, ()), fx, 5.0)
    assert out.status is Status.MAX_ITERATIONS
    assert xs == [_bits(5.0)]
    assert len(ref_xs) == 50


def test_an_exact_two_cycle_evaluates_each_iterate_once():
    # 5 -> 1 -> 2 -> 1 -> 2 ...
    out, xs, ref_xs = run_both(lambda cur, prev: (2.0 if cur.x == 1.0 else 1.0, ()), fx, 5.0)
    assert out.status is Status.OSCILLATING
    assert xs == [_bits(1.0), _bits(2.0)]
    assert len(ref_xs) == out.iterations


def test_a_step_back_onto_the_start_evaluates_it():
    # 5 -> 1 -> 5 -> 1 ...: the start's y is taken as given, never reused
    out, xs, _ = run_both(lambda cur, prev: (5.0 if cur.x == 1.0 else 1.0, ()), fx, 5.0)
    assert out.status is Status.OSCILLATING
    assert xs == [_bits(1.0), _bits(5.0)]


def test_a_step_from_zero_to_minus_zero_evaluates_it():
    # 5 -> 0.0 -> -0.0 -> 0.0 ...: f tells the zeros apart, and so does the
    # driver, which reuses each zero's own y
    out, xs, ref_xs = run_both(lambda cur, prev: (-cur.x if cur.x == 0.0 else 0.0, ()),
                               lambda x: 2.0 + math.copysign(1.0, x), 5.0)
    assert out.status is Status.MAX_ITERATIONS
    assert [rec.y for rec in out.trace[:4]] == [3.0, 1.0, 3.0, 1.0]
    assert xs == [_bits(0.0), _bits(-0.0)]
    assert len(ref_xs) == 50


def pure_table_step(seed):
    """A pure step: its move is drawn from a seeded table keyed by the bits
    of every field of (cur, prev), so +0.0 and -0.0 lead apart."""
    moves = [0.0, -0.0, 1.0, 2.0, 3.0, 3.0, 2.5, -1.0, StepError("no step")]
    zeros = [0.0, -0.0, None]

    def step(cur, prev):
        step.calls += 1
        fields = cur + (() if prev is None else prev)
        rng = random.Random(f"{seed}:" + ",".join(map(_bits, fields)))
        move = rng.choice(moves)
        if isinstance(move, Exception):
            raise move
        return move, (None, None, rng.choice(zeros), None)
    step.calls = 0
    return step


def test_pure_steps_on_a_small_state_space_match_the_driver_without_replay():
    statuses = set()
    calls = {iterate: 0, reference_iterate: 0}
    for seed in range(300):
        # a start with y = 0 is an exact root and takes no step, so the
        # signed-zero starts carry y = 1
        x0, y0 = [(0.0, 1.0), (-0.0, 1.0), (2.0, 2.0)][seed % 3]
        outs = {}
        for driver in calls:
            step = pure_table_step(seed)
            outs[driver] = driver(step, fx, x0, y0, 1e-15, 60)
            calls[driver] += step.calls
        assert outcome_digest(outs[iterate]) == outcome_digest(outs[reference_iterate]), seed
        statuses.add(outs[iterate].status)
    assert statuses == {Status.CONVERGED, Status.OSCILLATING, Status.DIVERGED,
                        Status.MAX_ITERATIONS}
    assert calls[iterate] < calls[reference_iterate]


def test_pure_steps_from_a_given_start_state_match_the_driver_without_replay():
    # A given prev, no extras and a start y0 that need not be f(x0): the
    # two start records recur bit for bit only where a computed record
    # matches them, so a table that reads any other record for a start
    # finds recurrences that are not there, or misses ones that are.
    statuses = set()
    calls = {iterate: 0, reference_iterate: 0}
    for seed in range(1500):
        rng = random.Random(seed)
        x0, px = rng.choice([1.0, 2.0, 3.0]), rng.choice([1.0, 2.0, 3.0])
        y0 = rng.choice([x0, 4.0])
        prev = rng.choice([None, IterationRecord(px, px), IterationRecord(px, 4.0)])
        outs = {}
        for driver in calls:
            def step(cur, prev):
                calls[driver] += 1
                fields = cur + (() if prev is None else prev)
                rng = random.Random(f"{seed}:" + ",".join(map(_bits, fields)))
                return rng.choice([1.0, 2.0, 3.0, 3.0]), ()
            outs[driver] = driver(step, fx, x0, y0, 1e-15, 40, prev)
        assert outcome_digest(outs[iterate]) == outcome_digest(outs[reference_iterate]), seed
        statuses.add(outs[iterate].status)
    assert statuses == {Status.OSCILLATING, Status.MAX_ITERATIONS}
    assert calls[iterate] < calls[reference_iterate]


# ---------------------------------------------------------------------------
# Periodic runs of every length, against the driver without the tail
# ---------------------------------------------------------------------------

def periodic_step(prefix, cycle):
    """A pure step that plays ``prefix`` once, then ``cycle`` for ever.

    Each record carries its position in the plan as ``delta``, so a state
    recurs when the plan does, not merely when an x value does: a cycle
    may repeat x values within its period.  The first state to recur is
    the cycle's first two records, and the pass where it recurs appends
    the first copy, ``trace[len(prefix) + p + 2]``.
    """
    plan = list(prefix) + list(cycle)

    def step(cur, prev):
        step.calls += 1
        pos = 0 if cur.delta is None else int(cur.delta) + 1
        if pos == len(plan):
            pos = len(prefix)
        return plan[pos], (float(pos), None, None, None)
    step.calls = 0
    return step


def test_periodic_runs_match_the_driver_without_replay():
    rng = random.Random("fast-forward")
    seen = set()
    roots = set()
    calls = {iterate: 0, reference_iterate: 0}
    for period in range(1, 31):
        for _ in range(4):
            prefix = [rng.uniform(1.0, 10.0) for _ in range(rng.randint(0, 6))]
            span = rng.choice([0.1 * CYCLE_MIN_DIAMETER, 0.9 * CYCLE_MIN_DIAMETER, 0.5, 3.0])
            base = rng.uniform(1.0, 5.0)
            if rng.random() < 0.5:
                # a small alphabet: shorter repeats within the period, so the
                # oscillation verdict can fire on some phases only
                alphabet = [base + span * rng.random() for _ in range(3)]
                cycle = [rng.choice(alphabet) for _ in range(period)]
            else:
                cycle = [base + span * rng.random() for _ in range(period)]
            replay_pass = len(prefix) + period + 3
            budgets = {1, 60, 200} | {replay_pass + d for d in range(-2, CHECKED_REPLAYS + 3)}
            for max_iter in sorted(budgets):
                outs = {}
                for driver in calls:
                    step = periodic_step(prefix, cycle)
                    outs[driver] = driver(step, fx, 20.0, 20.0, 1e-15, max_iter)
                    calls[driver] += step.calls
                out = outs[iterate]
                assert outcome_digest(out) == outcome_digest(outs[reference_iterate]), \
                    (prefix, cycle, max_iter)
                roots.add(out.root in cycle)
                if out.status is Status.OSCILLATING:
                    seen.add(("oscillating", out.iterations >= replay_pass, period <= 4))
                else:
                    assert out.status is Status.MAX_ITERATIONS
                    seen.add(("max-iterations", max_iter > replay_pass + CHECKED_REPLAYS))
    # verdicts before the recurrence and after it, on short and long periods,
    # and copied tails
    assert {("oscillating", False, True), ("oscillating", True, True),
            ("oscillating", True, False), ("max-iterations", True),
            ("max-iterations", False)} <= seen
    # the best iterate lies in the cycle on some runs, before it on others
    assert roots == {False, True}
    assert calls[iterate] < calls[reference_iterate]


def test_a_verdict_on_the_last_checked_replay_still_fires():
    # Period 9 through the start state itself, so the first recurrence is
    # at len(trace) == 9.  The only period-2 window, a b a b, ends at the
    # 7th iterate, below CYCLE_MIN_INDEX, and next at the 16th: the last
    # copy the driver checks.
    a, b = 2.0, 3.0
    head = [5.0, 6.0, 7.0, a, b, a, b]
    c4, c5 = 8.0, 9.0

    def step(cur, prev):
        if cur.delta is None:          # the untagged records c4 and c5
            return (c5, ()) if cur.x == c4 else (head[0], (0.0, None, None, None))
        pos = int(cur.delta) + 1
        if pos == len(head):
            return c4, ()
        return head[pos], (float(pos), None, None, None)

    start = IterationRecord(c4, fx(c4))
    assert CYCLE_MIN_INDEX + 9 - 1 == 9 + CHECKED_REPLAYS
    for max_iter in (15, 16, 17, 500):
        out = iterate(step, fx, c5, fx(c5), 1e-15, max_iter, prev=start)
        ref = reference_iterate(step, fx, c5, fx(c5), 1e-15, max_iter, prev=start)
        assert outcome_digest(out) == outcome_digest(ref)
        assert out.status is (Status.MAX_ITERATIONS if max_iter < 16 else Status.OSCILLATING)
        assert out.iterations == min(max_iter, 16)


# ---------------------------------------------------------------------------
# The periodic tail holds the period's own records
# ---------------------------------------------------------------------------

def assert_tail_repeats_the_period(out, p, first_copy):
    """Every record from ``trace[first_copy]`` on is the record ``p``
    places back itself, and every record before it is a record of its own."""
    trace = out.trace
    assert first_copy + p < len(trace)
    assert len({id(rec) for rec in trace[:first_copy]}) == first_copy
    assert all(trace[t] is trace[t - p] for t in range(first_copy, len(trace)))


def test_a_scripted_periodic_tail_repeats_the_period_records():
    # period 5, past the cycle test's periods, so the run ends max-iterations;
    # the first copy is trace[len(prefix) + p + 2] (see periodic_step)
    prefix, cycle = [7.0, 6.0, 9.0], [2.0, 3.0, 2.5, 4.0, 3.5]
    out = iterate(periodic_step(prefix, cycle), fx, 20.0, 20.0, 1e-15, 200)
    ref = reference_iterate(periodic_step(prefix, cycle), fx, 20.0, 20.0, 1e-15, 200)
    assert outcome_digest(out) == outcome_digest(ref)
    assert out.status is Status.MAX_ITERATIONS and out.iterations == 200
    assert_tail_repeats_the_period(out, len(cycle), len(prefix) + len(cycle) + 2)


def test_the_cube_root_tail_repeats_the_period_records(monkeypatch):
    # cube-root from 1.0 with lsq3-fixed: a period-30 cycle whose state
    # recurs after 230 records; the other 270 of the 500 are repeats
    f = {p.id: p for p in builtin_suite()}["cube-root"].expression
    out = SOLVERS["lsq3-fixed"](f, 1.0)
    assert out.status is Status.MAX_ITERATIONS and out.iterations == 500
    assert_tail_repeats_the_period(out, 30, 230)
    monkeypatch.setattr(lsqroots.lsq3, "iterate", reference_iterate)
    assert outcome_digest(SOLVERS["lsq3-fixed"](f, 1.0)) == outcome_digest(out)
