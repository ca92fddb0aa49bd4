"""The step kernels and ``bench.final_rate`` against frozen copies of
their earlier form, bit for bit, and the periodic tail of ``iterate``
against the driver without one.

The copies of ``select_delta`` and ``estimate_power`` below are the
kernels as they were written with the builtin ``max``/``min`` and
``math.isfinite``; those of ``lsq3_step`` and ``final_rate`` compute
``n + 1.0`` twice and take the log ratio of every trusted pair, keeping
the last; that of ``best_iterate`` tests ``math.isfinite`` on each ``y``
and takes ``abs`` of it twice; that of ``adjust_delta`` tries its probe
pairs in a ``for`` loop over ``range(8)``.  The package's versions must
return the same float, signed zeros and NaNs included (or ``None``), or
raise the same error, and ``adjust_delta`` must call ``fx`` at the same
points in the same order.  The
driver's parity tests cannot catch a kernel change, because both drivers
call the same kernels.
"""

import itertools
import math
import random

import pytest

import lsqroots.lsq3
from lsqroots.bench import RATE_TRUST_FLOOR, builtin_suite, final_rate
from lsqroots.lsq3 import (
    _BETAS,
    _DELTA_FLOOR_ULP,
    _DELTA_SCALE_RATIO_FIXED,
    _DELTA_SCALE_RATIO_VARIABLE,
    _EPS,
    _MILD_NEGATIVE_LIMIT,
    _STRONG_POLE_LIMIT,
    N_CLAMP,
    ProbeDomainError,
    SolverConfig,
    SymmetricStallError,
    adjust_delta,
    estimate_power,
    lsq3_step,
    select_delta,
    solve,
)
from lsqroots.outcomes import IterationRecord, Status, best_iterate, iterate
from test_golden_traces import _bits
from test_outcomes import fx, reference_iterate

RATIOS = (_DELTA_SCALE_RATIO_FIXED, _DELTA_SCALE_RATIO_VARIABLE)


def frozen_estimate_power(y_minus, y0, y_plus, delta):
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    dd = delta * delta
    if dd == 0.0:
        return 1.0
    s = (y_plus - y_minus) / (2.0 * delta)
    d2 = (y_minus - 2.0 * y0 + y_plus) / dd
    noise = 4.0 * _EPS * max(abs(y_minus), abs(y0), abs(y_plus)) / dd
    if abs(d2) <= noise:
        d2 = 0.0
    s2 = s * s
    den = s2 - y0 * d2
    if not math.isfinite(den) or abs(den) < 1e-300 or not math.isfinite(s2):
        return 1.0
    n = s2 / den
    if not math.isfinite(n):
        return 1.0
    lo, hi = N_CLAMP
    if n < lo or _STRONG_POLE_LIMIT < n <= _MILD_NEGATIVE_LIMIT:
        return 1.0
    n = min(n, hi)
    if abs(n) < 1e-6:
        return 1.0
    return n


def frozen_select_delta(x_k, x_prev, delta_prev, ratio):
    dx = x_k - x_prev
    floor = max(_DELTA_FLOOR_ULP * abs(x_k), ratio * min(abs(dx), abs(x_k)), 1e-300)
    dx2 = dx ** 2
    for beta in _BETAS:
        delta = beta * dx2
        if delta < 1.0 and delta <= delta_prev:
            if delta >= floor:
                return delta
            break
    return max(floor, _BETAS[-1] * dx2)


def frozen_lsq3_step(x, y_minus, y0, y_plus, delta, n):
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if y_plus == y_minus:
        raise ValueError("y_plus equals y_minus; delta must be readjusted")
    if n == 0.0:
        raise ValueError("power n must be nonzero")
    slope = (y_plus - y_minus) / (2.0 * delta)
    weighted = ((n + 1.0) * y_minus + (4.0 * n - 2.0) * y0 + (n + 1.0) * y_plus) / (6.0 * n)
    return x - n * (weighted / slope)


def frozen_final_rate(trace, r):
    if len(trace) < 3:
        return None
    floor = RATE_TRUST_FLOOR * max(1.0, abs(r))
    errors = [abs(rec.x - r) for rec in trace]
    rate = None
    for e0, e1 in zip(errors, errors[1:]):
        if e0 <= floor or e1 <= floor or e0 >= 1.0 or e1 >= 1.0:
            continue
        rate = math.log(e1) / math.log(e0)
    return rate


def frozen_best_iterate(x0, y0, trace):
    best_x, best_ay = x0, abs(y0)
    for rec in trace:
        if math.isfinite(rec.y) and abs(rec.y) < best_ay:
            best_x, best_ay = rec.x, abs(rec.y)
    return best_x


def frozen_adjust_delta(fx, x, delta):
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    failure = None
    for _ in range(8):
        y_minus = fx(x - delta)
        y_plus = fx(x + delta)
        if y_minus is None or y_plus is None:
            failure = "domain"
            delta = delta / 2.0
            continue
        if y_minus == y_plus:
            failure = "symmetric"
            delta = delta * 1.5
            continue
        return delta, y_minus, y_plus
    if failure == "domain":
        raise ProbeDomainError(f"no valid probes around x={x!r}")
    raise SymmetricStallError(f"y(x+delta) = y(x-delta) for all adjusted deltas at x={x!r}")


def outcome(fn, *args):
    """The bits of ``fn(*args)``, or the type and message of its error."""
    try:
        return _bits(fn(*args))
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        return type(err).__name__, str(err)


def assert_same(new, frozen, cases):
    mismatched = [args for args in cases if outcome(new, *args) != outcome(frozen, *args)]
    assert not mismatched, mismatched[:10]


# ±0.0, denormals, a delta whose square underflows (below ~1.5e-162),
# ordinary and huge magnitudes, and the non-finite values
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, 1.4e-162, 1e-100, 1e-8,
         0.5, 1.0, -1.0, 3.0, -7.25, 1e100, 1e300, -1e300, 1.7976931348623157e308,
         math.inf, -math.inf, math.nan)


def magnitude(rng, top=308.0):
    """A float of random sign and a magnitude from denormal up to 10**top."""
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, top)


def probe_triples(rng, n):
    """(y_minus, y0, y_plus, delta) as lsq3 produces them near and away
    from a root: sampled from a power curve a*(x - b)^m, some straddling
    the root (y_minus and y_plus of opposite sign) and some from a pole
    (m < 0), plus unrelated values."""
    for _ in range(n):
        delta = 10.0 ** rng.uniform(-170.0, 2.0)
        m = rng.choice((1, 2, 3, 4, 0.5, -0.3, -1, -2.75))
        a = rng.uniform(-5.0, 5.0)
        e = rng.uniform(-3.0, 3.0) * delta * rng.choice((0.3, 1.0, 10.0, 1e6))
        try:
            ys = [a * math.copysign(abs(u) ** m, u) for u in (e - delta, e, e + delta)]
        except (ZeroDivisionError, OverflowError):      # at or too near the pole
            pass
        else:
            yield ys[0], ys[1], ys[2], delta
        yield magnitude(rng), magnitude(rng), magnitude(rng), abs(magnitude(rng))


def step_pairs(rng, n):
    """(x_k, x_prev, delta_prev) over every scale, and short steps near x."""
    for _ in range(n):
        # below 1e150 so that (x_k - x_prev)**2 stays finite; the edge
        # inputs cover the overflow
        x = magnitude(rng, 150.0)
        yield x, magnitude(rng, 150.0), abs(magnitude(rng))
        dx = x * 10.0 ** rng.uniform(-17.0, 1.0) * rng.choice((-1.0, 1.0))
        yield x, x - dx, 10.0 ** rng.uniform(-20.0, 1.0)
        yield x, x, 10.0 ** rng.uniform(-20.0, 1.0)


# Probe values whose denominator s^2 - y0*d2 is exactly 1e-300, the
# degeneracy threshold: the power is kept (about 0.294), not set to 1.
DEN_AT_THRESHOLD = (-4.523579477859219e-151, 6.407893801613523e-151,
                    6.326844817800965e-151, 1.0)


def test_estimate_power_matches_on_edge_inputs():
    assert_same(estimate_power, frozen_estimate_power, itertools.product(EDGES, repeat=4))
    assert_same(estimate_power, frozen_estimate_power, [DEN_AT_THRESHOLD])
    assert 0.29 < estimate_power(*DEN_AT_THRESHOLD) < 0.3


def test_select_delta_matches_on_edge_inputs():
    assert_same(select_delta, frozen_select_delta,
                [(x_k, x_prev, d, r) for x_k, x_prev, d in itertools.product(EDGES, repeat=3)
                 for r in RATIOS])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimate_power_matches_on_random_inputs(seed):
    rng = random.Random(seed)
    cases = list(probe_triples(rng, 20_000))
    assert_same(estimate_power, frozen_estimate_power, cases)
    # every rule is exercised, not only the fall-backs to 1
    powers = {frozen_estimate_power(*args) for args in cases}
    assert N_CLAMP[1] in powers and 1.0 in powers
    assert any(_MILD_NEGATIVE_LIMIT < n < 0.0 for n in powers)
    assert any(N_CLAMP[0] <= n <= _STRONG_POLE_LIMIT for n in powers)
    assert any(1.5 < n < N_CLAMP[1] for n in powers)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_select_delta_matches_on_random_inputs(seed):
    rng = random.Random(seed)
    cases = [(x_k, x_prev, d, rng.choice(RATIOS)) for x_k, x_prev, d in step_pairs(rng, 20_000)]
    assert_same(select_delta, frozen_select_delta, cases)
    # the beta rule, the floor and the no-beta fall-back all occur
    deltas = [frozen_select_delta(*args) for args in cases]
    assert any(d == 1e-300 for d in deltas)
    assert any(d >= 1.0 for d in deltas)
    assert any(d == _BETAS[3] * (x_k - x_prev) ** 2 for d, (x_k, x_prev, _, _) in zip(deltas, cases))


# x, delta and n for the edge products of lsq3_step, besides the EDGES
STEP_XS = (0.0, -0.0, 1.5, -1e300, math.inf, math.nan)
STEP_NS = (1.0, -1.0, 0.0, -0.0, 0.5, 3.5, 5e-324, math.inf, math.nan)


def test_lsq3_step_matches_on_edge_inputs():
    # every sample triple at a few (x, delta, n), and every (x, delta, n)
    # at a few sample triples
    ys = list(itertools.product(EDGES, repeat=3))
    assert_same(lsq3_step, frozen_lsq3_step,
                [(x, *y, d, n) for y in ys for x, d, n in
                 itertools.product((1.5, -0.0), (0.1, 1e-200), (1.0, 2.0000001, -2.75))])
    assert_same(lsq3_step, frozen_lsq3_step,
                [(x, *y, d, n) for x, d, n in itertools.product(STEP_XS, EDGES, STEP_NS)
                 for y in ((-1.0, 0.0, 1.0), (0.0, -0.0, 5e-324), (3.0, math.nan, -math.inf))])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lsq3_step_matches_on_random_inputs(seed):
    rng = random.Random(seed)
    cases = []
    for y_minus, y0, y_plus, delta in probe_triples(rng, 20_000):
        x = magnitude(rng)
        n = rng.choice((1.0, rng.uniform(N_CLAMP[0], N_CLAMP[1]), magnitude(rng)))
        cases.append((x, y_minus, y0, y_plus, delta, n))
        cases.append((x, y_minus, y0, y_plus, delta, estimate_power(y_minus, y0, y_plus, delta)))
    assert_same(lsq3_step, frozen_lsq3_step, cases)
    # finite steps, non-finite steps and errors all occur
    steps = []
    for args in cases:
        try:
            steps.append(frozen_lsq3_step(*args))
        except (ValueError, ZeroDivisionError):
            steps.append(None)
    assert None in steps
    assert any(x is not None and math.isfinite(x) for x in steps)
    assert any(x is not None and not math.isfinite(x) for x in steps)


def trace_of(xs):
    return tuple(IterationRecord(x, 0.0) for x in xs)


def test_final_rate_matches_on_edge_inputs():
    roots = (0.0, -0.0, 1.0, -2.0, 1e15, math.inf, math.nan)
    # traces of EDGES up to length 3, and of every third of them at length 4
    traces = [trace_of(xs) for length in range(4) for xs in itertools.product(EDGES, repeat=length)]
    traces += [trace_of(xs) for xs in itertools.product(EDGES[::3], repeat=4)]
    assert_same(final_rate, frozen_final_rate,
                [(trace, r) for trace in traces for r in roots + (0.5, 1e-13)])


def converging_xs(rng, r, length):
    """``length`` iterates closing in on ``r`` at a random order, from an
    error of any size, with a few stray values."""
    e = 10.0 ** rng.uniform(-20.0, 3.0)
    order = rng.uniform(0.8, 3.0)
    xs = []
    for _ in range(length):
        xs.append(r + rng.choice((-1.0, 1.0)) * e)
        if rng.random() < 0.05:
            xs.append(rng.choice((math.nan, math.inf, r, magnitude(rng))))
        e = e ** order if e < 1.0 else e / rng.uniform(1.0, 50.0)
    return xs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_final_rate_matches_on_random_traces(seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(5_000):
        r = rng.choice((0.0, 1.0, -1.167303978261420, magnitude(rng, 20.0)))
        floor = RATE_TRUST_FLOOR * max(1.0, abs(r))
        cases.append((trace_of(converging_xs(rng, r, rng.randint(3, 40))), r))
        # length 3, and a trace wholly below the trust floor
        cases.append((trace_of(converging_xs(rng, r, 3)), r))
        cases.append((trace_of([r + rng.uniform(-1.0, 1.0) * floor
                                for _ in range(rng.randint(3, 10))]), r))
    assert_same(final_rate, frozen_final_rate, cases)
    rates = [frozen_final_rate(*args) for args in cases]
    assert None in rates
    assert any(rate is not None and 1.5 < rate < 3.0 for rate in rates)
    assert any(rate is not None and math.isnan(rate) for rate in rates)


def records_of(ys):
    """A trace with the y values ``ys``, each record at an x of its own."""
    return tuple(IterationRecord(float(k), y) for k, y in enumerate(ys, 1))


def test_best_iterate_matches_on_edge_inputs():
    # From every start value (NaN and ±inf included), every trace of EDGES
    # up to length 2 and of every third of them at length 3, so ties in
    # |y| (±0.0, ±5e-324, ±inf, a value repeated) and the empty trace too.
    traces = [records_of(ys) for length in range(3) for ys in itertools.product(EDGES, repeat=length)]
    traces += [records_of(ys) for ys in itertools.product(EDGES[::3], repeat=3)]
    assert_same(best_iterate, frozen_best_iterate,
                [(-0.5, y0, trace) for trace in traces for y0 in EDGES])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_best_iterate_matches_on_random_traces(seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(5_000):
        # few distinct |y|, so that ties are common
        a, b = magnitude(rng), magnitude(rng)
        pool = (a, -a, b, 0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan)
        ys = [rng.choice(pool) for _ in range(rng.randint(0, 40))]
        trace = tuple(IterationRecord(magnitude(rng), y) for y in ys)
        cases.append((magnitude(rng), rng.choice(pool + (magnitude(rng),)), trace))
    assert_same(best_iterate, frozen_best_iterate, cases)
    # the start and a record of the trace are both chosen
    chosen = [frozen_best_iterate(*args) == args[0] for args in cases]
    assert any(chosen) and not all(chosen)


def logged(fn):
    """``fn`` as an ``fx`` that logs the bits of every point it is called at."""
    def fx(t):
        fx.calls.append(_bits(t))
        return fn(t)
    fx.calls = []
    return fx


PROBE_VALUES = (1.0, -0.0, 0.0, 2.5, 5e-324)


def scripted_probes(seed, none_share, values):
    """A logged ``fx`` that answers by the point alone: ``None`` or one of
    the first ``values`` PROBE_VALUES, drawn from a generator seeded with
    the point, so that both sides of a probe pair often agree (a
    symmetric retry) or fall off the domain (a domain retry)."""
    def fn(t):
        rng = random.Random(f"{seed}:{_bits(t)}")
        if rng.random() < none_share:
            return None
        return rng.choice(PROBE_VALUES[:values])
    return logged(fn)


def probe_run(adjust, fx, x, delta):
    """What ``adjust(fx, x, delta)`` returns (as bits) or raises, and the
    points it called ``fx`` at."""
    try:
        result = ("returned", *map(_bits, adjust(fx, x, delta)))
    except (ValueError, ProbeDomainError, SymmetricStallError) as err:
        result = type(err).__name__, str(err)
    return result, fx.calls


# Hand-made fx: each names the retries it forces from x = 1, delta = 0.5.
HAND_PROBES = {
    "success": lambda t: t,
    # defined on [0.9, 1.1] only: halves delta until both probes land there
    "domain retries": lambda t: t if abs(t - 1.0) <= 0.1 else None,
    # even about 1 up to |t - 1| < 2, increasing beyond: grows delta past 1
    "symmetric retries": lambda t: (t - 1.0) ** 2 if abs(t - 1.0) < 2.0 else t,
    # even about 1 up to 0.3 from it, increasing up to 0.4 and off the
    # domain beyond: halves delta, then grows it
    "mixed retries": lambda t: ((t - 1.0) ** 2 if abs(t - 1.0) < 0.3
                                else t if abs(t - 1.0) <= 0.4 else None),
    "domain exhausted": lambda t: None,
    "symmetric exhausted": lambda t: 3.0,
    # symmetric first, then off the domain for good
    "mixed exhausted": lambda t: 3.0 if 0.45 < abs(t - 1.0) < 0.6 else None,
    # off the domain first, then both kinds in turn, symmetric last
    "mixed exhausted, symmetric last": lambda t: 3.0 if abs(t - 1.0) < 0.4 else None,
}


def test_adjust_delta_matches_on_hand_made_probes():
    outcomes = {}
    for name, fn in HAND_PROBES.items():
        new = probe_run(adjust_delta, logged(fn), 1.0, 0.5)
        assert new == probe_run(frozen_adjust_delta, logged(fn), 1.0, 0.5), name
        outcomes[name] = new
    # each case ends as its name says, after the retries it names
    assert len(outcomes["success"][1]) == 2
    assert outcomes["domain retries"][0][:2] == ("returned", _bits(0.5 / 8))
    assert outcomes["symmetric retries"][0][:2] == ("returned", _bits(0.5 * 1.5 ** 4))
    assert outcomes["mixed retries"][0][:2] == ("returned", _bits(0.5 / 2 * 1.5))
    for name in ("domain exhausted", "mixed exhausted"):
        assert outcomes[name][0][0] == "ProbeDomainError", name
    for name in ("symmetric exhausted", "mixed exhausted, symmetric last"):
        assert outcomes[name][0][0] == "SymmetricStallError", name
    assert all(len(outcomes[name][1]) == 16 for name in HAND_PROBES if "exhausted" in name)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adjust_delta_matches_on_scripted_probes(seed):
    rng = random.Random(seed)
    ends = set()
    for case in range(3_000):
        x = rng.choice((0.0, -0.0, 1.0, -2.5, magnitude(rng), rng.uniform(-4.0, 4.0)))
        delta = rng.choice((0.1, 1e-300, 5e-324, 1e300, math.inf, 0.0, -1.0, math.nan,
                            abs(magnitude(rng))))
        args = (f"{seed}:{case}", rng.choice((0.0, 0.3, 0.7, 1.0)), rng.randint(1, 5))
        new = probe_run(adjust_delta, scripted_probes(*args), x, delta)
        assert new == probe_run(frozen_adjust_delta, scripted_probes(*args), x, delta), (x, delta)
        result, calls = new
        ends.add((result[0], len(calls) > 2))
    # a return at once and after retries, and each error, all occur
    assert {("returned", False), ("returned", True), ("ProbeDomainError", True),
            ("SymmetricStallError", True), ("ValueError", False)} <= ends


# ---------------------------------------------------------------------------
# The periodic tail at a budget of 20,000, against the driver without it
# ---------------------------------------------------------------------------

def assert_same_fields(out, ref):
    assert (out.status, _bits(out.root), out.note) == (ref.status, _bits(ref.root), ref.note)
    assert len(out.trace) == len(ref.trace)
    for a, b in zip(out.trace, ref.trace):
        assert type(a) is IterationRecord
        assert list(map(_bits, a)) == list(map(_bits, b)), (a, b)


def test_a_scripted_lsq3_cycle_is_copied_field_for_field():
    # period 5, longer than the cycle test's, every field set, signed
    # zeros in y_minus and y_plus; each record's delta tells its place in
    # the cycle
    cycle = [(2.0, 0.25, 1.0, 0.0, -1.5), (3.0, 0.5, 2.5, -0.0, 0.0),
             (2.5, 1e-300, -3.0, 7.0, -0.0), (4.0, 2.0, 3.5, -0.0, -0.0),
             (3.5, 1e-3, 0.5, 5e-324, 1e300)]
    deltas = [c[1] for c in cycle]

    def step(cur, prev):
        step.calls += 1
        pos = 0 if cur.delta is None else (deltas.index(cur.delta) + 1) % len(cycle)
        return cycle[pos][0], cycle[pos][1:]

    step.calls = 0
    out = iterate(step, fx, 5.0, 5.0, 1e-15, 20_000)
    assert out.status is Status.MAX_ITERATIONS and out.iterations == 20_000
    assert step.calls < 20
    assert all(None not in rec for rec in out.trace)
    assert_same_fields(out, reference_iterate(step, fx, 5.0, 5.0, 1e-15, 20_000))


def test_a_stock_lsq3_cycle_is_copied_field_for_field(monkeypatch):
    # cube-root from 1.0 at N = 1 settles into a period-30 cycle of
    # iterates spanning about 9e11, which recurs exactly
    f = {p.id: p for p in builtin_suite()}["cube-root"].expression
    config = SolverConfig(mode="fixed", n_value=1.0, max_iter=20_000)
    calls = []
    real = lsqroots.lsq3.evaluate

    def counting(e, x):
        calls.append(x)
        return real(e, x)

    monkeypatch.setattr(lsqroots.lsq3, "evaluate", counting)
    out = solve(f, 1.0, config)
    assert out.status is Status.MAX_ITERATIONS and out.iterations == 20_000
    assert len(calls) < 1_000
    assert all(None not in rec for rec in out.trace)
    period = next(p for p in range(1, 100) if out.trace[-1] == out.trace[-1 - p])
    assert period == 30
    monkeypatch.setattr(lsqroots.lsq3, "iterate", reference_iterate)
    assert_same_fields(out, solve(f, 1.0, config))
