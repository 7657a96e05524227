import hashlib
import math
import time

import numpy as np
import pytest

from gpcsim import engine
from gpcsim.circuit import load_circuit
from gpcsim.engine import (
    SCHEMES,
    DcConvergenceError,
    NewtonConfig,
    SolveStats,
    StepControl,
    TransientError,
    dc_solve,
    newton_solve,
    transient_solve,
)
from gpcsim.netlist import PulseWave
from helpers import CircuitProblem, DenseEval, final

XI0 = np.zeros(0)


class ScalarProblem:
    """dq/dt + f(x) = s for hand-picked scalar f; used to probe Newton."""

    def __init__(self, f, df, s):
        self.f, self.df, self.s = f, df, s
        self.size = 1

    def eval(self, x):
        v = float(x[0])
        return DenseEval(np.zeros(1), np.array([self.f(v)]),
                         np.zeros((1, 1)), np.array([[self.df(v)]]))

    def source(self, t):
        return np.array([self.s])


def rc_problem(r="1k", c="100n", source="sin(0 1 1k)"):
    circuit = load_circuit(f"v1 a 0 {source}\nr1 a b {r}\nc1 b 0 {c}\n")
    return CircuitProblem(circuit, XI0)


def rc_exact(t, r=1e3, c=100e-9, freq=1e3):
    """Capacitor voltage for sin drive from v(0) = 0."""
    tau, w = r * c, 2 * math.pi * freq
    wt = w * tau
    denom = 1 + wt * wt
    part = (math.sin(w * t) - wt * math.cos(w * t)) / denom
    return part + (wt / denom) * math.exp(-t / tau)


def rc_exact_local(t0, x0, t1, r=1e3, c=100e-9, freq=1e3):
    """Exact propagation of the same ODE from (t0, x0) to t1."""
    tau, w = r * c, 2 * math.pi * freq
    wt = w * tau
    denom = 1 + wt * wt

    def part(t):
        return (math.sin(w * t) - wt * math.cos(w * t)) / denom

    return part(t1) + (x0 - part(t0)) * math.exp(-(t1 - t0) / tau)


# --------------------------------------------------------------------------
# Newton
# --------------------------------------------------------------------------

def test_linear_converges_in_one_iteration():
    circuit = load_circuit("v1 top 0 dc 3\nr1 top mid 1k\nr2 mid 0 1k\n")
    problem = CircuitProblem(circuit, XI0)
    stats = SolveStats()
    res = newton_solve(problem, np.zeros(3), 0.0, np.zeros(3),
                       problem.source(0.0), NewtonConfig(), stats)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.x[:2], [3.0, 1.5])


def test_quadratic_root_in_few_iterations():
    prob = ScalarProblem(lambda v: v * v, lambda v: 2 * v, 4.0)
    res = newton_solve(prob, np.array([1.0]), 0.0, np.zeros(1),
                       prob.source(0.0), NewtonConfig())
    assert res.converged
    assert res.iterations <= 6
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)


def test_newton_reports_iteration_limit(monkeypatch):
    monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 25)
    prob = ScalarProblem(lambda v: v * v * v - 2 * v + 2, lambda v: 3 * v * v - 2, 0.0)
    res = newton_solve(prob, np.array([0.0]), 0.0, np.zeros(1),
                       prob.source(0.0), NewtonConfig())
    assert not res.converged  # the classic 0 <-> 1 Newton cycle
    assert "limit" in res.failure


def test_newton_stops_on_a_non_finite_update():
    # a pivot of 1e-320 is not singular, but the update overflows to -inf
    prob = ScalarProblem(lambda v: 1.0, lambda v: 1e-320, 0.0)
    res = newton_solve(prob, np.array([0.0]), 0.0, np.zeros(1),
                       prob.source(0.0), NewtonConfig())
    assert not res.converged
    assert (res.failure, res.iterations, res.x.tolist()) == ("non-finite update", 0, [0.0])


class SquareBlocks:
    """x_b^2 = 4 in each of `blocks` independent scalar blocks."""

    def __init__(self, blocks):
        self.size = self.blocks = blocks

    def eval(self, x):
        return DenseEval(np.zeros(self.size), x * x, np.zeros((self.size,) * 2), np.diag(2 * x))


def test_newton_stops_each_block_on_its_own_residual():
    """A block that passes at iteration 0 keeps its x while the other one
    iterates, and each block ends where its one-block solve ends."""
    x0 = np.array([2.0 + 1e-10, 1.0])
    res = newton_solve(SquareBlocks(2), x0, 0.0, np.zeros(2), np.full(2, 4.0), NewtonConfig())
    assert res.converged and res.iterations > 0
    assert res.x[0] == x0[0]
    for b in range(2):
        alone = newton_solve(SquareBlocks(1), x0[b:b + 1], 0.0, np.zeros(1),
                             np.full(1, 4.0), NewtonConfig())
        assert alone.x[0] == res.x[b]


class CubicBlocks:
    """x_b^3 + x_b = s_b in each of `blocks` independent scalar blocks."""

    def __init__(self, blocks):
        self.size = self.blocks = blocks

    def eval(self, x):
        return DenseEval(np.zeros(self.size), x ** 3 + x, np.zeros((self.size,) * 2),
                         np.diag(3 * x * x + 1))


def test_a_passed_block_keeps_its_bits():
    """Block 0 passes at -0.0 with a residual of -1e-13, so every later
    update would move it by 1e-13; it keeps -0.0, sign bit and all, while
    block 1 iterates."""
    res = newton_solve(CubicBlocks(2), np.array([-0.0, 1.0]), 0.0, np.zeros(2),
                       np.array([1e-13, 10.0]), NewtonConfig())
    assert res.converged and res.iterations > 1
    assert res.x[0] == 0.0 and np.signbit(res.x[0])
    assert res.x[1] == pytest.approx(2.0)


# --------------------------------------------------------------------------
# DC operating point
# --------------------------------------------------------------------------

def test_divider_operating_point():
    circuit = load_circuit("v1 top 0 dc 3\nr1 top mid 1k\nr2 mid 0 1k\n")
    prob = CircuitProblem(circuit, XI0)
    res = dc_solve(prob, source=prob.source(0.0))
    assert not res.homotopy_used
    assert np.allclose(res.x[:2], [3.0, 1.5])
    assert res.x[2] == pytest.approx(-1.5e-3)


def test_diode_clamp_matches_bisection():
    circuit = load_circuit("v1 a 0 dc 1\nr1 a b 1k\nd1 b 0 is=1e-14 temp=300\n")
    prob = CircuitProblem(circuit, XI0)
    res = dc_solve(prob, source=prob.source(0.0))
    vt = 1.380649e-23 * 300.0 / 1.602176634e-19

    def mismatch(v):
        return (1.0 - v) / 1e3 - 1e-14 * (math.exp(v / vt) - 1.0)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mismatch(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert res.x[1] == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_homotopy_rescues_cold_start(monkeypatch):
    # sinh(x) = 20 from x=0 overshoots to x=20 and blows up; the 10-step
    # source ramp walks the solution out instead
    monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 8)
    prob = ScalarProblem(np.sinh, np.cosh, 20.0)
    res = dc_solve(prob, NewtonConfig(), source=prob.source(0.0))
    assert res.homotopy_used
    assert res.x[0] == pytest.approx(math.asinh(20.0), rel=1e-10)


def test_homotopy_hands_on_each_ramp_step_evaluation(monkeypatch):
    # every ramp step after the first starts from the previous step's
    # solution with its evaluation, and the result carries the lambda = 1 one
    monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 8)
    prob = ScalarProblem(np.sinh, np.cosh, 20.0)
    res = dc_solve(prob, NewtonConfig(), source=prob.source(0.0))
    assert res.homotopy_used
    assert res.stats.device_evals == res.stats.residual_evals - (engine.HOMOTOPY_STEPS - 1)
    assert res.eval.f[0] == prob.eval(res.x).f[0]


def test_dc_retries_from_the_previous_level_before_the_ramp(monkeypatch):
    # the cold start overshoots as above; the retry start lies near the root
    monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 8)
    prob = ScalarProblem(np.sinh, np.cosh, 20.0)
    res = dc_solve(prob, NewtonConfig(), source=prob.source(0.0), retry_x0=np.array([3.5]))
    assert not res.homotopy_used
    assert res.stats.predictor_fallbacks == 1
    assert res.x[0] == pytest.approx(math.asinh(20.0), rel=1e-10)
    # a retry that fails too goes on to the ramp
    res = dc_solve(prob, NewtonConfig(), source=prob.source(0.0), retry_x0=np.array([0.0]))
    assert res.homotopy_used and res.stats.predictor_fallbacks == 1


def test_dc_failure_raises():
    prob = ScalarProblem(lambda v: v * v + 1.0, lambda v: 2 * v, 0.0)
    with pytest.raises(DcConvergenceError):
        dc_solve(prob, source=prob.source(0.0))


# --------------------------------------------------------------------------
# transient schemes
# --------------------------------------------------------------------------

def final_error(scheme, nsteps, t_end=1e-3):
    prob = rc_problem()
    x0 = np.zeros(3)
    traj = transient_solve(prob, x0, t_end, scheme=scheme, fixed_h=t_end / nsteps)
    return abs(final(traj)[1] - rc_exact(t_end))


@pytest.mark.parametrize("scheme,target", [("be", 2.0), ("tr", 4.0), ("gear2", 4.0)])
def test_scheme_order_by_halving(scheme, target):
    e1 = final_error(scheme, 200)
    e2 = final_error(scheme, 400)
    assert e1 / e2 == pytest.approx(target, rel=0.2)


def test_missing_scheme_is_the_first_of_schemes():
    prob = rc_problem()
    default = transient_solve(prob, np.zeros(3), 1e-3, scheme=None, fixed_h=1e-5)
    first = transient_solve(prob, np.zeros(3), 1e-3, scheme=SCHEMES[0], fixed_h=1e-5)
    assert SCHEMES[0] == "gear2"
    np.testing.assert_array_equal(default.states, first.states)


def test_fixed_step_grid_and_final_time():
    prob = rc_problem()
    traj = transient_solve(prob, np.zeros(3), 1e-3, scheme="be", fixed_h=1e-5)
    assert traj.times[-1] == pytest.approx(1e-3, rel=1e-12)
    assert len(traj.h_history) == 100
    assert np.allclose(traj.h_history, 1e-5)


def test_adaptive_tracks_exact_solution():
    prob = rc_problem()
    traj = transient_solve(prob, np.zeros(3), 1e-3, scheme="gear2",
                           control=StepControl(h_init=1e-8, lte_tol=1e-4))
    want = rc_exact(traj.times[-1])
    assert final(traj)[1] == pytest.approx(want, abs=2e-4)
    assert traj.stats.steps_accepted == len(traj.h_history)


def test_lte_estimate_bounds_true_local_error():
    # invariant: the reported estimate is within 10x of the true local
    # error on at least 95% of accepted steps
    prob = rc_problem()
    traj = transient_solve(prob, np.zeros(3), 1e-3, scheme="be",
                           control=StepControl(h_init=1e-8, lte_tol=1e-4))
    ok = total = 0
    for k in range(1, len(traj.h_history)):
        t0, t1 = traj.times[k], traj.times[k + 1]
        x0, x1 = traj.states[k][1], traj.states[k + 1][1]
        true_err = abs(x1 - rc_exact_local(t0, x0, t1))
        est = traj.est_history[k]
        if est == 0.0:
            continue
        total += 1
        if true_err <= 10.0 * est:
            ok += 1
    assert total > 20
    assert ok / total >= 0.95


def test_stiff_adaptive_beats_fixed_grid():
    # time constants 1us and 1s; adaptive must use far fewer steps than a
    # uniform grid at the resolution its own smallest step implies
    circuit = load_circuit(
        """
        v1 a 0 pwl(0 0 1u 1)
        r1 a b 1k
        c1 b 0 1n
        r2 b c 1k
        c2 c 0 1m
        """
    )
    prob = CircuitProblem(circuit, XI0)
    traj = transient_solve(prob, np.zeros(4), 1.0, scheme="be",
                           control=StepControl(h_init=1e-7))
    n_adaptive = len(traj.h_history)
    n_fixed_equivalent = 1.0 / traj.h_history.min()
    assert n_adaptive * 10 <= n_fixed_equivalent
    # slow node charges through r1 + r2, so tau = 2 s
    assert final(traj)[2] == pytest.approx(1.0 - math.exp(-0.5), abs=0.01)


class FailingAfter:
    """Wraps a problem; evaluations blow up while the solve is past a cutoff.

    An evaluation carries no time, so the time is the one the source was
    last asked for: the engine asks for s(t) before it solves at t.
    """

    def __init__(self, inner, t_fail):
        self.inner, self.t_fail = inner, t_fail
        self.size = inner.size
        self.t = 0.0

    def eval(self, x):
        if self.t > self.t_fail:
            from gpcsim.circuit import EvalOverflowError

            raise EvalOverflowError("synthetic overflow")
        return self.inner.eval(x)

    def source(self, t):
        self.t = t
        return self.inner.source(t)


def test_step_underflow_raises(monkeypatch):
    monkeypatch.setattr(engine, "H_MIN", 1e-12)
    prob = FailingAfter(rc_problem(), 1e-5)
    with pytest.raises(TransientError, match="underflow"):
        transient_solve(prob, np.zeros(3), 1e-3, scheme="be",
                        control=StepControl(h_init=1e-6))


def test_fixed_step_newton_failure_raises():
    prob = FailingAfter(rc_problem(), 1e-5)
    with pytest.raises(TransientError, match="fixed step"):
        transient_solve(prob, np.zeros(3), 1e-3, scheme="be", fixed_h=1e-4)


def test_argument_validation():
    prob = rc_problem()
    with pytest.raises(ValueError, match="unknown scheme"):
        transient_solve(prob, np.zeros(3), 1e-3, scheme="rk4")
    # a zero step divides by zero and a negative one never reaches t_end
    for h in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError, match="fixed step must be positive"):
            transient_solve(prob, np.zeros(3), 1e-3, fixed_h=h)
    for field in ("h_init", "h_max", "lte_tol"):
        for bad in (0.0, -1.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be positive"):
                StepControl(**{field: bad})
    # an infinite first step or error tolerance turns step control off
    for field in ("h_init", "lte_tol"):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            StepControl(**{field: math.inf})
    assert StepControl(h_max=math.inf).h_max == math.inf   # no step bound
    for field in ("abstol", "reltol"):
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
                NewtonConfig(**{field: bad})
    NewtonConfig(abstol=0.0, reltol=0.0)


def test_step_cap_out_of_reach_is_refused(monkeypatch):
    # 2**-10 s in steps of at most 2**-14 s: exactly 16 steps, no rounding
    monkeypatch.setattr(engine, "MAX_STEPS", 16)
    prob = rc_problem()
    t_end = 2.0 ** -10
    assert len(transient_solve(prob, np.zeros(3), t_end, fixed_h=2.0 ** -14).times) == 17
    transient_solve(prob, np.zeros(3), t_end, control=StepControl(h_max=2.0 ** -14))
    with pytest.raises(ValueError, match="over 16 steps"):
        transient_solve(prob, np.zeros(3), t_end, fixed_h=2.0 ** -15)
    with pytest.raises(ValueError, match="over 16 steps"):
        transient_solve(prob, np.zeros(3), t_end, control=StepControl(h_max=2.0 ** -15))
    # the smaller of the fixed step and h_max is the cap
    with pytest.raises(ValueError, match="over 16 steps"):
        transient_solve(prob, np.zeros(3), t_end, fixed_h=2.0 ** -14,
                        control=StepControl(h_max=2.0 ** -15))


def test_hmax_honored():
    prob = rc_problem()
    traj = transient_solve(prob, np.zeros(3), 1e-3, scheme="be",
                           control=StepControl(h_init=1e-6, h_max=2e-5))
    assert traj.h_history.max() <= 2e-5 + 1e-20


def test_solver_stats_populated():
    prob = rc_problem()
    traj = transient_solve(prob, np.zeros(3), 1e-3, scheme="tr", fixed_h=1e-5)
    s = traj.stats
    assert s.steps_accepted == 100
    assert s.newton_iterations >= 100      # at least one update per step
    assert s.linear_solves == s.newton_iterations
    assert s.linear_solve_time > 0.0


class _SlowEvalProblem(CircuitProblem):
    """An RC problem whose evaluations each take at least EVAL_S, with the
    seconds spent inside them summed in `inside`."""

    EVAL_S = 2e-3
    inside = 0.0

    def eval(self, x):
        tic = time.perf_counter()
        time.sleep(self.EVAL_S)
        ev = super().eval(x)
        self.inside += time.perf_counter() - tic
        return ev


def test_device_eval_time_times_every_evaluation():
    """device_eval_time covers each problem.eval call, the transient's start
    evaluation included, and linear_solve_time none of them."""
    prob = _SlowEvalProblem(rc_problem().circuit, XI0)
    traj = transient_solve(prob, np.zeros(3), 1e-3, scheme="be", fixed_h=1e-4)
    s = traj.stats
    assert s.device_evals == s.linear_solves + 1 == 11   # the start, then one per step
    assert prob.inside <= s.device_eval_time < prob.inside + prob.EVAL_S
    assert s.linear_solve_time < prob.EVAL_S
    prob.inside = 0.0
    dc = dc_solve(prob, source=np.zeros(3))
    assert prob.inside <= dc.stats.device_eval_time < prob.inside + prob.EVAL_S


# --------------------------------------------------------------------------
# source corners
# --------------------------------------------------------------------------

LAG_TAU = 20e-9
LAG_DRIVE = PulseWave(0.0, 1.0, 1e-6, 10e-9, 10e-9, 2e-6, 5e-6)
LAG_END = 7e-6
# the drive's corners in (0, LAG_END), listed by hand from its card
LAG_CORNERS = [1e-6, 1.01e-6, 3.01e-6, 3.02e-6, 6e-6, 6.01e-6]


class LagProblem:
    """tau dx/dt + x = u(t) with u the pulse LAG_DRIVE: q = tau x, f = x.

    tau is a hundredth of the pulse's 2 us width and twice its 10 ns
    edges, so each corner is followed by a response much faster than the
    plateau."""

    size = 1

    def eval(self, x):
        return DenseEval(LAG_TAU * x, x.copy(), np.array([[LAG_TAU]]), np.eye(1))

    def source(self, t):
        return np.array([LAG_DRIVE.value(t)])


def lag_exact(t):
    """Closed form of the lag under a piecewise-linear drive: on a segment
    u = u0 + b (t - t0), x = u - b tau + (x0 - u0 + b tau) exp(-(t - t0)/tau)."""
    knots = [0.0] + LAG_CORNERS + [LAG_END]
    x0 = 0.0
    for t0, t1 in zip(knots, knots[1:]):
        u0 = LAG_DRIVE.value(t0)
        b = (LAG_DRIVE.value(t1) - u0) / (t1 - t0)

        def on_segment(s):
            return u0 + b * (s - t0) - b * LAG_TAU + (
                x0 - u0 + b * LAG_TAU) * math.exp(-(s - t0) / LAG_TAU)

        if t <= t1:
            return on_segment(t)
        x0 = on_segment(t1)
    raise ValueError(t)


def lag_run(scheme, breakpoints=LAG_CORNERS, **control):
    control = StepControl(**{"h_init": 1e-12, "lte_tol": 1e-4, **control})
    return transient_solve(LagProblem(), np.zeros(1), LAG_END, scheme=scheme,
                           control=control, breakpoints=breakpoints)


# largest error over the accepted times at lte_tol 1e-4, as a multiple of
# it: be's is its global first-order error; without the corners tr reads
# 54 and gear2 13
LAG_ERROR_MULTIPLE = {"be": 50, "tr": 10, "gear2": 10}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_adaptive_steps_land_on_every_corner_and_restart(scheme):
    traj = lag_run(scheme)
    times = traj.times.tolist()
    for k, corner in enumerate(LAG_CORNERS):
        assert corner in times                 # exactly, not nearly
        i = times.index(corner)
        gap = (LAG_CORNERS[k + 1] if k + 1 < len(LAG_CORNERS) else LAG_END) - corner
        h = traj.h_history[i]
        assert h <= min(1e-12, 0.1 * gap)
        # the step after a corner is backward Euler: tau (x1 - x0) / h + x1 = u1
        u1 = LAG_DRIVE.value(traj.times[i + 1])
        be = (LAG_TAU * traj.states[i][0] / h + u1) / (LAG_TAU / h + 1.0)
        assert traj.states[i + 1][0] == pytest.approx(be, rel=1e-9)
    errors = [abs(x[0] - lag_exact(t)) for t, x in zip(traj.times, traj.states)]
    assert max(errors) <= LAG_ERROR_MULTIPLE[scheme] * 1e-4


def test_first_step_after_a_corner_is_a_tenth_of_the_gap():
    # h_init is far above a tenth of the 10 ns rise, so the gap rule binds
    traj = lag_run("tr", h_init=1e-8)
    times = traj.times.tolist()
    assert traj.h_history[times.index(1e-6)] == pytest.approx(1e-9, rel=1e-12)
    assert traj.h_history[times.index(3.01e-6)] == pytest.approx(1e-9, rel=1e-12)
    assert traj.h_history[times.index(6.01e-6)] <= 1e-8


@pytest.mark.parametrize("offset", [0.5, 3.0])
def test_no_sliver_step_next_to_a_corner(offset):
    # before the drive's 1 us delay the state stays 0, so the error
    # estimates read 0 and h doubles from h_init with no rejection: a
    # corner a fraction of H_MIN, or a few H_MIN, past the tenth time
    # point sits next to a time the controller reaches
    plain = lag_run("tr", breakpoints=())
    reached = float(plain.times[10])
    corner = reached + offset * engine.H_MIN
    assert plain.times[11] > corner > reached
    traj = lag_run("tr", breakpoints=[corner])
    assert corner in traj.times.tolist()
    assert (reached in traj.times.tolist()) == (offset > 1)
    assert traj.h_history.min() >= engine.H_MIN
    # a second corner within H_MIN of the first is passed with it, and one
    # a few H_MIN on is landed on without a step under H_MIN
    for second in (0.5, 3.0):
        pair = [corner, corner + second * engine.H_MIN]
        traj = lag_run("tr", breakpoints=pair)
        assert (pair[1] in traj.times.tolist()) == (second > 1)
        assert traj.h_history.min() >= engine.H_MIN


def test_fixed_step_ignores_the_corners():
    grid = transient_solve(LagProblem(), np.zeros(1), LAG_END, fixed_h=LAG_END / 700)
    traj = transient_solve(LagProblem(), np.zeros(1), LAG_END, fixed_h=LAG_END / 700,
                           breakpoints=LAG_CORNERS)
    np.testing.assert_array_equal(traj.times, grid.times)
    np.testing.assert_array_equal(traj.states, grid.states)
    np.testing.assert_allclose(traj.times, np.linspace(0.0, LAG_END, 701), rtol=1e-12)


# steps accepted and rejected, Newton iterations and a digest of the times,
# states, steps and estimates, recorded from the engine before it took
# corners
LAG_PLAIN_RUNS = {"be": (1518, 72, 1553, "f08d0a97b4102a24"),
                  "tr": (296, 71, 337, "1ba4a299edf37809"),
                  "gear2": (368, 76, 410, "ab1dd5d927d7783c")}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_corners_run_as_before_bit_for_bit(scheme):
    control = StepControl(h_init=1e-12, lte_tol=1e-4)
    default = transient_solve(LagProblem(), np.zeros(1), LAG_END, scheme=scheme,
                              control=control)
    outside = lag_run(scheme, breakpoints=[-1e-6, 0.0, LAG_END, 2 * LAG_END])
    for traj in (default, lag_run(scheme, breakpoints=()), outside):
        digest = hashlib.sha256(b"".join(
            a.tobytes() for a in (traj.times, traj.states, traj.h_history,
                                  traj.est_history))).hexdigest()[:16]
        s = traj.stats
        assert (s.steps_accepted, s.steps_rejected, s.newton_iterations,
                digest) == LAG_PLAIN_RUNS[scheme]


def test_end_time_must_be_positive_and_finite():
    for t_end in (math.inf, math.nan, 0.0, -1e-6):
        with pytest.raises(ValueError, match="end time must be positive and finite"):
            transient_solve(LagProblem(), np.zeros(1), t_end)
