"""Deterministic DAE engine: Newton, DC operating point, transient schemes.

Everything here works on the implicit form dq(x)/dt + f(x) = s(t) through a
small problem protocol.  The problems live in `solvers`: a single circuit
realization is the one-point case of the stacked testing-node problem, so
the same integrator drives it and the coupled spectral systems alike.  A
problem exposes

    size                 -> state dimension
    eval(x)              -> object with .q, .f and .linearize(c)
    source(t)            -> s(t)

where linearize(c) factors c*dq + df and returns something with solve(rhs).
That solve is the only linear-algebra hook; block-structured problems
substitute their own.  dc_solve solves f(x) = s for the s it is given;
only transients call source(t), the one place time enters.  A problem may
also expose `blocks`, the count of equal slices of x whose residual
depends on that slice alone (the lockstep points of sc and mc); Newton
then stops each slice on its own residual, so a slice's iterates do not
depend on the others while the solve succeeds.  The per-slice max|resid|
and max|x| come from `_block_max`, which reads all slices at once down the
columns of a transposed copy rather than reducing each short slice on its
own; max is exact in any order, so the values, and so the iteration
counts, are those of the per-slice reduction.  Without `blocks`, x is one
coupled block.

An evaluation depends on x alone, so it holds at any time point and for
any source.  newton_solve, dc_solve and transient_solve each take the
evaluation of their seed state as `x0_eval` and do not evaluate that state
again, and every converged solve returns the evaluation at its solution.
Callers hand that on: a transient step is seeded with the last accepted
state and its evaluation (also when the step is retried), a homotopy ramp
step with the previous step's, and `solvers._run` threads each operating
point's evaluation into the second sweep level, the transient start and
the AC linearization.  Later sweep levels start from a state predicted
through the levels before (`_predict`), which is evaluated like any new
iterate.  The device layer therefore runs once per distinct state;
SolveStats.device_evals counts those calls and device_eval_time times
them, and residual_evals counts the residual checks, which include the
ones made on a handed-in evaluation.  linear_solve_time times the
linearize-and-solve hook alone, and linearize_time the linearize(c) part
of it.

Time integration offers a variable-step two-step BDF (gear2, the
default), backward Euler and trapezoid, all with predictor/corrector
local-error control, or a fixed uniform step with none; the fixed grids
of sc and mc run the same default scheme.  StepControl.h_max bounds the
step in both modes.  Variable-step BDF2 is zero-stable while each step
is less than 1 + sqrt(2) times the one before (Grigorieff 1983), which
STEP_GROW keeps.  The adaptive mode, which st and sg use, lands a step on
every source corner it is given (SPICE's breakpoints) and restarts
integration there at first order with a short step; a fixed grid ignores
the corners.
A run whose step cap (h_max, or the fixed step) would need more than
MAX_STEPS steps to reach t_end is refused with a ValueError before the
first step, so a mistyped cap cannot run for days.
Every Newton solve of a step starts from the last accepted state, whatever
the method; the extrapolated predictor feeds only the error estimate, whose
per-state scale is lte_tol * (|x| + LTE_FLOOR).

dc_solve and transient_solve alone fill in a missing NewtonConfig,
StepControl or scheme with its default; callers pass None through.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, fields

import numpy as np

from .circuit import EvalOverflowError
from .netlist import MAX_POINTS

SCHEMES = ("gear2", "be", "tr")   # the first is the default
HOMOTOPY_STEPS = 10
NEWTON_MAX_ITER = 50  # Newton iterations before a solve gives up
H_MIN = 1e-18         # smallest adaptive step before a transient gives up
STEP_GROW = 2.0      # largest step growth after an accepted step
STEP_SHRINK = 0.5    # step cut on a rejection; also the smallest shrink factor
STEP_SAFETY = 0.9    # margin on the error-optimal step
LTE_FLOOR = 1e-3     # absolute floor mixed into the per-state error scale
MAX_STEPS = MAX_POINTS  # most steps a transient's step cap may force


class EngineError(RuntimeError):
    pass


class DcConvergenceError(EngineError):
    pass


class TransientError(EngineError):
    pass


@dataclass(frozen=True)
class NewtonConfig:
    abstol: float = 1e-12
    reltol: float = 1e-9

    def __post_init__(self):
        for name in ("abstol", "reltol"):
            value = getattr(self, name)
            if not (0 <= value < np.inf):
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")


@dataclass(frozen=True)
class StepControl:
    h_init: float = 1e-9
    h_max: float = np.inf
    lte_tol: float = 1e-3

    def __post_init__(self):
        for name in ("h_init", "lte_tol"):
            value = getattr(self, name)
            if not (0 < value < np.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (self.h_max > 0):   # inf, the default, leaves the step unbounded
            raise ValueError(f"h_max must be positive, got {self.h_max}")


@dataclass
class SolveStats:
    newton_iterations: int = 0
    residual_evals: int = 0
    device_evals: int = 0      # problem.eval calls
    device_eval_time: float = 0.0  # seconds in those calls
    linear_solves: int = 0
    linear_solve_time: float = 0.0  # seconds in linearize(c).solve, nothing else
    linearize_time: float = 0.0     # the linearize(c) part of linear_solve_time
    steps_accepted: int = 0
    steps_rejected: int = 0
    predictor_fallbacks: int = 0   # dc solves retried from the previous level
    select_time: float = 0.0       # st: seconds picking the testing nodes

    def merge(self, other: "SolveStats"):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


# --------------------------------------------------------------------------
# Newton
# --------------------------------------------------------------------------

@dataclass
class NewtonResult:
    x: np.ndarray
    converged: bool
    iterations: int
    failure: str = ""
    eval: object = None   # problem evaluation at x when converged


def _timed_eval(problem, x, stats):
    """problem.eval(x), counted and timed in stats, also when it raises."""
    stats.device_evals += 1
    tic = time.perf_counter()
    try:
        return problem.eval(x)
    finally:
        stats.device_eval_time += time.perf_counter() - tic


def _block_max(a, blocks) -> np.ndarray:
    """max|a| over each of `blocks` equal slices of a, 0 for empty ones:
    the values of np.abs(a).reshape(blocks, -1).max(axis=1, initial=0.0).
    Max is exact in any order, so several blocks are reduced down the
    columns of a transposed copy, one pass per slice entry over all of
    them, instead of one short reduction per block."""
    a = np.abs(a).reshape(blocks, -1)
    if blocks > 1:
        return a.T.copy().max(axis=0, initial=0.0)
    return a.max(axis=1, initial=0.0)


def newton_solve(problem, x0, c, history, source, config: NewtonConfig,
                 stats: SolveStats | None = None, *, x0_eval=None) -> NewtonResult:
    """Solve c*q(x) + f(x) + history = source by Newton.

    Convergence is judged on the residual alone, checked before every
    update, so a linear system converges in exactly one iteration.  x0_eval,
    the evaluation at x0 if the caller has it, stands in for iteration 0's.
    A problem of several `blocks` judges each block on its own residual
    against abstol + reltol·max|x_block|, and a block that has passed keeps
    its x from then on, so each block stops where it would stop alone.
    Passed blocks are still evaluated and solved with the rest at every
    later iterate, so a failure there (a singular Jacobian or a non-finite
    update) fails the whole solve, where the block alone had converged.
    """
    x = np.array(x0, dtype=float)
    stats = stats if stats is not None else SolveStats()
    blocks = getattr(problem, "blocks", 1)
    xb = x.reshape(blocks, -1)   # a view of x, one row per block
    done = np.zeros(blocks, dtype=bool)
    ev = x0_eval
    for it in range(NEWTON_MAX_ITER + 1):
        if ev is None:
            try:
                ev = _timed_eval(problem, x, stats)
            except EvalOverflowError as exc:
                return NewtonResult(x, False, it, failure=str(exc))
        stats.residual_evals += 1
        resid = c * ev.q + ev.f + history - source
        norm = _block_max(resid, blocks)
        done |= norm <= config.abstol + config.reltol * _block_max(xb, blocks)
        if done.all():
            return NewtonResult(x, True, it, eval=ev)
        if it == NEWTON_MAX_ITER:
            break
        try:
            tic = time.perf_counter()
            lin = ev.linearize(c)
            linearized = time.perf_counter()
            dx = lin.solve(-resid)
            stats.linear_solve_time += time.perf_counter() - tic
            stats.linearize_time += linearized - tic
            stats.linear_solves += 1
        except np.linalg.LinAlgError as exc:
            return NewtonResult(x, False, it, failure=f"singular jacobian: {exc}")
        if not np.isfinite(dx).all():
            return NewtonResult(x, False, it, failure="non-finite update")
        np.add(xb, dx.reshape(blocks, -1), out=xb, where=~done[:, None])
        ev = lin = None   # this iterate's Jacobian must not live into the next
        stats.newton_iterations += 1
    return NewtonResult(x, False, NEWTON_MAX_ITER, failure="iteration limit reached")


# --------------------------------------------------------------------------
# DC operating point
# --------------------------------------------------------------------------

@dataclass
class DcResult:
    x: np.ndarray
    homotopy_used: bool
    stats: SolveStats
    eval: object          # problem evaluation at x


def dc_solve(problem, config: NewtonConfig | None = None, x0=None, *,
             source, x0_eval=None, retry_x0=None) -> DcResult:
    """Operating point: f(x) = source, from the first start of a ladder
    whose Newton solve converges.

    Direct Newton from x0, with its evaluation x0_eval if given; then, if
    `retry_x0` is given (the previous sweep level's solution behind a
    predicted x0), Newton from there, counted in
    SolveStats.predictor_fallbacks; then a 10-step ramp of the source from
    zero.
    """
    config = config or NewtonConfig()
    stats = SolveStats()
    zeros = np.zeros(problem.size)   # also the empty history of c = 0
    x = np.array(x0, dtype=float) if x0 is not None else zeros.copy()
    res = newton_solve(problem, x, 0.0, zeros, source, config, stats, x0_eval=x0_eval)
    if res.converged:
        return DcResult(res.x, False, stats, res.eval)
    if retry_x0 is not None:
        stats.predictor_fallbacks += 1
        res = newton_solve(problem, retry_x0, 0.0, zeros, source, config, stats)
        if res.converged:
            return DcResult(res.x, False, stats, res.eval)
    x, ev = zeros.copy(), None
    for k in range(1, HOMOTOPY_STEPS + 1):
        lam = k / HOMOTOPY_STEPS
        res = newton_solve(problem, x, 0.0, zeros, lam * source, config, stats, x0_eval=ev)
        if not res.converged:
            raise DcConvergenceError(
                f"operating point failed at source ramp {lam:.1f}: {res.failure or 'no convergence'}"
            )
        x, ev = res.x, res.eval
    return DcResult(x, True, stats, ev)


# --------------------------------------------------------------------------
# transient
# --------------------------------------------------------------------------

@dataclass
class Trajectory:
    """A run's states at each time, sweep level or frequency, with the
    accepted step sizes and error estimates of a transient (empty for the
    other analyses) and the run's counters."""

    times: np.ndarray          # (nsteps+1,)
    states: np.ndarray         # (nsteps+1, n)
    h_history: np.ndarray      # accepted step sizes, (nsteps,)
    est_history: np.ndarray    # max unscaled error estimate per accepted step
    stats: SolveStats


def _predict(ts, xs, t_new):
    """Newton-forward extrapolation through the points (ts, xs)."""
    pts = len(ts)
    # divided differences, then evaluate at t_new
    coeffs = [xs[0]]
    table = list(xs)
    for level in range(1, pts):
        nxt = []
        for i in range(pts - level):
            nxt.append((table[i + 1] - table[i]) / (ts[i + level] - ts[i]))
        table = nxt
        coeffs.append(table[0])
    acc = np.zeros_like(coeffs[0])
    for k in reversed(range(pts)):
        acc = acc * (t_new - ts[k]) + coeffs[k]
    return acc


def _predictor_constant(h, gaps, order):
    """Magnitude of the extrapolation error coefficient for `order` >= 2 points."""
    if order == 2:
        return h * (h + gaps[0]) / 2.0
    return h * (h + gaps[0]) * (h + gaps[0] + gaps[1]) / 6.0


def _corrector_constant(scheme, h, gaps, startup):
    if scheme == "be" or startup:
        return h * h / 2.0
    if scheme == "tr":
        return h**3 / 12.0
    # two-step BDF with ratio r = h / h_prev
    r = h / gaps[0]
    return h * h * (h + gaps[0]) * (1 + r) / (6.0 * (1 + 2 * r))


def transient_solve(problem, x0, t_end, scheme=None,
                    newton: NewtonConfig | None = None,
                    control: StepControl | None = None,
                    fixed_h=None, *, x0_eval=None, breakpoints=()) -> Trajectory:
    """Integrate dq/dt + f = s(t) from a consistent initial state at t = 0.

    x0_eval is the evaluation at x0, such as the one its operating point
    solve returned; x0 is evaluated only when it is None.  Adaptive by
    default; `fixed_h` forces a uniform grid with no error control.  Newton
    starts every step, and every retry of a rejected one, from the last
    accepted state and its evaluation, and only the adaptive error estimate
    extrapolates the predictor.  Seeding Newton at the predictor instead is
    unsafe: a solve that starts there can stop at iteration 0, and then the
    corrector-minus-predictor estimate reads 0 and accepts the step
    unchecked.  Seeded that way, the st p=5 trapezoid run of rc_uniform at
    lte_tol 1e-10 ends in a time step underflow.

    `breakpoints` are the source corners; an adaptive run lands a step on
    each one in (0, t_end) and restarts there, and a fixed grid ignores
    them.  A step that would stop short of a corner by less than H_MIN
    lands on it instead.  After a landing the predictor and the error
    estimate use only the points from the corner on, the first step is
    backward Euler under every scheme and is accepted unestimated, and h
    is at most h_init and a tenth of the gap to the next corner or t_end.
    """
    scheme = scheme or SCHEMES[0]
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if fixed_h is not None and not (0 < fixed_h < np.inf):
        raise ValueError(f"fixed step must be positive and finite, got {fixed_h}")
    if not (0 < t_end < np.inf):
        raise ValueError(f"end time must be positive and finite, got {t_end}")
    newton = newton or NewtonConfig()
    control = control or StepControl()
    h_cap = min(control.h_max, fixed_h or np.inf)
    if t_end / h_cap > MAX_STEPS:
        raise ValueError(f"a step of at most {h_cap:g} needs over {MAX_STEPS} steps "
                         f"to reach {t_end:g}")
    stats = SolveStats()

    x = np.array(x0, dtype=float)
    t = 0.0
    times = [t]
    states = [x]
    accepted_h: list[float] = []
    est_log: list[float] = []

    ev = x0_eval   # the evaluation at x, the last accepted state
    if ev is None:
        ev = _timed_eval(problem, x, stats)
    q_prev = ev.q
    qdot_prev = problem.source(t) - ev.f   # consistent: dq/dt = s - f
    q_prev2 = None
    startup = scheme == "gear2"   # the next step is backward Euler

    adaptive = fixed_h is None
    h = min(control.h_init, control.h_max) if adaptive else float(fixed_h)
    max_pred_pts = 2 if scheme == "be" else 3
    corners = np.asarray(breakpoints, dtype=float) if adaptive else np.zeros(0)
    corners = np.sort(corners[(corners > 0) & (corners < t_end)]).tolist()
    ahead = bisect.bisect_right(corners, H_MIN)   # the next corner over H_MIN away
    since = 0   # index in times of the last corner landed on, or of t = 0

    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        if not adaptive:
            h = float(fixed_h)
        h = min(h, t_end - t, control.h_max)
        landing = ahead < len(corners) and t + h > corners[ahead] - H_MIN
        if landing:
            t_new = corners[ahead]
            h = t_new - t
        else:
            t_new = t + h

        if scheme == "be" or startup:
            c = 1.0 / h
            hist = -q_prev / h
        elif scheme == "tr":
            c = 2.0 / h
            hist = -2.0 * q_prev / h - qdot_prev
        else:
            r = h / accepted_h[-1]
            a0 = (2 * r + 1) / ((r + 1) * h)
            a1 = -(r + 1) / h
            a2 = r * r / ((r + 1) * h)
            c = a0
            hist = a1 * q_prev + a2 * q_prev2

        src_new = problem.source(t_new)
        res = newton_solve(problem, x, c, hist, src_new, newton, stats, x0_eval=ev)

        ratio = est = 0.0
        pred_pts = min(len(times) - since, max_pred_pts)
        if res.converged and adaptive and pred_pts > 1:
            x_pred = _predict(times[-pred_pts:], states[-pred_pts:], t_new)
            recent = accepted_h[:-4:-1]   # last three steps, most recent first
            pcoef = _predictor_constant(h, recent, pred_pts)
            ccoef = _corrector_constant(scheme, h, recent, startup)
            diff = np.abs(res.x - x_pred) * (ccoef / (ccoef + pcoef))
            scale = control.lte_tol * (np.abs(res.x) + LTE_FLOOR)
            ratio = float((diff / scale).max())
            est = float(diff.max())

        if not res.converged or ratio > 1.0:
            if not adaptive:
                raise TransientError(
                    f"newton failed at t={t_new:.6g} on a fixed step: {res.failure}")
            stats.steps_rejected += 1
            h *= STEP_SHRINK
            if h < H_MIN:
                raise TransientError(
                    f"time step underflow at t={t:.6g}: h={h:.3g} < h_min")
            continue
        est_log.append(est)

        # accept
        ev = res.eval
        if scheme == "tr":
            qdot_prev = src_new - ev.f
        q_prev2 = q_prev
        q_prev = ev.q
        t = t_new
        x = res.x
        times.append(t)
        states.append(x)
        accepted_h.append(h)
        stats.steps_accepted += 1

        if adaptive:
            order = 1 if (scheme == "be" or startup) else 2
            if ratio > 0.0:
                factor = STEP_SAFETY * ratio ** (-1.0 / (order + 1))
                h = h * min(STEP_GROW, max(STEP_SHRINK, factor))
            else:
                h = h * STEP_GROW
            h = min(h, control.h_max)
            if landing:
                ahead = bisect.bisect_right(corners, t + H_MIN)
                since = len(times) - 1
                gap = (corners[ahead] if ahead < len(corners) else t_end) - t
                h = max(H_MIN, min(h, 0.1 * gap, control.h_init))
        startup = landing

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        h_history=np.array(accepted_h),
        est_history=np.array(est_log),
        stats=stats,
    )
