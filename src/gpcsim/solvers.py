"""Four routes to stochastic circuit solutions.

All methods expand the state in the same orthonormal basis; they differ in
how coefficients are obtained:

* testing (st): collocate the residual at K selected nodes and solve one
  coupled system whose Newton updates decouple into K small solves, done
  as one batched solve, plus a Vandermonde back-substitution.
* galerkin (sg): project the residual onto each basis function with a
  tensor quadrature; the Jacobian couples all blocks.  Its projection runs
  once per stamp group of the device kernel, sum-factorized over the
  tensor grid: one germ is contracted at a time, and only the basis-index
  pairs that can still reach total degree ≤ p are kept, each unordered
  pair once.  A constant incidence entry projects to itself on every
  diagonal block.  The solve peels the
  states whose pivot is such an entry (voltage-source rows, branch-current
  columns; the kernel's `peel`) off by division and factors the core left,
  reading every block it needs straight from the projection.  A circuit
  with nothing to peel is all core.
* collocation (sc): deterministic solutions at the full tensor grid, then
  coefficients by weighted summation.
* monte carlo (mc): seeded sampling, one deterministic solution per sample.

Every method makes one batched device evaluation per distinct Newton
iterate, at its K nodes, Q quadrature points, or a batch of germ points: a
solve seeded with an earlier solve's solution reuses that solve's
evaluation (see `engine`), so a solve does not evaluate its seed again.
sc and mc solve their points in lockstep: near-equal batches of at most
about LOCKSTEP_ENTRIES // n² points, and at least LOCKSTEP_CHUNK, form
one block-diagonal stacked problem, which is st with Φ = I and whose
`blocks` are its points, so Newton stops each point on its own residual (a
point that has stopped is still evaluated with the batch).  The n x n
solves of st, sc and mc take the circuit's peel too, once a run solves at
least LOCKSTEP_PEEL_POINTS points side by side (st's K, sc's grid, mc's
samples): the peeled rounds divide and only the (M, core, core) blocks go
to LAPACK.  Below that, where a dense LAPACK solve per point costs less
than the peel's steps, each point is one dense solve.  The rule counts the
run's points, not a batch's, and a point's peeled arithmetic does not
depend on how many points share its batch, so the batching never changes
a result.  No solve expands the kernel's Jacobian pattern entries into
dense dq and df: a peeled solve takes c·dq + df as an (nnz + 1, M) entry
table, sg's projection reads each stamp group's lead entry, and a dense
per-point solve scatters c·dq + df into one zero block.  All methods run
DC, sweeps and transients through one function, `_run`, on a problem
built once per run and never changed.  Every DC solve of a run takes the
problem's `stack` of B u, with u the sources' DC values, a sweep level or a
transient's t = 0 values; the nominal operating point that starts st and
sg is the one-point case of the stacked problem, solved for the same B u.
`_run` applies a `.tran tstop hmax` bound to every method's step.  st and
sg keep adaptive step control, while sc/mc use a fixed grid so samples
share time points.  `_run` also runs `.ac`, for st alone: the collocated
system linearized at the DC point with c = jω, solved once per frequency,
so an AC result is a GpcTrajectory whose times are the frequencies and
whose coefficients are complex phasors.  An order left as None is
DEFAULT_ORDER, and a Newton, step-control or scheme setting left as None
reaches the engine as None, which fills in its defaults.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .basis import GpcBasisSet, num_basis, orthonormal_values
from .circuit import PointEval, StochasticCircuit
from .collocation import TestingNodeSet, select_testing_nodes
from .engine import (
    MAX_STEPS,
    DcConvergenceError,
    DcResult,
    SolveStats,
    StepControl,
    TransientError,
    Trajectory,
    _predict,
    dc_solve,
    transient_solve,
)
from .netlist import AcAnalysis, DcAnalysis, DcSweepAnalysis, TranAnalysis
from .quadrature import GridBudgetError, check_grid_budget, gauss_rule, tensor_grid

DEFAULT_ORDER = 2            # gPC total order when none is given
DEFAULT_FIXED_STEPS = 2000   # sc/mc transient grid resolution when no step given
LOCKSTEP_CHUNK = 128         # fewest germ points in a full sc/mc lockstep batch
LOCKSTEP_ENTRIES = 2**15     # Jacobian entries (points x n^2) that size larger batches
LOCKSTEP_PEEL_POINTS = 256   # fewest points of a run whose st/sc/mc solves peel
MAX_FAILURE_FRACTION = 0.01  # share of failed mc samples that aborts the run
TABLE_BUDGET = 10**8         # most entries in a (basis size) x (grid nodes) table
PREDICTOR_POINTS = 3         # solved sweep levels behind a level's quadratic seed


class MethodError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------

# Every result exposes times, basis, nodes, stats, failures and node_count,
# which the run manifest records; post turns each kind into its stats.csv
# and coefficients.json.

@dataclass
class GpcTrajectory:
    """Coefficient history: coeffs[i] is the (K, n) block matrix at times[i].

    node_count is the deterministic solves per time point: K for st and sg,
    the tensor grid for sc.
    """

    times: np.ndarray
    coeffs: np.ndarray               # (T, K, n)
    basis: GpcBasisSet
    nodes: TestingNodeSet | None
    method: str
    node_count: int
    h_history: np.ndarray = field(default_factory=lambda: np.zeros(0))
    stats: SolveStats | None = None

    failures = 0                     # an expansion drops no sample

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0) and len(self.times) > 1:
            raise ValueError("trajectory times must increase strictly")


@dataclass
class SampleEnsemble:
    """mc's result: the kept samples' solutions on a shared time grid, with
    moments taken under uniform weights."""

    samples: np.ndarray       # (S, l) germ draws that solved
    times: np.ndarray         # (T,)
    solutions: np.ndarray     # (S, T, n)
    failures: int = 0
    stats: SolveStats | None = None
    seed: int | None = None          # the draw's seed; None for the mean point

    method = "mc"
    basis = None                     # moments only, no expansion
    nodes = None

    @property
    def node_count(self) -> int:
        """Points solved, failed ones included."""
        return len(self.samples) + self.failures

    def _weights(self) -> np.ndarray:
        kept = len(self.samples)
        return np.full(kept, 1.0 / kept)

    def mean(self) -> np.ndarray:
        return np.einsum("s,stn->tn", self._weights(), self.solutions)

    def std(self) -> np.ndarray:
        mu = self.mean()
        var = np.einsum("s,stn->tn", self._weights(),
                        (self.solutions - mu[None]) ** 2)
        return np.sqrt(np.maximum(var, 0.0))


# --------------------------------------------------------------------------
# stacked problems
# --------------------------------------------------------------------------

def _gauss_grid(circuit, order):
    """The (order+1)-point tensor Gauss grid over the circuit's germs: the
    st candidates and the sc nodes (SGProblem builds its own, keeping the
    1-D rules)."""
    return tensor_grid([gauss_rule(p.dist, order + 1) for p in circuit.params])


@dataclass(slots=True, eq=False)
class _StackedEvalST:
    """Residual pieces at all testing nodes plus the decoupled linear hook.

    The Jacobians stay as the kernel's pattern entries in `point`.
    linearize(c) turns them into c·dq + df: under the problem's peel plan
    as the plan's (nnz + 1, K) entry table, `_lockstep_table`, else
    scattered into the dense (K, n, n) blocks.  solve runs the two-stage
    update on them.  dqs and dfs expand the dense dq and df blocks for a
    caller that reads them."""

    q: np.ndarray
    f: np.ndarray
    point: PointEval          # the K nodes' evaluation
    problem: STProblem
    jacs: np.ndarray | None = None

    @property
    def dqs(self) -> np.ndarray:
        return self.point.dq

    @property
    def dfs(self) -> np.ndarray:
        return self.point.df

    def linearize(self, c):
        point = self.point
        if self.problem.plan is None:
            self.jacs = point.kernel.dense(c * point.dq_entries + point.df_entries)
        else:
            self.jacs = _lockstep_table(c, point.dq_entries, point.df_entries)
        return self

    def solve(self, rhs):
        return st_decoupled_linear_step(self.jacs, self.problem.nodes.phi_inv,
                                        -rhs.reshape(len(self.point.q), -1), self.problem.plan)


def _lockstep_table(c, dq, df) -> np.ndarray:
    """The lockstep solve's entry table of M points' c·dq + df, from their
    (M, nnz) pattern entries: row e holds pattern entry e of every point,
    and the last row, which short rows of the plan point to, is zero.  Its
    dtype is result_type(c, entries), so an AC run's complex c = jω keeps
    its imaginary part."""
    m, nnz = dq.shape
    table = np.empty((nnz + 1, m), dtype=np.result_type(c, dq))
    np.multiply(c, dq.T, out=table[:-1])
    table[:-1] += df.T
    table[-1] = 0.0
    return table


def st_decoupled_linear_step(jac_blocks, phi_inv, residual, plan=None) -> np.ndarray:
    """Two-stage update: one batched blockwise solve, then the inverse
    Vandermonde map.

    jac_blocks is (K, n, n) and residual has one row per testing node; the
    result is the flattened coefficient update solving the coupled system
    blockdiag(J̃)·(Φ⊗I)·ΔX = −R.  phi_inv None stands for Φ = I, the
    lockstep germ points of sc and mc.  With `plan` None (the one-core
    plan) each block is one dense LAPACK solve.  A plan from
    `_lockstep_steps` peels the circuit's states off instead, and then the
    blocks come as the (nnz + 1, K) table of their pattern entries,
    `_lockstep_table`'s, and no dense block is formed.  A singular block,
    or a singular core under the peel, raises LinAlgError naming its
    testing node.
    """
    jacs = np.asarray(jac_blocks)
    rhs = -np.asarray(residual)
    try:
        dz = _lockstep_solve(plan, jacs, rhs)
    except np.linalg.LinAlgError:
        for m in range(len(rhs)):   # the failure path alone solves one block at a time
            try:
                _lockstep_solve(plan, jacs[m:m + 1] if plan is None else jacs[:, m:m + 1],
                                rhs[m:m + 1])
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"singular jacobian block at testing node {m}") from None
        raise
    return (dz if phi_inv is None else phi_inv @ dz).ravel()


def _lockstep_solve(plan, jacs, rhs) -> np.ndarray:
    """Solve J[m] @ x[m] = rhs[m] for M blocks J and the (M, n) rows.

    With plan None, jacs holds the (M, n, n) blocks, each solved dense.
    Otherwise it is the (nnz + 1, M) table of their pattern entries,
    `_lockstep_table`'s, and the plan's steps run in its order with the
    points along the last axis; only the core's blocks are gathered from
    it.  A step's right-hand side is its rows less their entries in the
    states solved before, subtracted one degree slot at a time, so each
    point adds in the same order whatever M is, and no matrix product is
    taken over the batch.  A peeled round divides, and the core's
    (M, rows, cols) blocks go to one batched solve.
    """
    if plan is None:
        return np.linalg.solve(jacs, rhs[..., None])[..., 0]
    m, n = rhs.shape
    rhs = np.take(rhs.T, plan.rows, axis=0)        # (n, M), rows in solve order
    y = np.empty((n, m), dtype=np.result_type(jacs, rhs))
    for step in plan.steps:
        b = rhs[step.span]
        if step.entries.size:
            terms = jacs.take(step.entries, axis=0) * y.take(step.known, axis=0)
            for k in range(terms.shape[1]):
                b = b - terms[:, k]
        if step.core is None:
            np.divide(b, step.pivot, out=y[step.span])
        else:
            size = len(b)
            core = jacs.take(step.core, axis=0).reshape(size, size, m).transpose(2, 0, 1)
            y[step.span] = np.linalg.solve(core, b.T[..., None])[..., 0].T
    return y.take(plan.order, axis=0).T


class _LockstepStep(NamedTuple):
    """One step of the lockstep peeled solve: the states at `span` of the
    plan's order, from the rows at `span`.  `entries` (rows, degree) holds
    those rows' entries in the states solved before them, as rows of the
    plan's entry table, and `known` those states' places in the solve
    order.  A short row is padded with the table's zero row (and place 0),
    so that every row runs over the same degree slots.  A peeled round
    divides by its incidence constants `pivot` (rows, 1).  The core (pivot
    None) takes its (rows, cols) block, row-major, from the table rows
    `core`, the zero row where the pattern has no entry, and solves it."""

    span: slice
    entries: np.ndarray
    known: np.ndarray
    pivot: np.ndarray | None
    core: np.ndarray | None


class _LockstepPlan(NamedTuple):
    """The lockstep peeled solve of one circuit, for any number of points.
    The steps read the entry table, `_lockstep_table`'s, whose rows follow
    the Jacobian pattern, and solve y = x[cols] from rhs[rows], in that
    order; x is y[order]."""

    rows: np.ndarray
    order: np.ndarray
    steps: tuple


def _lockstep_steps(kernel) -> _LockstepPlan:
    """The kernel's peel as the lockstep solve's plan: the rounds of
    `_peel_rounds`, each with its rows' entries in the states solved
    before it, read off the Jacobian pattern.  A kernel with nothing to
    peel is one core step over every state, the dense solve."""
    n = kernel.n
    rounds, rows, cols = _peel_rounds(kernel)
    pattern_rows, pattern_cols = kernel.jacobian_pattern
    zero = len(pattern_rows)                      # the entry table's zero row
    place = np.full((n, n), zero)                 # each entry's row of the table
    place[pattern_rows, pattern_cols] = np.arange(zero)
    place = place[np.ix_(rows, cols)]             # rows and columns in solve order
    steps, start = [], 0
    for step_rows, _, pivot in rounds:
        span = slice(start, start + len(step_rows))
        solved = place[span, :start]
        r, u = np.nonzero(solved < zero)          # row by row, in solve order
        slot = np.arange(len(r)) - np.searchsorted(r, r)
        shape = (len(step_rows), slot.max(initial=-1) + 1)
        known, entries = np.zeros(shape, dtype=np.intp), np.full(shape, zero)
        known[r, slot] = u
        entries[r, slot] = solved[r, u]
        if pivot is None:
            steps.append(_LockstepStep(span, entries, known, None, place[span, span].ravel()))
        else:
            steps.append(_LockstepStep(span, entries, known, pivot[:, None], None))
        start = span.stop
    return _LockstepPlan(rows, np.argsort(cols), tuple(steps))


def _lockstep_plan(circuit, points):
    """The linear plan of a run that solves `points` points side by side
    (st's K, sc's grid, mc's samples): the circuit's peel from
    LOCKSTEP_PEEL_POINTS points up, else None, one dense solve per point,
    as for the one-point nominal operating point.  The rule counts the
    run's points, not a batch's, so a point takes the same arithmetic in
    any batching.  A pattern that cannot be peeled is structurally
    singular; its dense solve then names the failing point."""
    if points < LOCKSTEP_PEEL_POINTS:
        return None
    try:
        return _lockstep_steps(circuit.kernel)
    except np.linalg.LinAlgError:
        return None


@dataclass(frozen=True)
class GermPoints:
    """Germ points solved side by side with Φ = I: the sc/mc lockstep node set."""

    nodes: np.ndarray       # (M, l)
    phi = None
    phi_inv = None


@dataclass
class STProblem:
    """Collocated residual: X holds coefficients, residual lives at nodes.

    With a GermPoints node set X holds the M nodal states themselves, so the
    problem is M independent deterministic circuits stacked block-diagonally.
    """

    circuit: StochasticCircuit
    basis: GpcBasisSet | None
    nodes: TestingNodeSet | GermPoints
    plan: _LockstepPlan | None = None    # the linear plan, `_lockstep_plan`'s

    @property
    def size(self) -> int:
        return self.circuit.n * len(self.nodes.nodes)

    @property
    def blocks(self) -> int:
        """Independent slices of X for Newton: each germ point under Φ = I,
        else one block coupled through Φ."""
        return len(self.nodes.nodes) if self.nodes.phi is None else 1

    def eval(self, X):
        states = X.reshape(-1, self.circuit.n)
        if self.nodes.phi is not None:
            states = self.nodes.phi @ states
        ev = self.circuit.eval_qf(states, self.nodes.nodes)
        return _StackedEvalST(ev.q.ravel(), ev.f.ravel(), ev, self)

    def stack(self, s):
        """A deterministic (n,) right-hand side, the same at every node."""
        return np.tile(s, len(self.nodes.nodes))

    def source(self, t):
        return self.stack(self.circuit.b_matrix @ self.circuit.source_vector(t))


@dataclass(slots=True, eq=False)
class _StackedEvalSG:
    """The projected q and f of one iterate and the quadrature points'
    evaluation `point`, whose Jacobians stay pattern entries; point_dq and
    point_df expand the dense (Q, n, n) blocks for a caller that reads
    them."""

    q: np.ndarray
    f: np.ndarray
    point: PointEval
    problem: SGProblem

    @property
    def point_dq(self) -> np.ndarray:
        return self.point.dq

    @property
    def point_df(self) -> np.ndarray:
        return self.point.df

    def linearize(self, c):
        # block (i, j) = sum_q wh[q, i] hmat[q, j] J_q.  The problem's
        # `projection` contracts the lead entry of each stamp group, read
        # by its place in the pattern, one germ at a time (see
        # _Projection); `_SgSolve` places it.
        lead = self.problem.circuit.kernel.stamp_groups.lead_entry
        point_jac = c * self.point.dq_entries[:, lead] + self.point.df_entries[:, lead]
        return _SgSolve(self.problem.projection(point_jac), self.problem)


class _SgSolve:
    """The Galerkin Jacobian of one iterate as its stamp groups' (K^2, G)
    projection `coupled`, rows i·K + j, and its solve.

    A member entry of group g holds its sign times coupled[i·K + j, g] in
    block (i, j); an incidence entry is the same constant at every
    quadrature point, so it projects to that constant times wh.T @ hmat = I,
    on the diagonal blocks alone.  The solve runs the problem's peel plan:
    each step applies the K x K blocks of its rows' entries in the states
    solved before it, a peeled round then divides, and only the core's
    (K·rows, K·cols) matrix is built and factored.  The plan comes with the
    first solve, and so does the LinAlgError of a structurally singular
    circuit; the core is therefore built in `solve`, and `linearize` only
    projects."""

    __slots__ = ("coupled", "problem")

    def __init__(self, coupled, problem):
        self.coupled = coupled
        self.problem = problem

    def solve(self, rhs):
        plan = self.problem.peel_steps
        k = self.problem.basis.size
        blocks = self.coupled.reshape(k, -1)          # row i, columns j·G + g
        rhs = rhs.reshape(k, -1).take(plan.rows, axis=1)
        y = np.empty_like(rhs)                        # the states in solve order
        for step in plan.steps:
            b, solved = rhs[:, step.span], y[:, :step.span.start]
            if step.signs is not None:
                b = b - blocks @ (solved @ step.signs).reshape(-1, b.shape[1])
            if step.incidence is not None:
                b = b - solved @ step.incidence
            if step.core is None:
                np.divide(b, step.pivot, out=y[:, step.span])
            else:
                core = self.coupled.ravel().take(step.core)
                core *= step.core_sign
                if step.core_constant is not None:
                    diag = np.arange(k)
                    core[diag, :, diag, :] += step.core_constant
                y[:, step.span] = np.linalg.solve(core.reshape(b.size, b.size),
                                                  b.ravel()).reshape(k, -1)
        return y.take(plan.order, axis=1).ravel()


class _PeelStep(NamedTuple):
    """One step of the peeled solve, every basis block at once: the states
    at `span` of the plan's order, from the rows at `span`, less those
    rows' entries in the states solved before them (y[:, :span.start]).
    Those entries never form a matrix: `signs` (span.start, G·rows) carries
    the solved states to the (j, g) columns of the (K, K·G) projection, each
    member entry with its sign, and `incidence` (span.start, rows) applies
    the incidence constants block by block; either is None when the rows
    have no such entry.  A peeled round divides by its rows' incidence
    constants `pivot`.  The core takes its (K, rows, K, cols) matrix,
    basis-major, from the raveled projection at the indices `core`, scales
    it by `core_sign` (zero off the member entries), adds its incidence
    entries `core_constant` (rows, cols; None if it has none) to each
    diagonal block, and factors it."""

    span: slice
    signs: np.ndarray | None
    incidence: np.ndarray | None
    pivot: np.ndarray | None
    core: np.ndarray | None
    core_sign: np.ndarray | None
    core_constant: np.ndarray | None


class _PeelPlan(NamedTuple):
    """The peeled solve for K basis blocks: with rhs and x as (K, n), the
    steps solve y = x[:, cols] from rhs[:, rows], in that order, and x is
    y[:, order], `order` being the inverse permutation of cols."""

    rows: np.ndarray
    order: np.ndarray
    steps: tuple


def _peel_rounds(kernel):
    """The kernel's `peel` in solve order: its forward rounds, its core
    (pivot None), then its backward rounds from the last to the first, as
    (rows, cols, pivot) with the empty ones dropped, and all their rows and
    all their columns in that order."""
    peel = kernel.peel
    rounds = [*peel.forward, (*peel.core, None), *reversed(peel.backward)]
    rounds = [rnd for rnd in rounds if len(rnd[0])]
    return (rounds, np.concatenate([rnd[0] for rnd in rounds]),
            np.concatenate([rnd[1] for rnd in rounds]))


def _peel_steps(kernel, k) -> _PeelPlan:
    """The kernel's `peel` spelled out for K basis blocks: its forward
    rounds, its core, then its backward rounds from the last to the first.
    A step's rows have entries only in its own states and in those solved
    before it, so each step reads its entries off the Jacobian pattern with
    rows and columns in that order.  A kernel with nothing to peel is one
    core step over every state."""
    n, groups = kernel.n, kernel.stamp_groups
    width = len(groups.lead[0])
    rounds, rows, cols = _peel_rounds(kernel)
    group, sign, constant = np.zeros((n, n), dtype=np.intp), np.zeros((n, n)), np.zeros((n, n))
    group[groups.member] = groups.group
    sign[groups.member] = groups.sign
    constant[groups.incidence] = groups.value
    placed = np.ix_(rows, cols)
    group, sign, constant = group[placed], sign[placed], constant[placed]
    blocks = np.arange(k)
    pairs = (blocks[:, None] * k + blocks) * width   # block (i, j)'s first raveled index

    def entries(a):
        return a if a is not None and a.any() else None

    steps, start = [], 0
    for step_rows, _, pivot in rounds:
        m = len(step_rows)
        span = slice(start, start + m)
        r, u = np.nonzero(sign[span, :start])
        signs = np.zeros((start, width * m))
        signs[u, group[span, :start][r, u] * m + r] = sign[span, :start][r, u]
        incidence = constant[span, :start].T
        core = core_sign = core_constant = None
        if pivot is None:
            core = pairs[:, None, :, None] + group[span, span][:, None, :]
            core_sign = np.broadcast_to(sign[span, span][:, None, :], core.shape).copy()
            core_constant = constant[span, span]
        steps.append(_PeelStep(span, entries(signs), entries(incidence), pivot,
                               core, core_sign, entries(core_constant)))
        start = span.stop
    return _PeelPlan(rows, np.argsort(cols), tuple(steps))


class _Projection(NamedTuple):
    """The Galerkin projection of (Q, G) values on the tensor Gauss grid,
    sum-factorized: out[i, j, g] = sum_q w_q H_i(x_q) H_j(x_q) vals[q, g]
    for the basis functions H, one germ at a time.

    The grid's weight is the product of the 1-D Gauss weights and each H is
    a product of 1-D orthonormal polynomials, so the sum over q splits into
    one 1-D sum per germ; each 1-D factor is ((p+1)^2, p+1), row (a, b)
    holding w_q φ_a(x_q) φ_b(x_q).  The identity is exact; only rounding
    differs from the (K x Q) @ (Q x K·G) product.  `tensor_grid` makes germ
    0 the least significant digit of q, so the leading axis of vals is germ
    l-1's: germ l-1 is contracted first, by `top`, and germ 0 last.  After
    each germ the rows are pairs of basis-index prefixes (the degrees of the
    germs contracted so far), and a level keeps, by `keep`, only the pairs
    whose prefixes both have total degree ≤ p.  Block (i, j) equals block
    (j, i), so each unordered pair is kept once until the last level, whose
    `keep` writes all K^2 pairs in basis order.  A one-germ basis is `top`
    alone, all (p+1)^2 rows in basis order.
    """

    top: np.ndarray       # (rows, p+1): germ l-1's factor, a ≤ b rows if l > 1
    levels: tuple         # (factor, keep) for germs l-2, ..., 0

    def __call__(self, vals) -> np.ndarray:
        """The (K^2, G) projection of vals (Q, G), rows i·K + j."""
        n = self.top.shape[1]
        t = self.top @ vals.reshape(n, -1)
        for factor, keep in self.levels:
            t = np.matmul(factor, t.reshape(len(t), n, -1))
            t = t.reshape(-1, t.shape[-1]).take(keep, axis=0)
        return t


def _projection_plan(basis, rules) -> _Projection:
    """The basis's `_Projection` from its germs' (p+1)-point Gauss `rules`:
    the orthonormal values at their nodes, and each level's kept rows by
    index arithmetic alone.

    A level's prefixes extend the last level's by one germ's degree,
    ordered by (parent prefix, degree), except at germ 0, whose are the
    basis indices in basis order.  The unordered pairs of a level's prefixes
    are stored in row-major order of u ≤ v, and stored pair s = (u, v)
    becomes rows s·(p+1)^2 + a·(p+1) + b of the next product, with degree a
    for u's child and b for v's.
    """
    p, l = basis.order, basis.dim
    n = p + 1
    factors = []
    for (nodes, weights), rec in zip(rules, basis.recurrences):
        phi = orthonormal_values(rec, nodes, p)                     # (a, q)
        factors.append(((weights * phi)[:, None] * phi).reshape(n * n, n))
    if l == 1:
        return _Projection(factors[0], ())
    degree = code = np.arange(n)   # germ l-1's prefixes: degrees, radix-(p+1) codes
    u, v = np.nonzero(np.less_equal.outer(degree, degree))
    top = factors[-1][u * n + v]
    levels = []
    for d in range(l - 2, -1, -1):
        count = len(degree)
        if d:
            parent, digit = np.nonzero(np.add.outer(degree, np.arange(n)) <= p)
            index = np.arange(len(parent))
            rows, cols = np.nonzero(np.less_equal.outer(index, index))
        else:
            digit = basis.indices[:, 0]
            parent = np.searchsorted(code, basis.indices[:, 1:] @ n ** np.arange(l - 1))
            rows, cols = np.divmod(np.arange(basis.size ** 2), basis.size)
        pu, pv, du, dv = parent[rows], parent[cols], digit[rows], digit[cols]
        swap = pu > pv
        u, v = np.where(swap, pv, pu), np.where(swap, pu, pv)
        a, b = np.where(swap, dv, du), np.where(swap, du, dv)
        keep = (u * count - u * (u - 1) // 2 + v - u) * (n * n) + a * n + b
        levels.append((factors[d], keep))
        degree, code = degree[parent] + digit, code[parent] * n + digit
    return _Projection(top, tuple(levels))


@dataclass
class SGProblem:
    """Galerkin projection with a (p+1)-point tensor quadrature.

    `rules` are the germs' 1-D Gauss rules and `points` and `weights`
    their tensor grid, `hmat` (Q, K) the basis at its points and `wh` its
    weighted copy; `eval` maps coefficients to the points and projects q
    and f back with them.  The Jacobian's projection is the sum-factorized
    `projection`, which never forms a (Q, K, G) table.
    """

    circuit: StochasticCircuit
    basis: GpcBasisSet

    def __post_init__(self):
        self.rules = [gauss_rule(p.dist, self.basis.order + 1) for p in self.circuit.params]
        self.points, self.weights = tensor_grid(self.rules)
        self.hmat = self.basis.eval_many(self.points)        # (Q, K)
        self.wh = self.weights[:, None] * self.hmat

    @property
    def size(self) -> int:
        return self.circuit.n * self.basis.size

    @cached_property
    def peel_steps(self) -> _PeelPlan:
        """The Galerkin solve's plan, built on the first solve, so building
        a problem does not pay for it."""
        return _peel_steps(self.circuit.kernel, self.basis.size)

    @cached_property
    def projection(self) -> _Projection:
        """The Jacobian's sum-factorized projection, planned on the first
        linearization, so building a problem does not pay for it."""
        return _projection_plan(self.basis, self.rules)

    def eval(self, X):
        states = self.hmat @ X.reshape(self.basis.size, -1)  # (Q, n)
        ev = self.circuit.eval_qf(states, self.points)
        # row-major copies of the kernel's point-minor q and f, so BLAS
        # takes the kernel, and the rounding, of a row-major product
        q_proj = self.wh.T @ np.ascontiguousarray(ev.q)     # (K, n)
        f_proj = self.wh.T @ np.ascontiguousarray(ev.f)
        return _StackedEvalSG(q_proj.ravel(), f_proj.ravel(), ev, self)

    def stack(self, s):
        """Projection of a deterministic (n,) right-hand side: only the
        constant basis function survives, so block 0 is s, the rest zero."""
        out = np.zeros((self.basis.size, self.circuit.n))
        out[0] = s
        return out.ravel()

    def source(self, t):
        return self.stack(self.circuit.b_matrix @ self.circuit.source_vector(t))


# --------------------------------------------------------------------------
# method drivers
# --------------------------------------------------------------------------

def _basis_for(circuit, order) -> GpcBasisSet:
    """The circuit's gPC basis of total order `order`, DEFAULT_ORDER if None.

    Every expansion also needs the (order+1)^l Gauss grid and a table of
    the K basis functions at its nodes (st's candidate scan, sg's (Q, K)
    quadrature table, sc's projection), so both budgets are checked first:
    the basis lists C(order+l, l) index tuples, which a grid over budget
    can make too many to hold, and K·(order+1)^l over TABLE_BUDGET would
    not fit in memory.  Since K ≤ (order+1)^l this also bounds st's K × K Φ.
    """
    if circuit.l == 0:
        raise MethodError("circuit has no random parameters; nothing to expand")
    order = DEFAULT_ORDER if order is None else order
    check_grid_budget(order + 1, circuit.l)
    k, q = num_basis(order, circuit.l), (order + 1) ** circuit.l
    if k * q > TABLE_BUDGET:
        raise GridBudgetError(
            f"basis of {k} functions at {q} grid nodes needs a {k * q}-entry "
            f"table, over the budget of {TABLE_BUDGET}")
    return GpcBasisSet([p.dist for p in circuit.params], order)


def _nominal_dc(circuit, newton, s) -> DcResult:
    """The operating point at the mean germ for the right-hand side s."""
    nominal = GermPoints(circuit.nominal_germ()[None])
    return dc_solve(STProblem(circuit, None, nominal), newton, source=s)


def _wrap_engine_error(exc, label):
    raise type(exc)(f"[method={label}] {exc}") from exc


def _run(problem, analysis, label, newton, control=None, scheme=None,
         fixed_h=None) -> Trajectory:
    """The DC, sweep, transient and AC runner every method shares.

    The run builds no problem of its own and never changes the one it is
    given.  Every operating point is a level of one loop that solves for the
    problem's stack of B u: a DC or AC run is the single level at the
    sources' DC values, a sweep sets the swept source at each level, and a
    transient starts from the single level at the t = 0 waveform values,
    then caps its step at the analysis card's hmax; an adaptive one lands
    a step on every source corner, listed before the first solve.  The
    first level starts from zero, or for st and sg from the nominal
    operating point for the same B u, whose counters join the run's.  The
    second warm-starts from the first, and each later one from the
    extrapolation (`_predict`) through the PREDICTOR_POINTS levels before
    it, a quadratic (the third level's is a line), with the previous
    level's solution as dc_solve's retry start.  Each operating point's
    evaluation goes on with it into the second level's solve, the
    transient start, or the AC linearization, so no state the run has
    solved is evaluated again; a predicted level is handed none, and the
    previous level's is dropped before its solve.  An AC run, st only,
    linearizes the problem at the operating point with c = jω and solves
    each frequency's small-signal system (G + jωC) y = B u_ac; these
    solves are not counted.  The result's states are the problem's
    unknowns at each time, sweep level or frequency.  Engine failures are
    re-raised with "[method=<label>]".
    """
    circuit = problem.circuit
    tran = isinstance(analysis, TranAnalysis)
    sweep = isinstance(analysis, DcSweepAnalysis)
    ac = (isinstance(analysis, AcAnalysis) and isinstance(problem, STProblem)
          and problem.basis is not None)
    if not (tran or sweep or ac or isinstance(analysis, DcAnalysis)):
        raise MethodError(f"unsupported analysis for {label}: {analysis!r}")
    levels = analysis.levels() if sweep else np.zeros(1)
    corners = circuit.breakpoints(analysis.tstop) if tran and fixed_h is None else ()
    u = circuit.source_vector(0.0) if tran else circuit.dc_source_vector()
    stats = SolveStats()
    rows = []
    res = None
    for i, level in enumerate(levels):
        if sweep:
            u[circuit.source_names.index(analysis.source)] = level
        s = circuit.b_matrix @ u
        x0 = x0_eval = retry_x0 = None
        if i == 1:
            x0, x0_eval = res.x, res.eval
        elif i > 1:
            res = None   # its evaluation is not at the predicted seed
            back = min(i, PREDICTOR_POINTS)
            x0 = _predict(levels[i - back:i], rows[-back:], level)
            retry_x0 = rows[-1]
        if x0 is None and problem.basis is not None:
            x0 = np.zeros(problem.size)
            try:
                nominal = _nominal_dc(circuit, newton, s)
            except DcConvergenceError as exc:
                _wrap_engine_error(exc, f"{label} nominal init")
            x0[:circuit.n] = nominal.x
            stats.merge(nominal.stats)
        try:
            res = dc_solve(problem, newton, x0=x0, source=problem.stack(s),
                           x0_eval=x0_eval, retry_x0=retry_x0)
        except DcConvergenceError as exc:
            _wrap_engine_error(exc, f"{label} sweep {analysis.source}={level:g}"
                               if sweep else label)
        rows.append(res.x)
        stats.merge(res.stats)
    if tran:
        if analysis.hmax is not None:
            control = (StepControl(h_max=analysis.hmax) if control is None
                       else replace(control, h_max=analysis.hmax))
        try:
            traj = transient_solve(problem, res.x, analysis.tstop, scheme=scheme,
                                   newton=newton, control=control, fixed_h=fixed_h,
                                   x0_eval=res.eval, breakpoints=corners)
        except TransientError as exc:
            _wrap_engine_error(exc, label)
        traj.stats.merge(stats)
        return traj
    if ac:
        ev = res.eval
        rhs = problem.stack(circuit.b_matrix @ circuit.ac_source_vector())
        levels = analysis.frequencies()
        rows = []
        for freq in levels:
            try:
                rows.append(ev.linearize(1j * (2.0 * math.pi * freq)).solve(rhs))
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"[method={label}] singular small-signal "
                                            f"system at f={freq:g} Hz: {exc}") from None
    empty = np.zeros(0)
    return Trajectory(times=levels, states=np.array(rows), h_history=empty,
                      est_history=empty, stats=stats)


def _intrusive_solve(problem, nodes, analysis, method, newton=None, control=None,
                     scheme=None, fixed_h=None):
    run = _run(problem, analysis, method, newton, control=control, scheme=scheme,
               fixed_h=fixed_h)
    return GpcTrajectory(
        times=run.times,
        coeffs=run.states.reshape(len(run.times), problem.basis.size, -1),
        basis=problem.basis, nodes=nodes, method=method,
        node_count=problem.basis.size, h_history=run.h_history, stats=run.stats)


def st_solve(circuit, order, analysis, beta=None, newton=None, control=None,
             scheme=None, fixed_h=None):
    """Stochastic testing: collocated intrusive solve with decoupled updates.

    The one method that also runs an AcAnalysis card.  The result's
    stats.select_time is the time spent in select_testing_nodes.
    """
    basis = _basis_for(circuit, order)
    kwargs = {} if beta is None else {"beta": beta}
    grid = _gauss_grid(circuit, basis.order)
    tic = time.perf_counter()
    node_set = select_testing_nodes(basis, grid, **kwargs)
    select_time = time.perf_counter() - tic
    problem = STProblem(circuit, basis, node_set, _lockstep_plan(circuit, basis.size))
    result = _intrusive_solve(
        problem, node_set, analysis, "st",
        newton=newton, control=control, scheme=scheme, fixed_h=fixed_h)
    result.stats.select_time = select_time
    return result


def sg_solve(circuit, order, analysis, newton=None, control=None,
             scheme=None, fixed_h=None):
    """Stochastic Galerkin: projected intrusive solve; each update peels the
    source rows and branch-current columns and solves the coupled core."""
    basis = _basis_for(circuit, order)
    return _intrusive_solve(
        SGProblem(circuit, basis), None, analysis, "sg",
        newton=newton, control=control, scheme=scheme, fixed_h=fixed_h)


def _lockstep_batches(count, n) -> list[np.ndarray]:
    """Index-ordered, near-equal batches of `count` germ points for an
    n-state circuit, as few as hold at most `size` points each: size =
    LOCKSTEP_ENTRIES // n², but never under LOCKSTEP_CHUNK.

    n² bounds a point's share of each of the batch's Jacobian arrays: the
    kernel's nnz pattern entries of dq and of df, the c·dq + df entry
    table, the peeled core's block, and on the dense path its n x n
    block.  So each of them holds at most about LOCKSTEP_ENTRIES entries.
    The rule counts n², not nnz, because the batches set which points
    share a Newton solve, and so the run's counters."""
    size = max(LOCKSTEP_CHUNK, LOCKSTEP_ENTRIES // n**2)
    return np.array_split(np.arange(count), -(-count // size))


def _sample_step(circuit, count, analysis, fixed_h):
    """The fixed transient step `count` sc/mc points share, once their
    (count, T, n) solution table is known to fit in TABLE_BUDGET entries.

    T is 1 for a DC run, the level count for a sweep and the fixed grid's
    step count + 1 for a transient, whose step defaults to tstop /
    DEFAULT_FIXED_STEPS.  A step the engine refuses counts as one row, so
    the engine names it.  Over budget raises GridBudgetError before any
    point is drawn or solved.
    """
    rows = 1
    if isinstance(analysis, DcSweepAnalysis):
        rows = len(analysis.levels())
    elif isinstance(analysis, TranAnalysis):
        if fixed_h is None:
            fixed_h = analysis.tstop / DEFAULT_FIXED_STEPS
        steps = analysis.tstop / min(fixed_h, analysis.hmax or math.inf)
        if 0 <= steps <= MAX_STEPS:
            rows = math.ceil(steps - 1e-9) + 1
    if count * rows * circuit.n > TABLE_BUDGET:
        raise GridBudgetError(
            f"{count} points x {rows} rows x {circuit.n} states need a "
            f"{count * rows * circuit.n}-entry solution table, over the budget "
            f"of {TABLE_BUDGET}")
    return fixed_h


def _sample_runs(circuit, points, analysis, newton, scheme, fixed_h, method,
                 tolerated):
    """Deterministic runs at every germ point, one lockstep batch at a time.

    Each batch of `_lockstep_batches` is one block-diagonal stacked problem
    (STProblem with Φ = I) run through `_run` from a cold start, on a fixed
    transient grid shared by every point.  A batch that fails is split in
    two and each half retried the same way, lower half first, down to
    single points, so a failure stays with its own point.  Batches run in
    index order, so failures are found in index order; the failure that
    takes their count past `tolerated` is raised at once, with the rest of
    the points unsolved.  Returns the times, the (S, T, n) solutions (NaN
    rows where a point failed), {point: error} and the merged counters.
    """
    n = circuit.n
    plan = _lockstep_plan(circuit, len(points))
    stats = SolveStats()
    times = sols = None
    errors = {}

    def solve(idx) -> bool:
        nonlocal times, sols
        label = method if len(idx) > 1 else (
            f"{method} node {idx[0]} xi={np.array2string(points[idx[0]], precision=4)}")
        problem = STProblem(circuit, None, GermPoints(points[idx]), plan)
        try:
            traj = _run(problem, analysis, label, newton, scheme=scheme,
                        fixed_h=fixed_h)
        except (DcConvergenceError, TransientError) as exc:
            if len(idx) == 1:
                errors[int(idx[0])] = exc
                if len(errors) > tolerated:
                    raise
            return False
        if sols is None:
            times = traj.times
            sols = np.full((len(points), len(times), n), np.nan)
        sols[idx] = traj.states.reshape(len(times), len(idx), n).transpose(1, 0, 2)
        stats.merge(traj.stats)
        return True

    def bisect(idx):
        if not solve(idx) and len(idx) > 1:
            half = (len(idx) + 1) // 2
            bisect(idx[:half])
            bisect(idx[half:])

    for batch in _lockstep_batches(len(points), n):
        bisect(batch)
    return times, sols, errors, stats


def sc_solve(circuit, order, analysis, newton=None, scheme=None, fixed_h=None):
    """Tensor-grid collocation: (p+1)^l deterministic runs in lockstep, then
    projection."""
    basis = _basis_for(circuit, order)
    fixed_h = _sample_step(circuit, (basis.order + 1) ** circuit.l, analysis, fixed_h)
    points, weights = _gauss_grid(circuit, basis.order)

    times, sols, _, stats = _sample_runs(circuit, points, analysis, newton,
                                         scheme, fixed_h, "sc", tolerated=0)

    hmat = basis.eval_many(points)                    # (S, K)
    coeffs = np.einsum("s,sk,stn->tkn", weights, hmat, sols)
    return GpcTrajectory(
        times=times, coeffs=coeffs, basis=basis, nodes=None, method="sc",
        node_count=len(points), stats=stats)


def mc_solve(circuit, n_samples, seed, analysis, newton=None, scheme=None,
             fixed_h=None):
    """Plain Monte Carlo: seeded draws, deterministic runs in lockstep.

    A single sample is the nominal run: the mean point, no draw, no seed.
    A sample whose own run fails is dropped and counted; the failure that
    makes more than MAX_FAILURE_FRACTION of them aborts the run at once.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if circuit.l == 0:
        raise MethodError("circuit has no random parameters; nothing to sample")
    fixed_h = _sample_step(circuit, n_samples, analysis, fixed_h)
    if n_samples == 1:
        samples = circuit.nominal_germ()[None]
    else:
        rng = np.random.default_rng(seed)
        cols = [p.dist.sample(rng, n_samples) for p in circuit.params]
        samples = np.column_stack(cols)

    tolerated = math.floor(MAX_FAILURE_FRACTION * n_samples)
    try:
        times, sols, errors, stats = _sample_runs(
            circuit, samples, analysis, newton, scheme, fixed_h, "mc",
            tolerated=tolerated)
    except (DcConvergenceError, TransientError) as exc:
        raise MethodError(f"{tolerated + 1}/{n_samples} samples failed "
                          f"(> {MAX_FAILURE_FRACTION:.0%})") from exc
    if errors:   # drop the failed samples; a run without any copies nothing
        good = [s for s in range(n_samples) if s not in errors]
        samples, sols = samples[good], sols[good]
    return SampleEnsemble(
        samples=samples,
        times=times,
        solutions=sols,
        failures=len(errors),
        stats=stats,
        seed=None if n_samples == 1 else seed)


# --------------------------------------------------------------------------
# uniform front door used by the cli
# --------------------------------------------------------------------------

def run_analysis(circuit, method, order, analysis, *, beta=None, seed=0,
                 n_samples=1000, newton=None, control=None, scheme=None,
                 fixed_h=None):
    run = {"newton": newton, "scheme": scheme, "fixed_h": fixed_h}
    if method == "st":
        return st_solve(circuit, order, analysis, beta=beta, control=control, **run)
    if method == "sg":
        return sg_solve(circuit, order, analysis, control=control, **run)
    if method == "sc":
        return sc_solve(circuit, order, analysis, **run)
    if method == "mc":
        return mc_solve(circuit, n_samples, seed, analysis, **run)
    raise MethodError(f"unknown method {method!r}")
