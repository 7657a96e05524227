"""Testing-node selection for stochastic collocation of intrusive solvers.

From a candidate Grid we keep exactly K = num_basis(p, l) nodes.  The
solvers hand it the (p+1)^l tensor Gauss grid, but the scan reads only the
grid's nodes and weights, so any candidate set will do.  Candidates are
visited in descending weight order, and one is accepted when its
basis-value vector H(xi) keeps a component orthogonal to the span of the
vectors accepted before it larger than beta·|H(xi)|.

The rule is sequential, but the scan works a block of K candidates at a
time: it holds O(K^2) values however many candidates it visits, and it
spends a few BLAS/LAPACK calls on each run of acceptances or rejections
rather than several on every candidate.  Greedy point selection done a
block at a time through a factorization is the idea behind discrete Leja
points (Bos, De Marchi, Sommariva and Vianello, SIAM J. Numer. Anal. 48,
2010).  The accepted rows, evaluated once by the scan, form the square
collocation matrix Phi with Phi[m, k] = H_k(xi^m), whose inverse maps
stacked per-node solution values back to gPC coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import GpcBasisSet
from .quadrature import Grid

DEFAULT_BETA = 1e-2
MAX_BETA_RETRIES = 6


class SelectionError(RuntimeError):
    """Fewer than K nodes survived the orthogonality test."""

    def __init__(self, selected: int, needed: int, beta: float):
        super().__init__(
            f"selected only {selected} of {needed} testing nodes (last beta tried {beta:g})"
        )
        self.selected = selected
        self.needed = needed
        self.beta = beta


class PhiSingularError(RuntimeError):
    """Numerically singular collocation matrix; carries the condition estimate."""

    def __init__(self, cond: float):
        super().__init__(f"collocation matrix is numerically singular (cond ~ {cond:.3e})")
        self.cond = cond


@dataclass(frozen=True)
class TestingNodeSet:
    """K selected nodes with the cached collocation matrix and its inverse."""

    nodes: np.ndarray          # (K, l) germ points
    node_indices: np.ndarray   # linear candidate indices into the grid
    phi: np.ndarray            # (K, K)
    phi_inv: np.ndarray        # (K, K)
    cond_estimate: float
    beta_used: float

    @property
    def count(self) -> int:
        return len(self.nodes)


def build_phi(basis: GpcBasisSet, nodes) -> tuple[np.ndarray, np.ndarray, float]:
    """Collocation matrix Phi[m, k] = H_k(xi^m), its inverse and cond(Phi)."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    phi = basis.eval_many(nodes)
    if phi.shape[0] != phi.shape[1]:
        raise ValueError(f"need K={phi.shape[1]} nodes, got {phi.shape[0]}")
    return _factor(phi)


def _factor(phi):
    """Phi with its inverse and cond(Phi), refusing a numerically singular Phi.

    The inverse comes from a dense LU factorization and is computed once;
    downstream solvers reuse it for every Newton iteration and time point.
    """
    cond = float(np.linalg.cond(phi))
    if not np.isfinite(cond) or cond > 1e14:
        raise PhiSingularError(cond)
    try:
        phi_inv = np.linalg.inv(phi)
    except np.linalg.LinAlgError as exc:
        raise PhiSingularError(cond) from exc
    return phi, phi_inv, cond


def _pick(gram, floor, cap) -> list[int]:
    """The rows of one block the greedy scan accepts, in order, at most cap.

    gram holds the inner products of the rows' residuals against the
    span accepted before the block.  Row i is accepted when its squared
    residual against the rows accepted before it in the block, the pivot
    of a Cholesky factorization that skips the rejected rows, exceeds
    floor[i].  One LAPACK Cholesky takes the leading run of acceptances
    at once (it refuses a Gram matrix in which a row depends on those
    before it, and then the run is empty).  After that the factor grows a
    column per acceptance, and one vectorized pivot test skips each run
    of rejections.
    """
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        factor = np.empty_like(gram)
        run, i = 0, 0
    else:
        ok = np.diagonal(factor) ** 2 > floor
        run = min(cap, len(ok) if ok.all() else int(ok.argmin()))
        i = run + 1   # row `run`, if any, failed its pivot
    picked = list(range(run))
    pivots = np.diagonal(gram) - np.einsum("ij,ij->i", factor[:, :run], factor[:, :run])
    while len(picked) < cap:
        passing = np.flatnonzero(pivots[i:] > floor[i:])
        if not passing.size:
            break
        i += passing[0]
        a = len(picked)
        col = (gram[i] - factor[:, :a] @ factor[i, :a]) / math.sqrt(pivots[i])
        factor[:, a] = col
        pivots -= col * col
        picked.append(int(i))
        i += 1
    return picked


def _scan(basis: GpcBasisSet, candidates, order, beta: float, needed: int):
    """One greedy pass over candidates[order]: the accepted indices and Phi.

    A candidate is accepted when the component of its basis row h
    orthogonal to the rows accepted before it exceeds beta·|h|.  The pass
    evaluates `needed` candidates at a time and stops at `needed`
    acceptances; a pass that falls short returns fewer rows.  Against
    `span`, an orthonormal basis of the accepted rows, one product gives
    every row of a block its squared residual |h|² - |span·h|².  A row
    that fails already is dropped, since a larger span only shrinks its
    residual.  `_pick` chooses among the rest from the Gram matrix of
    their residuals, and the chosen rows' residuals, projected twice
    against `span` (classical Gram-Schmidt with reorthogonalization),
    extend it through one Householder QR.  Phi's rows are the block's
    basis rows themselves, in eval_many's column-major layout.
    """
    span = np.empty((needed, basis.size))
    phi = np.empty((needed, basis.size), order="F")
    accepted = np.empty(needed, dtype=np.int64)
    m = 0
    for start in range(0, len(order), needed):
        block = order[start:start + needed]
        h = basis.eval_many(candidates[block])
        norms2 = np.einsum("ij,ij->i", h, h)
        coef = h @ span[:m].T
        floor = beta * beta * norms2
        live = np.flatnonzero(norms2 - np.einsum("ij,ij->i", coef, coef) > floor)
        h, coef = h[live], coef[live]
        gram = h @ h.T
        gram -= coef @ coef.T
        picked = _pick(gram, floor[live], needed - m)
        new = m + len(picked)
        rows = h[picked]
        phi[m:new] = rows
        accepted[m:new] = block[live[picked]]
        if new == needed:
            return accepted, phi
        resid = rows - coef[picked] @ span[:m]
        resid -= (resid @ span[:m].T) @ span[:m]
        span[m:new] = np.linalg.qr(resid.T)[0].T
        m = new
    return accepted[:m], phi[:m]


def select_testing_nodes(basis: GpcBasisSet, grid: Grid,
                         beta: float = DEFAULT_BETA) -> TestingNodeSet:
    """Pick K candidate nodes, largest weight first, keeping Phi well conditioned.

    Candidates with equal weights are visited in ascending linear index, so
    the selection is deterministic.  If a pass accepts fewer than K nodes
    the threshold beta is halved and the scan restarts, at most
    MAX_BETA_RETRIES times, after which a SelectionError reports the count reached.
    A grid whose points do not match the basis dimension raises ValueError
    from the basis evaluation.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    candidates = grid.nodes
    order = np.argsort(-np.abs(grid.weights), kind="stable")
    needed = basis.size

    accepted = ()
    cur_beta = beta
    for attempt in range(MAX_BETA_RETRIES + 1):
        cur_beta = beta * 0.5**attempt
        accepted, phi = _scan(basis, candidates, order, cur_beta, needed)
        if len(accepted) == needed:
            break
    else:
        raise SelectionError(len(accepted), needed, cur_beta)

    phi, phi_inv, cond = _factor(phi)
    return TestingNodeSet(
        nodes=candidates[accepted],
        node_indices=accepted,
        phi=phi,
        phi_inv=phi_inv,
        cond_estimate=cond,
        beta_used=cur_beta,
    )
