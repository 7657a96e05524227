"""Testing-node selection for stochastic collocation of intrusive solvers.

From a candidate Grid we keep exactly K = num_basis(p, l) nodes.  The
solvers hand it the (p+1)^l tensor Gauss grid, but the scan reads only the
grid's nodes and weights, so any candidate set will do.  Candidates are
scanned in descending weight order and one is accepted when its
basis-value vector H(xi) keeps a large enough component orthogonal to the
span of the already accepted vectors.  The scan evaluates the basis K
candidates at a time, so it holds O(K^2) basis values however many
candidates it visits.  The accepted rows form the square collocation
matrix Phi with Phi[m, k] = H_k(xi^m), whose inverse maps stacked per-node
solution values back to gPC coefficients.
"""

from __future__ import annotations

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
    """Collocation matrix Phi[m, k] = H_k(xi^m), its inverse and cond(Phi).

    The inverse comes from a dense LU factorization and is computed once;
    downstream solvers reuse it for every Newton iteration and time point.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    phi = basis.eval_many(nodes)
    if phi.shape[0] != phi.shape[1]:
        raise ValueError(f"need K={phi.shape[1]} nodes, got {phi.shape[0]}")
    cond = float(np.linalg.cond(phi))
    if not np.isfinite(cond) or cond > 1e14:
        raise PhiSingularError(cond)
    try:
        phi_inv = np.linalg.inv(phi)
    except np.linalg.LinAlgError as exc:
        raise PhiSingularError(cond) from exc
    return phi, phi_inv, cond


def _scan(basis: GpcBasisSet, candidates, order, beta: float, needed: int):
    """One greedy pass over candidates[order]; returns the accepted indices."""
    directions = np.zeros((needed, basis.size))
    accepted: list[int] = []
    for start in range(0, len(order), needed):
        block = order[start:start + needed]
        for j, h in zip(block, basis.eval_many(candidates[block])):
            hn = np.linalg.norm(h)
            m = len(accepted)
            if m == 0:
                v = h  # the largest-weight candidate is always kept
            else:
                span = directions[:m]
                v = h - span.T @ (span @ h)
                v -= span.T @ (span @ v)  # second projection keeps the span orthonormal
                if np.linalg.norm(v) / hn <= beta:
                    continue
            directions[m] = v / np.linalg.norm(v)
            accepted.append(int(j))
            if len(accepted) == needed:
                return accepted
    return accepted


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

    accepted: list[int] = []
    cur_beta = beta
    for attempt in range(MAX_BETA_RETRIES + 1):
        cur_beta = beta * 0.5**attempt
        accepted = _scan(basis, candidates, order, cur_beta, needed)
        if len(accepted) == needed:
            break
    else:
        raise SelectionError(len(accepted), needed, cur_beta)

    nodes = candidates[accepted]
    phi, phi_inv, cond = build_phi(basis, nodes)
    return TestingNodeSet(
        nodes=nodes,
        node_indices=np.array(accepted, dtype=np.int64),
        phi=phi,
        phi_inv=phi_inv,
        cond_estimate=cond,
        beta_used=cur_beta,
    )
