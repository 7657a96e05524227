"""Gauss quadrature per germ family and tensor-product grids.

One-dimensional rules come from the symmetric tridiagonal (Golub-Welsch)
eigenproblem of the monic recurrence, so nodes/weights exist for every
family the basis module knows.  Multi-dimensional grids are enumerated in a
mixed-radix order: the linear index j (0-based) decomposes into per-dimension
digits with dimension 0 as the least significant digit and radix n_hat.
A grid is always materialized whole, and only below an enumeration budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Distribution, univariate_recurrence

ENUMERATION_BUDGET = 10**6   # most grid points ever materialized


class QuadratureError(RuntimeError):
    """Eigen-solve failure while building a rule; carries the rule parameters."""


class GridBudgetError(RuntimeError):
    """Materializing the grid would exceed the enumeration budget."""


def check_grid_budget(n_hat: int, dim: int):
    """Raise GridBudgetError if an n_hat**dim tensor grid is over the budget."""
    npoints = n_hat ** dim
    if npoints > ENUMERATION_BUDGET:
        raise GridBudgetError(
            f"grid has {npoints} nodes, over the materialization budget "
            f"of {ENUMERATION_BUDGET}"
        )


@dataclass(frozen=True)
class QuadratureRule1D:
    """An n_hat-point Gauss rule for one germ weight; weights sum to one."""

    dist: Distribution
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return len(self.nodes)


def gauss_rule(dist: Distribution, n_hat: int) -> QuadratureRule1D:
    """Gauss rule with n_hat points for the weight of `dist`.

    Nodes are the eigenvalues of the symmetric tridiagonal matrix with the
    recurrence a_j on the diagonal and sqrt(b_j) off it; the weight of node
    j is the squared first component of its normalized eigenvector.
    """
    if n_hat < 1:
        raise ValueError(f"need at least one point, got {n_hat}")
    rec = univariate_recurrence(dist, n_hat - 1)
    if n_hat == 1:
        return QuadratureRule1D(dist, np.array([rec.a[0]]), np.array([1.0]))
    jac = np.diag(rec.a) + np.diag(np.sqrt(rec.b[1:]), 1) + np.diag(np.sqrt(rec.b[1:]), -1)
    try:
        nodes, vecs = np.linalg.eigh(jac)
    except np.linalg.LinAlgError as exc:
        raise QuadratureError(f"eigen-solve failed for {dist!r} with n_hat={n_hat}") from exc
    weights = vecs[0, :] ** 2  # b_0 = 1: the weight is a PDF
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule1D(dist, nodes, weights)


class TensorGrid:
    """Tensor product of l one-dimensional rules.

    Row j of all_nodes()/all_weights() holds the grid point whose
    per-dimension digits are the radix-n_hat expansion of j, dimension 0
    least significant.  In one-based terms (both j and the digit columns
    I(:, j) starting at 1) that is

        j = 1 + sum_k n_hat^(k-1) * (I(k, j) - 1)
    """

    def __init__(self, rules):
        rules = tuple(rules)
        if not rules:
            raise ValueError("need at least one rule")
        counts = {r.npoints for r in rules}
        if len(counts) != 1:
            raise ValueError(f"all rules must share one point count, got {sorted(counts)}")
        self.rules = rules
        self.n_hat = rules[0].npoints

    @property
    def dim(self) -> int:
        return len(self.rules)

    @property
    def npoints(self) -> int:
        return self.n_hat ** self.dim

    def all_weights(self) -> np.ndarray:
        """All product weights in linear-index order (budget-guarded)."""
        check_grid_budget(self.n_hat, self.dim)
        acc = self.rules[-1].weights
        for k in range(self.dim - 2, -1, -1):
            acc = np.kron(acc, self.rules[k].weights)
        return acc

    def all_nodes(self) -> np.ndarray:
        """All nodes in linear-index order, shape (npoints, dim) (budget-guarded)."""
        check_grid_budget(self.n_hat, self.dim)
        lin = np.arange(self.npoints, dtype=np.int64)
        out = np.empty((self.npoints, self.dim))
        for k in range(self.dim):
            out[:, k] = self.rules[k].nodes[(lin // self.n_hat**k) % self.n_hat]
        return out


def tensor_grid(rules) -> TensorGrid:
    """Tensor grid over l rules that all share the same point count."""
    return TensorGrid(rules)

