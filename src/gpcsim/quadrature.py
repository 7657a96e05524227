"""Gauss quadrature per germ family and tensor-product grids.

Every point set here is a Grid: its nodes and its weights, nothing else.
One-dimensional rules come from the symmetric tridiagonal (Golub-Welsch)
eigenproblem of the monic recurrence, so nodes/weights exist for every
family the basis module knows.  Multi-dimensional grids are enumerated in a
mixed-radix order: the linear index j (0-based) decomposes into per-dimension
digits with dimension 0 as the least significant digit and radix n_hat.
tensor_grid builds both arrays whole, once, and only below an enumeration
budget.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import Distribution, univariate_recurrence

ENUMERATION_BUDGET = 10**6   # most grid points ever materialized


class QuadratureError(RuntimeError):
    """Eigen-solve failure while building a rule; carries the rule parameters."""


class GridBudgetError(RuntimeError):
    """Materializing the grid would exceed the enumeration budget."""


def check_grid_budget(n_hat: int, dim: int):
    """Raise GridBudgetError if an n_hat**dim tensor grid is over the budget."""
    count = n_hat ** dim
    if count > ENUMERATION_BUDGET:
        raise GridBudgetError(
            f"grid has {count} nodes, over the materialization budget "
            f"of {ENUMERATION_BUDGET}"
        )


class Grid(NamedTuple):
    """A point set and its weights, which sum to one: a one-dimensional
    rule has nodes of shape (n,), an l-dimensional grid (n, l)."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_rule(dist: Distribution, n_hat: int) -> Grid:
    """Gauss rule with n_hat points for the weight of `dist`; its arrays
    are read-only.

    Nodes are the eigenvalues of the symmetric tridiagonal matrix with the
    recurrence a_j on the diagonal and sqrt(b_j) off it; the weight of node
    j is the squared first component of its normalized eigenvector.
    """
    if n_hat < 1:
        raise ValueError(f"need at least one point, got {n_hat}")
    rec = univariate_recurrence(dist, n_hat - 1)
    if n_hat == 1:
        nodes, weights = np.array([rec.a[0]]), np.array([1.0])
    else:
        jac = np.diag(rec.a) + np.diag(np.sqrt(rec.b[1:]), 1) + np.diag(np.sqrt(rec.b[1:]), -1)
        try:
            nodes, vecs = np.linalg.eigh(jac)
        except np.linalg.LinAlgError as exc:
            raise QuadratureError(f"eigen-solve failed for {dist!r} with n_hat={n_hat}") from exc
        weights = vecs[0, :] ** 2  # b_0 = 1: the weight is a PDF
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Grid(nodes, weights)


def tensor_grid(rules) -> Grid:
    """Tensor product of l rules that all share the same point count n_hat.

    Row j of the grid holds the point whose per-dimension digits are the
    radix-n_hat expansion of j, dimension 0 least significant.  In
    one-based terms (both j and the digit columns I(:, j) starting at 1)
    that is

        j = 1 + sum_k n_hat^(k-1) * (I(k, j) - 1)

    A grid over the enumeration budget raises GridBudgetError before
    anything is allocated.
    """
    rules = tuple(rules)
    if not rules:
        raise ValueError("need at least one rule")
    counts = {len(r.nodes) for r in rules}
    if len(counts) != 1:
        raise ValueError(f"all rules must share one point count, got {sorted(counts)}")
    n_hat, dim = counts.pop(), len(rules)
    check_grid_budget(n_hat, dim)
    weights = rules[-1].weights
    for r in reversed(rules[:-1]):
        weights = np.kron(weights, r.weights)
    lin = np.arange(n_hat ** dim, dtype=np.int64)
    nodes = np.empty((len(lin), dim))
    for k, r in enumerate(rules):
        nodes[:, k] = r.nodes[(lin // n_hat**k) % n_hat]
    return Grid(nodes, weights)
