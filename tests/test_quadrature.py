"""Quadrature tests: frozen rule values, exactness oracles, grid bookkeeping."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcsim.basis import Beta, Gamma, Gaussian, GpcBasisSet, Uniform
from gpcsim.quadrature import (
    GridBudgetError,
    gauss_rule,
    tensor_grid,
)
from helpers import eval_basis, germ_moments, simpson_moment

FAMILIES = [Gaussian(), Uniform(), Gamma(1.0), Gamma(2.5), Beta(2.0, 3.0), Beta(1.0, 1.0)]


# ---------------------------------------------------------------------------
# 1-D rules
# ---------------------------------------------------------------------------

def test_two_point_rules_match_hand_values():
    r = gauss_rule(Gaussian(), 2)
    assert np.allclose(r.nodes, [-1.0, 1.0])
    assert np.allclose(r.weights, [0.5, 0.5])

    r = gauss_rule(Uniform(), 2)
    assert np.allclose(r.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert np.allclose(r.weights, [0.5, 0.5])

    r = gauss_rule(Gamma(1.0), 2)
    assert np.allclose(r.nodes, [2 - math.sqrt(2), 2 + math.sqrt(2)])
    assert np.allclose(r.weights, [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4])


def test_one_point_rule_is_the_mean():
    for dist in FAMILIES:
        r = gauss_rule(dist, 1)
        assert r.nodes[0] == pytest.approx(dist.germ_mean())
        assert r.weights[0] == pytest.approx(1.0)


@pytest.mark.parametrize("dist", FAMILIES, ids=repr)
@pytest.mark.parametrize("n_hat", range(1, 9))
def test_rule_exactness_against_exact_moments(dist, n_hat):
    r = gauss_rule(dist, n_hat)
    assert r.nodes.shape == r.weights.shape == (n_hat,)
    assert not (r.nodes.flags.writeable or r.weights.flags.writeable)
    assert abs(r.weights.sum() - 1.0) < 1e-12
    assert np.all(r.weights > 0)
    moments = germ_moments(dist, 2 * n_hat - 1)
    abs_scale = 1.0
    for d in range(2 * n_hat):
        got = float(np.dot(r.weights, r.nodes**d))
        want = float(moments[d])
        abs_scale = float(np.dot(r.weights, np.abs(r.nodes) ** d))
        assert abs(got - want) <= 1e-10 * max(1.0, abs_scale)


def test_simpson_oracle_agrees_with_exact_moments():
    # validates the panel oracle itself before acceptance uses it
    for dist, d in [(Gaussian(), 6), (Gamma(2.5), 5), (Beta(2.0, 3.0), 7), (Uniform(), 4)]:
        ref = float(germ_moments(dist, d)[d])
        est = simpson_moment(dist, d, panels=200_000)
        assert est == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_simpson_oracle_cross_checked_with_mpmath():
    import mpmath

    dist = Gamma(2.5)
    ref = mpmath.quad(
        lambda x: x**5 * x ** (dist.gamma - 1) * mpmath.e ** (-x) / mpmath.gamma(dist.gamma),
        [0, mpmath.inf],
    )
    est = simpson_moment(dist, 5, panels=200_000)
    assert est == pytest.approx(float(ref), rel=1e-9)


def test_gauss_rule_validation():
    with pytest.raises(ValueError):
        gauss_rule(Gaussian(), 0)


# ---------------------------------------------------------------------------
# tensor grids
# ---------------------------------------------------------------------------

def _grid(dists, n_hat):
    return tensor_grid([gauss_rule(d, n_hat) for d in dists])


def test_grid_sizes():
    assert len(_grid([Gaussian()] * 2, 4).weights) == 16
    assert len(_grid([Gaussian()] * 3, 4).weights) == 64
    grid = _grid([Gaussian(), Uniform(), Gamma(2.0), Beta(2.0, 2.0)], 4)
    assert len(grid.weights) == 256
    assert grid.nodes.shape == (256, 4)


def test_grid_requires_matching_point_counts():
    with pytest.raises(ValueError):
        tensor_grid([gauss_rule(Gaussian(), 2), gauss_rule(Uniform(), 3)])


def test_index_round_trip_and_mixed_radix_relation():
    n_hat = 3
    rules = [gauss_rule(d, n_hat) for d in (Gaussian(), Uniform(), Gamma(1.5))]
    nodes, weights = tensor_grid(rules)
    seen = []
    # every one-based digit column I(:, j), in any order
    for col in product(range(1, n_hat + 1), repeat=len(rules)):
        # one-based mixed-radix linearization of the digit column
        j = 1 + sum(n_hat ** k * (col[k] - 1) for k in range(len(rules)))
        seen.append(j)
        # row j is the per-dimension product the column says it is
        w = 1.0
        for k, rule in enumerate(rules):
            assert nodes[j - 1, k] == rule.nodes[col[k] - 1]
            w *= rule.weights[col[k] - 1]
        assert weights[j - 1] == pytest.approx(w, rel=1e-15)
    assert sorted(seen) == list(range(1, len(weights) + 1))


def test_materialized_views_match_streamed_access():
    # the streamed reference is itertools.product, which varies its last
    # factor fastest: over the reversed rules it walks the grid with
    # dimension 0 least significant, one point at a time
    rules = [gauss_rule(d, 4) for d in (Uniform(), Gamma(2.0))]
    nodes, weights = tensor_grid(rules)
    assert nodes.shape == (16, 2)
    for j, pairs in enumerate(product(*[list(zip(r.nodes, r.weights))
                                        for r in reversed(rules)])):
        assert np.array_equal(nodes[j], [node for node, _ in reversed(pairs)])
        assert weights[j] == pytest.approx(math.prod(w for _, w in pairs), rel=1e-15)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights > 0)


def test_enumeration_budget():
    with pytest.raises(GridBudgetError, match=f"{7**8} nodes"):
        _grid([Gaussian()] * 8, 7)  # 7^8 > 5.7e6 nodes, over the 10**6 budget


@settings(max_examples=40, deadline=None)
@given(
    n_hat=st.integers(1, 8),
    fam=st.sampled_from(FAMILIES),
    l=st.integers(1, 3),
)
def test_tensor_weight_positivity(n_hat, fam, l):
    w = _grid([fam] * l, n_hat).weights
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_constant_is_one():
    grid = _grid([Gaussian(), Beta(2.0, 5.0)], 3)
    total = grid.weights @ np.ones(len(grid.weights))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_integrate_orthonormal_pairs():
    dists = [Gaussian(), Uniform()]
    p = 3
    basis = GpcBasisSet(dists, p)
    grid = _grid(dists, p + 1)
    h = np.array([eval_basis(basis, xi) for xi in grid.nodes])
    gram = np.einsum("j,jk,jm->km", grid.weights, h, h)
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-10


def test_integrate_gaussian_fourth_moment_product():
    grid = _grid([Gaussian(), Gaussian()], 3)
    xi = grid.nodes
    val = grid.weights @ (xi[:, 0] ** 2 * xi[:, 1] ** 2)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_mixed_family_gram_is_identity():
    dists = [Gamma(2.0), Beta(2.0, 3.0), Uniform()]
    p = 4
    basis = GpcBasisSet(dists, p)
    grid = _grid(dists, p + 1)
    phi = basis.eval_many(grid.nodes)
    gram = phi.T @ (grid.weights[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-9
