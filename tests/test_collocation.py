"""Testing-node selection tests: hand-derived small cases plus scan properties."""

import logging
import tracemalloc

import numpy as np
import pytest

from gpcsim import collocation
from gpcsim.basis import Beta, Gamma, Gaussian, GpcBasisSet, Uniform
from gpcsim.circuit import load_circuit
from gpcsim.cli import resolve_netlist
from gpcsim.collocation import (
    DEFAULT_BETA,
    MAX_BETA_RETRIES,
    SelectionError,
    build_phi,
    select_testing_nodes,
)
from gpcsim.quadrature import Grid, gauss_rule, tensor_grid


def make_grid(dists, p):
    return tensor_grid([gauss_rule(d, p + 1) for d in dists])


def select(dists, p, **kw):
    basis = GpcBasisSet(dists, p)
    return basis, select_testing_nodes(basis, make_grid(dists, p), **kw)


# ---------------------------------------------------------------------------
# hand-derived cases
# ---------------------------------------------------------------------------

def test_gaussian_two_node_case_by_hand():
    # candidates are the 2-point rule nodes -1, +1 with equal weight 1/2;
    # the tie-break visits the ascending linear index, so -1 is kept first
    basis, sel = select([Gaussian()], 1, beta=0.1)
    assert sel.count == 2
    assert np.allclose(sel.nodes.ravel(), [-1.0, 1.0])
    assert np.allclose(sel.phi, [[1.0, -1.0], [1.0, 1.0]])
    assert abs(np.linalg.det(sel.phi)) == pytest.approx(2.0)
    assert np.allclose(sel.phi_inv, [[0.5, 0.5], [-0.5, 0.5]])
    assert sel.beta_used == pytest.approx(0.1)


def test_trivial_single_basis():
    basis, sel = select([Uniform()], 0)
    assert sel.count == 1
    assert np.allclose(sel.phi, [[1.0]])
    assert np.allclose(sel.phi_inv, [[1.0]])


def test_counts_from_published_configurations():
    _, sel = select([Gaussian(), Beta(2.0, 2.0), Gamma(2.0), Uniform()], 3)
    assert sel.count == 35  # out of 256 candidates
    _, sel = select([Gaussian(), Gaussian()], 3)
    assert sel.count == 10  # out of 16 candidates


# ---------------------------------------------------------------------------
# scan behaviour
# ---------------------------------------------------------------------------

def test_selection_is_deterministic():
    dists = [Gamma(2.0), Uniform(), Gaussian()]
    _, a = select(dists, 3)
    _, b = select(dists, 3)
    assert np.array_equal(a.node_indices, b.node_indices)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.phi, b.phi)


def test_nodes_are_distinct_grid_members():
    basis = GpcBasisSet([Uniform(), Gamma(1.0)], 4)
    grid = make_grid(basis.dists, 4)
    sel = select_testing_nodes(basis, grid)
    seen = set()
    for j, node in zip(sel.node_indices, sel.nodes):
        assert tuple(node) not in seen
        seen.add(tuple(node))
        assert np.array_equal(grid.nodes[j], node)


def test_scan_visits_descending_weights():
    basis = GpcBasisSet([Gaussian(), Uniform()], 3)
    grid = make_grid(basis.dists, 3)
    sel = select_testing_nodes(basis, grid)
    w = grid.weights
    # every accepted node's weight is >= the weight of any candidate that was
    # never reached because the scan stopped at K acceptances
    reached = np.sort(np.abs(w))[::-1][: len(w)]
    accepted_w = np.abs(w[sel.node_indices])
    # accepted weights appear in non-increasing scan order
    assert np.all(np.diff(accepted_w) <= 1e-15)


def per_candidate_scan(basis, grid, beta, max_retries=MAX_BETA_RETRIES):
    """Reference selection: the greedy scan with one basis evaluation per
    candidate.  Returns the accepted linear indices, their basis rows and
    the beta that succeeded."""
    candidates = grid.nodes
    order = np.argsort(-np.abs(grid.weights), kind="stable")
    k = basis.size
    for attempt in range(max_retries + 1):
        cur_beta = beta * 0.5**attempt
        directions = np.zeros((k, k))
        accepted, rows = [], []
        for j in order:
            h = basis.eval_many(candidates[j].reshape(1, -1))[0]
            m = len(accepted)
            if m == 0:
                v = h
            else:
                span = directions[:m]
                v = h - span.T @ (span @ h)
                v -= span.T @ (span @ v)
                if np.linalg.norm(v) / np.linalg.norm(h) <= cur_beta:
                    continue
            directions[m] = v / np.linalg.norm(v)
            accepted.append(int(j))
            rows.append(h)
            if m + 1 == k:
                return accepted, np.array(rows), cur_beta
    raise AssertionError("the reference scan found fewer than K nodes")


def netlist_germs(name):
    return [param.dist for param in load_circuit(resolve_netlist(name).read_text()).params]


GERMS = {
    "gauss-unif": [Gaussian(), Uniform()],
    "gamma-beta-unif": [Gamma(2.0), Beta(2.0, 3.0), Uniform()],
    "four-families": [Gaussian(), Beta(2.0, 2.0), Gamma(2.0), Uniform()],
    **{name: netlist_germs(f"{name}.cir") for name in ("sram6t", "cs_amp", "db_mixer")},
}


def candidate_grid(dists, p, kind):
    """The (p+1)-point tensor grid, a (p+2)-point one, or the tensor grid
    with every node listed twice in a row, so each copy after the first is
    rejected."""
    grid = make_grid(dists, p + (kind == "finer"))
    if kind == "twice":
        grid = Grid(np.repeat(grid.nodes, 2, axis=0), np.repeat(grid.weights, 2))
    return grid


# p = 5 and 6 pick K = 126 of 1,296 and 210 of 2,401 tensor candidates,
# with long runs of rejections; beta = 0.9 retries on every tensor grid
ORACLE_CASES = [
    pytest.param(germs, p, beta, kind,
                 id=f"{germs}-{p}-{beta}" + ("" if kind == "tensor" else f"-{kind}"))
    for germs in GERMS
    for p in ((1, 2, 3, 4, 5, 6) if germs == "four-families" else (1, 2, 3, 4))
    for kind in ("tensor", "finer", "twice")
    for beta in (DEFAULT_BETA, 0.9)
]


@pytest.mark.parametrize("germs, p, beta, kind", ORACLE_CASES)
def test_blocked_scan_matches_per_candidate_reference(germs, p, beta, kind):
    dists = GERMS[germs]
    basis = GpcBasisSet(dists, p)
    grid = candidate_grid(dists, p, kind)
    sel = select_testing_nodes(basis, grid, beta=beta)
    indices, rows, beta_used = per_candidate_scan(basis, grid, beta)
    np.testing.assert_array_equal(sel.node_indices, indices)
    np.testing.assert_array_equal(sel.phi, rows)
    phi, phi_inv, cond = build_phi(basis, grid.nodes[indices])
    np.testing.assert_array_equal(sel.phi_inv, phi_inv)
    assert sel.cond_estimate == cond
    assert sel.beta_used == beta_used
    if beta == 0.9 and kind == "tensor":
        assert beta_used < beta


def test_selection_memory_is_quadratic_in_k():
    """Picking K = 126 nodes from 1,296 candidates holds a few K x K
    float arrays at once; the (1,296, K) table of every candidate's basis
    values alone would take 10.3 of them."""
    dists, p = GERMS["four-families"], 5
    basis = GpcBasisSet(dists, p)
    grid = make_grid(dists, p)
    select_testing_nodes(basis, grid)   # warm-up
    tracemalloc.start()
    try:
        sel = select_testing_nodes(basis, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sel.count, len(grid.weights)) == (126, 1296)
    assert peak < 8 * sel.count**2 * 8


def test_selection_from_a_finer_candidate_grid():
    # the scan takes any candidate grid, here p+2 points per dimension
    dists, p = [Gaussian(), Uniform()], 2
    basis = GpcBasisSet(dists, p)
    grid = make_grid(dists, p + 1)
    sel = select_testing_nodes(basis, grid)
    assert sel.count == basis.size == 6
    assert len({tuple(node) for node in sel.nodes}) == 6
    np.testing.assert_array_equal(sel.nodes, grid.nodes[sel.node_indices])
    assert np.all(np.diff(grid.weights[sel.node_indices]) <= 0)
    phi, _, _ = build_phi(basis, sel.nodes)
    np.testing.assert_array_equal(phi, sel.phi)


def test_rank_grows_with_each_acceptance():
    basis, sel = select([Gaussian(), Uniform()], 3)
    for m in range(1, sel.count + 1):
        rows = sel.phi[:m]
        assert np.linalg.matrix_rank(rows) == m


def test_phi_inverse_identity_and_cond():
    _, sel = select([Gamma(2.0), Beta(2.0, 3.0), Uniform()], 4)
    ident = sel.phi @ sel.phi_inv
    assert np.max(np.abs(ident - np.eye(sel.count))) < 1e-8
    assert np.isfinite(sel.cond_estimate)
    assert sel.cond_estimate >= 1.0


def test_selection_failure_and_retry(monkeypatch):
    dists = [Gaussian(), Gaussian()]
    basis = GpcBasisSet(dists, 1)
    grid = make_grid(dists, 1)
    # at beta=0.95 the three remaining corner candidates all fail the
    # orthogonality test (ratio ~ 0.943), so a single pass cannot reach K=3
    with monkeypatch.context() as m, pytest.raises(SelectionError) as err:
        m.setattr(collocation, "MAX_BETA_RETRIES", 0)
        select_testing_nodes(basis, grid, beta=0.95)
    assert err.value.selected < err.value.needed
    assert err.value.needed == 3

    sel = select_testing_nodes(basis, grid, beta=0.95)  # retries halve beta
    assert sel.count == 3
    assert sel.beta_used < 0.95


def test_monotone_beta_is_a_soft_diagnostic(caplog, monkeypatch):
    # raising beta should not worsen conditioning in most cases; violations
    # are logged for inspection, never failed hard
    monkeypatch.setattr(collocation, "MAX_BETA_RETRIES", 0)
    rng = np.random.default_rng(11)
    violations = 0
    trials = 0
    for _ in range(10):
        fams = rng.choice(4, size=2)
        dists = [
            [Gaussian(), Uniform(), Gamma(1.0 + rng.random()), Beta(1.0 + rng.random(), 1.5)][f]
            for f in fams
        ]
        p = int(rng.integers(1, 4))
        basis = GpcBasisSet(dists, p)
        grid = make_grid(dists, p)
        try:
            lo = select_testing_nodes(basis, grid, beta=1e-3)
            hi = select_testing_nodes(basis, grid, beta=1e-1)
        except SelectionError:
            continue
        trials += 1
        if hi.cond_estimate > lo.cond_estimate * (1 + 1e-12):
            violations += 1
            logging.getLogger(__name__).info(
                "cond grew with beta: %.3e -> %.3e", lo.cond_estimate, hi.cond_estimate
            )
    assert trials > 0  # the diagnostic actually ran


def test_argument_validation():
    basis = GpcBasisSet([Gaussian()], 2)
    grid = make_grid([Gaussian()], 2)
    with pytest.raises(ValueError):
        select_testing_nodes(basis, grid, beta=0.0)
    with pytest.raises(ValueError):
        select_testing_nodes(basis, grid, beta=1.0)
    with pytest.raises(ValueError):
        select_testing_nodes(GpcBasisSet([Gaussian(), Gaussian()], 2), grid)
    with pytest.raises(ValueError):
        build_phi(basis, np.zeros((2, 1)))
