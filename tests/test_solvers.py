"""Cross-checks of the four stochastic methods against independent oracles.

The collocated residual and the decoupled Newton step are verified against
literal re-implementations (numpy.polynomial bases, hand-written branch
equations, dense Kronecker assembly).  Method agreement tests exploit
circuits whose solutions are exactly polynomial in the germs, where every
spectral method must reproduce the same coefficients.
"""

import math
import tracemalloc
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import hermite_e, legendre

from gpcsim import cli, engine, solvers
from gpcsim.basis import GpcBasisSet, Uniform
from gpcsim.circuit import AssemblyWarning, StochasticCircuit, load_circuit
from gpcsim.collocation import select_testing_nodes
from gpcsim.devices import DeviceKernel
from gpcsim.engine import NewtonConfig, StepControl, dc_solve
from gpcsim.netlist import AcAnalysis, DcAnalysis, DcSweepAnalysis, TranAnalysis
from gpcsim.quadrature import GridBudgetError, gauss_rule, tensor_grid
from gpcsim.solvers import (
    GermPoints,
    MethodError,
    SGProblem,
    STProblem,
    mc_solve,
    run_analysis,
    sc_solve,
    sg_solve,
    st_decoupled_linear_step,
    st_solve,
)
from helpers import (
    CircuitProblem,
    inverter_chain,
    sg_jacobian_reference,
    st_residual,
    standard_error,
)
from test_acceptance import ladder_netlist

DIVIDER = """* divider, one uniform resistor
v1 1 0 dc 3
r1 1 2 dist=uniform(900,1100)
r2 2 0 1k
.dc
"""

RC_UNIFORM = """* rc driven by a sine, uniform resistor
v1 1 0 sin(0 1 1k)
r1 1 2 dist=uniform(900,1100)
c1 2 0 1u
.tran 2m
"""

DIODE = """* diode clamp with gaussian saturation current scale
v1 1 0 dc 0.8
r1 1 2 1k
d1 2 0 is=dist=gauss(1e-14,2e-15) n=1.5
.dc
"""

# node voltages I*(R1+R2) and I*R2 are degree-1 polynomials in the germs,
# so every spectral method of order >= 1 must recover them exactly
POLY2 = """* fixed current source into two random resistors
i1 0 1 1m
r1 1 2 dist=uniform(900,1100)
r2 2 0 dist=uniform(900,1100)
.dc
"""

# a diode behind a resistor whose gaussian spread reaches below zero: for
# r1 < 0 the diode current can never balance the resistor, so no operating
# point exists
NEGATIVE_R = """* diode behind a resistor that may go negative
v1 1 0 dc 1
r1 1 2 dist=gauss(1k,400)
d1 2 0 is=1e-14
.dc
"""


# cs_amp swept from cutoff to deep triode, 31 levels
CS_AMP_WIDE = """* common-source stage swept across cutoff
vdd vdd 0 dc 3
vin in 0 dc 0.9
rd vdd d dist=uniform(1800,2200)
rs s 0 dist=gamma(2,900,30)
m1 d in s type=nmos kp=500u w=20u l=1u vt0=dist=gauss(0.5,0.02) temp=dist=beta(2,2,300,20)
.dcsweep vin 0 3 0.1
"""


def select_for(circuit, order):
    basis = GpcBasisSet([p.dist for p in circuit.params], order)
    rules = [gauss_rule(p.dist, order + 1) for p in circuit.params]
    nodes = select_testing_nodes(basis, tensor_grid(rules))
    return basis, nodes


def legendre_orthonormal(k, xi):
    """k-th orthonormal polynomial for the uniform germ on [-1, 1]."""
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    return legendre.legval(xi, coef) * math.sqrt(2 * k + 1)


def hermite_orthonormal(k, xi):
    """k-th orthonormal polynomial for the standard Gaussian germ."""
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    return hermite_e.hermeval(xi, coef) / math.sqrt(math.factorial(k))


# --------------------------------------------------------------------------
# collocated residual against a literal re-implementation
# --------------------------------------------------------------------------

class TestStResidual:
    def test_matches_independent_assembly(self):
        """Residual blocks rebuilt from scratch: Legendre values, hand-written
        divider equations, tiled source."""
        circuit = load_circuit(DIVIDER)
        basis, nodes = select_for(circuit, 3)
        k, n = basis.size, circuit.n
        rng = np.random.default_rng(5)
        X = rng.normal(size=k * n)

        got = st_residual(circuit, basis, nodes, X)

        want = np.empty((k, n))
        for m in range(k):
            xi = nodes.nodes[m][0]
            h = np.array([legendre_orthonormal(j, xi) for j in range(k)])
            x = X.reshape(k, n).T @ h          # reconstructed state at the node
            v1, v2, iv = x
            r1 = 1000.0 + 100.0 * xi
            f = np.array([
                (v1 - v2) / r1 + iv,
                (v2 - v1) / r1 + v2 / 1000.0,
                v1,
            ])
            want[m] = f - np.array([0.0, 0.0, 3.0])
        np.testing.assert_allclose(got, want.ravel(), rtol=1e-12, atol=1e-12)

    def test_charge_term_enters_with_coefficient(self):
        circuit = load_circuit(RC_UNIFORM)
        basis, nodes = select_for(circuit, 2)
        rng = np.random.default_rng(6)
        X = rng.normal(size=basis.size * circuit.n)
        hist = rng.normal(size=basis.size * circuit.n)

        r0 = st_residual(circuit, basis, nodes, X, t=1e-4)
        r1 = st_residual(circuit, basis, nodes, X, t=1e-4, c=2.0e6, history=hist)

        # difference must be exactly c*Q(X) + hist, with Q the stacked charges
        states = nodes.phi @ X.reshape(basis.size, circuit.n)
        q = np.vstack([circuit.eval_qf(states[m], nodes.nodes[m]).q
                       for m in range(basis.size)])
        np.testing.assert_allclose(r1 - r0, 2.0e6 * q.ravel() + hist, rtol=1e-12)

    def test_exact_solution_gives_zero_residual(self):
        # nodal solution is affine in the germs; its expansion is exact
        circuit = load_circuit(POLY2)
        basis, nodes = select_for(circuit, 2)
        vals = np.array([[1e-3 * (2000.0 + 100.0 * xi1 + 100.0 * xi2),
                          1e-3 * (1000.0 + 100.0 * xi2)]
                         for xi1, xi2 in nodes.nodes])
        X = (nodes.phi_inv @ vals).ravel()
        r = st_residual(circuit, basis, nodes, X)
        assert np.abs(r).max() < 1e-12

    def test_p0_is_deterministic_residual(self):
        circuit = load_circuit(DIVIDER)
        basis, nodes = select_for(circuit, 0)
        x = np.array([3.0, 1.4, -1.6e-3])
        got = st_residual(circuit, basis, nodes, x)
        ev = circuit.eval_qf(x, nodes.nodes[0])
        want = ev.f - circuit.b_matrix @ circuit.dc_source_vector()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


class TestResidualJacobianFactorization:
    """FD Jacobian of the stacked residual must equal blockdiag(J~) (Phi x I)."""

    @pytest.mark.parametrize("netlist,order", [(DIVIDER, 2), (DIODE, 3)])
    def test_fd_jacobian_factorizes(self, netlist, order):
        circuit = load_circuit(netlist)
        basis, nodes = select_for(circuit, order)
        k, n = basis.size, circuit.n
        rng = np.random.default_rng(7)
        X = 0.1 * rng.normal(size=k * n)

        fd = np.empty((k * n, k * n))
        for j in range(k * n):
            step = 1e-6 * max(1.0, abs(X[j]))
            xp, xm = X.copy(), X.copy()
            xp[j] += step
            xm[j] -= step
            fd[:, j] = (st_residual(circuit, basis, nodes, xp)
                        - st_residual(circuit, basis, nodes, xm)) / (2 * step)

        states = nodes.phi @ X.reshape(k, n)
        blocks = [circuit.eval_qf(states[m], nodes.nodes[m]).df for m in range(k)]
        analytic = np.zeros((k * n, k * n))
        for m in range(k):
            for kk in range(k):
                analytic[m * n:(m + 1) * n, kk * n:(kk + 1) * n] = \
                    nodes.phi[m, kk] * blocks[m]
        scale = max(np.abs(analytic).max(), 1.0)
        assert np.abs(fd - analytic).max() / scale < 1e-5


# --------------------------------------------------------------------------
# decoupled linear step
# --------------------------------------------------------------------------

class TestDecoupledStep:
    def test_hand_two_by_two(self):
        """n=1, K=2 Gaussian: solve the coupled system symbolically."""
        basis = GpcBasisSet([load_circuit(DIODE).params[0].dist], 1)
        grid = tensor_grid([gauss_rule(basis.dists[0], 2)])
        nodes = select_testing_nodes(basis, grid)
        np.testing.assert_allclose(sorted(nodes.nodes[:, 0]), [-1.0, 1.0],
                                   atol=1e-12)

        blocks = [np.array([[2.0]]), np.array([[5.0]])]
        resid = np.array([[3.0], [-1.0]])
        got = st_decoupled_linear_step(blocks, nodes.phi_inv, resid)

        # coupled system: blockdiag(2, 5) * Phi * dX = -R, here 2x2
        coupled = np.diag([2.0, 5.0]) @ nodes.phi
        want = np.linalg.solve(coupled, -resid.ravel())
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_k1_reduces_to_dense_solve(self):
        jac = np.array([[4.0, 1.0], [1.0, 3.0]])
        r = np.array([[1.0, -2.0]])
        got = st_decoupled_linear_step([jac], np.eye(1), r)
        np.testing.assert_allclose(got, np.linalg.solve(jac, -r[0]), rtol=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_dense_coupled_solve(self, order):
        circuit = load_circuit(DIODE)
        basis, nodes = select_for(circuit, order)
        k, n = basis.size, circuit.n
        rng = np.random.default_rng(11)
        X = 0.05 * rng.normal(size=k * n)
        states = nodes.phi @ X.reshape(k, n)
        blocks = [circuit.eval_qf(states[m], nodes.nodes[m]).df for m in range(k)]
        resid = rng.normal(size=(k, n))

        got = st_decoupled_linear_step(blocks, nodes.phi_inv, resid)

        dense = np.zeros((k * n, k * n))
        for m in range(k):
            dense[m * n:(m + 1) * n] = np.kron(nodes.phi[m], blocks[m])
        want = np.linalg.solve(dense, -resid.ravel())
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-9

    def test_singular_block_names_node(self):
        blocks = [np.eye(2), np.zeros((2, 2))]
        with pytest.raises(np.linalg.LinAlgError, match="node 1"):
            st_decoupled_linear_step(blocks, np.eye(2), np.ones((2, 2)))


# --------------------------------------------------------------------------
# collocation exactness and degenerate equivalence
# --------------------------------------------------------------------------

class TestStSolve:
    def test_collocation_exact_at_testing_nodes(self):
        """Reconstructed nodal states satisfy the deterministic DC equations."""
        circuit = load_circuit(DIODE)
        traj = st_solve(circuit, 3, DcAnalysis())
        states = traj.nodes.phi @ traj.coeffs[-1]
        bu = circuit.b_matrix @ circuit.dc_source_vector()
        for m, xi in enumerate(traj.nodes.nodes):
            resid = circuit.eval_qf(states[m], xi).f - bu
            assert np.abs(resid).max() < 1e-9

    def test_initial_coefficients_from_nominal_dc(self):
        circuit = load_circuit(RC_UNIFORM)
        traj = st_solve(circuit, 2, TranAnalysis(1e-5))
        # at t=0 the stochastic DC of a sine-driven (zero at t=0) RC is zero
        assert np.abs(traj.coeffs[0]).max() < 1e-9

    def test_dc_sweep_levels(self):
        circuit = load_circuit(DIVIDER)
        traj = st_solve(circuit, 2, DcSweepAnalysis("v1", 0.0, 2.0, 0.5))
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        # mean of v2 = 2*1000/(2000+100 xi) over uniform xi: 10 ln(21/19)
        want = 10.0 * math.log(21.0 / 19.0)
        assert traj.coeffs[-1, 0, 1] == pytest.approx(want, rel=1e-5)
        assert abs(traj.coeffs[0]).max() < 1e-12  # zero source, zero solution

    def test_polynomial_solution_recovered_exactly(self):
        circuit = load_circuit(POLY2)
        traj = st_solve(circuit, 2, DcAnalysis())
        c = traj.coeffs[0]
        # v(1) = 2 + 0.1 xi1 + 0.1 xi2, v(2) = 1 + 0.1 xi2, and the
        # orthonormal linear basis function is sqrt(3) xi
        idx = {tuple(i): j for j, i in enumerate(traj.basis.indices)}
        lin = 0.1 / math.sqrt(3)
        assert c[idx[(0, 0)], 0] == pytest.approx(2.0, rel=1e-10)
        assert c[idx[(1, 0)], 0] == pytest.approx(lin, rel=1e-10)
        assert c[idx[(0, 1)], 0] == pytest.approx(lin, rel=1e-10)
        assert c[idx[(0, 0)], 1] == pytest.approx(1.0, rel=1e-10)
        assert abs(c[idx[(1, 0)], 1]) < 1e-12
        assert c[idx[(0, 1)], 1] == pytest.approx(lin, rel=1e-10)
        assert abs(c[idx[(1, 1)], 0]) < 1e-12
        assert abs(c[idx[(2, 0)], 0]) < 1e-12

    def test_engine_failure_is_annotated(self, monkeypatch):
        bad = load_circuit("""* no dc path anywhere useful
v1 1 0 dc 1
r1 1 2 dist=uniform(900,1100)
d1 0 2 is=1e-14
.dc
""")
        # reverse-biased diode in series leaves node 2 floating at DC; the
        # solve itself still works, so force failure with a hopeless budget
        monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 0)
        with pytest.raises(Exception, match="method=st"):
            st_solve(bad, 2, DcAnalysis(),
                     newton=NewtonConfig(abstol=1e-30, reltol=1e-30))


SHIPPED = sorted(p.name for p in (resources.files("gpcsim") / "netlists").iterdir()
                 if p.name.endswith(".cir"))


class TestDegenerateEquivalence:
    """Order 0 collapses every method onto the nominal deterministic run."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_one_point_problem_is_the_dense_nominal_solve(self, name):
        """The nominal operating point through the one-point stacked problem
        is the dense reference solve bit for bit, iteration counts included."""
        circuit = load_circuit((resources.files("gpcsim") / "netlists" / name).read_text())
        xi = circuit.nominal_germ()
        one = CircuitProblem(circuit, xi)
        dense = dc_solve(one, source=one.source(0.0))
        stacked_problem = STProblem(circuit, None, GermPoints(xi[None]))
        stacked = dc_solve(stacked_problem, source=stacked_problem.source(0.0))
        np.testing.assert_array_equal(stacked.x, dense.x)
        assert stacked.stats.newton_iterations == dense.stats.newton_iterations
        assert stacked.homotopy_used == dense.homotopy_used
        assert stacked.stats.linear_solves == dense.stats.linear_solves
        np.testing.assert_array_equal(solvers._nominal_dc(
            circuit, NewtonConfig(), circuit.b_matrix @ circuit.source_vector(0.0)).x,
            dense.x)

    def test_dc_all_methods_identical(self):
        circuit = load_circuit(DIODE)
        one = CircuitProblem(circuit, circuit.nominal_germ())
        nominal = dc_solve(one, source=one.source(0.0)).x
        st = st_solve(circuit, 0, DcAnalysis()).coeffs[0, 0]
        sg = sg_solve(circuit, 0, DcAnalysis()).coeffs[0, 0]
        sc = sc_solve(circuit, 0, DcAnalysis()).coeffs[0, 0]
        mc = mc_solve(circuit, 1, 0, DcAnalysis())
        np.testing.assert_allclose(st, nominal, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sg, nominal, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sc, nominal, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mc.solutions[0, 0], nominal, rtol=0, atol=1e-12)

    def test_transient_all_methods_identical(self):
        circuit = load_circuit(RC_UNIFORM)
        h = 2e-3 / 400
        st = st_solve(circuit, 0, TranAnalysis(2e-3), fixed_h=h)
        sg = sg_solve(circuit, 0, TranAnalysis(2e-3), fixed_h=h)
        sc = sc_solve(circuit, 0, TranAnalysis(2e-3), fixed_h=h)
        mc = mc_solve(circuit, 1, 0, TranAnalysis(2e-3), fixed_h=h)
        base = st.coeffs[:, 0, :]
        np.testing.assert_allclose(sg.coeffs[:, 0, :], base, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sc.coeffs[:, 0, :], base, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mc.solutions[0], base, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(st.times, sc.times)


# --------------------------------------------------------------------------
# Galerkin specifics
# --------------------------------------------------------------------------

class TestSgSolve:
    def test_source_projection_blocks(self):
        from gpcsim.solvers import SGProblem

        circuit = load_circuit(DIVIDER)
        basis = GpcBasisSet([p.dist for p in circuit.params], 3)
        problem = SGProblem(circuit, basis)
        s = problem.source(0.0).reshape(basis.size, circuit.n)
        np.testing.assert_allclose(
            s[0], circuit.b_matrix @ circuit.dc_source_vector(), rtol=1e-15)
        assert np.abs(s[1:]).max() == 0.0

    def test_agrees_with_st_on_polynomial_circuit(self):
        circuit = load_circuit(POLY2)
        st = st_solve(circuit, 2, DcAnalysis()).coeffs
        sg = sg_solve(circuit, 2, DcAnalysis()).coeffs
        assert np.abs(st - sg).max() < 1e-8

    def test_agrees_with_st_on_nonlinear_dc(self):
        circuit = load_circuit(DIODE)
        st = st_solve(circuit, 3, DcAnalysis()).coeffs
        sg = sg_solve(circuit, 3, DcAnalysis()).coeffs
        assert np.abs(st - sg).max() < 1e-6

    def test_dc_sweep_sets_up_the_projection_once(self, monkeypatch):
        """One SGProblem serves every sweep level: its quadrature tables are
        built once, and each level still solves its own source value."""
        calls = []
        set_up = solvers.SGProblem.__post_init__

        def counted(problem):
            calls.append(problem)
            set_up(problem)

        monkeypatch.setattr(solvers.SGProblem, "__post_init__", counted)
        circuit = load_circuit(DIVIDER)
        traj = sg_solve(circuit, 2, DcSweepAnalysis("v1", 0.0, 2.0, 0.5))
        assert len(calls) == 1
        # mean of v2 = v1*1000/(2000+100 xi) over uniform xi: 5 v1 ln(21/19)
        want = 5.0 * traj.times * math.log(21.0 / 19.0)
        np.testing.assert_allclose(traj.coeffs[:, 0, 1], want, rtol=1e-5, atol=1e-12)


# a floating source, an inductor, and a random capacitor beside a diode:
# three stamp groups (r1's four entries, the shared (c, c) entry, the
# inductor's charge) and ten incidence entries (two of v1, four each of v2
# and l1)
STAMP_EDGES = """* sg stamp-group edge cases
v1 in 0 dc 1
r1 in a dist=uniform(900,1100)
v2 a b dc 0.3
l1 b c 1u
c1 c 0 dist=gauss(1p,0.1p)
d1 c 0 is=1e-14
"""


# a grounded source, then a floating one on its node: v2's row and column
# are singletons only once v1's have been peeled
TWO_ROUNDS = """* sources in series
v1 a 0 dc 1
v2 b a dc 0.5
r1 b c dist=uniform(900,1100)
r2 c 0 1k
"""

# a current source drives the rest, so no row or column is a singleton
# incidence and the whole circuit is the core
ALL_CORE = """* nothing to peel
i1 0 a 1m
r1 a b dist=uniform(900,1100)
c1 b 0 1n
d1 b 0 is=1e-14
r2 b 0 1k
"""

PARALLEL_SOURCES = """* two sources on one node
v1 1 0 dc 1
v2 1 0 dc 2
r1 1 2 dist=uniform(900,1100)
r2 2 0 1k
"""


# one germ of each family, each with its own 1-D quadrature factor, so a
# projection that contracts the germ axes in the wrong order is wrong
FOUR_GERMS = """* gauss, uniform, beta and gamma germs
v1 in 0 dc 1
r1 in a dist=gauss(1k,30)
r2 a b dist=uniform(900,1100)
c1 b 0 dist=beta(2,5,1n,0.1n)
r3 b 0 dist=gamma(2,900,30)
d1 b 0 is=1e-14
"""

ONE_GERM = """* a single germ
v1 in 0 dc 1
r1 in a dist=uniform(900,1100)
c1 a 0 1n
d1 a 0 is=1e-14
"""


def named_circuit(name):
    """A shipped netlist, one of the test circuits above, or "ladder",
    criterion 10's RC-diode ladder of 16 sections, by name."""
    texts = {"stamp edges": STAMP_EDGES, "two rounds": TWO_ROUNDS,
             "four germs": FOUR_GERMS, "one germ": ONE_GERM,
             "all core": ALL_CORE, "ladder": ladder_netlist(16)}
    return load_circuit(texts[name]) if name in texts else shipped_circuit(name)


def sg_near_operating_point(name, order, seed=11):
    """An SG problem of a `named_circuit`, and a state whose block 0 is the
    nominal operating point and whose higher blocks are small and random."""
    circuit = named_circuit(name)
    problem = SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], order))
    nominal = solvers._nominal_dc(circuit, None, circuit.b_matrix @ circuit.dc_source_vector())
    X = 0.01 * np.random.default_rng(seed).normal(size=(problem.basis.size, circuit.n))
    X[0] = nominal.x
    return problem, X.ravel()


class TestSgLinearize:
    """The solve against the all-entries projection, the sum-factorized
    projection against the weighted table product it replaces, and the
    reference Galerkin Jacobian against finite differences of the
    projected residual."""

    @pytest.mark.parametrize("name,order", [("cs_amp.cir", 3), ("bjt_feedback.cir", 2),
                                            ("sram6t.cir", 1), ("rc_uniform.cir", 3),
                                            ("stamp edges", 3), ("cs_amp.cir", 5),
                                            *(("four germs", p) for p in range(6)),
                                            *(("one germ", p) for p in range(7))])
    def test_matches_the_all_entries_projection(self, name, order):
        """The solve inverts the all-entries projection: its residual
        against the reference is rounding-sized.  A residual, not a forward
        error, because from p=3 the random state's outer quadrature points
        spread "four germs"' diode conductance over many decades and the
        reference's condition number reaches 1e10 to 1e12.  The right-hand
        side is the reference times an O(1) state, so every column is
        weighted alike and an entry projected or placed wrong raises the
        residual to that entry's size."""
        problem, X = sg_near_operating_point(name, order)
        v = np.random.default_rng(7).normal(size=problem.size)
        ev = problem.eval(X)
        for c in (0.0, 1e9):
            jac = sg_jacobian_reference(ev, c)
            rhs = jac @ v
            got = ev.linearize(c).solve(rhs)
            scale = np.abs(jac).max() * np.abs(got).max()
            assert np.abs(jac @ got - rhs).max() <= 1e-12 * scale, c

    @pytest.mark.parametrize("dist", ["gauss(1k,10)", "uniform(900,1100)", "beta(2,2,1k,20)",
                                      "beta(2,5,1k,20)", "gamma(2,900,30)", "gamma(5.5,900,30)",
                                      "cs_amp"])
    def test_a_constant_projects_to_the_identity(self, dist):
        """linearize writes an incidence entry as its value times I, which
        holds because the quadrature integrates the products of basis
        functions exactly: wh.T @ hmat = I, for every germ family."""
        circuit = (shipped_circuit("cs_amp.cir") if dist == "cs_amp"
                   else load_circuit(f"i1 0 1 1m\nr1 1 0 dist={dist}\n"))
        for order in range(7):
            problem = SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], order))
            gram = problem.wh.T @ problem.hmat
            assert np.abs(gram - np.eye(problem.basis.size)).max() <= 1e-13, order

    @pytest.mark.parametrize("name,order", [("one germ", 6), ("stamp edges", 4),
                                            ("four germs", 0), ("four germs", 1),
                                            ("four germs", 3), ("four germs", 5),
                                            ("cs_amp.cir", 5)])
    def test_projection_is_the_weighted_table_product(self, name, order):
        """The sum-factorized projection alone against the (Q, K, G) table
        it replaces, on random values."""
        circuit = named_circuit(name)
        problem = SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], order))
        (q, k), g = problem.hmat.shape, 5
        vals = np.random.default_rng(3).normal(size=(q, g))
        want = problem.wh.T @ (problem.hmat[:, :, None] * vals[:, None, :]).reshape(q, -1)
        got = problem.projection(vals)
        assert got.shape == (k * k, g)
        assert np.abs(got - want.reshape(k * k, g)).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("germs", range(1, 6))
    def test_no_product_outgrows_the_table_it_replaces(self, germs):
        """Every product the projection forms, before its rows are kept,
        holds at most Q·K entries per stamp group."""
        for order in range(7 if germs < 5 else 4):
            basis = GpcBasisSet([Uniform()] * germs, order)
            plan = solvers._projection_plan(basis, [gauss_rule(d, order + 1) for d in basis.dists])
            n, q = order + 1, (order + 1) ** germs
            rows, rest = len(plan.top), q // n
            sizes = [rows * rest]
            for factor, keep in plan.levels:
                rest //= n
                sizes.append(rows * len(factor) * rest)
                rows = len(keep)
            assert rows == basis.size ** 2
            assert max(sizes) <= q * basis.size, (order, sizes)

    def test_stamp_edges_exercise_every_kind_of_entry(self):
        groups = load_circuit(STAMP_EDGES).kernel.stamp_groups
        assert len(groups.lead) == 3
        assert len(groups.value) == 10
        assert set(groups.sign) == {-1.0, 1.0}

    @pytest.mark.parametrize("name", ["cs_amp.cir", "stamp edges"])
    def test_matches_central_differences_of_the_residual(self, name):
        problem, X = sg_near_operating_point(name, 2)
        size = problem.size
        fd_q, fd_f = np.empty((size, size)), np.empty((size, size))
        for j in range(size):
            step = 1e-6 * max(1.0, abs(X[j]))
            xp, xm = X.copy(), X.copy()
            xp[j] += step
            xm[j] -= step
            plus, minus = problem.eval(xp), problem.eval(xm)
            fd_q[:, j] = (plus.q - minus.q) / (2 * step)
            fd_f[:, j] = (plus.f - minus.f) / (2 * step)
        ev = problem.eval(X)
        for c in (0.0, 1e9):
            jac = sg_jacobian_reference(ev, c)
            assert np.abs(jac - (c * fd_q + fd_f)).max() <= 1e-6 * np.abs(jac).max(), c


class TestSgPeel:
    """The Galerkin solve: voltage-source rows and branch-current columns
    taken off by division, and the core left, all of a circuit with nothing
    to peel, factored from the projection."""

    @pytest.mark.parametrize("name,order", [("cs_amp.cir", 3), ("bjt_feedback.cir", 2),
                                            ("sram6t.cir", 1), ("rc_uniform.cir", 3),
                                            ("stamp edges", 3), ("db_mixer.cir", 1),
                                            ("lna.cir", 2), ("two rounds", 3),
                                            ("cs_amp.cir", 5), ("ladder", 1), ("ladder", 3),
                                            ("all core", 2), ("db_mixer.cir", 2)])
    def test_matches_the_dense_solve(self, name, order):
        problem, X = sg_near_operating_point(name, order)
        rhs = np.random.default_rng(7).normal(size=problem.size)
        ev = problem.eval(X)
        for c in (0.0, 1e9):
            want = np.linalg.solve(sg_jacobian_reference(ev, c), rhs)
            got = ev.linearize(c).solve(rhs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), c

    def test_the_peeled_solve_never_holds_a_dense_jacobian(self):
        """After a warm-up solve has built the plans, one linearize-and-solve
        on cs_amp p=5 peaks below one dense (nK)^2 matrix."""
        problem, X = sg_near_operating_point("cs_amp.cir", 5)
        rhs = np.random.default_rng(7).normal(size=problem.size)
        ev = problem.eval(X)
        ev.linearize(0.0).solve(rhs)
        dense = problem.size ** 2 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            ev.linearize(1e9).solve(rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense, (peak, dense)

    @pytest.mark.parametrize("name", ["cs_amp.cir", "bjt_feedback.cir", "sram6t.cir",
                                      "rc_uniform.cir", "db_mixer.cir", "lna.cir",
                                      "diode_dc.cir", "stamp edges", "two rounds"])
    def test_every_state_is_placed_once_and_every_pivot_is_an_incidence(self, name):
        kernel = named_circuit(name).kernel
        peel = kernel.peel
        rounds = peel.forward + peel.backward
        rows = np.concatenate([r for r, _, _ in rounds] + [peel.core[0]])
        cols = np.concatenate([c for _, c, _ in rounds] + [peel.core[1]])
        assert sorted(rows) == list(range(kernel.n))
        assert sorted(cols) == list(range(kernel.n))
        groups = kernel.stamp_groups
        entries = (a[groups.incidence].tolist() for a in kernel.jacobian_pattern)
        incidence = dict(zip(zip(*entries), groups.value))
        for r, c, value in rounds:
            for entry, v in zip(zip(r.tolist(), c.tolist()), value):
                assert incidence[entry] == v, entry

    @pytest.mark.parametrize("name,core", [("cs_amp.cir", 2), ("sram6t.cir", 2),
                                            ("db_mixer.cir", 5), ("lna.cir", 3),
                                            ("stamp edges", 5), ("ladder", 16)])
    def test_core_sizes(self, name, core):
        assert len(named_circuit(name).kernel.peel.core[0]) == core

    def test_nothing_to_peel_is_one_core_step(self):
        """With no peeled round the plan is one core step over every state,
        in the circuit's own order, that reads the whole matrix."""
        circuit = named_circuit("all core")
        problem = SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], 2))
        plan, blocked = problem.peel_steps
        (step,), ((signs, incidence, core, _, _),) = plan.steps, blocked
        assert step.span == slice(0, circuit.n)
        assert step.pivot is None and signs is None and incidence is None
        assert core.shape == (problem.basis.size, circuit.n) * 2
        np.testing.assert_array_equal(plan.rows, np.arange(circuit.n))
        np.testing.assert_array_equal(plan.order, np.arange(circuit.n))

    def test_db_mixer_pads_a_row_beside_an_entry_at_solve_place_0(self):
        """db_mixer's plan pads a row (place nnz, solve place 0) that also
        has a real entry in the state solved first, so its dense-solve match
        fails if the pad writes into sg's signs or incidence constants."""
        kernel = named_circuit("db_mixer.cir").kernel
        nnz = len(kernel.jacobian_pattern[0])
        assert any((entries == nnz).any() and ((entries < nnz) & (known == 0)).any()
                   for step in solvers._peel_plan(kernel).steps
                   for entries, known in zip(step.entries, step.known))

    def test_a_floating_source_takes_two_rounds(self):
        circuit = load_circuit(TWO_ROUNDS)
        peel = circuit.kernel.peel
        a, b, c = (circuit.state_names.index(f"v({nm})") for nm in "abc")
        br1, br2 = (circuit.state_names.index(f"i({nm})") for nm in ("v1", "v2"))
        assert [(r.tolist(), c.tolist()) for r, c, _ in peel.forward] == [([br1], [a]),
                                                                         ([br2], [b])]
        assert [(r.tolist(), c.tolist()) for r, c, _ in peel.backward] == [([a], [br1]),
                                                                          ([b], [br2])]
        assert [x.tolist() for x in peel.core] == [[c], [c]]

    def test_parallel_sources_raise(self):
        with pytest.warns(AssemblyWarning, match="loop"):
            circuit = load_circuit(PARALLEL_SOURCES)
        problem = SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], 2))
        lin = problem.eval(np.zeros(problem.size)).linearize(0.0)
        with pytest.raises(np.linalg.LinAlgError, match="structurally singular"):
            lin.solve(np.ones(problem.size))

    def test_a_node_without_entries_raises(self):
        with pytest.warns(AssemblyWarning, match="no DC path"):
            circuit = load_circuit("i1 0 1 1m\ni2 1 0 2m\nv1 2 0 dc 1\n"
                                     "r1 2 0 dist=uniform(900,1100)\n")
        problem = SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], 2))
        lin = problem.eval(np.zeros(problem.size)).linearize(0.0)
        with pytest.raises(np.linalg.LinAlgError, match="structurally singular"):
            lin.solve(np.ones(problem.size))


def lockstep_jacobians(circuit, m, c, seed=5):
    """The circuit's evaluation at m drawn germ points and states near its
    nominal operating point, its (m, n, n) Jacobians c·dq + df, and (m, n)
    residuals."""
    rng = np.random.default_rng(seed)
    nominal = solvers._nominal_dc(circuit, None, circuit.b_matrix @ circuit.dc_source_vector())
    points = np.column_stack([p.dist.sample(rng, m) for p in circuit.params])
    states = nominal.x + 0.01 * rng.normal(size=(m, circuit.n))
    ev = circuit.eval_qf(states, points)
    return ev, c * ev.dq + ev.df, rng.normal(size=(m, circuit.n))


def entry_table(ev, c, points=slice(None)):
    """The lockstep entry table c·dq + df of an evaluation's points."""
    return solvers._lockstep_table(c, ev.dq_entries[points], ev.df_entries[points])


class TestLockstepPeel:
    """The st/sc/mc peeled solve against one dense LAPACK solve per point."""

    CIRCUITS = SHIPPED + ["chain", "ladder", "all core"]

    @staticmethod
    def circuit(name):
        return load_circuit(inverter_chain(20)) if name == "chain" else named_circuit(name)

    @pytest.mark.parametrize("m", [1, 15, 667])
    @pytest.mark.parametrize("name", CIRCUITS)
    def test_matches_the_dense_solve(self, name, m):
        circuit = self.circuit(name)
        plan = solvers._peel_plan(circuit.kernel)
        for c in (0.0, 1e9):
            ev, jacs, resid = lockstep_jacobians(circuit, m, c)
            got = st_decoupled_linear_step(entry_table(ev, c), None, resid, plan).reshape(m, -1)
            want = np.linalg.solve(jacs, -resid[..., None])[..., 0]
            gap = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
            assert gap.max() <= 1e-12, (c, gap.max())

    def test_core_sizes(self):
        """The core left after the peel: 2 of 6 states on cs_amp, 2 of 10 on
        sram6t, 5 of 15 on db_mixer, 20 of 24 on the inverter chain and 16
        of 18 on the ladder; a circuit with nothing to peel is one core."""
        cores = {}
        for name in ("cs_amp.cir", "sram6t.cir", "db_mixer.cir", "chain", "ladder", "all core"):
            circuit = self.circuit(name)
            steps = solvers._peel_plan(circuit.kernel).steps
            core, = (len(step.core) for step in steps if step.pivot is None)
            cores[name] = (math.isqrt(core), circuit.n)
        assert cores == {"cs_amp.cir": (2, 6), "sram6t.cir": (2, 10), "db_mixer.cir": (5, 15),
                         "chain": (20, 24), "ladder": (16, 18), "all core": (2, 2)}

    def test_nothing_to_peel_is_the_dense_solve(self):
        circuit = named_circuit("all core")
        plan = solvers._peel_plan(circuit.kernel)
        assert len(plan.steps) == 1
        ev, jacs, resid = lockstep_jacobians(circuit, 15, 1e9)
        np.testing.assert_array_equal(
            st_decoupled_linear_step(entry_table(ev, 1e9), None, resid, plan),
            st_decoupled_linear_step(jacs, None, resid))

    @pytest.mark.parametrize("bad", [0, 3, 14])
    def test_singular_core_names_its_point(self, bad):
        """A point whose core block is singular fails the solve, named; the
        peeled rounds around it divide by constants and cannot fail."""
        circuit = shipped_circuit("cs_amp.cir")
        plan = solvers._peel_plan(circuit.kernel)
        ev, _, resid = lockstep_jacobians(circuit, 15, 0.0)
        rows, cols = circuit.kernel.jacobian_pattern
        core_rows, core_cols = circuit.kernel.peel.core
        ev.df_entries[bad, np.isin(rows, core_rows) & np.isin(cols, core_cols)] = 0.0
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"^singular jacobian block at testing node {bad}$"):
            st_decoupled_linear_step(entry_table(ev, 0.0), None, resid, plan)

    def test_points_do_not_depend_on_the_batch(self):
        """A point's update is the same bits whether it is solved alone, in
        a 7-point batch or with all 667."""
        circuit = shipped_circuit("db_mixer.cir")
        plan = solvers._peel_plan(circuit.kernel)
        ev, _, resid = lockstep_jacobians(circuit, 667, 1e9)

        def solve(lo, hi):
            return st_decoupled_linear_step(entry_table(ev, 1e9, slice(lo, hi)), None,
                                            resid[lo:hi], plan)

        whole = solve(0, 667)
        for size in (1, 7):
            parts = np.concatenate([solve(lo, lo + size) for lo in range(0, 667, size)])
            assert parts.tobytes() == whole.tobytes(), size

    @pytest.mark.parametrize("method, analysis", [
        ("st", DcSweepAnalysis("vin", 0.6, 1.4, 0.2)),
        ("st", AcAnalysis(1e3, 1e9, 2)),
        ("sc", DcAnalysis()),
    ])
    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    def test_peeled_runs_match_the_dense_runs(self, monkeypatch, method, analysis):
        """st (a DC sweep, and AC with complex c = jω) and sc agree with and
        without the peel to rounding; no run of this size peels by default.
        The drain's load capacitor gives c·dq entries, so an AC entry table
        that dropped jω would differ, and one cast to float raises."""
        text = (resources.files("gpcsim") / "netlists" / "cs_amp.cir").read_text()
        circuit = load_circuit(text.replace("vin in 0 dc 0.9", "vin in 0 dc 0.9 ac 1\n"
                                            "cl d 0 1p"))
        dense = run_analysis(circuit, method, 2, analysis)
        assert np.abs(dense.coeffs).max() > 0.1
        monkeypatch.setattr(solvers, "LOCKSTEP_PEEL_POINTS", 1)
        peeled = run_analysis(circuit, method, 2, analysis)
        assert dense.stats.newton_iterations == peeled.stats.newton_iterations
        scale = np.abs(dense.coeffs).max()
        assert np.abs(peeled.coeffs - dense.coeffs).max() <= 1e-12 * scale

    @pytest.mark.parametrize("method, order", [("mc", None), ("sc", 3), ("sg", 2)])
    def test_runs_expand_no_dense_jacobians(self, monkeypatch, method, order):
        """An mc run of LOCKSTEP_PEEL_POINTS samples and an sc run of
        4^4 = 256 grid points take their Jacobians as entry tables, and an
        sg run projects stamp-group leads, so none of them expands a dense
        block.  The one exception is the one-point n x n block of the
        nominal operating point that starts sg."""
        expanded = []
        dense = DeviceKernel.dense
        monkeypatch.setattr(DeviceKernel, "dense", lambda kernel, entries: (
            expanded.append(entries.shape) or dense(kernel, entries)))
        result = run_analysis(shipped_circuit("cs_amp.cir"), method, order, DcAnalysis(),
                              n_samples=solvers.LOCKSTEP_PEEL_POINTS)
        if method == "sg":
            assert expanded and {shape[0] for shape in expanded} == {1}
        else:
            assert result.node_count >= solvers.LOCKSTEP_PEEL_POINTS
            assert expanded == []

    def test_run_rule_counts_the_runs_points(self):
        circuit = shipped_circuit("cs_amp.cir")
        n_peel = solvers.LOCKSTEP_PEEL_POINTS
        assert solvers._lockstep_plan(circuit, n_peel - 1) is None
        assert solvers._lockstep_plan(circuit, n_peel) is not None
        with pytest.warns(AssemblyWarning, match="loop"):
            parallel = load_circuit(PARALLEL_SOURCES)
        assert solvers._lockstep_plan(parallel, n_peel) is None   # no peel: dense


# --------------------------------------------------------------------------
# collocation (sampling) specifics
# --------------------------------------------------------------------------

class TestScSolve:
    def test_node_count_and_weights(self):
        circuit = load_circuit(POLY2)
        traj = sc_solve(circuit, 2, DcAnalysis())
        assert traj.node_count == 9     # (p+1)^l = 3^2

    def test_agrees_with_st_on_polynomial_circuit(self):
        circuit = load_circuit(POLY2)
        st = st_solve(circuit, 2, DcAnalysis()).coeffs
        sc = sc_solve(circuit, 2, DcAnalysis()).coeffs
        assert np.abs(st - sc).max() < 1e-8

    def test_failure_names_the_node(self, monkeypatch):
        # R(xi) crosses zero inside the uniform support: the node at the
        # negative end produces a negative-resistance divider that still
        # solves, so instead starve Newton to force a per-node failure
        monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 0)
        circuit = load_circuit(DIODE)
        with pytest.raises(Exception, match=r"method=sc node \d+ xi="):
            sc_solve(circuit, 1, DcAnalysis(),
                     newton=NewtonConfig(abstol=1e-30, reltol=1e-30))

    def test_shared_transient_grid(self):
        circuit = load_circuit(RC_UNIFORM)
        traj = sc_solve(circuit, 1, TranAnalysis(1e-4), fixed_h=1e-6)
        assert traj.node_count == 2
        assert len(traj.times) == 101


# --------------------------------------------------------------------------
# Monte Carlo specifics
# --------------------------------------------------------------------------

@pytest.fixture
def run_log(monkeypatch):
    """(germ points, succeeded) for every lockstep `_run` call, in order."""
    log = []
    run = solvers._run

    def spy(problem, *args, **kwargs):
        try:
            out = run(problem, *args, **kwargs)
        except (engine.DcConvergenceError, engine.TransientError):
            log.append((problem.nodes.nodes.copy(), False))
            raise
        log.append((problem.nodes.nodes.copy(), True))
        return out

    monkeypatch.setattr(solvers, "_run", spy)
    return log


class TestLockstepBatches:
    """sc/mc batches hold about LOCKSTEP_ENTRIES Jacobian entries, and a
    failing batch is halved until its failures stand alone."""

    def test_plan_covers_every_point_in_near_equal_batches(self):
        for n in (1, 3, 6, 16, 17, 24, 80):
            cap = max(128, 2**15 // n**2)
            for count in (1, 127, 128, 129, 667, 2000, 10000):
                batches = solvers._lockstep_batches(count, n)
                np.testing.assert_array_equal(np.concatenate(batches), np.arange(count))
                sizes = [len(b) for b in batches]
                assert len(batches) == math.ceil(count / cap), (n, count)
                assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1, (n, count)

    def test_plan_sizes(self):
        assert [len(b) for b in solvers._lockstep_batches(2000, 6)] == [667, 667, 666]
        chain = load_circuit(inverter_chain(20))
        assert chain.n == 24
        assert [len(b) for b in solvers._lockstep_batches(1280, chain.n)] == [128] * 10

    @pytest.mark.parametrize("size,bad", [(2, 1), (5, 0), (200, 0), (200, 77),
                                          (200, 199), (667, 400)])
    def test_one_failing_draw_costs_a_bisection(self, run_log, size, bad):
        """A batch with one draw that has no operating point takes at most
        1 + 2·ceil(log2 M) runs, and the failure is charged to that draw."""
        circuit = load_circuit(NEGATIVE_R)
        points = np.linspace(-2.0, 2.0, size)[:, None]
        points[bad] = -3.0                      # r1 = -200 ohm
        _, sols, errors, _ = solvers._sample_runs(
            circuit, points, DcAnalysis(), None, None, None, "mc", tolerated=1)
        assert list(errors) == [bad]
        assert f"mc node {bad} xi=[-3.]" in str(errors[bad])
        assert len(run_log) <= 1 + 2 * math.ceil(math.log2(size))
        assert np.isnan(sols[bad]).all()
        assert np.isfinite(np.delete(sols, bad, axis=0)).all()

    def test_mc_artifacts_do_not_depend_on_batch_size(self, tmp_path, monkeypatch):
        """cs_amp's 2000-sample sweep writes the same bytes in three batches
        as in 128-point ones."""
        argv = ["dcsweep", "cs_amp.cir", "--method", "mc", "--samples", "2000",
                "--seed", "1", "--out"]
        assert cli.main(argv + [str(tmp_path / "planned")]) == 0
        monkeypatch.setattr(solvers, "LOCKSTEP_CHUNK", 128)
        monkeypatch.setattr(solvers, "LOCKSTEP_ENTRIES", 0)
        assert cli.main(argv + [str(tmp_path / "fixed")]) == 0
        for name in ("stats.csv", "coefficients.json"):
            assert ((tmp_path / "planned" / name).read_bytes()
                    == (tmp_path / "fixed" / name).read_bytes()), name


    def test_mc_artifacts_do_not_depend_on_the_batching(self, tmp_path, monkeypatch):
        """Each lockstep point stops on its own residual, so a 60-sample
        sweep writes the same bytes in one batch, in one-point batches and
        in 7-point ones."""
        argv = ["dcsweep", "cs_amp.cir", "--method", "mc", "--samples", "60",
                "--seed", "5", "--out"]
        assert cli.main(argv + [str(tmp_path / "planned")]) == 0
        monkeypatch.setattr(solvers, "LOCKSTEP_ENTRIES", 0)
        for chunk in (1, 7):
            monkeypatch.setattr(solvers, "LOCKSTEP_CHUNK", chunk)
            assert cli.main(argv + [str(tmp_path / f"chunk{chunk}")]) == 0
            for name in ("stats.csv", "coefficients.json"):
                assert ((tmp_path / "planned" / name).read_bytes()
                        == (tmp_path / f"chunk{chunk}" / name).read_bytes()), (chunk, name)

    def test_peeled_mc_artifacts_do_not_depend_on_the_batching(self, tmp_path, monkeypatch):
        """At LOCKSTEP_PEEL_POINTS samples the run peels every solve, and it
        writes the same bytes in one batch as in one-point, 7-point and
        LOCKSTEP_CHUNK-point batches."""
        built = []
        steps = solvers._peel_plan
        monkeypatch.setattr(solvers, "_peel_plan",
                            lambda kernel: built.append(kernel) or steps(kernel))
        argv = ["dcsweep", "cs_amp.cir", "--method", "mc", "--samples",
                str(solvers.LOCKSTEP_PEEL_POINTS), "--seed", "5", "--out"]
        assert cli.main(argv + [str(tmp_path / "planned")]) == 0
        monkeypatch.setattr(solvers, "LOCKSTEP_ENTRIES", 0)
        for chunk in (1, 7, solvers.LOCKSTEP_CHUNK):
            monkeypatch.setattr(solvers, "LOCKSTEP_CHUNK", chunk)
            assert cli.main(argv + [str(tmp_path / f"chunk{chunk}")]) == 0
            for name in ("stats.csv", "coefficients.json"):
                assert ((tmp_path / "planned" / name).read_bytes()
                        == (tmp_path / f"chunk{chunk}" / name).read_bytes()), (chunk, name)
        assert len(built) == 4

    @pytest.mark.parametrize("method", ["sc", "mc"])
    @pytest.mark.parametrize("analysis, fixed_h, rows", [
        (DcAnalysis(), None, 1),
        (DcSweepAnalysis("v1", 0.0, 1.0, 0.25), None, 5),
        (TranAnalysis(2e-3), 2e-4, 11),
        (TranAnalysis(2e-3, hmax=1e-4), 2e-4, 21),
        (TranAnalysis(2e-3), None, solvers.DEFAULT_FIXED_STEPS + 1),
    ])
    def test_solution_table_over_budget_solves_no_point(self, run_log, monkeypatch,
                                                        method, analysis, fixed_h, rows):
        """The (S, T, n) table is refused one entry over the budget before
        a single point is solved, and fits exactly at the budget."""
        circuit = load_circuit(RC_UNIFORM)          # n = 3, l = 1
        count = 2 if method == "sc" else 4           # (p+1)^l at p=1, or S
        run = {"sc": lambda: sc_solve(circuit, 1, analysis, fixed_h=fixed_h),
               "mc": lambda: mc_solve(circuit, count, 0, analysis, fixed_h=fixed_h)}[method]
        entries = count * rows * circuit.n
        monkeypatch.setattr(solvers, "TABLE_BUDGET", entries - 1)
        with pytest.raises(GridBudgetError, match=f"{entries}-entry solution table"):
            run()
        assert run_log == []
        monkeypatch.setattr(solvers, "TABLE_BUDGET", entries)
        assert len(run().times) == rows


class TestMcSolve:
    def test_seed_determinism(self):
        circuit = load_circuit(DIVIDER)
        a = mc_solve(circuit, 50, 123, DcAnalysis())
        b = mc_solve(circuit, 50, 123, DcAnalysis())
        c = mc_solve(circuit, 50, 124, DcAnalysis())
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.solutions, b.solutions)
        assert not np.array_equal(a.samples, c.samples)

    def test_single_sample_is_nominal_run(self):
        circuit = load_circuit(DIODE)
        one = CircuitProblem(circuit, circuit.nominal_germ())
        nominal = dc_solve(one, source=one.source(0.0)).x
        ens = mc_solve(circuit, 1, 0, DcAnalysis())
        np.testing.assert_allclose(ens.solutions[0, 0], nominal, atol=1e-12)
        assert ens.seed is None                      # draws nothing

    def test_mean_matches_quadrature_oracle(self):
        """Divider mean over uniform R via adaptive Gauss-Legendre reference."""
        circuit = load_circuit(DIVIDER)
        ens = mc_solve(circuit, 4000, 42, DcAnalysis())
        xg, wg = np.polynomial.legendre.leggauss(64)
        v = 3.0 * 1000.0 / (1000.0 + 1000.0 + 100.0 * xg)
        mean_ref = float(np.dot(wg / 2.0, v))
        std_ref = math.sqrt(float(np.dot(wg / 2.0, v * v)) - mean_ref**2)
        se = standard_error(ens)[0, 1]
        assert abs(ens.mean()[0, 1] - mean_ref) < 3.0 * se
        assert abs(ens.std()[0, 1] - std_ref) / std_ref < 0.1

    def test_failure_budget_aborts(self, monkeypatch, run_log):
        """Every sample fails and 1 % of 20 tolerates none, so the run stops
        at sample 0's own failure: the batch is halved down to it and no
        other point is tried alone."""
        monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 0)
        circuit = load_circuit(DIODE)
        with pytest.raises(MethodError, match="^1/20 samples failed"):
            mc_solve(circuit, 20, 0, DcAnalysis(),
                     newton=NewtonConfig(abstol=1e-30, reltol=1e-30))
        assert [len(points) for points, _ in run_log] == [20, 10, 5, 3, 2, 1]
        assert not any(ok for _, ok in run_log)

    def test_failure_budget_stops_at_the_first_failure_over_it(self, run_log):
        """Three of 200 draws leave no operating point and 1 % tolerates
        two: the third failure ends the run, with its own solve the last."""
        circuit = load_circuit(NEGATIVE_R)
        seed, count = 4, 200
        xi = circuit.params[0].dist.sample(np.random.default_rng(seed), count)
        bad = np.flatnonzero(1000.0 + 400.0 * xi <= 0.0)
        assert len(bad) == 3
        with pytest.raises(MethodError, match="^3/200 samples failed"):
            mc_solve(circuit, count, seed, DcAnalysis())
        alone = [points[0, 0] for points, ok in run_log if len(points) == 1 and not ok]
        np.testing.assert_array_equal(alone, xi[bad])
        last, ok = run_log[-1]
        assert not ok and last.tolist() == [[xi[bad[2]]]]
        # points past the third failure were tried only in failing batches
        later = xi[bad[2] + 1:]
        assert not any(ok and np.isin(points[:, 0], later).any()
                       for points, ok in run_log)

    def test_lockstep_failures_stay_with_their_samples(self, monkeypatch):
        """Draws that push r1 below zero leave no operating point; only they
        fail, and every other sample matches its own one-point solve, in
        clean batches and in batches that had to be split."""
        monkeypatch.setattr(solvers, "LOCKSTEP_CHUNK", 16)
        monkeypatch.setattr(solvers, "LOCKSTEP_ENTRIES", 0)
        monkeypatch.setattr(solvers, "MAX_FAILURE_FRACTION", 0.1)
        circuit = load_circuit(NEGATIVE_R)
        # tight enough that both routes sit at the same root to ~1e-11 V
        newton = NewtonConfig(abstol=1e-15, reltol=1e-13)
        seed, count = 4, 200
        ens = mc_solve(circuit, count, seed, DcAnalysis(), newton=newton)

        xi = circuit.params[0].dist.sample(np.random.default_rng(seed), count)
        ok = 1000.0 + 400.0 * xi > 0.0
        bad = np.flatnonzero(~ok)
        assert len(bad) == ens.failures == 3
        batches = solvers._lockstep_batches(count, circuit.n)
        batch_of = np.concatenate([np.full(len(b), i) for i, b in enumerate(batches)])
        assert len(set(batch_of[bad])) == 3      # three different batches
        np.testing.assert_array_equal(ens.samples[:, 0], xi[ok])
        alone = []
        for v in xi[ok]:
            one = CircuitProblem(circuit, np.array([v]))
            alone.append(dc_solve(one, newton, source=one.source(0.0)).x)
        alone = np.array(alone)
        assert np.abs(ens.solutions[:, 0, :] - alone).max() < 1e-9

    def test_rejects_empty_request(self):
        circuit = load_circuit(DIVIDER)
        with pytest.raises(ValueError):
            mc_solve(circuit, 0, 0, DcAnalysis())


# --------------------------------------------------------------------------
# transient oracle: quadrature over the closed-form RC response
# --------------------------------------------------------------------------

def rc_closed_form(t, r, c=1e-6, amp=1.0, freq=1e3):
    """Sine-driven RC from rest: v(t) = A/(1+w2t2) [sin - wt cos + wt e^-]."""
    w = 2.0 * math.pi * freq
    tau = r * c
    wt = w * tau
    den = 1.0 + wt * wt
    return amp / den * (np.sin(w * t) - wt * np.cos(w * t)
                        + wt * np.exp(-t / tau))


class TestTransientOracle:
    def test_st_moments_match_closed_form_quadrature(self):
        """p=5 testing-method moments vs 64-point quadrature of the exact
        solution, at every accepted output time."""
        circuit = load_circuit(RC_UNIFORM)
        control = StepControl(h_init=1e-8, lte_tol=1e-10)
        traj = st_solve(circuit, 5, TranAnalysis(2e-3), scheme="tr",
                        control=control)
        xg, wg = np.polynomial.legendre.leggauss(64)
        w = wg / 2.0
        r_vals = 1000.0 + 100.0 * xg

        idx = 1  # v(2), the capacitor node
        for ti in range(len(traj.times)):
            v = rc_closed_form(traj.times[ti], r_vals)
            mean_ref = float(w @ v)
            std_ref = math.sqrt(max(float(w @ (v * v)) - mean_ref**2, 0.0))
            coeffs = traj.coeffs[ti, :, idx]
            assert abs(coeffs[0] - mean_ref) < 1e-6
            assert abs(math.sqrt(np.sum(coeffs[1:] ** 2)) - std_ref) < 1e-6

    def test_default_scheme_beats_backward_euler_on_the_closed_form(self):
        """The default scheme was chosen from measured error and work: at the
        default step control on rc_uniform, st p=3 takes fewer steps than
        backward Euler and its mean v(2) is closer to the closed form."""
        circuit = shipped_circuit("rc_uniform.cir")
        (tran,) = [a for a in circuit.analyses if isinstance(a, TranAnalysis)]
        xg, wg = np.polynomial.legendre.leggauss(64)
        r_vals = 1000.0 + 100.0 * xg
        steps, errors = {}, {}
        for scheme in (None, "be"):
            traj = st_solve(circuit, 3, tran, scheme=scheme)
            mean_ref = np.array([wg / 2.0 @ rc_closed_form(t, r_vals) for t in traj.times])
            steps[scheme] = traj.stats.steps_accepted
            errors[scheme] = np.max(np.abs(traj.coeffs[:, 0, 1] - mean_ref))
        assert steps[None] < steps["be"]
        assert errors[None] < errors["be"]

    def test_sc_newton_starts_from_previous_state(self):
        """sc seeds each lockstep Newton solve from the last accepted state,
        as st does: on the sram6t transient it needs under one iteration per
        ten fixed steps, and its means sit near a tight-tolerance run."""
        circuit = load_circuit(
            (resources.files("gpcsim") / "netlists" / "sram6t.cir").read_text())
        (tran,) = [a for a in circuit.analyses if isinstance(a, TranAnalysis)]
        run = sc_solve(circuit, 2, tran)
        tight = sc_solve(circuit, 2, tran,
                         newton=NewtonConfig(abstol=1e-16, reltol=1e-14))
        assert run.stats.newton_iterations < run.stats.steps_accepted / 10
        np.testing.assert_allclose(run.coeffs[:, 0], tight.coeffs[:, 0],
                                   rtol=0, atol=4e-7)


# --------------------------------------------------------------------------
# source corners
# --------------------------------------------------------------------------

PULSE_RC = (Path(__file__).parent / "pulse_rc.cir").read_text()
PULSE_RC_CORNERS = [1e-6, 1.001e-6, 5.001e-6, 5.002e-6]


class TestSourceCorners:
    @pytest.mark.parametrize("scheme", engine.SCHEMES)
    def test_pulse_rc_finishes_at_a_tight_tolerance(self, scheme):
        """Without corners every scheme ends in a time step underflow at
        5.002 us, the corner that ends the falling edge; p=1 keeps the 23k
        backward Euler steps cheap."""
        circuit = load_circuit(PULSE_RC)
        (tran,) = circuit.analyses
        traj = st_solve(circuit, 1, tran, scheme=scheme,
                        control=StepControl(lte_tol=1e-7))
        assert traj.times[-1] == pytest.approx(10e-6, rel=1e-12)
        assert circuit.breakpoints(tran.tstop) == pytest.approx(PULSE_RC_CORNERS, rel=1e-12)
        assert set(circuit.breakpoints(tran.tstop)) <= set(traj.times)

    def test_sram6t_trapezoid_finishes_at_a_tight_tolerance(self):
        # without corners: time step underflow at 2.00002 us
        circuit = shipped_circuit("sram6t.cir")
        (tran,) = circuit.analyses
        traj = st_solve(circuit, 1, tran, scheme="tr", control=StepControl(lte_tol=1e-6))
        assert traj.times[-1] == pytest.approx(tran.tstop, rel=1e-12)

    def test_default_steps_grow_inside_the_bdf2_zero_stability_bound(self):
        """Variable-step BDF2 is zero-stable while each step is under
        1 + sqrt(2) times the one before (Grigorieff 1983): the growth cap
        stays under that bound, and no accepted step of a default run grows
        past the cap, corner landings and restarts included."""
        assert engine.STEP_GROW < 1 + math.sqrt(2)
        circuit = shipped_circuit("sram6t.cir")
        (tran,) = circuit.analyses
        h = st_solve(circuit, 1, tran).h_history
        assert len(h) > 100
        assert np.max(h[1:] / h[:-1]) <= engine.STEP_GROW

    def test_adaptive_methods_land_on_the_corners_and_fixed_grids_do_not(self):
        circuit = load_circuit(PULSE_RC)
        (tran,) = circuit.analyses
        corners = set(circuit.breakpoints(tran.tstop))
        assert corners <= set(sg_solve(circuit, 1, tran).times)
        fixed = st_solve(circuit, 1, tran, fixed_h=tran.tstop / 300).times
        assert not corners & set(fixed)
        np.testing.assert_allclose(fixed, np.linspace(0.0, tran.tstop, 301), rtol=1e-12)
        sc = sc_solve(circuit, 1, tran).times
        np.testing.assert_allclose(sc, np.linspace(0.0, tran.tstop, len(sc)), rtol=1e-12)


# --------------------------------------------------------------------------
# device evaluation reuse
# --------------------------------------------------------------------------

def shipped_circuit(name):
    return load_circuit((resources.files("gpcsim") / "netlists" / name).read_text())


def _device_key(problem, x):
    """The bytes eval_qf sees for problem.eval(x): nodal states and germs."""
    states = np.asarray(x, dtype=float).reshape(-1, problem.circuit.n)
    if problem.nodes.phi is not None:
        states = problem.nodes.phi @ states
    return states.tobytes(), problem.nodes.nodes.tobytes()


class TestEvaluationReuse:
    """A solve handed the evaluation of its start state never evaluates that
    state again, and the runs hand one on wherever they have it."""

    @pytest.fixture
    def device_log(self, monkeypatch):
        """Counts of eval_qf calls by argument bytes (`calls`), the states
        some solve was handed with their evaluation (`handed`) and how often
        one was handed on (`handings`), and the calls made at a state after
        it was handed on (`again`)."""
        log = {"calls": Counter(), "handed": set(), "handings": 0, "again": []}
        eval_qf = StochasticCircuit.eval_qf
        newton_solve = engine.newton_solve
        transient_solve = solvers.transient_solve

        def spy_eval_qf(circuit, x, xi):
            key = (np.asarray(x, dtype=float).tobytes(), np.asarray(xi, dtype=float).tobytes())
            log["calls"][key] += 1
            if key in log["handed"]:
                log["again"].append(key)
            return eval_qf(circuit, x, xi)

        def hand(problem, x0, x0_eval):
            if x0_eval is not None:
                log["handed"].add(_device_key(problem, x0))
                log["handings"] += 1

        def spy_newton(problem, x0, *args, x0_eval=None, **kwargs):
            hand(problem, x0, x0_eval)
            return newton_solve(problem, x0, *args, x0_eval=x0_eval, **kwargs)

        def spy_transient(problem, x0, *args, x0_eval=None, **kwargs):
            hand(problem, x0, x0_eval)
            return transient_solve(problem, x0, *args, x0_eval=x0_eval, **kwargs)

        monkeypatch.setattr(StochasticCircuit, "eval_qf", spy_eval_qf)
        monkeypatch.setattr(engine, "newton_solve", spy_newton)
        monkeypatch.setattr(solvers, "transient_solve", spy_transient)
        return log

    def test_st_transient_never_evaluates_a_handed_state(self, device_log):
        """Every step and every retry of the sram6t transient starts from the
        last accepted state with its evaluation, as does the transient's
        start from the DC point, so the device layer runs less often than
        the residual is checked.  A later step try can still replay an
        earlier one bit for bit (same seed, step and source) and so repeat
        its iterates; those are new solves, not handed states."""
        circuit = shipped_circuit("sram6t.cir")
        (tran,) = [a for a in circuit.analyses if isinstance(a, TranAnalysis)]
        traj = st_solve(circuit, 2, tran)
        stats = traj.stats
        assert stats.steps_rejected > 0
        assert stats.device_evals < stats.residual_evals
        assert device_log["again"] == []
        # every handed state came from the device layer, so the keys match
        assert device_log["handed"] <= set(device_log["calls"])
        # one per step try, and the DC point to the transient's start
        assert device_log["handings"] == stats.steps_accepted + stats.steps_rejected + 1

    @pytest.mark.parametrize("method,name,kind", [
        ("st", "sram6t.cir", TranAnalysis), ("sg", "cs_amp.cir", DcSweepAnalysis)])
    def test_device_evals_counts_every_evaluation(self, monkeypatch, method, name, kind):
        """The manifest's device_evals counts every eval_qf call of the run,
        the nominal operating point's included."""
        calls = []
        eval_qf = StochasticCircuit.eval_qf
        monkeypatch.setattr(StochasticCircuit, "eval_qf",
                            lambda *args: calls.append(1) or eval_qf(*args))
        circuit = shipped_circuit(name)
        analysis = next(a for a in circuit.analyses if isinstance(a, kind))
        stats = run_analysis(circuit, method, 2, analysis).stats
        assert len(calls) == stats.device_evals

    def test_mc_sweep_evaluates_each_state_once(self, device_log):
        """Each lockstep batch's second sweep level warm-starts with the
        first and its evaluation, and later levels from a predicted state:
        no (state, germ) bytes reach the device layer twice."""
        circuit = shipped_circuit("cs_amp.cir")
        sweep = next(a for a in circuit.analyses if isinstance(a, DcSweepAnalysis))
        ens = mc_solve(circuit, 2000, 1, sweep)
        assert ens.failures == 0
        calls = device_log["calls"]
        assert len(calls) == ens.stats.device_evals
        assert max(calls.values()) == 1
        # only the second level of every batch is handed its seed
        batches = len(solvers._lockstep_batches(2000, circuit.n))
        assert device_log["handings"] == batches
        assert len(device_log["handed"]) == device_log["handings"]

    def test_ac_linearizes_the_dc_evaluation(self, device_log):
        """An st AC run reaches the device layer exactly as often as the DC
        run of its operating point: the linearization reuses its evaluation."""
        circuit = shipped_circuit("lna.cir")
        dc, ac = (next(a for a in circuit.analyses if isinstance(a, kind))
                  for kind in (DcAnalysis, AcAnalysis))
        st_solve(circuit, 2, dc)
        dc_calls = sum(device_log["calls"].values())
        st_solve(circuit, 2, ac)
        assert sum(device_log["calls"].values()) == 2 * dc_calls

    def test_linear_transient_evaluates_once_per_solve(self):
        """A linear circuit converges after one update per solve, and each
        update is followed by one evaluation; with every seed's evaluation
        handed on, the two other evaluations are the starts of the two
        operating points, which nothing hands in: the nominal one, whose
        zero source converges at its zero start without an update, and the
        collocated one it seeds."""
        circuit = shipped_circuit("rc_uniform.cir")
        basis, nodes = select_for(circuit, 2)
        tran = next(a for a in circuit.analyses if isinstance(a, TranAnalysis))
        stats = solvers._run(STProblem(circuit, basis, nodes), tran, "st", None).stats
        assert stats.steps_accepted > 100
        assert stats.device_evals == stats.linear_solves + 2


def sweep_problem(circuit, method):
    """The problem a sweep of `method` runs: order 2 for st and sg, 20
    seeded draws in one lockstep batch for mc."""
    if method == "mc":
        rng = np.random.default_rng(1)
        draws = np.column_stack([p.dist.sample(rng, 20) for p in circuit.params])
        return STProblem(circuit, None, GermPoints(draws))
    basis, nodes = select_for(circuit, 2)
    return STProblem(circuit, basis, nodes) if method == "st" else SGProblem(circuit, basis)


def sweep_of(circuit):
    return next(a for a in circuit.analyses if isinstance(a, DcSweepAnalysis))


class TestSweepPredictor:
    """Sweep levels from the third on start from a quadratic extrapolation
    of the levels before, and fall back to the previous level's solution."""

    @pytest.mark.parametrize("method", ["st", "sg", "mc"])
    @pytest.mark.parametrize("netlist", ["diode_dc", "cs_amp_wide"])
    def test_every_level_matches_a_cold_solve(self, netlist, method):
        circuit = (load_circuit(CS_AMP_WIDE) if netlist == "cs_amp_wide"
                   else shipped_circuit("diode_dc.cir"))
        sweep = sweep_of(circuit)
        problem = sweep_problem(circuit, method)
        run = solvers._run(problem, sweep, method, None)
        assert run.stats.predictor_fallbacks == 0
        u = circuit.dc_source_vector()
        k = circuit.source_names.index(sweep.source)
        for level, x in zip(sweep.levels(), run.states):
            u[k] = level
            cold = dc_solve(problem, source=problem.stack(circuit.b_matrix @ u))
            np.testing.assert_allclose(x, cold.x, rtol=0, atol=1e-5, err_msg=f"{level}")

    def test_sg_p5_cs_amp_sweep_solves(self):
        circuit = shipped_circuit("cs_amp.cir")
        assert sg_solve(circuit, 5, sweep_of(circuit)).stats.linear_solves <= 20

    @pytest.mark.parametrize("method", ["st", "sg", "sc", "mc"])
    @pytest.mark.parametrize("name", ["cs_amp.cir", "diode_dc.cir"])
    def test_shipped_sweeps_never_fall_back(self, name, method):
        circuit = shipped_circuit(name)
        run = run_analysis(circuit, method, 2, sweep_of(circuit), n_samples=200, seed=1)
        assert run.stats.predictor_fallbacks == 0

    @pytest.mark.parametrize("method", ["st", "sg", "mc"])
    def test_far_prediction_falls_back_to_the_previous_level(self, monkeypatch, method):
        """A predicted seed whose Newton solve fails is retried from the
        previous level's solution before any source ramp."""
        circuit = shipped_circuit("cs_amp.cir")
        sweep = sweep_of(circuit)
        problem = sweep_problem(circuit, method)
        want = solvers._run(problem, sweep, method, None).states
        homotopy = []
        dc = solvers.dc_solve

        def spy_dc(*args, **kwargs):
            res = dc(*args, **kwargs)
            homotopy.append(res.homotopy_used)
            return res

        monkeypatch.setattr(solvers, "dc_solve", spy_dc)
        monkeypatch.setattr(solvers, "_predict", lambda ts, xs, t: np.full_like(xs[-1], 1e30))
        run = solvers._run(problem, sweep, method, None)
        assert not any(homotopy)
        assert run.stats.predictor_fallbacks == len(sweep.levels()) - 2
        np.testing.assert_allclose(run.states, want, rtol=0, atol=1e-5)


# --------------------------------------------------------------------------
# AC analysis
# --------------------------------------------------------------------------

class TestAcSolve:
    def test_deterministic_lowpass_magnitude(self):
        circuit = load_circuit("""* fixed rc lowpass
v1 1 0 dc 0 ac 1
r1 1 2 dist=uniform(999.9999999,1000.0000001)
c1 2 0 1u
.ac 10 1meg 10
""")
        res = st_solve(circuit, 0, AcAnalysis(10.0, 1e6, 10))
        gains = res.coeffs[:, 0, 1]
        want = 1.0 / np.sqrt(1.0 + (2 * np.pi * res.times * 1e-3) ** 2)
        np.testing.assert_allclose(np.abs(gains), want, rtol=1e-9)

    def test_uniform_r_gain_expansion_matches_analytic(self):
        circuit = load_circuit("""* rc lowpass with uniform r
v1 1 0 dc 0 ac 1
r1 1 2 dist=uniform(900,1100)
c1 2 0 1u
.ac 159.154943 159.154943 1
""")
        res = st_solve(circuit, 6, AcAnalysis(159.154943, 159.154943, 1))
        assert len(res.times) == 1
        w = 2 * math.pi * res.times[0]
        # reconstruct the complex gain at a few germ points and compare
        for xi in (-0.9, -0.3, 0.2, 0.8):
            h = np.array([legendre_orthonormal(j, xi) for j in range(7)])
            got = h @ res.coeffs[0, :, 1]
            r = 1000.0 + 100.0 * xi
            want = 1.0 / (1.0 + 1j * w * r * 1e-6)
            assert abs(got - want) < 1e-8

    def test_singular_system_names_node(self):
        # r2 is set to cancel r1's conductance exactly at one testing node;
        # with every source at zero the DC point needs no linear solve
        template = """* conductances at b cancel at one testing node
i1 0 b dc 0 ac 1
r1 b 0 dist=uniform(-1100,-900)
r2 b 0 {r2!r}
"""
        base = load_circuit(template.format(r2=1000.0))
        _, nodes = select_for(base, 2)
        m = int(np.argmin(nodes.nodes[:, 0]))
        assert m != 0
        param = base.params[0]
        r1 = float(param.shift + param.scale * nodes.nodes[m, 0])
        circuit = load_circuit(template.format(r2=-r1))
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"at f=10 Hz: singular jacobian block at testing node {m}$"):
            st_solve(circuit, 2, AcAnalysis(10.0, 1e3, 1))

    def test_frequency_grid_shape(self):
        f = AcAnalysis(10.0, 1000.0, 2).frequencies()
        np.testing.assert_allclose(
            f, 10.0 ** np.array([1, 1.5, 2, 2.5, 3]), rtol=1e-12)
        assert AcAnalysis(5.0, 5.0, 7).frequencies().tolist() == [5.0]

    @pytest.mark.parametrize("solve", [
        lambda circuit, card: sg_solve(circuit, 2, card),
        lambda circuit, card: sc_solve(circuit, 2, card),
        lambda circuit, card: mc_solve(circuit, 5, 1, card),
        lambda circuit, card: run_analysis(circuit, "sg", 2, card),
    ], ids=["sg", "sc", "mc", "run_analysis"])
    def test_library_refuses_other_methods(self, solve):
        circuit = load_circuit(RC_UNIFORM)
        with pytest.raises(MethodError, match="unsupported analysis"):
            solve(circuit, AcAnalysis(10.0, 100.0, 2))


# --------------------------------------------------------------------------
# front door
# --------------------------------------------------------------------------

class TestRunAnalysis:
    def test_dispatch_matches_direct_calls(self):
        circuit = load_circuit(DIVIDER)
        via_front = run_analysis(circuit, "st", 2, DcAnalysis())
        direct = st_solve(circuit, 2, DcAnalysis())
        np.testing.assert_allclose(via_front.coeffs, direct.coeffs, atol=1e-14)

    def test_tran_hmax_bounds_every_method(self):
        # the card's 1 ns hmax caps a 4 ns fixed step for every method, so
        # all four return one 21-point grid
        circuit = load_circuit("""* rc with a uniform resistor and a step bound
v1 1 0 pulse(0 1 0 1n 1n 5n 10n)
r1 1 2 dist=uniform(900,1100)
c1 2 0 1p
.tran 20n 1n
""")
        (analysis,) = circuit.analyses
        want = np.linspace(0.0, 20e-9, 21)
        for method in ("st", "sg", "sc", "mc"):
            result = run_analysis(circuit, method, 1, analysis, n_samples=4,
                                  fixed_h=4e-9)
            assert len(result.times) == 21, method
            np.testing.assert_allclose(result.times, want, rtol=0, atol=1e-21)

    def test_tran_hmax_joins_a_callers_step_control(self):
        # the card's 2 us hmax binds where the caller's lte_tol 1e-4 would
        # step up to 3 us, and the tighter tolerance still takes more steps
        # than the default one under the same bound
        circuit = load_circuit(RC_UNIFORM.replace(".tran 2m", ".tran 2m 2u"))
        (analysis,) = circuit.analyses
        tight = run_analysis(circuit, "st", 1, analysis, control=StepControl(lte_tol=1e-4))
        default = run_analysis(circuit, "st", 1, analysis)
        assert tight.h_history.max() <= 2e-6
        assert len(tight.h_history) != len(default.h_history)

    def test_unknown_method(self):
        circuit = load_circuit(DIVIDER)
        with pytest.raises(MethodError, match="unknown method"):
            run_analysis(circuit, "qmc", 2, DcAnalysis())

    def test_requires_random_parameters(self):
        fixed = load_circuit("""* all deterministic
v1 1 0 dc 1
r1 1 0 1k
.dc
""")
        with pytest.raises(MethodError, match="no random parameters"):
            run_analysis(fixed, "st", 2, DcAnalysis())
        with pytest.raises(MethodError, match="nothing to sample"):
            mc_solve(fixed, 5, 1, DcAnalysis())


class TestDcSourceValue:
    """DC runs solve at each source's DC value; a transient starts from the
    t = 0 waveform value."""

    TEXT = """* explicit dc level under a waveform
v1 1 0 dc 3 sin(0 1 1k)
r1 1 2 dist=uniform(900,1100)
r2 2 0 1k
.dc
.tran 1m
"""

    @pytest.mark.parametrize("method", ["st", "sg", "mc"])
    def test_dc_uses_dc_value(self, method):
        circuit = load_circuit(self.TEXT)
        v1 = circuit.state_names.index("v(1)")
        result = run_analysis(circuit, method, 2, DcAnalysis(), n_samples=8, seed=1)
        mean = result.mean()[0] if method == "mc" else result.coeffs[0, 0]
        assert mean[v1] == pytest.approx(3.0, abs=1e-9)

    def test_transient_starts_from_waveform(self):
        circuit = load_circuit(self.TEXT)
        v1 = circuit.state_names.index("v(1)")
        (_, tran) = circuit.analyses
        traj = run_analysis(circuit, "st", 2, tran, fixed_h=1e-4)
        assert traj.coeffs[0, 0, v1] == pytest.approx(0.0, abs=1e-12)

    def test_sweep_holds_other_sources_at_dc_value(self):
        circuit = load_circuit(self.TEXT.replace(
            ".dc\n", "v2 3 0 dc 0\nr3 3 2 1k\n.dcsweep v2 0 1 0.5\n"))
        v1, v3 = (circuit.state_names.index(name) for name in ("v(1)", "v(3)"))
        sweep = next(a for a in circuit.analyses if isinstance(a, DcSweepAnalysis))
        traj = run_analysis(circuit, "st", 2, sweep)
        np.testing.assert_allclose(traj.coeffs[:, 0, v1], 3.0, atol=1e-9)
        np.testing.assert_allclose(traj.coeffs[:, 0, v3], [0.0, 0.5, 1.0], atol=1e-9)

    # the DIODE clamp with a waveform beside its DC value
    CLAMP = DIODE.replace("dc 0.8", "dc 0.8 sin(0 0.1 1k)")

    @pytest.mark.parametrize("method", ["st", "sg"])
    def test_nominal_seed_solves_for_dc_value(self, method):
        """st and sg start from the nominal operating point of the run's own
        source, so a waveform beside the DC value changes no bit."""
        plain = run_analysis(load_circuit(DIODE), method, 2, DcAnalysis())
        waved = run_analysis(load_circuit(self.CLAMP), method, 2, DcAnalysis())
        np.testing.assert_array_equal(waved.coeffs, plain.coeffs)
        assert waved.stats.newton_iterations == plain.stats.newton_iterations

    @pytest.mark.parametrize("method", ["st", "sg"])
    def test_nominal_seed_solves_for_first_sweep_level(self, method):
        """A sweep's nominal seed is solved at its first level, whatever DC
        value the swept source is written with."""
        sweep = DcSweepAnalysis("v1", 0.0, 1.0, 0.25)
        at_zero = run_analysis(load_circuit(DIODE.replace("dc 0.8", "dc 0")),
                               method, 2, sweep)
        at_dc = run_analysis(load_circuit(DIODE), method, 2, sweep)
        np.testing.assert_array_equal(at_dc.coeffs, at_zero.coeffs)
