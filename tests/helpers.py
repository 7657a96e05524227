"""Shared test oracles, independent of the package internals."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gpcsim.basis import Beta, Gamma, Gaussian, Uniform
from gpcsim.circuit import StochasticCircuit
from gpcsim.solvers import STProblem


# --------------------------------------------------------------------------
# views of results the package itself never needs
# --------------------------------------------------------------------------

def standard_error(ensemble) -> np.ndarray:
    """Standard error of a sample ensemble's mean, per time and state."""
    return ensemble.std() / math.sqrt(len(ensemble.samples))


def final(trajectory) -> np.ndarray:
    """The last state of an engine trajectory."""
    return trajectory.states[-1]


def total_mass(pdf) -> float:
    """Probability mass under a histogram density estimate."""
    return float(np.sum(pdf.densities * np.diff(pdf.edges)))


def eval_basis(basis, xi) -> np.ndarray:
    """H(xi): the K basis values at a single germ point."""
    return basis.eval_many(np.asarray(xi, dtype=float).reshape(1, -1))[0]


def germ_moments(dist, n):
    """E[xi^k] for k = 0..n as exact Fractions (closed forms per family)."""
    m = [Fraction(0)] * (n + 1)
    m[0] = Fraction(1)
    if isinstance(dist, Gaussian):
        for k in range(2, n + 1, 2):
            m[k] = m[k - 2] * (k - 1)
    elif isinstance(dist, Uniform):
        for k in range(2, n + 1, 2):
            m[k] = Fraction(1, k + 1)
    elif isinstance(dist, Gamma):
        g = Fraction(dist.gamma).limit_denominator(10**6)
        for k in range(1, n + 1):
            m[k] = m[k - 1] * (g + k - 1)
    elif isinstance(dist, Beta):
        a = Fraction(dist.alpha).limit_denominator(10**6)
        b = Fraction(dist.beta).limit_denominator(10**6)
        for k in range(1, n + 1):
            m[k] = m[k - 1] * (a + k - 1) / (a + b + k - 1)
    else:
        raise AssertionError(dist)
    return m


def truncated_support(dist):
    """Integration window that carries the full mass to beyond 1e-25."""
    lo, hi = dist.support()
    if isinstance(dist, Gaussian):
        return -40.0, 40.0
    if isinstance(dist, Gamma):
        return 0.0, 250.0 + 10.0 * dist.gamma
    return float(lo), float(hi)


def simpson_moment(dist, degree, panels=10**6, absolute=False):
    """Composite-Simpson reference for E[xi^degree] (or E[|xi|^degree]).

    `panels` subintervals over the (truncated) support; panels must be even.
    """
    if panels % 2:
        raise ValueError("composite Simpson needs an even panel count")
    lo, hi = truncated_support(dist)
    x = np.linspace(lo, hi, panels + 1)
    fx = (np.abs(x) if absolute else x) ** degree * dist.pdf(x)
    h = (hi - lo) / panels
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, fx))


# --------------------------------------------------------------------------
# dense one-point problem: the reference nominal solve
# --------------------------------------------------------------------------

class DenseEval:
    """Dense linearization: factor c*dq + df with LAPACK and cache nothing."""

    __slots__ = ("q", "f", "dq", "df")

    def __init__(self, q, f, dq, df):
        self.q = q
        self.f = f
        self.dq = dq
        self.df = df

    def linearize(self, c):
        return _DenseSolve(c * self.dq + self.df)


class _DenseSolve:
    __slots__ = ("jac",)

    def __init__(self, jac):
        self.jac = jac

    def solve(self, rhs):
        return np.linalg.solve(self.jac, rhs)


@dataclass
class CircuitProblem:
    """A stochastic circuit pinned to one germ realization."""

    circuit: StochasticCircuit
    xi: np.ndarray

    @property
    def size(self) -> int:
        return self.circuit.n

    def eval(self, x):
        ev = self.circuit.eval_qf(x, self.xi)
        return DenseEval(ev.q, ev.f, ev.dq, ev.df)

    def source(self, t):
        return self.circuit.b_matrix @ self.circuit.source_vector(t)


def inverter_chain(stages) -> str:
    """Netlist of a CMOS inverter chain whose stages share three germs: one
    nmos width, one pmos width and one load capacitance.  It is driven by a
    10 ns pulse, and the state is the input, the supply and every stage's
    output plus two source currents, n = stages + 4 (n = 24 at 20 stages)."""
    lines = [f"* {stages}-stage inverter chain, shared width and load germs",
             ".param wn dist=gauss(2u,0.1u)",
             ".param wp dist=gauss(4u,0.2u)",
             ".param cl dist=uniform(9f,11f)",
             "vdd vdd 0 dc 1.8",
             "vin s0 0 pulse(0 1.8 1n 0.1n 0.1n 4n 10n)"]
    for k in range(1, stages + 1):
        lines += [f"mn{k} s{k} s{k - 1} 0 type=nmos w=dist=wn l=0.2u kp=200u vt0=0.4",
                  f"mp{k} s{k} s{k - 1} vdd type=pmos w=dist=wp l=0.2u kp=100u vt0=0.4",
                  f"c{k} s{k} 0 dist=cl"]
    lines += [".dc", ".tran 10n"]
    return "\n".join(lines) + "\n"


def sg_jacobian_reference(ev, c) -> np.ndarray:
    """The (nK, nK) Galerkin Jacobian c·dq + df of an SG evaluation, every
    pattern entry projected on its own: block (i, j) = sum_q wh[q, i]
    hmat[q, j] J_q, with no use of the entries' stamp groups."""
    problem = ev.problem
    n, k = problem.circuit.n, problem.basis.size
    rows, cols = problem.circuit.kernel.jacobian_pattern
    point_jac = c * ev.point.dq[:, rows, cols] + ev.point.df[:, rows, cols]
    weighted = problem.hmat[:, :, None] * point_jac[:, None, :]     # (Q, K, nnz)
    coupled = (problem.wh.T @ weighted.reshape(len(problem.hmat), -1)).reshape(k, k, -1)
    full = np.zeros((k, n, k, n))
    full[:, rows, :, cols] = coupled.transpose(2, 0, 1)
    return full.reshape(n * k, n * k)


def st_residual(circuit, basis, nodes, X, t=0.0, c=0.0, history=None) -> np.ndarray:
    """Collocated residual, block m = c·q(x̂(ξᵐ)) + f(x̂(ξᵐ)) + hist − B u(t).

    With the defaults (c = 0, no history) this is the static DC residual;
    a time discretization supplies c and the charge-history term to get the
    full transient residual at one step.
    """
    problem = STProblem(circuit, basis, nodes)
    ev = problem.eval(np.asarray(X, dtype=float))
    r = c * ev.q + ev.f - problem.source(t)
    if history is not None:
        r = r + history
    return r
