"""Basis construction tests.

The recurrence tables are checked against an exact-rational Gram-Schmidt
oracle built from closed-form germ moments, and basis evaluation is
cross-checked against numpy.polynomial implementations that share no code
with the package.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcsim.basis import (
    Beta,
    Gamma,
    Gaussian,
    GpcBasisSet,
    RandomParameter,
    Uniform,
    build_index_set,
    moments_from_coeffs,
    num_basis,
    univariate_recurrence,
)

FAMILIES = [
    Gaussian(),
    Uniform(),
    Gamma(1.0),
    Gamma(2.5),
    Beta(2.0, 3.0),
    Beta(1.0, 1.0),
]


from helpers import eval_basis, germ_moments


# ---------------------------------------------------------------------------
# oracle: monic recurrence by exact-rational Gram-Schmidt on germ moments
# ---------------------------------------------------------------------------

def recurrence_oracle(dist, degree):
    """Monic (a_j, b_j) by Gram-Schmidt over monomials with exact moments."""
    mom = germ_moments(dist, 2 * degree + 2)

    def inner(u, v):
        acc = Fraction(0)
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, vj in enumerate(v):
                if vj:
                    acc += ui * vj * mom[i + j]
        return acc

    def shift(u):  # multiply the polynomial by x
        return [Fraction(0)] + list(u)

    a, b = [], [Fraction(1)]
    prev = None
    cur = [Fraction(1)]
    norm_prev, norm_cur = None, inner(cur, cur)
    for j in range(degree + 1):
        xc = shift(cur)
        a_j = inner(xc, cur) / norm_cur
        a.append(a_j)
        if j == degree:
            break
        nxt = [xi - a_j * ci for xi, ci in zip(xc, cur + [Fraction(0)])]
        if prev is not None:
            b_j = norm_cur / norm_prev
            nxt = [ni - b_j * pi for ni, pi in zip(nxt, prev + [Fraction(0)] * (len(nxt) - len(prev)))]
            b.append(b_j)
        prev, cur = cur, nxt
        norm_prev, norm_cur = norm_cur, inner(cur, cur)
    if degree >= 1 and len(b) < degree + 1:
        b.append(norm_cur / norm_prev)
    return a, b


@pytest.mark.parametrize("dist", FAMILIES, ids=repr)
def test_recurrence_matches_exact_moment_oracle(dist):
    deg = 7
    a_ref, b_ref = recurrence_oracle(dist, deg)
    table = univariate_recurrence(dist, deg)
    for j in range(deg + 1):
        assert table.a[j] == pytest.approx(float(a_ref[j]), abs=1e-13, rel=1e-12)
        assert table.b[j] == pytest.approx(float(b_ref[j]), abs=1e-13, rel=1e-12)


def test_recurrence_closed_form_examples():
    g = univariate_recurrence(Gaussian(), 6)
    assert np.allclose(g.a, 0.0)
    assert np.allclose(g.b[1:], np.arange(1, 7))

    u = univariate_recurrence(Uniform(), 3)
    assert np.allclose(u.a, 0.0)
    assert u.b[1] == pytest.approx(1.0 / 3.0)

    lag = univariate_recurrence(Gamma(1.0), 5)
    assert np.allclose(lag.a, 2 * np.arange(6) + 1)
    assert np.allclose(lag.b[1:], np.arange(1, 6) ** 2)


def test_recurrence_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Gamma(0.0)
    with pytest.raises(ValueError):
        Gamma(-1.5)
    with pytest.raises(ValueError):
        Beta(0.0, 1.0)
    with pytest.raises(ValueError):
        Beta(2.0, -3.0)
    with pytest.raises(ValueError):
        univariate_recurrence(Gaussian(), -1)


# ---------------------------------------------------------------------------
# counting and the index set
# ---------------------------------------------------------------------------

def test_num_basis_known_values():
    assert num_basis(3, 4) == 35
    assert num_basis(3, 3) == 20
    assert num_basis(0, 7) == 1
    assert [num_basis(p, 4) for p in range(1, 7)] == [5, 15, 35, 70, 126, 210]
    assert [num_basis(p, 3) for p in range(1, 7)] == [4, 10, 20, 35, 56, 84]


def test_num_basis_validation_and_overflow():
    with pytest.raises(ValueError):
        num_basis(-1, 2)
    with pytest.raises(ValueError):
        num_basis(2, 0)
    with pytest.raises(OverflowError):
        num_basis(200, 40)


def test_index_set_small_examples():
    assert build_index_set(1, 2) == [(0, 0), (0, 1), (1, 0)]
    assert build_index_set(2, 1) == [(0,), (1,), (2,)]


def test_index_set_matches_enumerate_and_filter_oracle():
    # independent oracle: filter the full {0..p}^l lattice, then graded-lex sort
    p, l = 3, 4
    lattice = np.stack(np.meshgrid(*[np.arange(p + 1)] * l, indexing="ij"), axis=-1).reshape(-1, l)
    keep = lattice[lattice.sum(axis=1) <= p]
    oracle = sorted(map(tuple, keep), key=lambda ix: (sum(ix), ix))
    got = build_index_set(p, l)
    assert got == oracle
    assert len(got) == 35
    assert max(sum(ix) for ix in got) == 3


@settings(max_examples=60, deadline=None)
@given(p=st.integers(0, 6), l=st.integers(1, 5))
def test_index_set_properties(p, l):
    idx = build_index_set(p, l)
    assert len(idx) == num_basis(p, l)
    assert idx[0] == (0,) * l
    assert len(set(idx)) == len(idx)
    keys = [(sum(ix), ix) for ix in idx]
    assert keys == sorted(keys)
    assert all(sum(ix) <= p for ix in idx)


def test_index_set_is_stable():
    a = build_index_set(4, 3)
    b = build_index_set(4, 3)
    assert a == b
    # lower orders are prefixes of higher orders
    assert build_index_set(2, 3) == build_index_set(5, 3)[: num_basis(2, 3)]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_basis_constant_and_hermite_values():
    basis = GpcBasisSet([Gaussian()], 3)
    h = eval_basis(basis, [2.0])
    assert h[0] == pytest.approx(1.0)
    assert h[1] == pytest.approx(2.0)  # phi_1(xi) = xi
    h = eval_basis(basis, [1.0])
    assert h[2] == pytest.approx(0.0, abs=1e-14)  # phi_2 = (xi^2 - 1)/sqrt(2)
    assert eval_basis(basis, [1.5])[2] == pytest.approx((1.5**2 - 1) / math.sqrt(2))


def test_eval_basis_product_structure():
    basis = GpcBasisSet([Gaussian(), Uniform(), Gamma(2.0)], 4)
    rng = np.random.default_rng(7)
    pts = np.column_stack(
        [rng.standard_normal(16), rng.uniform(-1, 1, 16), rng.gamma(2.0, size=16)]
    )
    vals = basis.eval_many(pts)
    from gpcsim.basis import orthonormal_values

    for m in range(16):
        uni = [
            orthonormal_values(basis.recurrences[d], pts[m, d], 4)
            for d in range(3)
        ]
        for k, ix in enumerate(basis.indices):
            expect = uni[0][ix[0]] * uni[1][ix[1]] * uni[2][ix[2]]
            assert vals[m, k] == pytest.approx(float(expect), rel=1e-12, abs=1e-12)


def test_eval_basis_cross_checked_against_numpy_polynomials():
    # hermite_e: orthogonal under exp(-x^2/2); orthonormal version divides by sqrt(j!)
    from numpy.polynomial import hermite_e, laguerre, legendre

    x = np.linspace(-2.5, 2.5, 11)
    basis = GpcBasisSet([Gaussian()], 5)
    vals = basis.eval_many(x.reshape(-1, 1))
    for j in range(6):
        coeffs = np.zeros(j + 1)
        coeffs[j] = 1.0
        ref = hermite_e.hermeval(x, coeffs) / math.sqrt(math.factorial(j))
        assert np.allclose(vals[:, j], ref, rtol=1e-12, atol=1e-12)

    xu = np.linspace(-1, 1, 9)
    basis = GpcBasisSet([Uniform()], 5)
    vals = basis.eval_many(xu.reshape(-1, 1))
    for j in range(6):
        coeffs = np.zeros(j + 1)
        coeffs[j] = 1.0
        # ||P_j||^2 = 1/(2j+1) under the normalized 1/2 weight
        ref = legendre.legval(xu, coeffs) * math.sqrt(2 * j + 1)
        assert np.allclose(vals[:, j], ref, rtol=1e-12, atol=1e-12)

    xg = np.linspace(0.0, 6.0, 9)
    basis = GpcBasisSet([Gamma(1.0)], 5)
    vals = basis.eval_many(xg.reshape(-1, 1))
    for j in range(6):
        coeffs = np.zeros(j + 1)
        coeffs[j] = 1.0
        # standard Laguerre polynomials are already orthonormal under e^-x,
        # up to the (-1)^j sign of the monic convention
        ref = laguerre.lagval(xg, coeffs)
        assert np.allclose(np.abs(vals[:, j]), np.abs(ref), rtol=1e-11, atol=1e-11)


def test_eval_basis_support_domain_errors():
    basis = GpcBasisSet([Uniform()], 2)
    with pytest.raises(ValueError):
        eval_basis(basis, [1.5])
    basis = GpcBasisSet([Beta(2.0, 2.0)], 2)
    with pytest.raises(ValueError):
        eval_basis(basis, [-0.2])
    basis = GpcBasisSet([Gamma(1.0)], 2)
    with pytest.raises(ValueError):
        eval_basis(basis, [-1.0])


def test_support_error_names_the_first_germ_outside():
    """Every coordinate is checked at once; the error names the lowest germ
    with a coordinate outside its support, whichever point holds it."""
    basis = GpcBasisSet([Gaussian(), Uniform(), Gamma(1.0), Beta(2.0, 2.0)], 1)
    pts = np.zeros((3, 4))
    pts[:, 2] = 1.0
    basis.eval_many(pts)
    pts[2, 3] = 1.5                      # Beta outside [-1, 1]
    pts[1, 1] = -1.0 - 1e-9              # Uniform just outside [-1, 1]
    with pytest.raises(ValueError, match=r"germ coordinate 1 outside the support of Uniform"):
        basis.eval_many(pts)
    pts[1, 1] = -1.0 - 1e-13             # within the 1e-12 margin
    with pytest.raises(ValueError, match=r"germ coordinate 3 outside the support of Beta"):
        basis.eval_many(pts)


@pytest.mark.parametrize("germ", [0, 1])
def test_support_check_refuses_nan(germ):
    """NaN lies in no support, the Gaussian's whole real line included."""
    basis = GpcBasisSet([Gaussian(), Uniform()], 2)
    pts = np.zeros((4, 2))
    pts[3, germ] = np.nan
    with pytest.raises(ValueError, match=f"germ coordinate {germ} outside"):
        basis.eval_many(pts)


def test_basis_shape_checks():
    basis = GpcBasisSet([Gaussian(), Gaussian()], 2)
    with pytest.raises(ValueError):
        basis.eval_many(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        GpcBasisSet([], 2)


# ---------------------------------------------------------------------------
# moments and the affine parameter map
# ---------------------------------------------------------------------------

def test_moments_trivial_cases():
    coeffs = np.zeros(10)
    coeffs[0] = 3.25
    mean, std = moments_from_coeffs(coeffs)
    assert mean == 3.25 and std == 0.0

    basis = GpcBasisSet([Gaussian()], 3)
    coeffs = np.zeros(basis.size)
    coeffs[1] = 1.0  # expansion x = xi
    mean, std = moments_from_coeffs(coeffs)
    assert mean == 0.0 and std == 1.0


def test_moments_match_direct_sampling():
    basis = GpcBasisSet([Gaussian(), Uniform()], 3)
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal(basis.size)
    mean, std = moments_from_coeffs(coeffs)

    n = 10**6
    pts = basis.sample_germs(np.random.default_rng(123), n)
    samples = basis.eval_many(pts) @ coeffs
    se_mean = samples.std(ddof=1) / math.sqrt(n)
    assert abs(samples.mean() - mean) < 3 * se_mean
    # std of the sample std is roughly sigma/sqrt(2n) for light tails
    assert abs(samples.std(ddof=1) - std) < 5 * std / math.sqrt(2 * n)


def test_moments_multistate_shape():
    coeffs = np.arange(12.0).reshape(4, 3)
    mean, std = moments_from_coeffs(coeffs)
    assert mean.shape == (3,) and std.shape == (3,)
    assert np.allclose(std**2, np.sum(coeffs[1:] ** 2, axis=0))


def test_pdfs_integrate_to_one():
    for dist in FAMILIES:
        lo, hi = dist.support()
        lo = max(lo, -40.0)
        hi = min(hi, 60.0)
        x = np.linspace(lo, hi, 2_000_001)
        total = np.trapezoid(dist.pdf(x), x)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_random_parameter_affine_consistency():
    par = RandomParameter("r1", Uniform(), shift=1000.0, scale=200.0)
    rng = np.random.default_rng(5)
    draws = par.sample(rng, 200_000)
    assert par.mean() == pytest.approx(1000.0)
    assert draws.mean() == pytest.approx(par.mean(), abs=3 * 200.0 / math.sqrt(3 * 200_000))
    assert draws.min() >= 800.0 and draws.max() <= 1200.0

    with pytest.raises(ValueError):
        RandomParameter("bad", Gaussian(), shift=0.0, scale=0.0)

    par = RandomParameter("g", Gamma(2.0), shift=90.0, scale=5.0)
    assert par.mean() == pytest.approx(100.0)
