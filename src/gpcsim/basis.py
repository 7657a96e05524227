"""Orthonormal polynomial bases for the four classical germ families.

Every random circuit parameter is written theta = shift + scale*xi, where xi
follows one of the standard germ distributions below (standard normal, gamma
on [0, inf), beta on [0, 1], uniform on [-1, 1]).  Each family carries a
closed-form monic three-term recurrence for its weight, from which we build
orthonormal polynomials phi_j = pi_j / ||pi_j||.  Multivariate basis
functions are products of univariate ones over a total-degree index set, so
mean and variance reduce to plain coefficient sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest basis count we are willing to index with int64 arrays.
MAX_BASIS_COUNT = 2**63 - 1


@dataclass(frozen=True)
class Distribution:
    """Base class for the standard (unshifted, unscaled) germ distributions."""

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def germ_mean(self) -> float:
        """Mean of the standard germ, E[xi]."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(Distribution):
    """Standard normal germ, density exp(-x^2/2)/sqrt(2 pi) on the real line."""

    def support(self):
        return (-np.inf, np.inf)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def germ_mean(self):
        return 0.0

    def sample(self, rng, size=None):
        return rng.standard_normal(size)


@dataclass(frozen=True)
class Gamma(Distribution):
    """Gamma germ with shape gamma > 0, density x^(gamma-1) e^-x / Gamma(gamma) on [0, inf)."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma shape must be positive, got {self.gamma}")

    def support(self):
        return (0.0, np.inf)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.gamma == 1.0:
            power = np.zeros_like(x)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                power = (self.gamma - 1.0) * np.log(x)
        with np.errstate(invalid="ignore"):
            out = np.where(x >= 0.0, np.exp(power - x - math.lgamma(self.gamma)), 0.0)
        return out

    def germ_mean(self):
        return self.gamma

    def sample(self, rng, size=None):
        return rng.gamma(self.gamma, size=size)


@dataclass(frozen=True)
class Beta(Distribution):
    """Beta germ on [0, 1], density x^(alpha-1) (1-x)^(beta-1) / B(alpha, beta)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(
                f"beta parameters must be positive, got alpha={self.alpha}, beta={self.beta}"
            )

    def support(self):
        return (0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        lnb = math.lgamma(self.alpha) + math.lgamma(self.beta) - math.lgamma(self.alpha + self.beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            left = 0.0 if self.alpha == 1.0 else (self.alpha - 1.0) * np.log(x)
            right = 0.0 if self.beta == 1.0 else (self.beta - 1.0) * np.log1p(-x)
            logp = left + right - lnb
        inside = (x >= 0.0) & (x <= 1.0)
        with np.errstate(invalid="ignore"):
            return np.where(inside, np.exp(logp), 0.0)

    def germ_mean(self):
        return self.alpha / (self.alpha + self.beta)

    def sample(self, rng, size=None):
        return rng.beta(self.alpha, self.beta, size=size)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform germ on [-1, 1] with density 1/2."""

    def support(self):
        return (-1.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= -1.0) & (x <= 1.0), 0.5, 0.0)

    def germ_mean(self):
        return 0.0

    def sample(self, rng, size=None):
        return rng.uniform(-1.0, 1.0, size)


@dataclass(frozen=True)
class RandomParameter:
    """A physical parameter theta = shift + scale*xi driven by a standard germ."""

    name: str
    dist: Distribution
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.scale == 0.0:
            raise ValueError(f"parameter {self.name}: scale must be nonzero")

    def value(self, xi):
        return self.shift + self.scale * np.asarray(xi, dtype=float)

    def mean(self) -> float:
        return self.shift + self.scale * self.dist.germ_mean()

    def sample(self, rng, size=None):
        return self.value(self.dist.sample(rng, size))


def num_basis(p: int, l: int) -> int:
    """Number of total-degree-p basis functions over l germs, (p+l)!/(p! l!)."""
    if p < 0 or l < 1:
        raise ValueError(f"need order >= 0 and at least one germ, got p={p}, l={l}")
    k = math.comb(p + l, l)
    if k > MAX_BASIS_COUNT:
        raise OverflowError(f"basis count {k} exceeds the 2^63-1 indexing limit")
    return k


def build_index_set(p: int, l: int) -> list[tuple[int, ...]]:
    """All multi-indices with total degree <= p, in graded lexicographic order.

    Indices are grouped by ascending total degree and ordered
    lexicographically within each group, so the all-zeros index is always
    first and the ordering for order p is a prefix of the ordering for any
    higher order.  The ordering is fixed: coefficient vectors from different
    solvers line up entry by entry.
    """
    num_basis(p, l)  # validates arguments and the count limit
    out: list[tuple[int, ...]] = []
    for total in range(p + 1):
        out.extend(_compositions(total, l))
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


@dataclass(frozen=True)
class RecurrenceTable:
    """Monic three-term recurrence pi_{j+1} = (x - a_j) pi_j - b_j pi_{j-1}.

    b[0] is the total mass of the weight (1 for a PDF), so the squared norm
    of the monic polynomial of degree j is b[0]*b[1]*...*b[j].
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def max_degree(self) -> int:
        return len(self.a) - 1


def univariate_recurrence(dist: Distribution, max_degree: int) -> RecurrenceTable:
    """Closed-form monic recurrence coefficients a_0..a_m, b_0..b_m for a germ weight.

    Hermite for Gaussian, generalized Laguerre for Gamma, Jacobi on [0,1]
    (in the alpha/beta convention of the beta density itself) for Beta and
    Legendre with the normalized 1/2 weight for Uniform.  Closed forms keep
    the table exact to rounding for any degree used here.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    m = max_degree
    j = np.arange(m + 1, dtype=float)
    if isinstance(dist, Gaussian):
        a = np.zeros(m + 1)
        b = j.copy()
    elif isinstance(dist, Uniform):
        a = np.zeros(m + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            b = j * j / (4.0 * j * j - 1.0)
    elif isinstance(dist, Gamma):
        g = dist.gamma
        a = 2.0 * j + g
        b = j * (j + g - 1.0)
    elif isinstance(dist, Beta):
        al, be = dist.alpha, dist.beta
        s = al + be
        a = np.empty(m + 1)
        b = np.empty(m + 1)
        a[0] = al / s
        if m >= 1:
            jj = j[1:]
            den = (2.0 * jj + s - 2.0) * (2.0 * jj + s)
            a[1:] = 0.5 * (1.0 + (al - be) * (s - 2.0) / den)
            b[1] = al * be / (s * s * (s + 1.0))
        if m >= 2:
            jj = j[2:]
            b[2:] = (
                jj * (jj + al - 1.0) * (jj + be - 1.0) * (jj + s - 2.0)
                / ((2.0 * jj + s - 2.0) ** 2 * (2.0 * jj + s - 1.0) * (2.0 * jj + s - 3.0))
            )
    else:
        raise ValueError(f"no recurrence known for distribution {dist!r}")
    b[0] = 1.0  # the weight is a normalized PDF
    return RecurrenceTable(a=a, b=b)


def orthonormal_values(rec: RecurrenceTable, x, degree: int) -> np.ndarray:
    """phi_j(x) for j = 0..degree, stacked on the leading axis.

    Uses the normalized recurrence
    sqrt(b_{j+1}) phi_{j+1} = (x - a_j) phi_j - sqrt(b_j) phi_{j-1}
    so the values are orthonormal under the germ PDF directly.
    """
    if degree > rec.max_degree:
        raise ValueError(f"table only reaches degree {rec.max_degree}, asked for {degree}")
    x = np.asarray(x, dtype=float)
    out = np.empty((degree + 1,) + x.shape)
    out[0] = 1.0
    if degree >= 1:
        sb = np.sqrt(rec.b)
        out[1] = (x - rec.a[0]) / sb[1]
        for j in range(1, degree):
            out[j + 1] = ((x - rec.a[j]) * out[j] - sb[j] * out[j - 1]) / sb[j + 1]
    return out


class GpcBasisSet:
    """Multivariate orthonormal basis over independent germs, total degree <= order.

    The index set is graded lexicographic with the all-zeros (constant)
    index first; basis function k is the product over dimensions d of the
    univariate orthonormal polynomial of degree indices[k, d].
    """

    def __init__(self, dists, order: int):
        dists = tuple(dists)
        if not dists:
            raise ValueError("need at least one germ distribution")
        self.dists = dists
        self.order = int(order)
        self.indices = np.asarray(build_index_set(self.order, len(dists)), dtype=np.int64)
        self.indices.setflags(write=False)
        self.recurrences = tuple(univariate_recurrence(d, self.order) for d in dists)
        low, high = np.array([d.support() for d in dists], dtype=float).T
        self._bounds = (low - 1e-12, high + 1e-12)   # each germ's support, widened

    @property
    def dim(self) -> int:
        return len(self.dists)

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def sample_germs(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n independent joint germ samples, shape (n, dim)."""
        cols = [d.sample(rng, n) for d in self.dists]
        return np.column_stack(cols)

    def _check_support(self, pts: np.ndarray):
        """Every coordinate lies in its germ's support, up to 1e-12; NaN
        does not.  All coordinates are compared at once, and the error names
        the first germ with a coordinate outside."""
        low, high = self._bounds
        inside = (pts >= low) & (pts <= high)
        if not inside.all():
            d = int(np.argmin(inside.all(axis=0)))
            raise ValueError(f"germ coordinate {d} outside the support of {self.dists[d]!r}")

    def eval_many(self, pts) -> np.ndarray:
        """Basis values at M points, shape (M, K)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have {pts.shape[1]} coordinates, basis has {self.dim}")
        self._check_support(pts)
        vals = np.ones((self.size, pts.shape[0]))
        for d in range(self.dim):
            table = orthonormal_values(self.recurrences[d], pts[:, d], self.order)
            vals *= table[self.indices[:, d], :]
        return vals.T


def moments_from_coeffs(coeffs):
    """Mean and standard deviation of an orthonormal expansion.

    coeffs has the K coefficients on its leading axis (any trailing state
    axes are preserved).  The mean is the constant-index coefficient and the
    variance is the sum of squares of all the others.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    mean = coeffs[0]
    var = np.sum(coeffs[1:] ** 2, axis=0)
    return mean, np.sqrt(var)
