"""Measure-weighted differential operators and their Galerkin inverses.

For mu = rho * dvol the weighted divergence of a vector field xi*d/dx is
div_mu(xi) = (rho*xi)'/rho, and the weighted Laplacian is fixed positive
semidefinite:

    L_mu psi = -(rho*psi')'/rho,     <psi, L_mu psi>_mu = int |psi'|^2 dmu >= 0.

The Green operator inverts L_mu on mean-zero data by a Galerkin solve in the
2N-mode trig span (constants excluded); the same Gram system drives the
L^2(mu) projection of one-forms onto exact forms d(theta).

WeightedOperatorContext owns every integral of the basis against a density:
Gram matrices and their Cholesky factors, weighted moments, triple products,
and the projection at a moving density that the geodesic and transport ODEs
solve at every RK4 stage.  It is fixed at construction, except that its Gram
matrix is factored on the first solve (a metric-only context never factors).

In the trig basis these integrals are Fourier data of rho: the node
quadrature of a product of basis rows against rho is a sum of DFT bins of rho
at the sums and differences of the row modes.  The stage Gram matrix
(assemble_gram, bins up to 2N) and the triple products (bins up to 3N) are
assembled from those bins.  The context's own Gram matrix, the weighted
moments and the syntheses of potentials from coefficients stay quadratures
of the node tables basis0/1/2, so the base Gram matrix and the moments it
solves against agree to a few ulps.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .density import Density
from .errors import CompatibilityError, ConditioningWarning, ConfigError, DomainError
from .grid import SQRT2, OneForm, ScalarField, basis_matrix, check_same_grid, deriv

GRAM_CONDITION_LIMIT = 1e12
MEAN_ZERO_TOL = 1e-8
# On e^{ikx}, phi_k' is k/sqrt(2) times i^p with p = 1 (cos row) or 0 (sin
# row), and phi_k'' is k^2/sqrt(2) times i^2 or i^1; e^{-ikx} carries i^-p.
_FIRST_POWER = (1, 0)
_SECOND_POWER = (2, 1)
# Re(i^q (C + i S)) for q mod 4 = 0, 1, 2, 3: +C, -S, -C, +S as (use_sin, op)
_REAL_PART = ((False, np.add), (True, np.subtract), (False, np.subtract), (True, np.add))


@dataclass
class WeightedOperatorContext:
    """Cached Galerkin data for a fixed base density and truncation N."""

    mu: Density
    N: int
    basis0: np.ndarray = field(init=False, repr=False)
    basis1: np.ndarray = field(init=False, repr=False)
    basis2: np.ndarray = field(init=False, repr=False)
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError(f"truncation N must be >= 1, got {self.N}")
        grid = self.mu.grid
        self.basis0 = basis_matrix(grid, self.N, order=0)
        self.basis1 = basis_matrix(grid, self.N, order=1)
        self.basis2 = basis_matrix(grid, self.N, order=2)
        # the base Gram stays a quadrature of the basis tables, which pairs it
        # with weighted_moment to a few ulps (project_exact's orthogonality)
        gram = (self.basis1 * (self.mu.rho / grid.n)) @ self.basis1.T
        self.gram = 0.5 * (gram + gram.T)
        check_gram(self.gram)

    @property
    def grid(self):
        return self.mu.grid

    @cached_property
    def _cho(self) -> tuple:
        return cho_factor(self.gram)

    def gram_solve(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self._cho, rhs)

    def weighted_moment(self, values: np.ndarray, order: int) -> np.ndarray:
        """Vector of int basis_i^{(order)} * values dmu over the 2N basis."""
        table = (self.basis0, self.basis1, self.basis2)[order]
        return table @ (values * self.mu.rho) / self.grid.n

    def project_gradient_coeffs(self, w_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients c of the best exact form d(sum c_i phi_i) approximating
        w dx in L^2(mu), and the pointwise residual values."""
        coeffs = self.gram_solve(self.weighted_moment(w_values, 1))
        return coeffs, w_values - coeffs @ self.basis1

    def project_at(self, rho: np.ndarray, w_values: np.ndarray) -> np.ndarray:
        """Gram(rho)^{-1} [int w phi_l' rho dvol]: the coefficients of
        project_gradient_coeffs at the density rho instead of mu.  The Gram
        matrix at rho is factored afresh; a breakdown raises LinAlgError."""
        gram = assemble_gram(rho, self.N)
        return cho_solve(cho_factor(gram), self.basis1 @ (w_values * rho) / self.grid.n)

    def triple_products(self) -> np.ndarray:
        """c[i, j, l] = int phi_i' phi_j'' phi_l' dmu over the 2N basis.

        With the rows written as exponentials (_FIRST_POWER, _SECOND_POWER),
        each entry is 2 Re of four products with the bins
        int e^{imx} dmu = C_m + i S_m at m = k +- j +- l, one per sign
        pattern.  Each pattern is gathered at mode level and added into the
        8 cos/sin blocks; 2 (1/sqrt(2))^3 k j^2 l scales the sum."""
        N = self.N
        bins = np.fft.fft(self.mu.rho) / self.grid.n
        cos_bins, sin_bins = bins.real, -bins.imag  # int cos(mx) dmu, int sin(mx) dmu
        j = np.arange(1, N + 1)
        patterns = [(sj, sl, sj * j[:, None] + sl * j[None, :])
                    for sj, sl in itertools.product((1, -1), repeat=2)]
        scale = (SQRT2 / 2.0) * (j[:, None] ** 2 * j[None, :]).astype(np.float64)
        out = np.zeros((N, 2, N, 2, N, 2))
        # one k at a time keeps the temporaries at O(N^2)
        for k in range(1, N + 1):
            row = out[k - 1]
            for sj, sl, offset in patterns:
                # |m| <= 3N < n, so a negative m indexes its own bin from the end
                m = k + offset
                gathered = (cos_bins[m], sin_bins[m])
                for ti, tj, tl in itertools.product((0, 1), repeat=3):
                    q = _FIRST_POWER[ti] + sj * _SECOND_POWER[tj] + sl * _FIRST_POWER[tl]
                    use_sin, accumulate = _REAL_PART[q % 4]
                    block = row[ti, :, tj, :, tl]
                    accumulate(block, gathered[use_sin], out=block)
            row *= k * scale[None, :, None, :, None]
        return out.reshape(2 * N, 2 * N, 2 * N)

    def potential_values(self, coeffs: np.ndarray, order: int = 0) -> np.ndarray:
        table = (self.basis0, self.basis1, self.basis2)[order]
        return np.asarray(coeffs, dtype=np.float64) @ table

    def mu_mean(self, values: np.ndarray) -> float:
        return float(np.mean(values * self.mu.rho))


def check_gram(matrix: np.ndarray) -> None:
    """Raise DomainError unless the Gram matrix is symmetric and positive
    definite; warn when its eigenvalue ratio exceeds GRAM_CONDITION_LIMIT."""
    asym = np.abs(matrix - matrix.T).max()
    if asym > 1e-12 * max(1.0, np.abs(matrix).max()):
        raise DomainError(f"Gram matrix asymmetry {asym:.3e} beyond tolerance")
    eigs = np.linalg.eigvalsh(matrix)
    if eigs[0] <= 0.0:
        raise DomainError(f"Gram matrix not positive definite (min eig {eigs[0]:.3e})")
    if eigs[-1] / eigs[0] > GRAM_CONDITION_LIMIT:
        warnings.warn(
            f"Gram eigenvalue ratio {eigs[-1] / eigs[0]:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e}",
            ConditioningWarning,
        )


def assemble_gram(rho: np.ndarray, N: int) -> np.ndarray:
    """Otto-metric Gram matrix int phi_i' phi_j' dmu over the 2N basis, from
    the bins C_m = int cos(mx) dmu and S_m = int sin(mx) dmu, m <= 2N:

        (cos k, cos l) = k l (C_|k-l| - C_{k+l})
        (sin k, sin l) = k l (C_|k-l| + C_{k+l})
        (cos k, sin l) = -k l (S_{k+l} + sgn(k-l) S_|k-l|)

    These bins are the node quadrature itself, so the matrix equals the
    quadrature of the basis tables up to roundoff, in O(n log n + N^2)."""
    bins = np.fft.rfft(rho)[: 2 * N + 1] / rho.size
    cos_bins, sin_bins = bins.real, -bins.imag
    k = np.arange(1, N + 1)
    diff, total = np.subtract.outer(k, k), np.add.outer(k, k)
    kl = np.multiply.outer(k, k).astype(np.float64)
    cross = -kl * (sin_bins[total] + np.sign(diff) * sin_bins[np.abs(diff)])
    gram = np.empty((2 * N, 2 * N))
    gram[0::2, 0::2] = kl * (cos_bins[np.abs(diff)] - cos_bins[total])
    gram[1::2, 1::2] = kl * (cos_bins[np.abs(diff)] + cos_bins[total])
    gram[0::2, 1::2] = cross
    gram[1::2, 0::2] = cross.T
    return gram


def div_mu(xi: ScalarField, ctx: WeightedOperatorContext) -> ScalarField:
    """Weighted divergence (rho*xi)'/rho of the vector field xi*d/dx."""
    check_same_grid(xi, ctx.mu.field())
    flux = ScalarField(xi.grid, ctx.mu.rho * xi.values)
    return ScalarField(xi.grid, deriv(flux).values / ctx.mu.rho)


def laplace_mu(psi: ScalarField, ctx: WeightedOperatorContext) -> ScalarField:
    """Positive weighted Laplacian -(rho*psi')'/rho."""
    check_same_grid(psi, ctx.mu.field())
    flux = ScalarField(psi.grid, ctx.mu.rho * deriv(psi).values)
    return ScalarField(psi.grid, -deriv(flux).values / ctx.mu.rho)


def green_mu_coeffs(f: ScalarField, ctx: WeightedOperatorContext) -> np.ndarray:
    """Basis coefficients of the Galerkin solve of L_mu phi = f (phi modulo
    constants).

    f must be mean-zero in mu up to 1e-8 (solvability); any sub-tolerance
    mean is removed before solving.
    """
    check_same_grid(f, ctx.mu.field())
    mean = ctx.mu_mean(f.values)
    if abs(mean) > MEAN_ZERO_TOL:
        raise CompatibilityError(
            f"green_mu_coeffs needs int f dmu = 0 within {MEAN_ZERO_TOL:.0e}, got {mean:.3e}"
        )
    return ctx.gram_solve(ctx.weighted_moment(f.values - mean, 0))


def project_exact(omega: OneForm, ctx: WeightedOperatorContext) -> tuple[ScalarField, OneForm]:
    """L^2(mu)-orthogonal projection of a one-form onto exact forms.

    Returns (theta, residual) with d(theta) the projection and residual =
    omega - d(theta) orthogonal to every d(phi_i) in L^2(mu).
    """
    check_same_grid(omega, ctx.mu.field())
    coeffs, residual = ctx.project_gradient_coeffs(omega.values)
    return (
        ScalarField(omega.grid, ctx.potential_values(coeffs)),
        OneForm(omega.grid, residual),
    )
