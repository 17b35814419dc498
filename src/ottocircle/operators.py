"""Measure-weighted differential operators and their Galerkin inverses.

For mu = rho * dvol the weighted divergence of a vector field xi*d/dx is
div_mu(xi) = (rho*xi)'/rho, and the weighted Laplacian is fixed positive
semidefinite:

    L_mu psi = -(rho*psi')'/rho,     <psi, L_mu psi>_mu = int |psi'|^2 dmu >= 0.

The Green operator inverts L_mu on mean-zero data by a Galerkin solve in the
2N-mode trig span (constants excluded); the same Gram system drives the
L^2(mu) projection of one-forms onto exact forms d(theta).

WeightedOperatorContext owns every integral of the basis against a density:
Gram matrices, weighted moments, triple products (streamed one (d, d) slice
per first index, so no caller needs the d^3 cube), and the projection at a
moving density that the geodesic and transport ODEs solve at every RK4
stage.  The context's own Gram matrix is solved with the inverse of its
numpy Cholesky factor, L^-1, taken once per context: a solve is then two
numpy products, L^-T (L^-1 b).  A stage Gram matrix serves one solve, so
project_at assembles it at the stage density and solves it by
np.linalg.solve, which is cheaper there than a Cholesky factor and its two
triangular solves.  The stage density is a checked Density (positive at the
nodes), which keeps its Gram matrix positive definite; an exactly singular
one raises LinAlgError.  The context is fixed at construction, except that
its own Gram matrix is factored and inverted on the first solve (a
metric-only context never factors).

In the trig basis these integrals are Fourier data of rho: the node
quadrature of a product of basis rows against rho is a sum of DFT bins of rho
at the sums and differences of the row modes.  The stage Gram matrix
(assemble_gram, bins up to 2N, in real arithmetic) and the triple products
(bins up to 3N, one complex contraction per first mode) are assembled from
those bins.  The context's own Gram matrix, the weighted moments and the
syntheses of potentials from coefficients stay quadratures of the node
tables basis0/1/2 (grid.basis_matrix's), so the base Gram matrix and the
moments it solves against agree to a few ulps.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .density import Density
from .errors import CompatibilityError, ConditioningWarning, DomainError
from .grid import SQRT2, ScalarField, basis_matrix, check_same_grid, deriv

GRAM_CONDITION_LIMIT = 1e12
MEAN_ZERO_TOL = 1e-8


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
        grid = self.mu.grid
        # basis_matrix rejects a bad N (ConfigError) or an aliasing one
        self.basis0 = basis_matrix(grid, self.N, 0)
        self.basis1 = basis_matrix(grid, self.N, 1)
        self.basis2 = basis_matrix(grid, self.N, 2)
        # the base Gram stays a quadrature of the basis tables, which pairs it
        # with weighted_moment to a few ulps (project_exact's orthogonality)
        gram = (self.basis1 * (self.mu.rho / grid.n)) @ self.basis1.T
        self.gram = 0.5 * (gram + gram.T)
        check_gram(self.gram)

    @property
    def grid(self):
        return self.mu.grid

    @cached_property
    def _inverse_factor(self) -> np.ndarray:
        """L^-1 for the lower Cholesky factor L of gram."""
        return np.linalg.inv(np.linalg.cholesky(self.gram))

    def gram_solve(self, rhs: np.ndarray) -> np.ndarray:
        """gram^-1 rhs as L^-T (L^-1 rhs), over the first axis of rhs."""
        inverse = self._inverse_factor
        return inverse.T @ (inverse @ rhs)

    def weighted_moment(self, values: np.ndarray, order: int) -> np.ndarray:
        """Vector of int basis_i^{(order)} * values dmu over the 2N basis."""
        table = (self.basis0, self.basis1, self.basis2)[order]
        return table @ (values * self.mu.rho) / self.grid.n

    def project_gradient_coeffs(self, w_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients c of the best exact form d(sum c_i phi_i) approximating
        w dx in L^2(mu), and the pointwise residual values."""
        coeffs = self.gram_solve(self.weighted_moment(w_values, 1))
        return coeffs, w_values - coeffs @ self.basis1

    def project_at(self, mu_t: Density, w_values: np.ndarray) -> np.ndarray:
        """Gram(mu_t)^{-1} [int w phi_l' dmu_t]: the coefficients of
        project_gradient_coeffs at the density mu_t instead of mu, by one
        np.linalg.solve of the Gram matrix assembled at mu_t."""
        rho = mu_t.rho
        return np.linalg.solve(assemble_gram(rho, self.N), self.basis1 @ (w_values * rho) / self.grid.n)

    def triple_products(self) -> Iterator[np.ndarray]:
        """Yield the d slices c[i] of c[i, j, l] = int phi_i' phi_j'' phi_l' dmu
        over the 2N basis, in order of i, each (d, d) slice built afresh.

        The cos/sin rows of mode j are sqrt(2) Re(z e^{ijx}), z = (1, -i), and
        their p-th derivatives carry z (ij)^p.  With the bins beta_m =
        int e^{imx} dmu, the (j, l) block of mode k is (sqrt(2)/2) ik times the
        sum over four sign patterns of a (x) b beta[k + s_j j + s_l l], a the
        z'' of j or its conjugate (s_j = 1 or -1), b likewise the z' of l: its
        real part is the cos-k slice, its imaginary part the sin-k slice."""
        N = self.N
        # |m| <= 3N < n, so a negative m indexes its own bin from the end
        beta = np.conj(np.fft.fft(self.mu.rho)) / self.grid.n
        j = np.arange(1, N + 1)
        # z (ij) and z (ij)^2 of the cos/sin rows, (N, 2) each
        first = np.multiply.outer(1j * j, (1.0, -1j))
        second = 1j * j[:, None] * first
        rows, cols = j[:, None, None, None], j[:, None]
        # one k at a time: the cos-k and sin-k slices, O(N^2) memory each
        for k in range(1, N + 1):
            block = sum(a[:, :, None, None] * sum(b * beta[k + sj * rows + sl * cols]
                                                  for b, sl in ((first, 1), (first.conj(), -1)))
                        for a, sj in ((second, 1), (second.conj(), -1)))
            block = (SQRT2 / 2.0) * 1j * k * block.reshape(2 * N, 2 * N)
            yield block.real.copy()
            yield block.imag.copy()

    def potential_values(self, coeffs: np.ndarray, order: int = 0) -> np.ndarray:
        table = (self.basis0, self.basis1, self.basis2)[order]
        return np.asarray(coeffs, dtype=np.float64) @ table

    def mu_mean(self, values: np.ndarray) -> float:
        return float(np.mean(values * self.mu.rho))


def check_gram(matrix: np.ndarray) -> None:
    """Raise DomainError unless the symmetric Gram matrix is positive
    definite; warn when its eigenvalue ratio exceeds GRAM_CONDITION_LIMIT."""
    eigs = np.linalg.eigvalsh(matrix)
    if eigs[0] <= 0.0:
        raise DomainError(f"Gram matrix not positive definite (min eig {eigs[0]:.3e})")
    if eigs[-1] / eigs[0] > GRAM_CONDITION_LIMIT:
        warnings.warn(
            f"Gram eigenvalue ratio {eigs[-1] / eigs[0]:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e}",
            ConditioningWarning,
        )


@lru_cache(maxsize=16)
def _gram_tables(N: int) -> tuple[np.ndarray, ...]:
    """assemble_gram's tables over 1 <= k, l <= N: the bin indices |k-l| and
    k+l, the signs sgn(k-l) and the weights kl.  Cached and shared, so
    read-only."""
    k = np.arange(1, N + 1)
    diff = np.subtract.outer(k, k)
    tables = (np.abs(diff), np.add.outer(k, k), np.sign(diff),
              np.multiply.outer(k, k).astype(np.float64))
    for table in tables:
        table.flags.writeable = False
    return tables


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
    gap, total, sign, kl = _gram_tables(N)
    cross = -kl * (sin_bins[total] + sign * sin_bins[gap])
    gram = np.empty((2 * N, 2 * N))
    gram[0::2, 0::2] = kl * (cos_bins[gap] - cos_bins[total])
    gram[1::2, 1::2] = kl * (cos_bins[gap] + cos_bins[total])
    gram[0::2, 1::2] = cross
    gram[1::2, 0::2] = cross.T
    return gram


def div_mu(xi: ScalarField, ctx: WeightedOperatorContext) -> ScalarField:
    """Weighted divergence (rho*xi)'/rho of the vector field xi*d/dx."""
    check_same_grid(xi, ctx.mu)
    flux = ScalarField(xi.grid, ctx.mu.rho * xi.values)
    return ScalarField(xi.grid, deriv(flux).values / ctx.mu.rho)


def laplace_mu(psi: ScalarField, ctx: WeightedOperatorContext) -> ScalarField:
    """Positive weighted Laplacian -(rho*psi')'/rho."""
    check_same_grid(psi, ctx.mu)
    flux = ScalarField(psi.grid, ctx.mu.rho * deriv(psi).values)
    return ScalarField(psi.grid, -deriv(flux).values / ctx.mu.rho)


def green_mu_coeffs(f: ScalarField, ctx: WeightedOperatorContext) -> np.ndarray:
    """Basis coefficients of the Galerkin solve of L_mu phi = f (phi modulo
    constants).

    f must be mean-zero in mu up to 1e-8 (solvability); any sub-tolerance
    mean is removed before solving.
    """
    check_same_grid(f, ctx.mu)
    mean = ctx.mu_mean(f.values)
    if abs(mean) > MEAN_ZERO_TOL:
        raise CompatibilityError(
            f"green_mu_coeffs needs int f dmu = 0 within {MEAN_ZERO_TOL:.0e}, got {mean:.3e}"
        )
    return ctx.gram_solve(ctx.weighted_moment(f.values - mean, 0))


def project_exact(omega: ScalarField,
                  ctx: WeightedOperatorContext) -> tuple[ScalarField, ScalarField]:
    """L^2(mu)-orthogonal projection of the one-form omega dx onto exact forms.

    Returns (theta, residual) with d(theta) the projection and residual =
    omega - theta' orthogonal to every d(phi_i) in L^2(mu).
    """
    check_same_grid(omega, ctx.mu)
    coeffs, residual = ctx.project_gradient_coeffs(omega.values)
    return ScalarField(omega.grid, ctx.potential_values(coeffs)), ScalarField(omega.grid, residual)
