"""Measure-weighted differential operators and their Galerkin inverses.

For mu = rho * dvol the weighted divergence of a vector field xi*d/dx is
div_mu(xi) = (rho*xi)'/rho, and the weighted Laplacian is fixed positive
semidefinite:

    L_mu psi = -(rho*psi')'/rho,     <psi, L_mu psi>_mu = int |psi'|^2 dmu >= 0.

The Green operator inverts L_mu on mean-zero data by a Galerkin solve in the
2N-mode trig span (constants excluded); the same Gram system drives the
L^2(mu) projection of one-forms onto exact forms d(theta).

WeightedOperatorContext owns every quadrature of basis tables against a
density: Gram matrices and their Cholesky factors, weighted moments, triple
products, and the projection at a moving density that the geodesic and
transport ODEs solve at every RK4 stage.  It is fixed at construction, except
that its Gram matrix is factored on the first solve (a metric-only context
never factors).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .density import Density
from .errors import CompatibilityError, ConditioningWarning, ConfigError, DomainError
from .grid import OneForm, ScalarField, basis_matrix, check_same_grid, deriv

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
        if self.N < 1:
            raise ConfigError(f"truncation N must be >= 1, got {self.N}")
        grid = self.mu.grid
        self.basis0 = basis_matrix(grid, self.N, order=0)
        self.basis1 = basis_matrix(grid, self.N, order=1)
        self.basis2 = basis_matrix(grid, self.N, order=2)
        self.gram = assemble_gram(self.basis1, self.mu.rho)
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
        gram = assemble_gram(self.basis1, rho)
        return cho_solve(cho_factor(gram), self.basis1 @ (w_values * rho) / self.grid.n)

    def triple_products(self) -> np.ndarray:
        """c[i, j, l] = int phi_i' phi_j'' phi_l' dmu over the 2N basis."""
        weights = self.mu.rho / self.grid.n
        return np.einsum("ix,jx,lx,x->ijl", self.basis1, self.basis2, self.basis1, weights,
                         optimize=True)

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


def assemble_gram(basis1: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Otto-metric Gram matrix int phi_i' phi_j' dmu for the given basis rows."""
    n = rho.size
    weighted = basis1 * (rho / n)
    gram = weighted @ basis1.T
    return 0.5 * (gram + gram.T)


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
