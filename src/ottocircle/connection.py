"""Lie bracket, Levi-Civita connection, Christoffel symbols, parallel transport.

The covariant derivative of constant-potential fields reduces, in one
dimension, to a single projection:

    nabla_{V_phi1} V_phi2 = V_theta,   theta = argmin |phi1' phi2'' dx - d(theta)|_{L^2(mu)},

equivalently <nabla_{V_phi1} V_phi2, V_phi3> = int phi1' phi2'' phi3' dmu.
The Lie bracket potential solves the same kind of problem for the
antisymmetrized field phi1' phi2'' - phi1'' phi2', and the two identities

    nabla_{V1} V2 = (1/2) V_{<grad phi1, grad phi2>} + (1/2) [V1, V2]
    nabla_{V1} V2 - nabla_{V2} V1 = [V1, V2]

hold at solver precision whenever the quadratic products stay inside the
Galerkin span (inputs band-limited to N/2).

Two independent code paths compute the bracket: the default forms the
Hessian combination and projects it; the alternative assembles the same
field from weighted Laplacians and runs it through div_mu and the Green
solve.  Their agreement is a cross-check of the operator stack, and the
Laplacian path is invariant under flipping the sign convention of the
weighted Laplacian (both occurrences flip together).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError
from .grid import ScalarField, check_same_grid, deriv, rk4
from .operators import WeightedOperatorContext, div_mu, green_mu_coeffs, laplace_mu
from .tangent import TangentVector


def lie_bracket(phi1: ScalarField, phi2: ScalarField, ctx: WeightedOperatorContext,
                route: str = "hessian", laplace_sign: float = 1.0) -> TangentVector:
    """Potential coefficients of [V_phi1, V_phi2] at ctx.mu.

    route="hessian" projects the field phi1' phi2'' - phi1'' phi2' onto exact
    forms (default: one Gram solve).  route="laplacian" builds the same field
    from weighted Laplacians and inverts the Laplacian on its weighted
    divergence; laplace_sign flips the sign convention of both Laplacian
    occurrences at once, which must not change the result.
    """
    check_same_grid(phi1, phi2)
    check_same_grid(phi1, ctx.mu.field())
    if route == "hessian":
        d1, d2 = deriv(phi1).values, deriv(phi2).values
        h1, h2 = deriv(phi1, 2).values, deriv(phi2, 2).values
        coeffs, _ = ctx.project_gradient_coeffs(d1 * h2 - h1 * d2)
        return TangentVector(coeffs, ctx.mu)
    if route == "laplacian":
        if laplace_sign not in (1.0, -1.0):
            raise DomainError(f"laplace_sign must be +1 or -1, got {laplace_sign}")
        lap1 = laplace_sign * laplace_mu(phi1, ctx).values
        lap2 = laplace_sign * laplace_mu(phi2, ctx).values
        field = ScalarField(phi1.grid, deriv(phi1).values * lap2 - deriv(phi2).values * lap1)
        rhs = div_mu(field, ctx)
        coeffs = laplace_sign * green_mu_coeffs(rhs, ctx)
        return TangentVector(coeffs, ctx.mu)
    raise DomainError(f"unknown bracket route {route!r}")


def covariant_derivative(phi1: ScalarField, phi2: ScalarField,
                         ctx: WeightedOperatorContext) -> TangentVector:
    """nabla_{V_phi1} V_phi2 for constant potentials, as a projection."""
    check_same_grid(phi1, phi2)
    check_same_grid(phi1, ctx.mu.field())
    w = deriv(phi1).values * deriv(phi2, 2).values
    coeffs, _ = ctx.project_gradient_coeffs(w)
    return TangentVector(coeffs, ctx.mu)


@dataclass(frozen=True)
class ChristoffelTensor:
    """Gamma^k_ij of the basis frame at a base density.

    gamma[k, i, j] multiplies coefficients as (nabla_{V_i} V_j)^k; indices
    follow the cos1, sin1, cos2, ... ordering.  The frame is not a coordinate
    frame, so gamma is generally not symmetric in (i, j); the antisymmetric
    part encodes the bracket structure constants.  rhs[i, j, l] holds the
    triple products int phi_i' phi_j'' phi_l' dmu that gamma solves for.
    """

    gamma: np.ndarray
    rhs: np.ndarray
    N: int

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        d = 2 * self.N
        if g.shape != (d, d, d) or np.shape(self.rhs) != (d, d, d):
            raise DomainError(f"Christoffel tensor shapes {g.shape} and {np.shape(self.rhs)} "
                              f"do not match N={self.N}")
        g = g.copy()
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    def max_ij_asymmetry(self) -> float:
        return float(np.abs(self.gamma - self.gamma.transpose(0, 2, 1)).max())


def christoffel(ctx: WeightedOperatorContext) -> ChristoffelTensor:
    """Assemble Gamma^k_ij from Gram * Gamma^._ij = int phi_i' phi_j'' phi_l' dmu."""
    c = ctx.triple_products()
    d = 2 * ctx.N
    # Solve over the last axis for every (i, j) pair.
    gamma = ctx.gram_solve(c.reshape(d * d, d).T).reshape(d, d, d)
    return ChristoffelTensor(gamma, c, ctx.N)


def christoffel_residual(tensor: ChristoffelTensor, ctx: WeightedOperatorContext) -> float:
    """Max |Gram * Gamma^._ij - c_ij.| over all (i, j): solver self-consistency."""
    recon = np.einsum("lk,kij->ijl", ctx.gram, tensor.gamma)
    # in place: a d^3 temporary per step raises the peak memory at large N
    recon -= tensor.rhs
    return float(np.abs(recon, out=recon).max())


def parallel_transport(v0: TangentVector, path, substeps: int = 4) -> list[TangentVector]:
    """Transport v0 along a stored path, returning the vector at every path time.

    Integrates d(eta)/dt = -Gram(mu_t)^{-1} b(t), b_l = int psi_t' eta''
    phi_l' dmu_t (the coefficient form of nabla_{V_psi} V_eta = 0), with RK4
    whose stage data comes from cubic-in-time interpolation of the stored
    densities and potentials.  Each stage is one projection at the
    interpolated density through the context built at the path's first
    density (operators.project_at).  A geodesic's own velocity solves the
    same equation as its Christoffel ODE, so it is self-parallel.
    """
    times = np.asarray(path.times, dtype=np.float64)
    if times.size < 2:
        raise DomainError("path must have at least two times for transport")
    if not np.array_equal(v0.base.rho, path.densities[0].rho):
        raise DomainError("v0 must be based at the path's initial density")
    ctx = WeightedOperatorContext(path.densities[0], v0.N)
    rho_spline = CubicSpline(times, np.stack([d.rho for d in path.densities]), axis=0)
    dpsi_spline = CubicSpline(times, np.stack([deriv(p).values for p in path.potentials]), axis=0)

    def rhs(t, eta):
        return -ctx.project_at(rho_spline(t), dpsi_spline(t) * ctx.potential_values(eta, 2))

    eta = v0.coeffs.copy()
    out = [TangentVector(eta, path.densities[0])]
    for idx in range(times.size - 1):
        eta = rk4(rhs, times[idx], times[idx + 1], eta, substeps)
        out.append(TangentVector(eta, path.densities[idx + 1]))
    return out
