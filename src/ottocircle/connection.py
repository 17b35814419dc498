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

Two independent code paths compute the bracket: lie_bracket forms the
Hessian combination and projects it; lie_bracket_laplacian assembles the
same field from weighted Laplacians and runs it through div_mu and the Green
solve.  Their agreement is a cross-check of the operator stack, and the
Laplacian path is invariant under flipping the sign convention of the
weighted Laplacian (both occurrences flip together).

christoffel returns the plain pair (gamma, rhs): rhs holds the triple
products, and gamma is a read-only C-ordered array filled with one (d, d)
Gram solve per first lower index.  Apart from these two d^3 arrays, the
assembly and its residual allocate only (d, d) slices.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .grid import ScalarField, check_same_grid, deriv, rk4, rk4_substeps
from .operators import WeightedOperatorContext, div_mu, green_mu_coeffs, laplace_mu
from .tangent import TangentVector


def lie_bracket(phi1: ScalarField, phi2: ScalarField,
                ctx: WeightedOperatorContext) -> TangentVector:
    """Potential coefficients of [V_phi1, V_phi2] at ctx.mu: the field
    phi1' phi2'' - phi1'' phi2' projected onto exact forms (one Gram solve)."""
    check_same_grid(phi1, phi2, ctx.mu)
    d1, d2 = deriv(phi1).values, deriv(phi2).values
    h1, h2 = deriv(phi1, 2).values, deriv(phi2, 2).values
    coeffs, _ = ctx.project_gradient_coeffs(d1 * h2 - h1 * d2)
    return TangentVector(coeffs, ctx.mu)


def lie_bracket_laplacian(phi1: ScalarField, phi2: ScalarField, ctx: WeightedOperatorContext,
                          laplace_sign: float = 1.0) -> TangentVector:
    """lie_bracket by the independent route: the same field built from
    weighted Laplacians, with the Laplacian inverted on its weighted
    divergence.  laplace_sign flips the sign convention of both Laplacian
    occurrences at once, which must not change the result.
    """
    if laplace_sign not in (1.0, -1.0):
        raise DomainError(f"laplace_sign must be +1 or -1, got {laplace_sign}")
    check_same_grid(phi1, phi2, ctx.mu)
    lap1 = laplace_sign * laplace_mu(phi1, ctx).values
    lap2 = laplace_sign * laplace_mu(phi2, ctx).values
    field = ScalarField(phi1.grid, deriv(phi1).values * lap2 - deriv(phi2).values * lap1)
    coeffs = laplace_sign * green_mu_coeffs(div_mu(field, ctx), ctx)
    return TangentVector(coeffs, ctx.mu)


def covariant_derivative(phi1: ScalarField, phi2: ScalarField,
                         ctx: WeightedOperatorContext) -> TangentVector:
    """nabla_{V_phi1} V_phi2 for constant potentials, as a projection."""
    check_same_grid(phi1, phi2, ctx.mu)
    w = deriv(phi1).values * deriv(phi2, 2).values
    coeffs, _ = ctx.project_gradient_coeffs(w)
    return TangentVector(coeffs, ctx.mu)


class ChristoffelTensor(NamedTuple):
    """Gamma^k_ij of the basis frame at a base density, as christoffel solves it.

    gamma[k, i, j] multiplies coefficients as (nabla_{V_i} V_j)^k; indices
    follow the cos1, sin1, cos2, ... ordering.  The frame is not a coordinate
    frame, so gamma is generally not symmetric in (i, j); the antisymmetric
    part encodes the bracket structure constants.  rhs[i, j, l] holds the
    triple products int phi_i' phi_j'' phi_l' dmu that gamma solves for.
    """

    gamma: np.ndarray
    rhs: np.ndarray


def christoffel(ctx: WeightedOperatorContext) -> ChristoffelTensor:
    """Assemble Gamma^k_ij from Gram * Gamma^._ij = int phi_i' phi_j'' phi_l' dmu,
    one first lower index i at a time: c[i].T has rows l and columns j."""
    c = ctx.triple_products()
    d = 2 * ctx.N
    gamma = np.empty((d, d, d))
    for i in range(d):
        gamma[:, i, :] = ctx.gram_solve(c[i].T)
    gamma.flags.writeable = False
    return ChristoffelTensor(gamma, c)


def christoffel_residual(tensor: ChristoffelTensor, ctx: WeightedOperatorContext) -> float:
    """Max |Gram * Gamma^._ij - c_ij.| over all (i, j): solver self-consistency.
    A NaN anywhere in gamma or rhs makes the result NaN."""
    # one (d, d) slice at a time; np.max, unlike max(), propagates a NaN
    slices = [np.abs(ctx.gram @ tensor.gamma[:, i, :] - tensor.rhs[i].T).max()
              for i in range(len(ctx.gram))]
    return float(np.max(slices))


def parallel_transport(v0: TangentVector, path) -> list[TangentVector]:
    """Transport v0 along a stored path, returning the vector at every path time.

    Integrates d(eta)/dt = -Gram(mu_t)^{-1} b(t), b_l = int psi_t' eta''
    phi_l' dmu_t (the coefficient form of nabla_{V_psi} V_eta = 0), with RK4
    whose stage data comes from cubic-in-time interpolation of the stored
    densities and potentials, in grid.rk4_substeps steps per interval at N
    modes (eta's span) and the path's max|psi'|.  Each stage is one
    projection at the interpolated density through the context built at the
    path's first density (operators.project_at).  rk4 repeats stage times
    bitwise (k3 reuses k2's, the next k1 reuses k4's), so the interpolated
    data and the Gram factor of the latest stage time are kept for reuse:
    along 17 uniform times with 4 steps per interval, 129 of the 256 stages
    factor.  A geodesic's own velocity solves the same equation as its
    Christoffel ODE, so it is self-parallel.
    """
    from scipy.interpolate import CubicSpline  # loaded on first use: a slow import
    times = np.asarray(path.times, dtype=np.float64)
    if times.size < 2:
        raise DomainError("path must have at least two times for transport")
    if not np.array_equal(v0.base.rho, path.densities[0].rho):
        raise DomainError("v0 must be based at the path's initial density")
    ctx = WeightedOperatorContext(path.densities[0], v0.N)
    rho_spline = CubicSpline(times, np.stack([d.rho for d in path.densities]), axis=0)
    dpsi_path = np.stack([deriv(p).values for p in path.potentials])
    dpsi_spline = CubicSpline(times, dpsi_path, axis=0)
    speed = float(np.abs(dpsi_path).max())

    # the latest stage time and its (rho_t, dpsi_t, factor)
    t_last, memo = None, None

    def stage(t: float) -> tuple:
        nonlocal t_last, memo
        if t != t_last:
            rho = rho_spline(t)
            t_last, memo = t, (rho, dpsi_spline(t), ctx.stage_factor(rho))
        return memo

    def rhs(t, eta):
        rho, dpsi, factor = stage(t)
        return -ctx.project_at(factor, rho, dpsi * ctx.potential_values(eta, 2))

    eta = v0.coeffs.copy()
    out = [TangentVector(eta, path.densities[0])]
    for idx in range(times.size - 1):
        steps = rk4_substeps(times[idx + 1] - times[idx], v0.N, speed)
        eta = rk4(rhs, times[idx], times[idx + 1], eta, steps)
        out.append(TangentVector(eta, path.densities[idx + 1]))
    return out
