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

christoffel returns gamma itself, a read-only C-ordered array filled with
one (d, d) Gram solve per first lower index from the triple-product slices
that the context streams.  christoffel_residual streams those slices again,
so it checks gamma against a fresh computation of its right-hand side.
gamma is the only d^3 array either of them holds.

parallel_transport interpolates the stored densities and potential slopes
in time with a not-a-knot cubic spline, built in numpy beside it
(_time_spline); it loads no interpolation library.  Each RK4 stage checks
its interpolated density and solves one projection there; nothing is kept
from one stage to the next.
"""

from __future__ import annotations

import numpy as np

from .density import stepped_density
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


def christoffel(ctx: WeightedOperatorContext) -> np.ndarray:
    """Gamma^k_ij of the basis frame at ctx.mu, as a read-only C-ordered array.

    gamma[k, i, j] multiplies coefficients as (nabla_{V_i} V_j)^k; indices
    follow the cos1, sin1, cos2, ... ordering.  The frame is not a coordinate
    frame, so gamma is generally not symmetric in (i, j); the antisymmetric
    part encodes the bracket structure constants.  Gram * Gamma^._ij =
    int phi_i' phi_j'' phi_l' dmu is solved one first lower index i at a
    time: the triple-product slice c[i].T has rows l and columns j."""
    d = 2 * ctx.N
    gamma = np.empty((d, d, d))
    for i, c_i in enumerate(ctx.triple_products()):
        gamma[:, i, :] = ctx.gram_solve(c_i.T)
    gamma.flags.writeable = False
    return gamma


def christoffel_residual(gamma: np.ndarray, ctx: WeightedOperatorContext) -> float:
    """Max |Gram * Gamma^._ij - c_ij.| over all (i, j): solver self-consistency
    against triple products computed afresh.  A NaN anywhere in gamma or the
    triple products makes the result NaN."""
    # one (d, d) slice at a time; np.max, unlike max(), propagates a NaN
    slices = [np.abs(ctx.gram @ gamma[:, i, :] - c_i.T).max()
              for i, c_i in enumerate(ctx.triple_products())]
    return float(np.max(slices))


def _time_spline(x: np.ndarray, y: np.ndarray):
    """The not-a-knot cubic spline through the rows y[i] of a 2-d array at
    the increasing times x[i]; returns the evaluator t -> y(t).

    The knot slopes solve one m x m system, m >= 3.  At 3 knots both
    not-a-knot conditions are the same one, so it is the parabola through
    them.  y(t) is Horner's rule in t - x[i] on the knot
    interval [x[i], x[i+1]) holding t, the last interval closed, and the end
    intervals extended beyond the knots."""
    m = x.size
    dx = np.diff(x)
    h = dx[:, None]
    slope = np.diff(y, axis=0) / h
    system, b = np.zeros((m, m)), np.empty(y.shape)
    if m == 3:
        system[0] = 1.0, 1.0, 0.0
        system[1] = dx[1], 2.0 * (dx[0] + dx[1]), dx[0]
        system[2] = 0.0, 1.0, 1.0
        b[0] = 2.0 * slope[0]
        b[1] = 3.0 * (h[0] * slope[1] + h[1] * slope[0])
        b[2] = 2.0 * slope[1]
    else:
        inner = np.arange(1, m - 1)
        system[inner, inner - 1] = dx[1:]
        system[inner, inner] = 2.0 * (dx[:-1] + dx[1:])
        system[inner, inner + 1] = dx[:-1]
        b[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
        first, last = x[2] - x[0], x[-1] - x[-3]
        system[0, :2] = dx[1], first
        system[-1, -2:] = last, dx[-2]
        b[0] = ((h[0] + 2.0 * first) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / first
        b[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * last + h[-1]) * h[-2] * slope[-1]) / last
    s = np.linalg.solve(system, b)
    cubic = (s[:-1] + s[1:] - 2.0 * slope) / h
    # cubic, quadratic, linear and constant coefficients on each interval
    coeffs = (cubic / h, (slope - s[:-1]) / h - cubic, s[:-1], y[:-1])

    def evaluate(t: float) -> np.ndarray:
        i = min(max(int(np.searchsorted(x, t, side="right")) - 1, 0), m - 2)
        u = t - x[i]
        return ((coeffs[0][i] * u + coeffs[1][i]) * u + coeffs[2][i]) * u + coeffs[3][i]

    return evaluate


def parallel_transport(v0: TangentVector, path) -> list[TangentVector]:
    """Transport v0 along a stored path, returning the vector at every path time.

    Integrates d(eta)/dt = -Gram(mu_t)^{-1} b(t), b_l = int psi_t' eta''
    phi_l' dmu_t (the coefficient form of nabla_{V_psi} V_eta = 0), with RK4
    whose stage data comes from not-a-knot cubic interpolation in time of the
    stored densities and potential slopes (_time_spline), in grid.rk4_substeps
    steps per interval at N modes (eta's span) and the path's max|psi'|.  Each
    stage checks the interpolated density (density.stepped_density, which
    raises NumericalError naming the stage time) and solves one projection
    there through the context built at the path's first density
    (operators.project_at).  A geodesic's own velocity solves the same
    equation as its Christoffel ODE, so it is self-parallel.
    """
    times = np.asarray(path.times, dtype=np.float64)
    if times.size < 3:  # through two knots the time spline is the chord
        raise DomainError("path must have at least three times for transport")
    if not np.array_equal(v0.base.rho, path.densities[0].rho):
        raise DomainError("v0 must be based at the path's initial density")
    ctx = WeightedOperatorContext(path.densities[0], v0.N)
    rho_spline = _time_spline(times, np.stack([d.rho for d in path.densities]))
    dpsi_path = np.stack([deriv(p).values for p in path.potentials])
    dpsi_spline = _time_spline(times, dpsi_path)
    speed = float(np.abs(dpsi_path).max())

    def rhs(t, eta):
        mu_t = stepped_density(ctx.grid, rho_spline(t), t, "transport")
        return -ctx.project_at(mu_t, dpsi_spline(t) * ctx.potential_values(eta, 2))

    eta = v0.coeffs.copy()
    out = [TangentVector(eta, path.densities[0])]
    for idx in range(times.size - 1):
        steps = rk4_substeps(times[idx + 1] - times[idx], v0.N, speed)
        eta = rk4(rhs, times[idx], times[idx + 1], eta, steps)
        out.append(TangentVector(eta, path.densities[idx + 1]))
    return out
