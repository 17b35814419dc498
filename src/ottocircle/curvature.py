"""Curvature of the Wasserstein metric on circle densities.

The whole curvature apparatus runs through one object: the non-exact residual
T of projecting the one-form phi' psi'' dx onto gradients.  t_tensor returns
T as the ScalarField of its dx-coefficient, so |T|^2 is weighted_inner(T, T).
On a flat base circle the quadrilinear curvature form is the pairing
combination

    riemann(1,2,3,4) = -2<T_12, T_34> + <T_23, T_14> - <T_13, T_24>

in L^2(mu), with sectional curvature normalized so an orthonormal pair gives
sectional = -riemann(1,2,1,2) = 3 |T_12|^2, which is nonnegative.  The base
circle is flat, so no integral term of the base manifold's curvature enters.
Every potential is a ScalarField of node values.

`riemann_fd_oracle` is an independent check: it evaluates the same quantity
from the frame definition R = grad-of-Christoffel + quadratic terms, with the
directional derivatives of the Christoffel symbols taken by central finite
differences of step FD_STEP through perturbed densities.  It shares no code
path with the T-tensor route.
"""

from __future__ import annotations

import numpy as np

from .density import make_density, weighted_inner
from .errors import ConfigError, DomainError
from .grid import ScalarField, deriv
from .operators import WeightedOperatorContext, project_exact
from .connection import christoffel, lie_bracket

# central-difference step of riemann_fd_oracle; its error is O(h^2) and a
# smaller step loses digits to cancellation in the Christoffel differences
FD_STEP = 1e-3


def t_tensor(phi: ScalarField, psi: ScalarField, ctx: WeightedOperatorContext) -> ScalarField:
    """T(phi, psi): the projection residual of the one-form phi' psi'' dx at
    ctx.mu, as its dx-coefficient."""
    omega = ScalarField(phi.grid, deriv(phi).values * deriv(psi, 2).values)
    return project_exact(omega, ctx)[1]


def riemann(phi1: ScalarField, phi2: ScalarField, phi3: ScalarField, phi4: ScalarField,
            ctx: WeightedOperatorContext) -> float:
    """Quadrilinear curvature form <R(V1,V2)V3, V4> at ctx.mu, from the
    T-tensor pairings."""
    mu = ctx.mu
    t12, t34 = t_tensor(phi1, phi2, ctx), t_tensor(phi3, phi4, ctx)
    t23, t14 = t_tensor(phi2, phi3, ctx), t_tensor(phi1, phi4, ctx)
    t13, t24 = t_tensor(phi1, phi3, ctx), t_tensor(phi2, phi4, ctx)
    return (-2.0 * weighted_inner(t12, t34, mu) + weighted_inner(t23, t14, mu)
            - weighted_inner(t13, t24, mu))


def sectional(phi1: ScalarField, phi2: ScalarField, ctx: WeightedOperatorContext) -> float:
    """Sectional curvature of the plane spanned by two tangent potentials.

    Normalized by the pair's Gram determinant, so it is invariant under
    rescaling and shear of the spanning pair.
    """
    d1, d2 = deriv(phi1), deriv(phi2)
    g11 = weighted_inner(d1, d1, ctx.mu)
    g22 = weighted_inner(d2, d2, ctx.mu)
    g12 = weighted_inner(d1, d2, ctx.mu)
    det = g11 * g22 - g12 * g12
    if det <= 1e-12 * max(g11 * g22, 1e-300):
        raise DomainError("sectional curvature needs a nondegenerate plane")
    t = t_tensor(phi1, phi2, ctx)
    return 3.0 * weighted_inner(t, t, ctx.mu) / det


def riemann_fd_oracle(i: int, j: int, k: int, l: int, ctx: WeightedOperatorContext) -> float:
    """<R(V_i,V_j)V_k, V_l> for basis frame fields, from Christoffel symbols.

    Directional derivatives of the Christoffel symbols are central differences
    through densities perturbed along the frame directions (density velocity
    of V_a is -(rho phi_a')').  Independent of the T-tensor route.
    """
    d = 2 * ctx.N
    for idx in (i, j, k, l):
        if not 0 <= idx < d:
            raise ConfigError(f"basis index {idx} outside 0..{d - 1}")
    mu = ctx.mu
    grid = ctx.grid
    gamma0 = christoffel(ctx)

    def gamma_shifted(direction: int, sign: float):
        drho = -deriv(ScalarField(grid, mu.rho * ctx.basis1[direction]), 1).values
        mu_h = make_density(ScalarField(grid, mu.rho + sign * FD_STEP * drho))
        return christoffel(WeightedOperatorContext(mu_h, ctx.N))

    def dgamma(direction: int):
        return (gamma_shifted(direction, +1.0) - gamma_shifted(direction, -1.0)) / (2.0 * FD_STEP)

    di = dgamma(i)
    dj = dgamma(j)
    structure = lie_bracket(
        ScalarField(grid, ctx.basis0[i]), ScalarField(grid, ctx.basis0[j]), ctx
    ).coeffs
    curv_m = (
        di[:, j, k]
        - dj[:, i, k]
        + gamma0[:, i, :] @ gamma0[:, j, k]
        - gamma0[:, j, :] @ gamma0[:, i, k]
        - gamma0[:, :, k] @ structure
    )
    return float(curv_m @ ctx.gram[:, l])
