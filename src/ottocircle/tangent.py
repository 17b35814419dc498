"""Tangent vectors at a density, the Otto metric, and constant-field flows.

A tangent vector at mu is V_psi = -div(mu * grad(psi)) identified with its
potential psi, here truncated to coefficients in the 2N-mode trig basis.  The
Otto inner product is <V_phi, V_psi>_mu = int phi' psi' dmu, whose basis Gram
matrix at the uniform density is diag(1, 1, 4, 4, ..., N^2, N^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import Density, pushforward_monotone
from .errors import DomainError, StiffnessError
from .grid import ScalarField, basis_matrix, check_same_grid, deriv, eval_trig, rk4_step
from .operators import WeightedOperatorContext, assemble_gram, check_gram


@dataclass(frozen=True)
class GramMatrix:
    """Otto-metric Gram matrix of the 2N-mode basis at a base density."""

    matrix: np.ndarray
    base: Density
    N: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (2 * self.N, 2 * self.N):
            raise DomainError(f"Gram matrix shape {m.shape} does not match N={self.N}")
        check_gram(m)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def metric_gram(mu: Density, N: int) -> GramMatrix:
    basis1 = basis_matrix(mu.grid, N, order=1)
    return GramMatrix(assemble_gram(basis1, mu.rho), mu, N)


@dataclass(frozen=True)
class TangentVector:
    """Basis coefficients of a tangent potential at a base density."""

    coeffs: np.ndarray
    base: Density

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 1 or c.size % 2 != 0 or c.size == 0:
            raise DomainError(f"coefficient vector must have even positive length, got shape {c.shape}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def N(self) -> int:
        return self.coeffs.size // 2

    def potential(self, ctx: WeightedOperatorContext) -> ScalarField:
        if ctx.N != self.N:
            raise DomainError(f"context N={ctx.N} does not match vector N={self.N}")
        return ScalarField(self.base.grid, ctx.potential_values(self.coeffs))


def as_potential(phi, ctx: WeightedOperatorContext) -> ScalarField:
    """Node values of a potential given as a ScalarField or a TangentVector."""
    if isinstance(phi, TangentVector):
        return phi.potential(ctx)
    if isinstance(phi, ScalarField):
        return phi
    raise DomainError(f"expected ScalarField or TangentVector, got {type(phi).__name__}")


def _check_same_base(v1: TangentVector, v2: TangentVector) -> None:
    if v1.base.grid.n != v2.base.grid.n or not np.array_equal(v1.base.rho, v2.base.rho):
        raise DomainError("tangent vectors live at different base densities")
    if v1.N != v2.N:
        raise DomainError(f"truncation mismatch: N={v1.N} vs N={v2.N}")


def otto_inner(v1: TangentVector, v2: TangentVector, gram: GramMatrix) -> float:
    """<V_1, V_2>_mu through the cached Gram matrix."""
    _check_same_base(v1, v2)
    if gram.N != v1.N or not np.array_equal(gram.base.rho, v1.base.rho):
        raise DomainError("Gram matrix does not belong to the vectors' base density")
    return float(v1.coeffs @ gram.matrix @ v2.coeffs)


def otto_norm(v: TangentVector, gram: GramMatrix) -> float:
    return float(np.sqrt(max(0.0, otto_inner(v, v, gram))))


def vector_from_potential(psi: ScalarField, ctx: WeightedOperatorContext) -> TangentVector:
    """Orthogonal projection (in the Otto metric) of a potential onto the span."""
    coeffs, _ = ctx.project_gradient_coeffs(deriv(psi).values)
    return TangentVector(coeffs, ctx.mu)


def flow_map(psi: ScalarField, t: float, steps: int | None = None) -> np.ndarray:
    """Node trajectories of dx/dt = psi'(x) integrated with RK4 to time t."""
    if steps is None:
        steps = max(8, int(np.ceil(64 * abs(t))))
    x = psi.grid.nodes.copy()
    if t == 0.0 or np.allclose(deriv(psi).values, 0.0):
        return x
    h = t / steps
    for _ in range(steps):
        # autonomous: the stage time is unused
        x = rk4_step(lambda _t, y: eval_trig(psi, y, order=1), 0.0, x, h)
    if not np.all(np.isfinite(x)):
        raise StiffnessError("flow integration produced non-finite node positions")
    return x


def flow_constant_field(psi: ScalarField, mu: Density, t: float) -> Density:
    """Push mu along the flow of the fixed vector field grad(psi) for time t.

    The resulting curve of measures has velocity V_psi at every time, but it
    is not a geodesic: its speed is generally not constant in t.
    """
    check_same_grid(psi, mu.field())
    x_final = flow_map(psi, t)
    displacement = ScalarField(psi.grid, x_final - psi.grid.nodes)
    return pushforward_monotone(mu, displacement)
