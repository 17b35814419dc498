"""Tangent vectors at a density, the Otto metric, and the flow of a gradient field.

A tangent vector at mu is V_psi = -div(mu * grad(psi)) identified with its
potential psi, here truncated to coefficients in the 2N-mode trig basis.  The
Otto inner product is <V_phi, V_psi>_mu = int phi' psi' dmu, whose basis Gram
matrix at the uniform density is diag(1, 1, 4, 4, ..., N^2, N^2).  The Gram
matrix is the one of the operator context at the base density (ctx.gram).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import Density
from .errors import DomainError, StiffnessError
from .grid import ScalarField, deriv, eval_trig, rk4, time_grid, trig_series
from .operators import WeightedOperatorContext


def metric_gram(mu: Density, N: int) -> WeightedOperatorContext:
    """The operator context at mu, whose .gram is the Otto-metric Gram matrix."""
    return WeightedOperatorContext(mu, N)


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


def _check_same_base(v1: TangentVector, v2: TangentVector) -> None:
    if v1.base.grid.n != v2.base.grid.n or not np.array_equal(v1.base.rho, v2.base.rho):
        raise DomainError("tangent vectors live at different base densities")
    if v1.N != v2.N:
        raise DomainError(f"truncation mismatch: N={v1.N} vs N={v2.N}")


def otto_inner(v1: TangentVector, v2: TangentVector, ctx: WeightedOperatorContext) -> float:
    """<V_1, V_2>_mu through the context's cached Gram matrix."""
    _check_same_base(v1, v2)
    if ctx.N != v1.N or not np.array_equal(ctx.mu.rho, v1.base.rho):
        raise DomainError("Gram matrix does not belong to the vectors' base density")
    return float(v1.coeffs @ ctx.gram @ v2.coeffs)


def otto_norm(v: TangentVector, ctx: WeightedOperatorContext) -> float:
    return float(np.sqrt(max(0.0, otto_inner(v, v, ctx))))


def vector_from_potential(psi: ScalarField, ctx: WeightedOperatorContext) -> TangentVector:
    """Orthogonal projection (in the Otto metric) of a potential onto the span."""
    coeffs, _ = ctx.project_gradient_coeffs(deriv(psi).values)
    return TangentVector(coeffs, ctx.mu)


def flow_map(psi: ScalarField, times) -> np.ndarray:
    """Node positions under dx/dt = psi'(x) at each time of the grid (row 0 is
    the nodes), from one RK4 pass with max(8, ceil(64 dt)) steps per interval."""
    times = time_grid(times)
    series = trig_series(psi)
    rows = [psi.grid.nodes]
    for t0, t1 in zip(times[:-1], times[1:]):
        steps = max(8, int(np.ceil(64 * (t1 - t0))))
        # autonomous: the stage time is unused
        rows.append(rk4(lambda _t, y: eval_trig(series, y, (1,))[0], t0, t1, rows[-1], steps))
    if not np.all(np.isfinite(rows[-1])):
        raise StiffnessError("flow integration produced non-finite node positions")
    return np.stack(rows)
