"""Wasserstein geodesics on the circle by three independent routes.

A geodesic from mu0 with initial potential psi0 solves the coupled system

    d(psi)/dt + |psi'|^2 / 2 = 0        (Hamilton-Jacobi)
    d(rho)/dt + (rho * psi')' = 0       (continuity)

as long as the characteristics x0 + t*psi0'(x0) do not cross (equivalently
1 + t*psi0'' > 0).  The three routes:

  * geodesic_hj: the Eulerian system itself, (psi, rho) on the nodes
    advanced together by RK4, with psi' from the spectral derivative; it
    never solves for characteristics.
  * geodesic_christoffel: basis-coefficient ODE d(Psi_k)/dt = -Gram^{-1}_k
    [int psi' psi'' phi_l' dmu_t], the Galerkin contraction of the
    Christoffel symbols at the moving density, with rho co-evolved by the
    same continuity stepper.  Each RK4 stage checks rho_t as a density
    (density.stepped_density) and solves one projection there through the
    operator context built at mu0 (operators.project_at).
  * displacement_path: pushforward of mu0 by the displacement t * psi0'
    through the exact Jacobian formula at the feet of the nodes
    (density.pushforward_spectra, whose feet come from
    grid.monotone_inverse), with the exact characteristic potentials at
    those feet (momentum is constant along straight characteristics).  The
    displacement's spectrum is t times psi0's derivative row
    (grid.derivative_series), and mu0's spectrum is taken once per path.

Both RK4 routes take grid.rk4_substeps steps per interval, at n/2 wavenumbers
and speed max|psi'|, and check every stored density with
density.stepped_density, which names the route and the time of a breakdown.
All stored potentials are de-meaned against their own mu_t.  The continuity
residual is defined at the interior path times only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import Density, pushforward_spectra, stepped_density
from .errors import CausticError, ConfigError
from .grid import (GridSpec, ScalarField, TrigSeries, check_same_grid, deriv, derivative_series,
                   eval_trig, rk4, rk4_substeps, time_grid, trig_series)
from .operators import WeightedOperatorContext
from .tangent import TangentVector, flow_map


@dataclass(frozen=True)
class GeodesicPath:
    """Densities and velocity potentials stored on a shared time grid."""

    grid: GridSpec
    times: np.ndarray
    densities: list[Density]
    potentials: list[ScalarField]

    def __post_init__(self):
        times = time_grid(self.times).copy()
        if times.size != len(self.densities) or times.size != len(self.potentials):
            raise ConfigError("times, densities, potentials must have equal length")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)


def first_caustic_time(psi0: ScalarField) -> float:
    """Earliest t > 0 with 1 + t*psi0'' = 0 (inf if characteristics never cross)."""
    return _caustic_time(trig_series(psi0))


def _caustic_time(series: TrigSeries) -> float:
    """first_caustic_time from psi0's spectrum; psi0'' is scanned on a 4x finer grid."""
    curv_min = float(eval_trig(series, GridSpec(4 * series.n).nodes, (2,)).min())
    return float("inf") if curv_min >= 0.0 else -1.0 / curv_min


def _characteristic_setup(mu0: Density, psi0: ScalarField, times) -> tuple[np.ndarray, TrigSeries]:
    """The checked time grid and psi0's spectrum; CausticError if characteristics cross by t_max."""
    check_same_grid(psi0, mu0)
    times = time_grid(times)
    series = trig_series(psi0)
    t_star, t_max = _caustic_time(series), float(times[-1])
    if t_star <= t_max:
        raise CausticError(f"characteristics cross at t = {t_star:.6f} <= requested {t_max:.6f}",
                           first_crossing=t_star)
    return times, series


def _characteristic_potential(series: TrigSeries, t: float, feet: np.ndarray) -> np.ndarray:
    """psi_t = psi0 + t/2 psi0'^2 at the feet: psi0' is constant along characteristics."""
    p0, dp0 = eval_trig(series, feet, (0, 1))
    return p0 + 0.5 * t * dp0**2


def _demeaned(values: np.ndarray, rho: np.ndarray, grid: GridSpec) -> ScalarField:
    return ScalarField(grid, values - np.mean(values * rho))


def _continuity_rhs(rho: np.ndarray, dpsi: np.ndarray, grid: GridSpec) -> np.ndarray:
    return -deriv(ScalarField(grid, rho * dpsi), 1).values


def geodesic_hj(mu0: Density, psi0: ScalarField, times) -> GeodesicPath:
    """Eulerian Hamilton-Jacobi and continuity equations by RK4 on the nodes."""
    times, _ = _characteristic_setup(mu0, psi0, times)
    grid = mu0.grid
    n = grid.n
    # momentum is conserved along characteristics: max|psi0'| is every interval's speed
    speed = float(np.abs(deriv(psi0).values).max())

    def rhs(_t, state):  # autonomous: the stage time is unused
        rho = state[n:]
        dpsi = deriv(ScalarField(grid, state[:n])).values
        return np.concatenate([-0.5 * dpsi**2, _continuity_rhs(rho, dpsi, grid)])

    state = np.concatenate([psi0.values, mu0.rho])
    densities = [mu0]
    potentials = [_demeaned(psi0.values, mu0.rho, grid)]
    for idx in range(times.size - 1):
        t_out = times[idx + 1]
        steps = rk4_substeps(t_out - times[idx], n // 2, speed)
        state = rk4(rhs, times[idx], t_out, state, steps)
        mu_t = stepped_density(grid, state[n:], t_out, "hj")
        densities.append(mu_t)
        potentials.append(_demeaned(state[:n], mu_t.rho, grid))
    return GeodesicPath(grid, times, densities, potentials)


def geodesic_christoffel(mu0: Density, psi0_coeffs, times, N: int | None = None) -> GeodesicPath:
    """Basis-coefficient geodesic ODE with the density co-evolved spectrally.

    psi0_coeffs may be a coefficient array or a TangentVector at mu0.  The
    per-stage right-hand side Gram^{-1} [int psi' psi'' phi_l' dmu] is the
    contraction Gamma^k_ij Psi_i Psi_j with the Christoffel symbols of the
    current density, evaluated without materializing the full tensor: one
    projection of psi' psi'' dx at rho_t through the context built at mu0.
    Each interval's step count takes max|psi'| at its start as the speed.
    """
    if isinstance(psi0_coeffs, TangentVector):
        psi0_coeffs = psi0_coeffs.coeffs
    coeffs = np.asarray(psi0_coeffs, dtype=np.float64)
    if N is None:
        N = coeffs.size // 2
    if coeffs.size != 2 * N:
        raise ConfigError(f"expected {2 * N} coefficients, got {coeffs.size}")
    times = time_grid(times)
    grid = mu0.grid
    ctx = WeightedOperatorContext(mu0, N)

    def rhs(t, state):  # autonomous: the stage time only names a breakdown
        psi_c = state[: 2 * N]
        mu_t = stepped_density(grid, state[2 * N :], t, "christoffel")
        dpsi = ctx.potential_values(psi_c, 1)
        dcoeffs = -ctx.project_at(mu_t, dpsi * ctx.potential_values(psi_c, 2))
        return np.concatenate([dcoeffs, _continuity_rhs(mu_t.rho, dpsi, grid)])

    state = np.concatenate([coeffs, mu0.rho])
    densities = [mu0]
    potentials = [_demeaned(ctx.potential_values(coeffs), mu0.rho, grid)]
    for idx in range(times.size - 1):
        speed = float(np.abs(ctx.potential_values(state[: 2 * N], 1)).max())
        steps = rk4_substeps(times[idx + 1] - times[idx], grid.n // 2, speed)
        state = rk4(rhs, times[idx], times[idx + 1], state, steps)
        mu_t = stepped_density(grid, state[2 * N :], times[idx + 1], "christoffel")
        densities.append(mu_t)
        potentials.append(_demeaned(ctx.potential_values(state[: 2 * N]), mu_t.rho, grid))
    return GeodesicPath(grid, times, densities, potentials)


def displacement_path(mu0: Density, psi0: ScalarField, times) -> GeodesicPath:
    """Displacement interpolation sampled on a time grid: mu_t is the pushforward
    of mu0 by x -> x + t*psi0'(x) (exact Jacobian at the feet of the nodes), with
    the characteristic potentials at those same feet attached so the path
    supports action and transport."""
    times, series = _characteristic_setup(mu0, psi0, times)
    grid = mu0.grid
    rho0 = trig_series(mu0.field())
    densities = [mu0]
    potentials = [_demeaned(psi0.values, mu0.rho, grid)]
    for t in map(float, times[1:]):
        mu_t, feet = pushforward_spectra(grid, rho0, derivative_series(series, t))
        psi_t = _characteristic_potential(series, t, feet)
        densities.append(mu_t)
        potentials.append(_demeaned(psi_t, mu_t.rho, grid))
    return GeodesicPath(grid, times, densities, potentials)


def flow_path(mu0: Density, psi: ScalarField, times) -> GeodesicPath:
    """mu0 pushed along the fixed field grad(psi) by one flow_map pass.  The
    velocity potential is psi at every time, but the speed is generally not
    constant in t: the curve is not a geodesic."""
    check_same_grid(psi, mu0)
    grid = mu0.grid
    rho0 = trig_series(mu0.field())
    shifts = [trig_series(ScalarField(grid, x - grid.nodes)) for x in flow_map(psi, times)[1:]]
    densities = [mu0] + [pushforward_spectra(grid, rho0, shift)[0] for shift in shifts]
    potentials = [_demeaned(psi.values, mu_t.rho, grid) for mu_t in densities]
    return GeodesicPath(grid, times, densities, potentials)


def action(path: GeodesicPath) -> float:
    """Time-quadrature (trapezoid) of int |psi_t'|^2 dmu_t along the path."""
    speeds = speed_squared_series(path)
    return float(np.trapezoid(speeds, path.times))


def speed_squared_series(path: GeodesicPath) -> np.ndarray:
    """int |psi_t'|^2 dmu_t at each stored time (the action integrand)."""
    out = np.empty(path.times.size)
    for idx in range(path.times.size):
        dpsi = deriv(path.potentials[idx]).values
        out[idx] = np.mean(dpsi * dpsi * path.densities[idx].rho)
    return out


def continuity_residual(path: GeodesicPath) -> np.ndarray:
    """L^2(vol) residual of d(rho)/dt + (rho psi')' at the T - 4 interior times.

    The time derivative uses the 5-point fourth-order central stencil, whose
    own O(h^4) truncation error is part of the result and dominates it on a
    coarse time grid; more times shrink it.  Needs at least 5 uniform times.
    """
    t = path.times
    if t.size < 5:
        raise ConfigError("continuity residual needs at least 5 path times")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-12, atol=1e-14):
        raise ConfigError("continuity residual needs a uniform time grid")
    h = float(dt[0])
    rho = np.stack([d.rho for d in path.densities])
    drho_dt = (rho[:-4] - 8 * rho[1:-3] + 8 * rho[3:-1] - rho[4:]) / (12 * h)
    flux = [_continuity_rhs(rho[idx], deriv(path.potentials[idx]).values, path.grid)
            for idx in range(2, t.size - 2)]
    return np.sqrt(np.mean((drho_dt - flux) ** 2, axis=1))


def constant_speed_report(path: GeodesicPath, w2) -> dict:
    """Ratios W2(mu_s, mu_t) / |t - s| over all pairs of the path's times.

    w2 is the distance oracle (mu, nu) -> W2.  The pair count grows
    quadratically with the number of times.  Deviation is reported relative
    to the endpoint speed, whose distance is the (first, last) pair's.
    """
    m = path.times.size
    distances = {(i, j): w2(path.densities[i], path.densities[j])
                 for i in range(m) for j in range(i + 1, m)}
    ratios = np.array([d / (path.times[j] - path.times[i]) for (i, j), d in distances.items()])
    w2_end = distances[0, m - 1]
    reference = w2_end / (path.times[-1] - path.times[0])
    return {
        "w2_endpoints": float(w2_end),
        "max_relative_deviation": float(np.abs(ratios / reference - 1.0).max()),
        "pair_count": len(distances),
    }
