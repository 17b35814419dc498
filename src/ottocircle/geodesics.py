"""Wasserstein geodesics on the circle by three independent routes.

A geodesic from mu0 with initial potential psi0 solves the coupled system

    d(psi)/dt + |psi'|^2 / 2 = 0        (Hamilton-Jacobi)
    d(rho)/dt + (rho * psi')' = 0       (continuity)

as long as the characteristics x0 + t*psi0'(x0) do not cross (equivalently
1 + t*psi0'' > 0).  The three routes:

  * geodesic_hj: psi from the exact characteristic solution (momentum is
    constant along straight characteristics; node values recovered by Newton
    inversion of the characteristic map), rho by RK4 on the continuity
    equation with spectral space derivatives.
  * geodesic_christoffel: basis-coefficient ODE d(Psi_k)/dt = -Gram^{-1}_k
    [int psi' psi'' phi_l' dmu_t], the Galerkin contraction of the
    Christoffel symbols at the moving density, with rho co-evolved by the
    same continuity stepper.  Each RK4 stage is one projection at rho_t
    through the operator context built at mu0 (operators.project_at).
  * displacement_path: pushforward of mu0 by the displacement t * psi0'
    through the exact Jacobian formula, with the characteristic potentials.

All stored potentials are de-meaned against their own mu_t.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .density import Density, make_density, pushforward_monotone
from .errors import CausticError, ConfigError, DomainError, NumericalError
from .grid import (GridSpec, ScalarField, TrigSeries, check_same_grid, deriv, eval_trig, rk4,
                   time_grid, trig_series)
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


def _check_caustic_free(series: TrigSeries, t_max: float) -> None:
    t_star = _caustic_time(series)
    if t_star <= t_max:
        raise CausticError(
            f"characteristics cross at t = {t_star:.6f} <= requested {t_max:.6f}",
            first_crossing=t_star,
        )


def _demeaned(values: np.ndarray, rho: np.ndarray, grid: GridSpec) -> ScalarField:
    return ScalarField(grid, values - np.mean(values * rho))


def _continuity_rhs(rho: np.ndarray, dpsi: np.ndarray, grid: GridSpec) -> np.ndarray:
    return -deriv(ScalarField(grid, rho * dpsi), 1).values


def _stepped_density(rho: np.ndarray, grid: GridSpec, t: float, route: str) -> Density:
    """Normalize an RK4-advanced density.  A nonpositive or non-finite result
    is a breakdown of the integration, not a bad input, so it raises
    NumericalError naming t."""
    try:
        return make_density(ScalarField(grid, rho))
    except DomainError as exc:
        raise NumericalError(f"{route} route: the RK4 density at t = {t:.6g} "
                             f"is not a density ({exc})") from exc


def _characteristic_feet(series: TrigSeries, t: float, targets: np.ndarray) -> np.ndarray:
    """Solve x0 + t*psi0'(x0) = target for each target by vectorized Newton.

    Raises NumericalError, naming t and the worst residual, when the Newton
    steps have not dropped below 1e-14 after 60 iterations.
    """
    x = targets.copy()
    for _ in range(60):
        d1, d2 = eval_trig(series, x, (1, 2))
        step = (x + t * d1 - targets) / (1.0 + t * d2)
        x = x - step
        if np.abs(step).max() < 1e-14:
            return x
    residual = np.abs(x + t * eval_trig(series, x, (1,))[0] - targets).max()
    raise NumericalError(
        f"characteristic Newton solve at t = {t:.6g} did not converge in 60 "
        f"iterations (worst residual {residual:.3e})"
    )


def geodesic_hj(mu0: Density, psi0: ScalarField, times, steps_per_interval: int = 4) -> GeodesicPath:
    """Characteristic Hamilton-Jacobi potential with RK4 continuity density."""
    check_same_grid(psi0, mu0.field())
    times = time_grid(times)
    series = trig_series(psi0)
    _check_caustic_free(series, float(times[-1]))
    grid = mu0.grid
    nodes = grid.nodes

    # psi_t' at the nodes, evaluated once per stage time (k2 and k3 share it)
    feet_cache: dict[float, np.ndarray] = {}
    dpsi_cache: dict[float, np.ndarray] = {}

    def feet_at(t: float) -> np.ndarray:
        if t not in feet_cache:
            feet_cache[t] = _characteristic_feet(series, t, nodes)
        return feet_cache[t]

    def rhs(t: float, rho: np.ndarray) -> np.ndarray:
        if t not in dpsi_cache:
            dpsi_cache[t] = eval_trig(series, nodes if t == 0.0 else feet_at(t), (1,))[0]
        return _continuity_rhs(rho, dpsi_cache[t], grid)

    rho = mu0.rho.copy()
    densities = [mu0]
    potentials = [_demeaned(psi0.values, mu0.rho, grid)]
    for idx in range(times.size - 1):
        t_out = times[idx + 1]
        rho = rk4(rhs, times[idx], t_out, rho, steps_per_interval)
        mu_t = _stepped_density(rho, grid, t_out, "hj")
        rho = mu_t.rho.copy()
        p0, dp0 = eval_trig(series, feet_at(t_out), (0, 1))
        psi_t = p0 + 0.5 * t_out * dp0**2
        densities.append(mu_t)
        potentials.append(_demeaned(psi_t, mu_t.rho, grid))
    return GeodesicPath(grid, times, densities, potentials)


def geodesic_christoffel(mu0: Density, psi0_coeffs, times, N: int | None = None,
                         steps_per_interval: int = 4) -> GeodesicPath:
    """Basis-coefficient geodesic ODE with the density co-evolved spectrally.

    psi0_coeffs may be a coefficient array or a TangentVector at mu0.  The
    per-stage right-hand side Gram^{-1} [int psi' psi'' phi_l' dmu] is the
    contraction Gamma^k_ij Psi_i Psi_j with the Christoffel symbols of the
    current density, evaluated without materializing the full tensor: one
    projection of psi' psi'' dx at rho_t through the context built at mu0.
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

    def rhs(_t, state):  # autonomous: the stage time is unused
        psi_c = state[: 2 * N]
        rho = state[2 * N :]
        dpsi = ctx.potential_values(psi_c, 1)
        dcoeffs = -ctx.project_at(rho, dpsi * ctx.potential_values(psi_c, 2))
        return np.concatenate([dcoeffs, _continuity_rhs(rho, dpsi, grid)])

    state = np.concatenate([coeffs, mu0.rho])
    densities = [mu0]
    potentials = [_demeaned(ctx.potential_values(coeffs), mu0.rho, grid)]
    for idx in range(times.size - 1):
        state = rk4(rhs, times[idx], times[idx + 1], state, steps_per_interval)
        mu_t = _stepped_density(state[2 * N :], grid, times[idx + 1], "christoffel")
        state[2 * N :] = mu_t.rho
        densities.append(mu_t)
        potentials.append(_demeaned(ctx.potential_values(state[: 2 * N]), mu_t.rho, grid))
    return GeodesicPath(grid, times, densities, potentials)


def displacement_path(mu0: Density, psi0: ScalarField, times) -> GeodesicPath:
    """Displacement interpolation sampled on a time grid: mu_t is the pushforward
    of mu0 by x -> x + t*psi0'(x) (exact Jacobian + resample), with
    characteristic potentials attached so the path supports action and
    transport."""
    check_same_grid(psi0, mu0.field())
    times = time_grid(times)
    series = trig_series(psi0)
    _check_caustic_free(series, float(times[-1]))
    grid = mu0.grid
    dpsi0 = deriv(psi0).values
    densities = [mu0]
    potentials = [_demeaned(psi0.values, mu0.rho, grid)]
    for t in times[1:]:
        mu_t = pushforward_monotone(mu0, ScalarField(grid, float(t) * dpsi0))
        p0, dp0 = eval_trig(series, _characteristic_feet(series, float(t), grid.nodes), (0, 1))
        psi_t = p0 + 0.5 * float(t) * dp0**2
        densities.append(mu_t)
        potentials.append(_demeaned(psi_t, mu_t.rho, grid))
    return GeodesicPath(grid, times, densities, potentials)


def flow_path(mu0: Density, psi: ScalarField, times) -> GeodesicPath:
    """mu0 pushed along the fixed field grad(psi) by one flow_map pass.  The
    velocity potential is psi at every time, but the speed is generally not
    constant in t: the curve is not a geodesic."""
    check_same_grid(psi, mu0.field())
    grid = mu0.grid
    densities = [mu0] + [pushforward_monotone(mu0, ScalarField(grid, x - grid.nodes))
                         for x in flow_map(psi, times)[1:]]
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
    """L^2(vol) residual of d(rho)/dt + (rho psi')' at interior path times.

    The time derivative uses the 5-point fourth-order central stencil, so the
    result measures the stored path's internal consistency rather than the
    stencil's own truncation error.  Needs at least 5 uniformly spaced times.
    """
    t = path.times
    if t.size < 5:
        raise ConfigError("continuity residual needs at least 5 path times")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-12, atol=1e-14):
        raise ConfigError("continuity residual needs a uniform time grid")
    h = float(dt[0])
    rho = np.stack([d.rho for d in path.densities])
    out = np.full(t.size, np.nan)
    for idx in range(2, t.size - 2):
        drho_dt = (rho[idx - 2] - 8 * rho[idx - 1] + 8 * rho[idx + 1] - rho[idx + 2]) / (12 * h)
        flux = _continuity_rhs(rho[idx], deriv(path.potentials[idx]).values, path.grid)
        out[idx] = np.sqrt(np.mean((drho_dt - flux) ** 2))
    return out


def constant_speed_report(path: GeodesicPath, w2) -> dict:
    """Ratios W2(mu_s, mu_t) / |t - s| over all pairs of the path's times.

    w2 is the distance oracle (mu, nu) -> W2.  The pair count grows
    quadratically with the number of times.  Deviation is reported relative
    to the endpoint distance.
    """
    m = path.times.size
    w2_end = w2(path.densities[0], path.densities[-1])
    total = path.times[-1] - path.times[0]
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            gap = path.times[j] - path.times[i]
            ratio = w2(path.densities[i], path.densities[j]) / gap
            pairs.append({"s": float(path.times[i]), "t": float(path.times[j]), "ratio": float(ratio)})
    ratios = np.array([p["ratio"] for p in pairs])
    reference = w2_end / total
    deviation = float(np.abs(ratios / reference - 1.0).max())
    return {
        "w2_endpoints": float(w2_end),
        "reference_speed": float(reference),
        "pairs": pairs,
        "max_relative_deviation": deviation,
    }


# -- serialization ----------------------------------------------------------


def path_to_csv(path: GeodesicPath, file_path) -> None:
    with open(file_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "node", "density", "potential"])
        for idx, t in enumerate(path.times):
            rho = path.densities[idx].rho
            psi = path.potentials[idx].values
            for x, r, p in zip(path.grid.nodes, rho, psi):
                writer.writerow([repr(float(t)), repr(float(x)), repr(float(r)), repr(float(p))])

