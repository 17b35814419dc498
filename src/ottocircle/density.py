"""Probability densities on the circle and the monotone pushforward.

A Density is a smooth positive function rho with unit mass against the
normalized volume; the measure it represents is mu = rho * dvol.  The
pushforward under x -> x + T(x) returns the feet x of the grid nodes
(grid.monotone_inverse) and the exact 1-d change-of-variables values
rho(x) / (1 + T'(x)) there, checked as a Density, never renormalized.  It
works on the spectra of rho and T (pushforward_spectra), so a caller that
pushes one density forward many times takes its spectrum once, and a caller
that knows T's spectrum exactly passes it without sampling T on the nodes.
stepped_density is the one check on a density that an integrator produced
(a geodesic route's path times and RK4 stages, parallel transport's stages).
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FoldError, GridMismatchError, NumericalError
from .grid import (
    GridSpec,
    ScalarField,
    TrigSeries,
    check_same_grid,
    eval_trig,
    integrate,
    monotone_inverse,
    trig_series,
)

MASS_TOL = 1e-10


@dataclass(frozen=True)
class Density:
    """Positive unit-mass density w.r.t. the normalized volume on the circle."""

    grid: GridSpec
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.shape != (self.grid.n,):
            raise GridMismatchError(f"expected {self.grid.n} density values, got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise DomainError("density values must be finite")
        if rho.min() <= 0.0:
            raise DomainError(f"density must be strictly positive, min={rho.min():.3e}")
        mass = float(np.mean(rho))
        if abs(mass - 1.0) > MASS_TOL:
            raise DomainError(f"density mass {mass!r} deviates from 1 beyond {MASS_TOL}")
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    def field(self) -> ScalarField:
        return ScalarField(self.grid, self.rho)

    def sha256(self) -> str:
        return hashlib.sha256(self.rho.tobytes()).hexdigest()


def make_density(values: ScalarField) -> Density:
    """Normalize positive node values to unit mass."""
    mass = integrate(values)
    if not np.isfinite(mass) or mass <= 0.0:
        raise DomainError(f"cannot normalize values with mass {mass!r}")
    return Density(values.grid, values.values / mass)


def uniform_density(grid: GridSpec) -> Density:
    return Density(grid, np.ones(grid.n))


def cosine_density(grid: GridSpec, amplitude: float, mode: int = 1, phase: float = 0.0) -> Density:
    """Density proportional to 1 + amplitude*cos(mode*x - phase); needs |amplitude| < 1."""
    if abs(amplitude) >= 1.0:
        raise DomainError(f"cosine density needs |amplitude| < 1, got {amplitude}")
    values = 1.0 + amplitude * np.cos(mode * grid.nodes - phase)
    return make_density(ScalarField(grid, values))


def weighted_inner(f: ScalarField, g: ScalarField, mu: Density) -> float:
    """L^2(mu) pairing of two fields (functions or one-form coefficients)."""
    if not (isinstance(f, ScalarField) and isinstance(g, ScalarField)):
        raise DomainError(f"weighted_inner expects two ScalarFields, "
                          f"got {type(f).__name__} and {type(g).__name__}")
    check_same_grid(f, g, mu)
    return float(np.mean(f.values * g.values * mu.rho))


def stepped_density(grid: GridSpec, rho: np.ndarray, t: float, route: str) -> Density:
    """Check, never renormalize, a density that an integrator produced at
    time t: a path time or an RK4 stage time of a geodesic route, or a stage
    time of parallel transport.  A nonpositive or non-finite result, or a
    mass off 1, is a breakdown of the integration, not a bad input, so it
    raises NumericalError naming the route and t."""
    try:
        return Density(grid, rho)
    except DomainError as exc:
        raise NumericalError(f"{route} route: the RK4 density at t = {t:.6g} "
                             f"is not a density ({exc})") from exc


def pushforward_monotone(mu: Density, displacement: ScalarField) -> tuple[Density, np.ndarray]:
    """(T_# mu, feet of the nodes) for the orientation-preserving x -> x + T(x).

    Raises FoldError when 1 + T' <= 0 somewhere (checked on a 4x finer grid).
    Each node y takes rho(x) / (1 + T'(x)) at its foot x + T(x) = y, with rho
    and T evaluated exactly off the grid, so the mass is 1 to roundoff; a mass
    off 1 means the nodes under-resolve T_# mu, and raises NumericalError.
    """
    check_same_grid(mu, displacement)
    return pushforward_spectra(mu.grid, trig_series(mu.field()), trig_series(displacement))


def pushforward_spectra(grid: GridSpec, rho: TrigSeries,
                        displacement: TrigSeries) -> tuple[Density, np.ndarray]:
    """pushforward_monotone on the grid, from the spectra of the density
    rho and of the displacement T, with the same FoldError and
    NumericalError checks."""
    jac_fine = 1.0 + eval_trig(displacement, GridSpec(4 * grid.n).nodes, (1,))[0]
    if jac_fine.min() <= 0.0:
        raise FoldError(f"map folds: min(1 + T') = {jac_fine.min():.3e} <= 0")
    feet = monotone_inverse(displacement, 0, grid.nodes)
    values = eval_trig(rho, feet)[0] / (1.0 + eval_trig(displacement, feet, (1,))[0])
    try:
        return Density(grid, values), feet
    except DomainError as exc:
        raise NumericalError(f"pushforward under-resolved on {grid.n} nodes: {exc}") from exc


# -- serialization ----------------------------------------------------------


def density_to_csv(mu: Density, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", "value"])
        for x, r in zip(mu.grid.nodes, mu.rho):
            writer.writerow([repr(float(x)), repr(float(r))])


def density_from_csv(path, grid: GridSpec) -> Density:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])  # an empty file has no header either
        if [h.strip() for h in header] != ["node", "value"]:
            raise DomainError(f"density CSV must have header 'node,value', got {header}")
        try:  # a short or long row fails to unpack, a non-number to convert
            rows = [(float(a), float(b)) for a, b in reader]
        except ValueError:  # line_num is the line of the row that failed
            raise DomainError(f"density CSV {str(path)!r} line {reader.line_num}: expected "
                              f"two numbers 'node,value'") from None
    values = np.array([b for _, b in rows])
    nodes = np.array([a for a, _ in rows])
    if len(values) != grid.n or not np.allclose(nodes, grid.nodes, atol=1e-12):
        raise GridMismatchError("density CSV nodes do not match the expected grid")
    return make_density(ScalarField(grid, values))

