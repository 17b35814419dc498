"""Probability densities on the circle and the monotone pushforward.

A Density is a smooth positive function rho with unit mass against the
normalized volume; the measure it represents is mu = rho * dvol.  The
pushforward under a displacement map x -> x + T(x) uses the exact 1-d
change-of-variables rho_new(x + T(x)) * (1 + T'(x)) = rho(x) and resamples
to the grid with monotone (shape-preserving) cubic periodic interpolation,
then renormalizes the mass.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, FoldError, GridMismatchError
from .grid import (
    TWO_PI,
    GridSpec,
    OneForm,
    ScalarField,
    check_same_grid,
    eval_trig,
    integrate,
)

MASS_TOL = 1e-10


@dataclass(frozen=True)
class Density:
    """Positive unit-mass density w.r.t. the normalized volume on the circle.

    mass_drift records |raw mass - 1| absorbed by renormalization when the
    density came out of a pushforward; it is 0.0 for directly constructed
    densities.
    """

    grid: GridSpec
    rho: np.ndarray
    mass_drift: float = field(default=0.0, compare=False)

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


def make_density(values: ScalarField, mass_drift: float = 0.0) -> Density:
    """Normalize positive node values to unit mass."""
    mass = integrate(values)
    if not np.isfinite(mass) or mass <= 0.0:
        raise DomainError(f"cannot normalize values with mass {mass!r}")
    return Density(values.grid, values.values / mass, mass_drift=mass_drift)


def uniform_density(grid: GridSpec) -> Density:
    return Density(grid, np.ones(grid.n))


def cosine_density(grid: GridSpec, amplitude: float, mode: int = 1, phase: float = 0.0) -> Density:
    """Density proportional to 1 + amplitude*cos(mode*x - phase); needs |amplitude| < 1."""
    if abs(amplitude) >= 1.0:
        raise DomainError(f"cosine density needs |amplitude| < 1, got {amplitude}")
    values = 1.0 + amplitude * np.cos(mode * grid.nodes - phase)
    return make_density(ScalarField(grid, values))


def weighted_inner(f, g, mu: Density) -> float:
    """L^2(mu) pairing of two scalar fields or two one-forms."""
    if type(f) is not type(g):
        raise DomainError(f"weighted_inner needs operands of one kind, got {type(f).__name__} and {type(g).__name__}")
    if not isinstance(f, (ScalarField, OneForm)):
        raise DomainError(f"weighted_inner expects ScalarField or OneForm, got {type(f).__name__}")
    check_same_grid(f, g)
    check_same_grid(f, mu.field())
    return float(np.mean(f.values * g.values * mu.rho))


def periodic_monotone_resample(sample_x: np.ndarray, sample_v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Monotone cubic periodic interpolation from scattered points to the grid.

    sample_x must cover one period (any rotation); the sample is extended by
    one period on each side so boundary slopes see wrapped neighbors.
    """
    order = np.argsort(sample_x)
    x = sample_x[order]
    v = sample_v[order]
    x_ext = np.concatenate([x - TWO_PI, x, x + TWO_PI])
    v_ext = np.concatenate([v, v, v])
    interp = PchipInterpolator(x_ext, v_ext, extrapolate=False)
    return interp(grid.nodes)


def pushforward_monotone(mu: Density, displacement: ScalarField) -> Density:
    """Pushforward of mu under x -> x + T(x) for an orientation-preserving map.

    Raises FoldError when 1 + T' <= 0 somewhere (checked on a 4x finer grid).
    The Jacobian formula is sampled at 4n source points (exact band-limited
    evaluation) before the monotone resample, which keeps the mass defect of
    the interpolation well under 1e-8; the result is then renormalized, with
    the defect kept in Density.mass_drift.
    """
    check_same_grid(mu.field(), displacement)
    n_fine = 4 * mu.grid.n
    x_fine = TWO_PI * np.arange(n_fine) / n_fine
    t_fine = eval_trig(displacement, x_fine)
    jac_fine = 1.0 + eval_trig(displacement, x_fine, order=1)
    if jac_fine.min() <= 0.0:
        raise FoldError(f"map folds: min(1 + T') = {jac_fine.min():.3e} <= 0")
    rho_fine = eval_trig(mu.field(), x_fine)
    y = np.mod(x_fine + t_fine, TWO_PI)
    v = rho_fine / jac_fine
    resampled = periodic_monotone_resample(y, v, mu.grid)
    if not np.all(np.isfinite(resampled)) or resampled.min() <= 0.0:
        raise FoldError("pushforward resampling produced nonpositive density values")
    mass = float(np.mean(resampled))
    return make_density(ScalarField(mu.grid, resampled), mass_drift=abs(mass - 1.0))


# -- serialization ----------------------------------------------------------


def density_to_csv(mu: Density, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", "value"])
        for x, r in zip(mu.grid.nodes, mu.rho):
            writer.writerow([repr(float(x)), repr(float(r))])


def density_from_csv(path, grid: GridSpec | None = None) -> Density:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])  # an empty file has no header either
        if [h.strip() for h in header] != ["node", "value"]:
            raise DomainError(f"density CSV must have header 'node,value', got {header}")
        rows = [(float(a), float(b)) for a, b in reader]
    values = np.array([b for _, b in rows])
    if grid is None:
        grid = GridSpec(len(values))
    nodes = np.array([a for a, _ in rows])
    if len(values) != grid.n or not np.allclose(nodes, grid.nodes, atol=1e-12):
        raise GridMismatchError("density CSV nodes do not match the expected grid")
    return make_density(ScalarField(grid, values))

