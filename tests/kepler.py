"""The exact geodesic from the uniform density with psi0 = a cos x.

Its displacement x -> x - t a sin x is Kepler's equation M = E - e sin E with
eccentricity e = t a, so the density at M is dE/dM = 1 / (1 - e cos E), whose
Fourier series is Kapteyn's

    rho_t(M) = 1 + sum_k 2 J_k(k e) cos(k M),    e < 1,

with coefficients that decay geometrically in k for e <= 0.6.
"""

import numpy as np
from scipy.special import jv

from ottocircle import GeodesicPath, GridSpec, ScalarField, uniform_density

TIMES = np.linspace(0.0, 1.0, 17)
# (n, a): e reaches a at t = 1, far from the caustic at e = 1
CASES = ((256, 0.1), (256, 0.3), (512, 0.5))
# Both RK4 routes step at h = 1/64 here (4 steps per interval), and their
# density error is RK4's O(h^4) global error, which grows as a^5 at fixed h:
# HJ reads 7.5e-13, 1.9e-10 and 2.3e-9 on CASES, 7.5e-8 a^5 within 1%, and
# 33 times cut a = 0.3 by 15.5.  Christoffel (N = 32) reads 5.1e-13, 1.9e-10
# and 9.6e-9, the last with its truncation of psi_t (ROADMAP item 5(b)).
RK4_BOUND = 2e-6  # times a^5: 27x HJ's model, 6x Christoffel's worst case
# The displacement route takes no time steps, and its displacement's spectrum
# is t times psi0's derivative row, with no FFT roundoff modes: it reads
# 2.2e-16, 4.4e-16 and 1.3e-15, a few ulps of the density.
DISPLACEMENT_BOUND = 1e-13


def kapteyn_density(grid: GridSpec, e: float) -> np.ndarray:
    """Kapteyn's series at the nodes, summed to mode n (J_n(n e) < 1e-20 for e <= 0.6)."""
    k = np.arange(1, grid.n + 1)
    return 1.0 + 2.0 * (jv(k, k * e) @ np.cos(np.outer(k, grid.nodes)))


def start(n: int, a: float):
    """The uniform density and psi0 = a cos x on n nodes."""
    grid = GridSpec(n)
    return uniform_density(grid), ScalarField(grid, a * np.cos(grid.nodes))


def worst_density_error(path: GeodesicPath, a: float) -> float:
    """Sup over nodes and path times of |rho_t - Kapteyn's rho_t|."""
    return max(float(np.abs(mu.rho - kapteyn_density(path.grid, t * a)).max())
               for mu, t in zip(path.densities, path.times))


def bound(route: str, a: float) -> float:
    return DISPLACEMENT_BOUND if route == "displacement" else RK4_BOUND * a**5
