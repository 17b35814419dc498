"""Independent optimal-transport oracles on the circle.

Two deliberately separate routes to the quadratic Wasserstein distance:

  * CircleDistanceSolver.distance: the circular one-dimensional formula,
    with one quantile table per density kept for reuse.  The squared
    distance is the minimum over a cut offset c of the quantile mismatch

        int_0^1 (Fmu^{-1}(s) - Gnu^{-1}(s + c))^2 ds,

    with the target quantile extended periodically,
    Gnu^{-1}(u + 1) = Gnu^{-1}(u) + 2*pi.  The CDF is x + int_0^x (rho - 1),
    over 2*pi: order -1 of grid.eval_trig on a density's TrigSeries.  A
    table inverts it at the m = QUANTILE_MIDPOINTS midpoints with
    grid.monotone_inverse (safeguarded Newton from a seed table built by one
    inverse FFT, stepping only unconverged points), so a table costs about
    two CDF evaluations.  One FFT correlation scans the costs of all
    grid-aligned cuts c = j/m in [-1, 1] (Delon, Salomon & Sobolevski 2010);
    the best of the exact costs at its argmin and neighbours picks the
    bracket of two cells around it.  On a periodic cubic spline through the
    target's midpoint quantiles (built in numpy when a table first serves as
    a target: one rfft/irfft pair solves its circulant curvature system),
    whose nodes are the midpoints, the cost on each cell is a polynomial of
    degree 6 in the cut, minimized exactly over the roots of its derivative
    inside the cell.
  * transport_lp: a linear program on explicit atoms with squared circular
    distance cost, solved by the HiGHS backend of linprog.  w2_lp
    discretizes a pair of densities onto m atoms and calls it.

Neither route shares physics with the geometry modules, only grid's spectral
plumbing; they exist to check the metric side against classical transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P

from .density import Density
from .errors import ConfigError, NumericalError
from .grid import TWO_PI, TrigSeries, check_same_grid, eval_trig, monotone_inverse, trig_series

# midpoint-rule resolution of the quantile mismatch integral
QUANTILE_MIDPOINTS = 2048


def circular_distance(a, b):
    """Geodesic distance on a circle of circumference 2*pi (vectorized)."""
    gap = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) % TWO_PI
    return np.pi - np.abs(np.pi - gap)


# -- spectral CDF / quantiles ------------------------------------------------


def _cdf(series: TrigSeries, x: np.ndarray) -> np.ndarray:
    """CDF int_0^x rho dx / (2*pi) at x, for the density `series`."""
    # the unit mean integrates to x; order -1 is the rest of int_0^x rho
    return (x + eval_trig(series, x, (-1,))[0]) / TWO_PI


@dataclass(frozen=True)
class TransportResult:
    """Distance value with the cut offset that attained it."""

    w2: float
    w2_squared: float
    shift: float


class _QuantileTable:
    """Per-density quantile data from one CDF inversion at the m midpoints
    s_j = (j + 1/2)/m.

    s holds the s_j, q_mid the exact quantiles there that the cut scan
    indexes.  Off-grid cuts read spline, the coefficient rows of the periodic
    cubic spline of the smooth 1-periodic part quantile(u) - 2*pi*u (the
    wobble) through those same values at the nodes s_j, so the polish and
    the scan see one quantile function; the polish, its only reader, builds
    it on first use.
    """

    def __init__(self, mu: Density, m: int):
        self.s = (np.arange(m) + 0.5) / m
        # the CDF is (x + D(x)) / (2*pi), with D order -1 of the series
        self.q_mid = monotone_inverse(trig_series(mu.field()), -1, TWO_PI * self.s)

    @cached_property
    def spline(self) -> np.ndarray:
        """(4, m) coefficients of the periodic cubic spline of the wobble in
        the cell variable t in [0, 1): row p multiplies t^p on cell j."""
        y = self.q_mid - TWO_PI * self.s
        m, ahead = y.size, np.roll(y, -1)
        # the curvatures in t solve the circulant (1, 4, 1)/6 system against
        # the second differences, which one rfft diagonalizes
        weights = (4.0 + 2.0 * np.cos(TWO_PI * np.arange(m // 2 + 1) / m)) / 6.0
        c = np.fft.irfft(np.fft.rfft(ahead - 2.0 * y + np.roll(y, 1)) / weights, m)
        c_ahead = np.roll(c, -1)
        return np.stack((y, ahead - y - (2.0 * c + c_ahead) / 6.0, c / 2.0, (c_ahead - c) / 6.0))


class CircleDistanceSolver:
    """Circular Wasserstein distances with per-density quantile caching.

    Repeated distances among a family of densities (pairwise speed checks,
    triangle sampling) reuse each density's quantile table, keyed by the
    density's content hash.
    """

    def __init__(self):
        self._tables: dict[str, _QuantileTable] = {}

    def table(self, mu: Density) -> _QuantileTable:
        key = mu.sha256()
        if key not in self._tables:
            self._tables[key] = _QuantileTable(mu, QUANTILE_MIDPOINTS)
        return self._tables[key]

    def distance(self, mu: Density, nu: Density) -> TransportResult:
        check_same_grid(mu, nu)
        m = QUANTILE_MIDPOINTS
        qF = self.table(mu).q_mid
        G = self.table(nu)

        # the grid-aligned cut u = s + j/m lands back on the s-grid: its
        # target quantiles are turns[j + m : j + 2m]
        turns = np.concatenate((G.q_mid - TWO_PI, G.q_mid, G.q_mid + TWO_PI))
        # mean (qF - window)^2 over every window at once: sum qF^2, minus twice
        # the correlation of qF with turns (no wrap at FFT length 3m), plus a
        # running sum of turns^2
        size = 3 * m
        cross = np.fft.irfft(np.fft.rfft(turns, size) * np.conj(np.fft.rfft(qF, size)), size)
        squares = np.concatenate(([0.0], np.cumsum(turns * turns)))
        scan = (qF @ qF - 2.0 * cross[: 2 * m + 1] + squares[m:] - squares[: 2 * m + 1]) / m
        # the scan carries ~1e-13 of roundoff, so exact costs at its argmin
        # and the two neighbours pick the bracket
        centre = int(np.argmin(scan)) - m
        window = range(max(centre - 1, -m), min(centre + 1, m) + 1)
        costs = [float(np.mean((qF - turns[j + m: j + 2 * m]) ** 2)) for j in window]
        best = window[int(np.argmin(costs))]
        squared, shift = min(costs), best / m
        # the spline's nodes are the midpoints, so at the cut (k + t)/m with
        # 0 <= t < 1 every target s_j + (k + t)/m sits at offset t/m in cell
        # (j + k) mod m: there the cost is a sextic in t whose coefficients
        # are antidiagonal sums of the Gram matrix of four residual rows; the
        # real part of a complex root is a harmless extra sample
        pieces = -G.spline
        powers = np.add.outer(np.arange(4), np.arange(4)).ravel()
        for k in (best - 1, best):
            rows = np.roll(pieces, -k, axis=1)
            rows[0] += qF - TWO_PI * (G.s + k / m)
            rows[1] -= TWO_PI / m
            sextic = np.bincount(powers, weights=(rows @ rows.T).ravel()) / m
            roots = P.polyroots(P.polyder(sextic)).real
            for t in roots[(roots > 0.0) & (roots < 1.0)]:
                value = float(P.polyval(t, sextic))
                if value < squared:
                    squared, shift = value, float((k + t) / m)
        return TransportResult(
            w2=float(np.sqrt(max(squared, 0.0))),
            w2_squared=squared,
            shift=shift,
        )


# -- linear-program route ----------------------------------------------------


@dataclass(frozen=True)
class TransportPlan:
    """LP solution: coupling matrix between two atom clouds."""

    w2: float
    w2_squared: float
    coupling: np.ndarray
    locations_a: np.ndarray
    weights_a: np.ndarray
    locations_b: np.ndarray
    weights_b: np.ndarray

    def marginal_errors(self):
        row = np.abs(self.coupling.sum(axis=1) - self.weights_a).max()
        col = np.abs(self.coupling.sum(axis=0) - self.weights_b).max()
        return float(row), float(col)


def transport_lp(locations_a, weights_a, locations_b, weights_b) -> TransportPlan:
    """Optimal coupling of two weighted atom clouds on the circle.

    Cost is the squared geodesic distance.  Solved exactly (to solver
    tolerance) as a linear program with both marginal constraint blocks.
    """
    # loaded on first use: slow imports
    from scipy.optimize import linprog
    from scipy.sparse import eye, kron, vstack
    xa = np.asarray(locations_a, dtype=np.float64)
    wa = np.asarray(weights_a, dtype=np.float64)
    xb = np.asarray(locations_b, dtype=np.float64)
    wb = np.asarray(weights_b, dtype=np.float64)
    if xa.shape != wa.shape or xb.shape != wb.shape or xa.ndim != 1 or xb.ndim != 1:
        raise ConfigError("atom locations and weights must be matching 1-d arrays")
    if wa.min() < 0.0 or wb.min() < 0.0:
        raise ConfigError("atom weights must be nonnegative")
    if abs(wa.sum() - 1.0) > 1e-9 or abs(wb.sum() - 1.0) > 1e-9:
        raise ConfigError("atom weights must sum to one on each side")
    na, nb = xa.size, xb.size
    cost = circular_distance(xa[:, None], xb[None, :]) ** 2

    # row marginals then column marginals; the last column constraint is
    # implied by the rest and dropped to keep the system full rank
    a_eq = vstack([kron(eye(na), np.ones((1, nb))), kron(np.ones((1, na)), eye(nb - 1, nb))])
    b_eq = np.concatenate([wa, wb[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None),
                  method="highs")
    if not res.success:
        raise NumericalError(f"transport LP failed: {res.message}")
    coupling = res.x.reshape(na, nb)
    squared = float(np.sum(coupling * cost))
    return TransportPlan(
        w2=float(np.sqrt(max(squared, 0.0))),
        w2_squared=squared,
        coupling=coupling,
        locations_a=xa,
        weights_a=wa,
        locations_b=xb,
        weights_b=wb,
    )


def density_atoms(mu: Density, m: int):
    """Discretize a density onto m cell-midpoint atoms with exact cell masses.

    Cell masses are CDF increments, so the discrete measure matches the
    continuous one on every cell; only within-cell structure is lost.
    """
    if m < 2:
        raise ConfigError("need at least 2 atoms")
    edges = TWO_PI * np.arange(m + 1) / m
    locations = 0.5 * (edges[:-1] + edges[1:])
    weights = np.diff(_cdf(trig_series(mu.field()), edges))
    if weights.min() <= 0.0:
        raise NumericalError("cell mass came out nonpositive")
    return locations, weights / weights.sum()


def w2_lp(mu: Density, nu: Density, m: int = 64) -> TransportPlan:
    """LP distance between two densities discretized onto m atoms each."""
    check_same_grid(mu, nu)
    xa, wa = density_atoms(mu, m)
    xb, wb = density_atoms(nu, m)
    return transport_lp(xa, wa, xb, wb)

