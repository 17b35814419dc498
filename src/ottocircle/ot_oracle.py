"""Independent optimal-transport oracles on the circle.

Two deliberately separate routes to the quadratic Wasserstein distance:

  * CircleDistanceSolver.distance: the circular one-dimensional formula,
    with one quantile table per density kept for reuse.  The squared
    distance is the minimum over a cut offset c of the quantile mismatch

        int_0^1 (Fmu^{-1}(s) - Gnu^{-1}(s + c))^2 ds,

    with the target quantile unrolled periodically,
    Gnu^{-1}(u + 1) = Gnu^{-1}(u) + 2*pi.  CDFs are integrated termwise from
    the trigonometric interpolant of the density, and quantiles come from
    safeguarded Newton at the m = QUANTILE_MIDPOINTS midpoints of the
    integral.  Newton starts from a CDF table on a fine uniform grid,
    evaluated by one inverse FFT and inverted by linear interpolation, and
    steps only the points that have not yet converged, so a table costs
    about two CDF evaluations.  The cut is bracketed by a ternary search over
    grid-aligned offsets j/m in [-1, 1], where the target quantile is an
    index shift of the midpoint values, and polished by bounded scalar
    minimization (xatol 1e-10) on a periodic spline through those values.
  * transport_lp: a linear program on explicit atoms with squared circular
    distance cost, solved by scipy's HiGHS backend.  w2_lp discretizes a pair
    of densities onto m atoms and calls it.

Neither route shares code with the geometry modules; they exist to check the
metric side of the package against classical transport.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import linprog, minimize_scalar
from scipy.sparse import coo_matrix

from .density import Density
from .errors import ConfigError, NumericalError
from .grid import TWO_PI, check_same_grid, trig_coefficients

# midpoint-rule resolution of the quantile mismatch integral
QUANTILE_MIDPOINTS = 2048

# uniform cells of the CDF table that seeds quantile Newton; linear inversion
# on cells of width h = 2*pi/8192 leaves a seed error of about
# h^2/8 * max|rho'/rho| (1e-8 to 1e-6 for the densities used here), which one
# or two Newton steps take to the 1e-14 stopping rule
SEED_CELLS = 8192


def circular_distance(a, b):
    """Geodesic distance on a circle of circumference 2*pi (vectorized)."""
    gap = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) % TWO_PI
    return np.pi - np.abs(np.pi - gap)


# -- spectral CDF / quantiles ------------------------------------------------


class _SpectralCDF:
    """Termwise antiderivative of a density's trigonometric interpolant."""

    def __init__(self, mu: Density):
        mean, a, b = trig_coefficients(mu.field())
        keep = np.maximum(np.abs(a), np.abs(b)) > 1e-15 * max(1.0, np.abs(mean))
        self.k = (np.nonzero(keep)[0] + 1).astype(np.float64)
        self.a = a[keep]
        self.b = b[keep]

    def cdf(self, x):
        return self._cdf_pdf(np.asarray(x, dtype=np.float64))[0]

    def _cdf_pdf(self, x):
        if self.k.size == 0:
            return x / TWO_PI, np.full(x.shape, 1.0 / TWO_PI)
        kx = np.multiply.outer(x, self.k)
        sin_kx = np.sin(kx)
        cos_kx = np.cos(kx)
        series = sin_kx @ (self.a / self.k) - (cos_kx - 1.0) @ (self.b / self.k)
        return (x + series) / TWO_PI, (1.0 + cos_kx @ self.a + sin_kx @ self.b) / TWO_PI

    def _seed(self, s):
        """Newton start x0 and bracket [lo, hi] for each target s.

        One zero-padded inverse FFT evaluates the CDF series on the nodes of
        SEED_CELLS uniform cells, with F(0) = 0 and F(2*pi) = 1 pinned, and
        x0 inverts that table by linear interpolation.  The bracket is the
        cell around x0 widened by one cell on each side, which holds the
        root whatever the table's roundoff.
        """
        cells = SEED_CELLS
        spectrum = np.zeros(cells // 2 + 1, dtype=np.complex128)
        spectrum[0] = cells * np.sum(self.b / self.k)
        spectrum[self.k.astype(np.intp)] = 0.5 * cells * (-self.b - 1j * self.a) / self.k
        nodes = TWO_PI * np.arange(cells + 1) / cells
        table = np.empty(cells + 1)
        table[:-1] = (nodes[:-1] + np.fft.irfft(spectrum, cells)) / TWO_PI
        table[0], table[-1] = 0.0, 1.0
        x0 = np.interp(s, table, nodes)
        cell = np.clip(np.floor(x0 / (TWO_PI / cells)).astype(np.intp), 0, cells - 1)
        return x0, nodes[np.maximum(cell - 1, 0)], nodes[np.minimum(cell + 2, cells)]

    def quantile(self, s):
        """Invert cdf on [0, 2*pi] by safeguarded Newton from an FFT seed.

        Newton starts from the seed of _seed, so one or two steps meet the
        1e-14 stopping rule, and bisects whenever a step leaves the bracket.
        Only the active set is evaluated and stepped: a point whose residual
        is below 1e-14 is frozen, so converged points neither cost a CDF
        evaluation nor drift onto their own bracket ends.
        """
        s = np.asarray(s, dtype=np.float64)
        if self.k.size == 0:
            return TWO_PI * s
        flat = s.ravel()
        x, lo, hi = self._seed(flat)
        active = np.arange(flat.size)
        for _ in range(80):
            value, slope = self._cdf_pdf(x[active])
            err = value - flat[active]
            moving = ~(np.abs(err) < 1e-14)  # a NaN residual stays active
            if not moving.any():
                break
            active, err, slope = active[moving], err[moving], slope[moving]
            xa = x[active]
            hi[active] = np.where(err > 0.0, np.minimum(hi[active], xa), hi[active])
            lo[active] = np.where(err < 0.0, np.maximum(lo[active], xa), lo[active])
            x_new = xa - err / slope
            bad = (x_new <= lo[active]) | (x_new >= hi[active])
            x[active] = np.where(bad, 0.5 * (lo[active] + hi[active]), x_new)
        else:
            resid = np.abs(self.cdf(x) - flat)
            worst = int(np.argmax(resid))
            if not resid[worst] <= 1e-12:  # a NaN residual fails too
                raise NumericalError(
                    f"quantile iteration failed to converge after 80 iterations: "
                    f"worst index {worst} (s = {float(flat[worst])!r}) has residual "
                    f"{resid[worst]:.3e}")
        return x.reshape(s.shape)


@dataclass(frozen=True)
class TransportResult:
    """Distance value with the cut offset that attained it."""

    w2: float
    w2_squared: float
    shift: float


class _QuantileTable:
    """Per-density quantile data from one CDF inversion at the m midpoints
    s_j = (j + 1/2)/m.

    q_mid holds the exact midpoint quantiles the cut scan indexes.  Off-grid
    cuts use a periodic cubic spline of the smooth 1-periodic part
    quantile(u) - 2*pi*u through those same values (nodes s_j and s_0 + 1),
    so the polish and the scan see one quantile function.
    """

    def __init__(self, mu: Density, m: int):
        s = (np.arange(m) + 0.5) / m
        self.q_mid = _SpectralCDF(mu).quantile(s)
        wobble = self.q_mid - TWO_PI * s
        self._s0 = s[0]
        self._spline = CubicSpline(np.append(s, s[0] + 1.0), np.append(wobble, wobble[0]),
                                   bc_type="periodic")

    def unrolled(self, u):
        """quantile extended by quantile(u + 1) = quantile(u) + 2*pi."""
        return TWO_PI * u + self._spline(self._s0 + np.mod(u - self._s0, 1.0))


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
        check_same_grid(mu.field(), nu.field())
        m = QUANTILE_MIDPOINTS
        F = self.table(mu)
        G = self.table(nu)
        s = (np.arange(m) + 0.5) / m
        qF = F.q_mid
        qG = G.q_mid
        base = np.arange(m)

        # grid-aligned cut u = s + j/m lands back on the s-grid, so the
        # target quantile is an index shift plus a whole number of turns
        def cost_at_index(j: int) -> float:
            k = base + j
            diff = qF - TWO_PI * np.floor_divide(k, m) - qG[np.mod(k, m)]
            return float(np.mean(diff * diff))

        # the cut objective is convex, so ternary search over grid cuts
        # brackets the minimizer; ties shrink both ends
        lo_j, hi_j = -m, m
        while hi_j - lo_j > 2:
            third = (hi_j - lo_j) // 3
            m1, m2 = lo_j + max(third, 1), hi_j - max(third, 1)
            c1, c2 = cost_at_index(m1), cost_at_index(m2)
            if c1 < c2:
                hi_j = m2
            elif c2 < c1:
                lo_j = m1
            else:
                lo_j, hi_j = m1, m2
        window = range(lo_j, hi_j + 1)
        costs = [cost_at_index(j) for j in window]
        best = window[int(np.argmin(costs))]
        best_cost = min(costs)

        def cost(alpha: float) -> float:
            diff = qF - G.unrolled(s + alpha)
            return float(np.mean(diff * diff))

        res = minimize_scalar(cost, bounds=((best - 1) / m, (best + 1) / m),
                              method="bounded", options={"xatol": 1e-10})
        squared = float(min(res.fun, best_cost))
        shift = float(res.x) if res.fun <= best_cost else best / m
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
    col_j = np.repeat(np.arange(nb - 1), na)
    rows = np.concatenate([np.repeat(np.arange(na), nb), na + col_j])
    cols = np.concatenate([np.arange(na * nb), col_j + np.tile(nb * np.arange(na), nb - 1)])
    a_eq = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(na + nb - 1, na * nb))
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
    cdf = _SpectralCDF(mu)
    weights = np.diff(cdf.cdf(edges))
    if weights.min() <= 0.0:
        raise NumericalError("cell mass came out nonpositive")
    return locations, weights / weights.sum()


def w2_lp(mu: Density, nu: Density, m: int = 64) -> TransportPlan:
    """LP distance between two densities discretized onto m atoms each."""
    check_same_grid(mu.field(), nu.field())
    xa, wa = density_atoms(mu, m)
    xb, wb = density_atoms(nu, m)
    return transport_lp(xa, wa, xb, wb)


def plan_to_csv(plan: TransportPlan, file_path) -> None:
    """Coupling entries above 1e-15 as source/target index, location, mass rows."""
    with open(file_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["source_index", "target_index", "source_location",
                         "target_location", "mass"])
        for i, j in zip(*np.nonzero(plan.coupling > 1e-15)):
            writer.writerow([i, j, repr(float(plan.locations_a[i])),
                             repr(float(plan.locations_b[j])), repr(float(plan.coupling[i, j]))])
