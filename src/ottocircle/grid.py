"""Periodic grid, quadrature, and FFT differentiation on the circle.

The circle has circumference 2*pi and carries the normalized volume measure
dvol = dx / (2*pi), so the total measure is 1 and quadrature of a sampled
function is the plain mean of its node values (trapezoid rule on a uniform
periodic grid, spectrally accurate for smooth integrands).

Fields are node-value arrays on the uniform grid x_j = 2*pi*j/n.  ScalarField
is the one node-value type: with the flat metric on the circle a one-form
w dx and the function w share one coefficient array.  The trig basis used
throughout is

    sqrt(2)*cos(k x), sqrt(2)*sin(k x),   1 <= k <= n/2 - 1,

orthonormal in L^2(dvol); constants are excluded because potentials are only
meaningful modulo constants.

All off-grid evaluation goes through one evaluator: trig_series takes a
field's spectrum once, and eval_trig evaluates any set of derivative orders
of it, and the antiderivative as order -1, in one Horner pass in e^{ix};
derivative_series turns its order-1 row into a series of its own.
monotone_inverse solves x + D(x) = y for one such row D, the one
iterative inverse of an increasing circle map: it serves quantiles and the
feet of pushforwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import AliasingError, ConfigError, GridMismatchError, NumericalError

TWO_PI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)

# uniform cells of the table that seeds monotone_inverse; linear inversion on
# cells of width h = 2*pi/8192 leaves a seed error of about h^2/8 times the
# map's max|G''/G'| (1e-8 to 1e-6 for the maps used here), which one or two
# Newton steps take to the 1e-14 stopping rule
SEED_CELLS = 8192

# RK4 is stable for |h*lambda| <= 2*sqrt(2) on the imaginary axis, where the
# spectral advection eigenvalues i*k*speed lie; 2.0 keeps a margin below it
RK4_CFL = 2.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid with n nodes on [0, 2*pi)."""

    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 16 or self.n % 2 != 0:
            raise ConfigError(f"grid size must be even and >= 16, got {self.n}")
        nodes = TWO_PI * np.arange(self.n) / self.n
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True)
class ScalarField:
    """Float64 values at the grid nodes, one per node: a real function, or
    the dx-coefficient of a one-form (the musical isomorphisms are the
    identity on the flat circle, so both share one array)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise GridMismatchError(f"field values must be 1-d, got shape {values.shape}")
        if values.shape != (self.grid.n,):
            raise GridMismatchError(
                f"expected {self.grid.n} node values, got {values.shape}"
            )
        object.__setattr__(self, "values", values)


def check_same_grid(a, *others) -> GridSpec:
    """The grid of a, after checking that every other operand (a field or a
    density) sits on a grid of the same size."""
    for b in others:
        if a.grid.n != b.grid.n:
            raise GridMismatchError(f"grid mismatch: n={a.grid.n} vs n={b.grid.n}")
    return a.grid


def integrate(f: ScalarField) -> float:
    """Integral against the normalized volume: the mean of node values."""
    return float(np.mean(f.values))


def deriv(f: ScalarField, order: int = 1) -> ScalarField:
    """Spectral derivative of the given order.

    Odd orders zero the Nyquist mode (its derivative is not representable on
    the grid); even orders keep it.  Exact for band-limited input.
    """
    if order < 1:
        raise ConfigError(f"derivative order must be >= 1, got {order}")
    n = f.grid.n
    fh = np.fft.rfft(f.values)
    k = np.arange(n // 2 + 1, dtype=np.float64)
    fh = fh * (1j * k) ** order
    if order % 2 == 1:
        fh[-1] = 0.0
    return ScalarField(f.grid, np.fft.irfft(fh, n))


def aliasing_bound(N: int) -> int:
    """The node count that a grid must exceed for basis tables at truncation N."""
    return 4 * N


@lru_cache(maxsize=16)
def basis_matrix(grid: GridSpec, N: int, order: int, /) -> np.ndarray:
    """Rows are the order-th derivatives of the 2N basis functions at the nodes,
    ordered cos 1, sin 1, ..., cos N, sin N.  Cached and shared, so read-only;
    positional-only, so each (grid, N, order) table has one cache key."""
    if N < 1:
        raise ConfigError(f"truncation N must be >= 1, got {N}")
    if grid.n <= aliasing_bound(N):
        raise AliasingError(f"anti-aliasing constraint 4N < n violated: N={N}, n={grid.n}")
    x = grid.nodes
    out = np.empty((2 * N, grid.n))
    for m in range(1, N + 1):
        shift = order * np.pi / 2.0
        amp = float(m) ** order
        # d/dx cos(mx) chains to m*cos(mx + pi/2), similarly for sin.
        out[2 * (m - 1)] = SQRT2 * amp * np.cos(m * x + shift)
        out[2 * (m - 1) + 1] = SQRT2 * amp * np.sin(m * x + shift)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TrigSeries:
    """f(x) = mean + Re sum_k c_k e^{ikx}, c_k = a_k - i b_k, over the kept
    wavenumbers k of an n-node interpolant (the Nyquist row is not doubled)."""

    n: int
    mean: float
    k: np.ndarray
    c: np.ndarray


def trig_series(f: ScalarField) -> TrigSeries:
    """The spectrum of f, taken once for any number of off-grid evaluations.
    Modes with |a_k| + |b_k| <= 1e-15 * max(1, largest such sum) are dropped,
    so evaluation cost tracks the band-limit of f, not the grid size."""
    n = f.grid.n
    c = np.fft.rfft(f.values) / n
    mean = float(c[0].real)
    c = 2.0 * c[1:]
    c[-1] = 0.5 * c[-1].real
    amp = np.abs(c.real) + np.abs(c.imag)
    keep = amp > 1e-15 * max(1.0, amp.max())
    return TrigSeries(n, mean, np.arange(1, n // 2 + 1, dtype=np.float64)[keep], c[keep])


def _rows(series: TrigSeries, orders) -> np.ndarray:
    """The coefficients d_k of each order's row, f^(p) = constant + Re sum_k d_k e^{ikx}.
    d/dx multiplies c_k by ik; positive odd orders drop the Nyquist mode."""
    k = series.k
    rows = np.array([series.c * ((1, 1j, -1, -1j)[p % 4] * k**p) for p in orders])
    if k.size and k[-1] == series.n // 2:  # the Nyquist mode is kept, and kept last
        rows[[p > 0 and p % 2 == 1 for p in orders], -1] = 0.0
    return rows


def eval_trig(series: TrigSeries, points: np.ndarray, orders=(0,)) -> np.ndarray:
    """One row per requested derivative order at arbitrary points, all from one
    Horner pass in z = e^{ix}, one power of z per distinct gap between kept
    wavenumbers.  Order -1 is int_0^x (f - mean).  Positive odd orders drop
    the Nyquist mode, matching deriv(); the other orders keep it."""
    points = np.asarray(points, dtype=np.float64)
    k = series.k
    rows = _rows(series, orders)
    # sum_k d_k z^k = z^g1 (d_1 + z^g2 (d_2 + ... + z^gm d_m)), g the gaps
    gaps = [b - a for a, b in zip([0.0] + k.tolist(), k.tolist())]
    powers = {g: np.exp(1j * g * points.ravel()) for g in set(gaps)}
    acc = np.zeros((len(orders), points.size), dtype=np.complex128)
    for j in reversed(range(k.size)):
        acc += rows[:, j, None]
        acc *= powers[gaps[j]]
    out = acc.real.copy()  # contiguous, and frees the complex sums
    for row, p, value_at_0 in zip(out, orders, rows.real.sum(axis=1)):
        if p == 0:
            row += series.mean
        elif p == -1:
            row -= value_at_0
    return out.reshape((len(orders),) + points.shape)


def derivative_series(series: TrigSeries, scale: float) -> TrigSeries:
    """The spectrum of scale * f' from f's: eval_trig's order-1 row as a
    series, exact to roundoff in each kept mode, where trig_series of
    sampled values of f' would also keep the FFT's roundoff modes."""
    return TrigSeries(series.n, 0.0, series.k, scale * _rows(series, (1,))[0])


def monotone_inverse(series: TrigSeries, order: int, targets) -> np.ndarray:
    """The root x of G(x) = x + D(x) = y at each target y, where D is row
    `order` of eval_trig on `series` and G is increasing (1 + D' > 0).
    G(x + 2*pi) = G(x) + 2*pi, so every real target has one root.

    One zero-padded inverse FFT tabulates G on the nodes of SEED_CELLS uniform
    cells of one turn (2n on a finer grid), and linear inversion of that table
    seeds Newton.  The bracket is the seed's cell widened by one cell on each
    side, which holds the root whatever the table's roundoff; a step that
    leaves it bisects instead.  Only the active set is evaluated and stepped:
    a point whose residual is below 1e-14 is frozen, so converged points
    neither cost an evaluation nor drift onto their bracket ends.  Raises
    NumericalError, naming the worst index, its target and residual, when a
    residual is still above 1e-12 after 80 iterations.
    """
    y = np.asarray(targets, dtype=np.float64)
    cells = max(SEED_CELLS, 2 * series.n)  # resolves every kept wavenumber
    spectrum = np.zeros(cells // 2 + 1, dtype=np.complex128)
    spectrum[series.k.astype(np.intp)] = 0.5 * cells * _rows(series, (order,))[0]
    spectrum[0] = cells * series.mean if order == 0 else 0.0
    wobble = np.fft.irfft(spectrum, cells)
    if order == -1:  # int_0^0 is exactly zero, so G(0) = 0 and G(2*pi) = 2*pi
        wobble -= wobble[0]
    nodes = TWO_PI * np.arange(cells + 1) / cells
    table = nodes + np.append(wobble, wobble[0])
    # each target moved by whole turns into [G(0), G(0) + 2*pi), the table's range
    flat = y.ravel()
    turns = np.floor((flat - table[0]) / TWO_PI)
    goal = flat - TWO_PI * turns
    x = np.interp(goal, table, nodes)
    cell = np.clip(np.searchsorted(nodes, x, "right") - 1, 0, cells - 1)
    lo, hi = nodes[np.maximum(cell - 1, 0)], nodes[np.minimum(cell + 2, cells)]
    # order -1 is int_0^x (f - mean), whose slope is row 0 less the mean
    slope_shift = series.mean if order == -1 else 0.0
    active = np.arange(flat.size)
    for _ in range(80):
        value, slope = eval_trig(series, x[active], (order, order + 1))
        xa = x[active]
        err = xa + value - goal[active]
        moving = ~(np.abs(err) < 1e-14)  # a NaN residual stays active
        if not moving.any():
            break
        active, xa, err = active[moving], xa[moving], err[moving]
        slope = 1.0 + slope[moving] - slope_shift
        hi[active] = np.where(err > 0.0, np.minimum(hi[active], xa), hi[active])
        lo[active] = np.where(err < 0.0, np.maximum(lo[active], xa), lo[active])
        x_new = xa - err / slope
        bad = (x_new <= lo[active]) | (x_new >= hi[active])
        x[active] = np.where(bad, 0.5 * (lo[active] + hi[active]), x_new)
    else:
        resid = np.abs(x + eval_trig(series, x, (order,))[0] - goal)
        worst = int(np.argmax(resid))
        if not resid[worst] <= 1e-12:  # a NaN residual fails too
            raise NumericalError(
                f"monotone inverse failed to converge after 80 iterations: worst "
                f"index {worst} (target {float(flat[worst])!r}) has residual {resid[worst]:.3e}")
    return (x + TWO_PI * turns).reshape(y.shape)


def time_grid(times) -> np.ndarray:
    """A path's time grid: 1-d, starting at t = 0 and strictly increasing.
    Every path builder checks its grid here before any work."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 1 or times[0] != 0.0 or not np.all(np.diff(times) > 0.0):
        raise ConfigError("time grids start at t = 0 and increase strictly")
    return times


def rk4(f, t0: float, t1: float, y: np.ndarray, steps: int) -> np.ndarray:
    """Classical RK4 for dy/dt = f(t, y) from (t0, y) to t1 in `steps` steps.
    The step start accumulates as t += h, so the stage times t, t + h/2, t + h
    repeat bitwise from one step to the next."""
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def rk4_substeps(dt: float, modes: int, speed: float) -> int:
    """The RK4 step count over an interval dt for a field carrying wavenumbers
    up to `modes` and advected at `speed`: at least 4, and enough that each
    step's CFL number h*modes*speed stays within RK4_CFL."""
    return max(4, int(np.ceil(dt * modes * speed / RK4_CFL)))


def field_from_coeffs(grid: GridSpec, coeffs: np.ndarray) -> ScalarField:
    """Linear combination of the 2N orthonormal basis rows."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    N = coeffs.size // 2
    if coeffs.size != 2 * N or N < 1:
        raise ConfigError(f"coefficient vector must have even positive length, got {coeffs.size}")
    return ScalarField(grid, coeffs @ basis_matrix(grid, N, 0))
