"""Periodic grid, quadrature, and FFT differentiation on the circle.

The circle has circumference 2*pi and carries the normalized volume measure
dvol = dx / (2*pi), so the total measure is 1 and quadrature of a sampled
function is the plain mean of its node values (trapezoid rule on a uniform
periodic grid, spectrally accurate for smooth integrands).

Fields are node-value arrays on the uniform grid x_j = 2*pi*j/n.  The trig
basis used throughout is

    sqrt(2)*cos(k x), sqrt(2)*sin(k x),   1 <= k <= n/2 - 1,

orthonormal in L^2(dvol); constants are excluded because potentials are only
meaningful modulo constants.

All off-grid evaluation goes through one evaluator: trig_series takes a
field's spectrum once, and eval_trig evaluates any set of derivative orders
of it, and the antiderivative as order -1, from one phase table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, ConfigError, GridMismatchError

TWO_PI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)


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

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n


@dataclass(frozen=True)
class _NodeValues:
    """Float64 values at the grid nodes, one per node."""

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


@dataclass(frozen=True)
class ScalarField(_NodeValues):
    """Real function sampled at the grid nodes."""


@dataclass(frozen=True)
class OneForm(_NodeValues):
    """One-form w(x) dx sampled at the grid nodes (coefficient of dx).

    On the circle with the standard metric the musical isomorphisms are the
    identity on coefficient arrays, so vector fields and one-forms share this
    representation; the distinction is kept in type only.
    """


def check_same_grid(a, b) -> GridSpec:
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


def basis_matrix(grid: GridSpec, N: int, order: int = 0) -> np.ndarray:
    """Rows are the 2N basis functions (or their order-th derivatives) at the nodes.

    Ordering: cos 1, sin 1, cos 2, sin 2, ..., cos N, sin N.
    """
    if N < 1:
        raise ConfigError(f"truncation N must be >= 1, got {N}")
    if 4 * N >= grid.n:
        raise AliasingError(f"anti-aliasing constraint 4N < n violated: N={N}, n={grid.n}")
    x = grid.nodes
    out = np.empty((2 * N, grid.n))
    for m in range(1, N + 1):
        shift = order * np.pi / 2.0
        amp = float(m) ** order
        # d/dx cos(mx) chains to m*cos(mx + pi/2), similarly for sin.
        out[2 * (m - 1)] = SQRT2 * amp * np.cos(m * x + shift)
        out[2 * (m - 1) + 1] = SQRT2 * amp * np.sin(m * x + shift)
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


def eval_trig(series: TrigSeries, points: np.ndarray, orders=(0,)) -> np.ndarray:
    """One row per requested derivative order at arbitrary points, all from
    one phase table.  Order -1 is int_0^x (f - mean).  Positive odd orders
    drop the Nyquist mode, matching deriv(); the other orders keep it."""
    points = np.asarray(points, dtype=np.float64)
    k = series.k
    # d/dx multiplies c_k by ik; Re(d e^{ikx}) = Re(d) cos(kx) - Im(d) sin(kx)
    rows = np.array([series.c * ((1, 1j, -1, -1j)[p % 4] * k**p) for p in orders])
    rows[np.ix_([p > 0 and p % 2 == 1 for p in orders], k == series.n // 2)] = 0.0
    phases = np.multiply.outer(k, points.ravel())
    out = rows.real @ np.cos(phases) - rows.imag @ np.sin(phases)
    for row, p, value_at_0 in zip(out, orders, rows.real.sum(axis=1)):
        if p == 0:
            row += series.mean
        elif p == -1:
            row -= value_at_0
    return out.reshape((len(orders),) + points.shape)


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
    repeat bitwise from one step to the next (callers may cache on them)."""
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


def field_from_coeffs(grid: GridSpec, coeffs: np.ndarray, order: int = 0) -> ScalarField:
    """Linear combination of the 2N orthonormal basis rows (or derivatives)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    N = coeffs.size // 2
    if coeffs.size != 2 * N or N < 1:
        raise ConfigError(f"coefficient vector must have even positive length, got {coeffs.size}")
    return ScalarField(grid, coeffs @ basis_matrix(grid, N, order))
