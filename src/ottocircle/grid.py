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


def trig_coefficients(f: ScalarField) -> tuple[float, np.ndarray, np.ndarray]:
    """(mean, cosine coeffs a_k, sine coeffs b_k) of the trig interpolant.

    f(x) = mean + sum_k a_k cos(kx) + b_k sin(kx), k = 1 .. n/2 (the Nyquist
    row sits in a_{n/2} with b_{n/2} = 0).
    """
    n = f.grid.n
    c = np.fft.rfft(f.values) / n
    a = 2.0 * c[1:].real
    b = -2.0 * c[1:].imag
    a[-1] *= 0.5  # Nyquist bin is not doubled
    b[-1] = 0.0
    return float(c[0].real), a, b


def eval_trig(f: ScalarField, points: np.ndarray, order: int = 0) -> np.ndarray:
    """Evaluate the trig interpolant of f (or a derivative) at arbitrary points.

    Modes with negligible amplitude are dropped, so evaluation cost tracks the
    actual band-limit of f rather than the grid size.  Odd orders drop the
    Nyquist mode, matching deriv().
    """
    points = np.asarray(points, dtype=np.float64)
    mean, a, b = trig_coefficients(f)
    k = np.arange(1, f.grid.n // 2 + 1, dtype=np.float64)
    amp = np.abs(a) + np.abs(b)
    keep = amp > 1e-15 * max(1.0, amp.max() if amp.size else 0.0)
    if order % 2 == 1:
        keep[-1] = False
    k, a, b = k[keep], a[keep], b[keep]
    shift = order * np.pi / 2.0
    scale = k**order
    phases = np.multiply.outer(k, points) + shift
    out = (scale * a) @ np.cos(phases) + (scale * b) @ np.sin(phases)
    if order == 0:
        out = out + mean
    return out


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
