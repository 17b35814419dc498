"""Grid, quadrature, and spectral differentiation."""

import numpy as np
import pytest

from ottocircle import (
    AliasingError,
    ConfigError,
    GridMismatchError,
    GridSpec,
    ScalarField,
    basis_matrix,
    deriv,
    eval_trig,
    field_from_coeffs,
    integrate,
    trig_series,
)
from ottocircle.grid import check_same_grid, rk4


@pytest.fixture(scope="module")
def grid():
    return GridSpec(64)


def test_grid_nodes_and_spacing(grid):
    assert grid.n == 64
    assert grid.spacing == pytest.approx(2.0 * np.pi / 64)
    np.testing.assert_allclose(grid.nodes, 2.0 * np.pi * np.arange(64) / 64)


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec(63)
    with pytest.raises(ConfigError):
        GridSpec(8)


def test_quadrature_is_node_mean(grid):
    # normalized volume: integral of 1 is 1, of cos^2(3x) is 1/2
    one = ScalarField(grid, np.ones(grid.n))
    assert integrate(one) == 1.0
    csq = ScalarField(grid, np.cos(3 * grid.nodes) ** 2)
    assert integrate(csq) == pytest.approx(0.5, abs=1e-14)


def test_spectral_derivative_exact_for_band_limited(grid):
    f = ScalarField(grid, np.cos(3 * grid.nodes))
    df = deriv(f)
    np.testing.assert_allclose(df.values, -3.0 * np.sin(3 * grid.nodes), atol=1e-12)
    d2f = deriv(f, order=2)
    np.testing.assert_allclose(d2f.values, -9.0 * np.cos(3 * grid.nodes), atol=1e-11)


def test_derivative_order_validation(grid):
    f = ScalarField(grid, np.sin(grid.nodes))
    with pytest.raises(ConfigError):
        deriv(f, order=0)


def test_odd_derivative_kills_nyquist(grid):
    nyquist = ScalarField(grid, np.cos((grid.n // 2) * grid.nodes))
    np.testing.assert_allclose(deriv(nyquist).values, 0.0, atol=1e-13)


def test_basis_orthonormal(grid):
    b = basis_matrix(grid, 6)
    gram = b @ b.T / grid.n
    np.testing.assert_allclose(gram, np.eye(12), atol=1e-14)


def test_basis_matrix_antialiasing(grid):
    with pytest.raises(AliasingError):
        basis_matrix(grid, grid.n // 4)


def test_basis_matrix_derivative_rows(grid):
    b0 = basis_matrix(grid, 4)
    b1 = basis_matrix(grid, 4, order=1)
    for row in range(8):
        expected = deriv(ScalarField(grid, b0[row])).values
        np.testing.assert_allclose(b1[row], expected, atol=1e-12)


def test_trig_series_roundtrip(grid):
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(8)
    f = ScalarField(grid, 0.7 + field_from_coeffs(grid, coeffs).values)
    series = trig_series(f)
    assert series.mean == pytest.approx(0.7, abs=1e-14)
    # the negligible modes above the band-limit are dropped
    np.testing.assert_array_equal(series.k, np.arange(1, 5))
    rebuilt = series.mean + sum(
        c.real * np.cos(k * grid.nodes) - c.imag * np.sin(k * grid.nodes)
        for k, c in zip(series.k, series.c)
    )
    np.testing.assert_allclose(rebuilt, f.values, atol=1e-13)


def test_eval_trig_off_grid(grid):
    series = trig_series(ScalarField(grid, 0.3 * np.cos(2 * grid.nodes)))
    points = np.array([0.1, 1.7, 4.2, 6.1])
    value, slope = eval_trig(series, points, (0, 1))
    np.testing.assert_allclose(value, 0.3 * np.cos(2 * points), atol=1e-14)
    np.testing.assert_allclose(slope, -0.6 * np.sin(2 * points), atol=1e-14)


def _close(actual, expected):
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= 1e-12 * scale


def test_eval_trig_orders_in_one_call(grid):
    # full spectrum, Nyquist row included, evaluated on the nodes of the 2n
    # grid: the even ones are the n grid's nodes, and the order -1 row (whose
    # Nyquist term is a sine) is differentiated there without aliasing
    rng = np.random.default_rng(5)
    values = 0.4 + rng.standard_normal(grid.n)
    values += 0.8 * np.cos(grid.n // 2 * grid.nodes)
    f = ScalarField(grid, values)
    series = trig_series(f)
    assert series.k.size == grid.n // 2
    assert abs(series.c[-1]) > 0.5
    fine = GridSpec(2 * grid.n)
    rows = eval_trig(series, fine.nodes, (-1, 0, 1, 2, 3))
    assert rows.shape == (5, fine.n)
    _close(deriv(ScalarField(fine, rows[0])).values[::2], values - np.mean(values))
    _close(rows[1][::2], values)
    for order in (1, 2, 3):
        _close(rows[order + 1][::2], deriv(f, order).values)


def test_eval_trig_nyquist_rule(grid):
    # positive odd orders drop the Nyquist mode, even orders keep it
    half = grid.n // 2
    series = trig_series(ScalarField(grid, np.cos(half * grid.nodes)))
    points = np.array([0.1, 1.7, 4.2, 6.1])
    rows = eval_trig(series, points, (0, 1, 2, 3))
    _close(rows[0], np.cos(half * points))
    _close(rows[2], -half**2 * np.cos(half * points))
    np.testing.assert_array_equal(rows[1], 0.0)
    np.testing.assert_array_equal(rows[3], 0.0)


def test_field_from_coeffs_matches_basis(grid):
    coeffs = np.array([1.0, 0.0, 0.0, -2.0])
    f = field_from_coeffs(grid, coeffs)
    expected = np.sqrt(2.0) * np.cos(grid.nodes) - 2.0 * np.sqrt(2.0) * np.sin(2 * grid.nodes)
    np.testing.assert_allclose(f.values, expected, atol=1e-15)


def test_rk4_is_fourth_order():
    # dy/dt = y from y(0) = 1: halving the step cuts the error at t = 1 by ~16x
    errors = [abs(rk4(lambda _t, y: y, 0.0, 1.0, np.ones(1), steps)[0] - np.e)
              for steps in (8, 16)]
    assert errors[0] / errors[1] >= 15.0


def test_rk4_stage_times_accumulate():
    # stage times are t, t + h/2 and t + h with t advanced by t += h, so the
    # end of one step keys the same cache entry as the start of the next
    seen = []
    rk4(lambda t, y: seen.append(t) or y, 0.3, 1.0, np.ones(1), 3)
    h = (1.0 - 0.3) / 3
    expected, t = [], 0.3
    for _ in range(3):
        expected += [t, t + 0.5 * h, t + 0.5 * h, t + h]
        t += h
    assert seen == expected
    assert seen[3] == seen[4] and seen[7] == seen[8]


def test_grid_mismatch_checks(grid):
    other = GridSpec(32)
    f = ScalarField(grid, np.zeros(grid.n))
    g = ScalarField(other, np.zeros(other.n))
    with pytest.raises(GridMismatchError):
        check_same_grid(f, g)
    with pytest.raises(GridMismatchError):
        ScalarField(grid, np.zeros(10))
