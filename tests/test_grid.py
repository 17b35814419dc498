"""Grid, quadrature, and spectral differentiation."""

import numpy as np
import pytest

from ottocircle import (
    AliasingError,
    CircleDistanceSolver,
    ConfigError,
    GridMismatchError,
    GridSpec,
    NumericalError,
    ScalarField,
    WeightedOperatorContext,
    basis_matrix,
    deriv,
    eval_trig,
    field_from_coeffs,
    geodesic_hj,
    integrate,
    lie_bracket,
    pushforward_monotone,
    trig_series,
    uniform_density,
    weighted_inner,
)
from ottocircle import grid as grid_module
from ottocircle.grid import (TrigSeries, aliasing_bound, check_same_grid, monotone_inverse, rk4,
                             rk4_substeps)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(64)


def test_grid_nodes_and_spacing(grid):
    assert grid.n == 64
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
    b = basis_matrix(grid, 6, 0)
    gram = b @ b.T / grid.n
    np.testing.assert_allclose(gram, np.eye(12), atol=1e-14)


def test_basis_matrix_antialiasing(grid):
    with pytest.raises(AliasingError):
        basis_matrix(grid, grid.n // 4, 0)


@pytest.mark.parametrize("N", [4, 8, 16])
def test_aliasing_bound_is_the_node_count_basis_tables_must_exceed(N):
    n = aliasing_bound(N)
    with pytest.raises(AliasingError):
        basis_matrix(GridSpec(n), N, 0)
    assert basis_matrix(GridSpec(n + 2), N, 0).shape == (2 * N, n + 2)


def test_basis_matrix_derivative_rows(grid):
    b0 = basis_matrix(grid, 4, 0)
    b1 = basis_matrix(grid, 4, 1)
    for row in range(8):
        expected = deriv(ScalarField(grid, b0[row])).values
        np.testing.assert_allclose(b1[row], expected, atol=1e-12)


def test_basis_matrix_is_cached_and_read_only():
    # equal grids share one table; the cache holds a fixed number of them
    table = basis_matrix(GridSpec(128), 5, 1)
    assert basis_matrix(GridSpec(128), 5, 1) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    assert basis_matrix.cache_info().maxsize == 16
    # field_from_coeffs reads the operator context's cached table
    WeightedOperatorContext(uniform_density(GridSpec(128)), 5)
    misses = basis_matrix.cache_info().misses
    field_from_coeffs(GridSpec(128), np.ones(10))
    assert basis_matrix.cache_info().misses == misses


def test_basis_matrix_has_one_call_form_and_one_cache_entry_per_table():
    # the context, field_from_coeffs and a direct call all read one table, so
    # orders 0, 1 and 2 of one (grid, N) cost three cache entries, not more
    grid = GridSpec(96)
    before = basis_matrix.cache_info()
    table = basis_matrix(grid, 3, 0)
    field_from_coeffs(grid, np.ones(6))
    assert WeightedOperatorContext(uniform_density(grid), 3).basis0 is table
    assert basis_matrix(grid, 3, 0) is table
    after = basis_matrix.cache_info()
    assert after.misses - before.misses == 3
    assert after.hits - before.hits == 3


@pytest.mark.parametrize("args, kwargs", [((3,), {"order": 0}), ((3,), {}),
                                         ((), {"N": 3, "order": 0})],
                         ids=["order_keyword", "order_missing", "all_keywords"])
def test_basis_matrix_takes_positional_arguments_only(args, kwargs):
    with pytest.raises(TypeError):
        basis_matrix(GridSpec(96), *args, **kwargs)


def test_basis_matrix_bad_truncation_raises_every_time(grid):
    for _ in range(2):
        with pytest.raises(AliasingError):
            basis_matrix(grid, grid.n // 4, 0)
        with pytest.raises(ConfigError):
            basis_matrix(grid, 0, 0)


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


def test_derivative_series_is_the_scaled_order_one_row(grid):
    # full spectrum with a Nyquist row: scale * f' and its second derivative,
    # as eval_trig reads them off f's own series (f' drops the Nyquist row,
    # as deriv does, so its first derivative is not f'' there)
    rng = np.random.default_rng(7)
    series = trig_series(ScalarField(grid, 0.3 + rng.standard_normal(grid.n)))
    slope = grid_module.derivative_series(series, 0.25)
    assert slope.mean == 0.0 and np.array_equal(slope.k, series.k)
    points = rng.uniform(0.0, 2.0 * np.pi, 9)
    _close(eval_trig(slope, points, (0, 2)), 0.25 * eval_trig(series, points, (1, 3)))


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


def test_eval_trig_matches_a_direct_sum_on_a_sparse_spectrum(grid):
    # kept wavenumbers with gaps of 1, 3, 7 and 21 and a kept Nyquist mode
    half = grid.n // 2
    k = np.array([1.0, 2.0, 5.0, 8.0, 11.0, half])
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(k.size), rng.standard_normal(k.size)
    x = grid.nodes
    values = 0.6 + sum(ai * np.cos(ki * x) + bi * np.sin(ki * x) for ki, ai, bi in zip(k, a, b))
    series = trig_series(ScalarField(grid, values))
    np.testing.assert_array_equal(series.k, k)
    points = rng.uniform(0.0, 2.0 * np.pi, 50)
    rows = eval_trig(series, points, (-1, 0, 1, 2, 3))
    # the Nyquist mode is b sin(half x) on the grid, so only its cosine counts
    b[-1] = 0.0
    phases = np.multiply.outer(k, points)
    cos, sin = np.cos(phases), np.sin(phases)
    expected = {
        -1: (a / k) @ sin + (b / k) @ (1.0 - cos),
        0: 0.6 + a @ cos + b @ sin,
        1: (k[:-1] * b[:-1]) @ cos[:-1] - (k[:-1] * a[:-1]) @ sin[:-1],
        2: -(k**2 * a) @ cos - (k**2 * b) @ sin,
        3: (k[:-1] ** 3 * a[:-1]) @ sin[:-1] - (k[:-1] ** 3 * b[:-1]) @ cos[:-1],
    }
    for row, order in zip(rows, (-1, 0, 1, 2, 3)):
        scale = np.abs(expected[order]).max()
        assert np.abs(row - expected[order]).max() <= 1e-13 * scale, order


def test_eval_trig_constant_field(grid):
    series = trig_series(ScalarField(grid, np.full(grid.n, 0.4)))
    assert series.k.size == 0
    points = np.array([0.1, 1.7, 4.2])
    rows = eval_trig(series, points, (-1, 0, 1))
    np.testing.assert_array_equal(rows, [[0.0] * 3, [0.4] * 3, [0.0] * 3])


@pytest.mark.parametrize("points", [np.float64(1.3), np.linspace(0.0, 6.0, 7),
                                    np.linspace(0.0, 6.0, 12).reshape(3, 4)],
                         ids=["scalar", "1-d", "2-d"])
def test_eval_trig_keeps_the_point_shape(grid, points):
    series = trig_series(ScalarField(grid, np.cos(grid.nodes) + 0.2 * np.sin(3 * grid.nodes)))
    rows = eval_trig(series, points, (0, 2))
    assert rows.shape == (2,) + np.shape(points)
    np.testing.assert_allclose(rows[0], np.cos(points) + 0.2 * np.sin(3 * points), atol=1e-14)


def _near_fold_series(order):
    """n = 64 series whose row `order` is D = 0.999 sin(30x)/30, so that every
    order inverts the one map x + D(x), of slope 1 + 0.999 cos(30x) >= 1e-3."""
    x = GridSpec(64).nodes
    values = {-1: 1.0 + 0.999 * np.cos(30 * x), 0: 0.999 * np.sin(30 * x) / 30,
              1: -0.999 * np.cos(30 * x) / 900}[order]
    return trig_series(ScalarField(GridSpec(64), values))


@pytest.mark.parametrize("order", [-1, 0, 1])
def test_monotone_inverse_solves_every_order_over_two_turns(monkeypatch, order):
    series = _near_fold_series(order)
    y = np.linspace(-2.0 * np.pi, 2.0 * np.pi, 20001)
    # the default table, then one of 2n = 128 cells (SEED_CELLS below 2n):
    # seeded a few cells from the root on the 1e-3 flats, Newton leaves the
    # bracket there and bisection takes over (plain Newton fails to converge)
    for cells in (grid_module.SEED_CELLS, 16):
        monkeypatch.setattr(grid_module, "SEED_CELLS", cells)
        x = monotone_inverse(series, order, y)
        assert x.shape == y.shape
        assert np.abs(x + eval_trig(series, x, (order,))[0] - y).max() <= 1e-13
        assert np.all(np.diff(x) > 0.0)


def test_monotone_inverse_names_the_worst_index_of_a_nan_series():
    series = TrigSeries(64, np.nan, np.array([1.0, 2.0]), np.array([np.nan, 0.1 + 0.2j]))
    with pytest.raises(NumericalError, match=r"worst index 0 \(target 0\.5\) has residual nan"):
        monotone_inverse(series, 0, np.array([0.5, 1.0]))


def test_field_from_coeffs_matches_basis(grid):
    coeffs = np.array([1.0, 0.0, 0.0, -2.0])
    f = field_from_coeffs(grid, coeffs)
    expected = np.sqrt(2.0) * np.cos(grid.nodes) - 2.0 * np.sqrt(2.0) * np.sin(2 * grid.nodes)
    np.testing.assert_allclose(f.values, expected, atol=1e-15)
    with pytest.raises(ConfigError, match="even positive length"):
        field_from_coeffs(grid, np.ones(3))


def test_rk4_is_fourth_order():
    # dy/dt = y from y(0) = 1: halving the step cuts the error at t = 1 by ~16x
    errors = [abs(rk4(lambda _t, y: y, 0.0, 1.0, np.ones(1), steps)[0] - np.e)
              for steps in (8, 16)]
    assert errors[0] / errors[1] >= 15.0


def test_rk4_substeps_keep_the_cfl_number_within_bound():
    # the CLI defaults (n = 256, 17 times on [0, 1], max|psi'| = 0.1) have a
    # CFL number of 0.2 at 4 steps; 1024 nodes at speed 0.5 need 8 steps
    assert rk4_substeps(1.0 / 16, 128, 0.1) == 4
    assert rk4_substeps(1.0 / 16, 512, 0.5) == 8
    assert rk4_substeps(1.0 / 16, 512, 0.0) == 4


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


@pytest.mark.parametrize("operation", [
    lambda f, mu: weighted_inner(f, f, mu),
    lambda f, mu: lie_bracket(f, f, WeightedOperatorContext(mu, 2)),
    lambda f, mu: geodesic_hj(mu, f, [0.0, 0.1]),
    lambda f, mu: pushforward_monotone(mu, f),
    lambda f, mu: CircleDistanceSolver().distance(uniform_density(f.grid), mu),
], ids=["weighted_inner", "lie_bracket", "geodesic_hj", "pushforward_monotone", "distance"])
def test_field_against_density_on_another_grid(operation):
    # check_same_grid takes the density itself, so a field or density on
    # n = 32 meets the n = 64 density's grid, not a copy of its own
    coarse = GridSpec(32)
    f = ScalarField(coarse, 0.1 * np.cos(coarse.nodes))
    with pytest.raises(GridMismatchError):
        operation(f, uniform_density(GridSpec(64)))
