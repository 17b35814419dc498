"""Geodesic routes, caustics, action, and speed diagnostics."""

import numpy as np
import pytest

from ottocircle import (
    CausticError,
    CircleDistanceSolver,
    ConfigError,
    GeodesicPath,
    GridSpec,
    ScalarField,
    action,
    constant_speed_report,
    continuity_residual,
    cosine_density,
    displacement_path,
    first_caustic_time,
    flow_map,
    flow_path,
    geodesic_christoffel,
    geodesic_hj,
    integrate,
    path_to_csv,
    speed_squared_series,
    uniform_density,
)

GRID = GridSpec(256)
VOL = uniform_density(GRID)
WEIGHTED = cosine_density(GRID, 0.3)
PSI0 = ScalarField(GRID, 0.1 * np.cos(GRID.nodes))
TIMES = np.linspace(0.0, 1.0, 9)


@pytest.fixture(scope="module")
def hj_path():
    return geodesic_hj(WEIGHTED, PSI0, TIMES)


def test_first_caustic_time():
    # psi = 2 cos x has min second derivative -2, so crossing at t = 1/2
    steep = ScalarField(GRID, 2.0 * np.cos(GRID.nodes))
    assert first_caustic_time(steep) == pytest.approx(0.5, abs=1e-12)
    assert first_caustic_time(ScalarField(GRID, np.zeros(GRID.n))) == np.inf
    gentle = ScalarField(GRID, 0.1 * np.sin(GRID.nodes))
    assert first_caustic_time(gentle) == pytest.approx(10.0, abs=1e-9)


def test_caustic_error_carries_crossing_time():
    steep = ScalarField(GRID, 2.0 * np.cos(GRID.nodes))
    with pytest.raises(CausticError) as excinfo:
        geodesic_hj(VOL, steep, np.linspace(0.0, 1.0, 5))
    assert excinfo.value.first_crossing == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(CausticError):
        displacement_path(VOL, steep, np.array([0.0, 0.7]))


def test_time_grid_validation():
    with pytest.raises(ConfigError):
        geodesic_hj(VOL, PSI0, np.linspace(0.5, 1.0, 5))
    with pytest.raises(ConfigError):
        geodesic_christoffel(VOL, np.zeros(16), np.linspace(0.5, 1.0, 5))
    with pytest.raises(ConfigError):
        displacement_path(VOL, PSI0, np.linspace(0.5, 1.0, 5))
    with pytest.raises(ConfigError):
        flow_path(VOL, PSI0, [0.5, 1.0])
    with pytest.raises(ConfigError):
        flow_map(PSI0, [0.5, 1.0])


def test_time_grid_order_is_checked_before_any_work():
    # psi = 0.5 cos x reaches its caustic at t = 2: a grid that ends at 1.5
    # but passes t = 3 on the way must not start integrating
    psi = ScalarField(GRID, 0.5 * np.cos(GRID.nodes))
    coeffs = np.zeros(32)
    coeffs[0] = 0.5 / np.sqrt(2.0)
    times = np.array([0.0, 3.0, 1.5])
    for route, potential in ((geodesic_hj, psi), (geodesic_christoffel, coeffs),
                             (displacement_path, psi), (flow_path, psi)):
        with pytest.raises(ConfigError, match="increase strictly"):
            route(VOL, potential, times)


def _count_spectra(monkeypatch) -> list:
    """Record every trig_series call made through any ottocircle module."""
    import sys

    from ottocircle import grid

    real = grid.trig_series
    calls = []

    def counting(f):
        calls.append(f.grid.n)
        return real(f)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ottocircle" and getattr(module, "trig_series", None) is real:
            monkeypatch.setattr(module, "trig_series", counting)
    return calls


def test_routes_take_each_spectrum_once(monkeypatch):
    # more path times or a steeper potential mean more Newton iterations and
    # RK4 stages, never more spectra
    calls = _count_spectra(monkeypatch)
    for scale, count in ((1.0, 3), (4.0, 9)):
        psi = ScalarField(GRID, scale * PSI0.values)
        times = np.linspace(0.0, 1.0, count)
        calls.clear()
        geodesic_hj(WEIGHTED, psi, times)
        assert len(calls) == 1
        calls.clear()
        displacement_path(WEIGHTED, psi, times)
        # psi0 once, then the displacement and the density of each pushforward
        assert len(calls) == 1 + 2 * (count - 1)
    for count in (2, 17):
        calls.clear()
        flow_map(PSI0, np.linspace(0.0, 1.0, count))
        assert len(calls) == 1


def test_flow_path_integrates_once_across_its_grid(monkeypatch):
    # one RK4 pass of 12 steps on each of the 16 intervals of length 3/16,
    # not a fresh pass from t = 0 for every output time
    import ottocircle.tangent as tangent

    real = tangent.eval_trig
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tangent, "eval_trig", counting)
    flow_path(WEIGHTED, PSI0, np.linspace(0.0, 3.0, 17))
    assert len(calls) == 4 * 16 * 12


def test_flow_path_continues_where_a_single_pass_ends():
    # t_k = 3k/16 is a binary fraction and both grids step by h = 1/64, so
    # continuing from the previous time replays the same floating-point steps
    times = np.linspace(0.0, 3.0, 17)
    path = flow_path(WEIGHTED, PSI0, times)
    for k in range(1, times.size):
        alone = flow_path(WEIGHTED, PSI0, [0.0, times[k]]).densities[-1]
        assert np.array_equal(path.densities[k].rho, alone.rho), k


def test_path_container_validation():
    with pytest.raises(ConfigError):
        GeodesicPath(GRID, np.array([0.0, 1.0, 0.5]), [VOL] * 3, [PSI0] * 3)
    with pytest.raises(ConfigError):
        GeodesicPath(GRID, np.array([0.0, 1.0]), [VOL] * 3, [PSI0] * 2)
    with pytest.raises(ConfigError, match="start at t = 0"):
        GeodesicPath(GRID, np.array([0.5, 1.0]), [VOL] * 2, [PSI0] * 2)


def test_routes_agree(hj_path):
    # the same geodesic through characteristics, the coefficient ODE, and
    # displacement interpolation
    coeffs = np.zeros(32)
    coeffs[0] = 0.1 / np.sqrt(2.0)
    ch = geodesic_christoffel(WEIGHTED, coeffs, TIMES, N=16)
    di = displacement_path(WEIGHTED, PSI0, TIMES)
    rho_hj = np.stack([d.rho for d in hj_path.densities])
    rho_ch = np.stack([d.rho for d in ch.densities])
    rho_di = np.stack([d.rho for d in di.densities])
    assert np.abs(rho_hj - rho_ch).max() < 1e-8
    assert np.abs(rho_hj - rho_di).max() < 1e-6


def test_christoffel_route_accepts_tangent_vector():
    from ottocircle import TangentVector

    coeffs = np.zeros(32)
    coeffs[0] = 0.1 / np.sqrt(2.0)
    ch = geodesic_christoffel(WEIGHTED, TangentVector(coeffs, WEIGHTED), TIMES)
    assert len(ch.densities) == TIMES.size
    with pytest.raises(ConfigError):
        geodesic_christoffel(WEIGHTED, coeffs, TIMES, N=8)


def test_continuity_residual(hj_path):
    resid = continuity_residual(hj_path)
    assert np.isnan(resid[0]) and np.isnan(resid[-1])
    assert np.nanmax(resid) < 1e-6

    short = geodesic_hj(WEIGHTED, PSI0, np.linspace(0.0, 1.0, 3))
    with pytest.raises(ConfigError):
        continuity_residual(short)
    uneven = geodesic_hj(WEIGHTED, PSI0, np.array([0.0, 0.1, 0.3, 0.6, 1.0]))
    with pytest.raises(ConfigError):
        continuity_residual(uneven)


def test_mass_and_positivity_along_path(hj_path):
    for mu_t in hj_path.densities:
        assert integrate(mu_t.field()) == pytest.approx(1.0, abs=1e-12)
        assert mu_t.rho.min() > 0.0


def test_geodesic_speed_is_constant(hj_path):
    speeds = speed_squared_series(hj_path)
    assert (speeds.max() - speeds.min()) / speeds.mean() < 1e-10


def test_action_frozen_value():
    # from the uniform density with psi = 0.1 cos x the squared speed is
    # int (0.1 sin x)^2 dvol = 0.005, constant in time
    path = geodesic_hj(VOL, PSI0, TIMES)
    assert action(path) == pytest.approx(0.005, abs=1e-9)


def test_constant_speed_report(hj_path):
    solver = CircleDistanceSolver()
    sub = geodesic_hj(WEIGHTED, PSI0, np.linspace(0.0, 1.0, 5))
    report = constant_speed_report(sub, lambda a, b: solver.distance(a, b).w2)
    assert report["max_relative_deviation"] < 1e-3
    assert len(report["pairs"]) == 10
    assert report["reference_speed"] == pytest.approx(report["w2_endpoints"], rel=1e-12)


def test_flow_is_not_a_geodesic():
    # pushing along a fixed gradient field keeps the velocity potential but
    # the speed drifts; from the uniform base the drift is small yet clearly
    # above the geodesic's rounding-level variation
    flow = flow_path(VOL, PSI0, TIMES)
    s = speed_squared_series(flow)
    rel = (s.max() - s.min()) / s.mean()
    assert 1e-3 < rel < 1e-2
    weighted_flow = flow_path(WEIGHTED, PSI0, TIMES)
    sw = speed_squared_series(weighted_flow)
    assert (sw.max() - sw.min()) / sw.mean() > 1e-2


def test_path_serialization(tmp_path, hj_path):
    path_to_csv(hj_path, tmp_path / "geodesic.csv")
    with open(tmp_path / "geodesic.csv") as handle:
        rows = handle.read().strip().split("\n")
    assert rows[0] == "time,node,density,potential"
    assert len(rows) == 1 + TIMES.size * GRID.n
    last = [float(v) for v in rows[-1].split(",")]
    assert last == [float(TIMES[-1]), float(GRID.nodes[-1]), float(hj_path.densities[-1].rho[-1]),
                    float(hj_path.potentials[-1].values[-1])]
