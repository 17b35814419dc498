"""Geodesic routes, caustics, action, and speed diagnostics."""

import dataclasses

import numpy as np
import pytest
import kepler

from ottocircle import (
    CausticError,
    CircleDistanceSolver,
    ConfigError,
    GeodesicPath,
    GridSpec,
    ScalarField,
    ValidationSession,
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
    speed_squared_series,
    uniform_density,
)
from ottocircle.cli import main

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


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call of the grid function `name` made through any
    ottocircle module."""
    import sys

    from ottocircle import grid

    real = getattr(grid, name)
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "ottocircle" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_routes_take_each_spectrum_once(monkeypatch):
    # more path times or a steeper potential mean more Newton iterations and
    # RK4 stages, never more spectra
    calls = _count_calls(monkeypatch, "trig_series")
    for scale, count in ((1.0, 3), (4.0, 9)):
        psi = ScalarField(GRID, scale * PSI0.values)
        times = np.linspace(0.0, 1.0, count)
        calls.clear()
        geodesic_hj(WEIGHTED, psi, times)
        assert len(calls) == 1
        calls.clear()
        displacement_path(WEIGHTED, psi, times)
        # psi0 and mu0 once each: every displacement's spectrum is t times
        # psi0's derivative row
        assert len(calls) == 2
    for count in (2, 17):
        calls.clear()
        flow_map(PSI0, np.linspace(0.0, 1.0, count))
        assert len(calls) == 1


def test_displacement_potentials_use_the_pushforward_feet(monkeypatch):
    # one monotone inverse per time after t = 0 gives both the density and
    # the feet of the characteristic potential: no second solve
    import ottocircle.density as density
    import ottocircle.geodesics as geodesics
    from ottocircle.grid import monotone_inverse

    inverses = []
    monkeypatch.setattr(density, "monotone_inverse",
                        lambda *args: inverses.append(1) or monotone_inverse(*args))
    for count in (2, 9, 17):
        inverses.clear()
        path = displacement_path(WEIGHTED, PSI0, np.linspace(0.0, 1.0, count))
        assert len(inverses) == count - 1
    # the same potentials as from a fresh solve of x + t*psi0'(x) = node
    series = geodesics.trig_series(PSI0)
    for t, mu_t, psi_t in zip(path.times[1:], path.densities[1:], path.potentials[1:]):
        feet = monotone_inverse(dataclasses.replace(series, c=t * series.c), 1, GRID.nodes)
        expected = geodesics._characteristic_potential(series, t, feet)
        np.testing.assert_allclose(psi_t.values, expected - np.mean(expected * mu_t.rho),
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("route", ["hj", "christoffel"])
def test_rk4_mass_drift_is_not_renormalized(monkeypatch, route):
    # RK4 continuity conserves mass to roundoff, so a density off by 1e-9
    # relative is a broken integration, named with its route and time
    import ottocircle.geodesics as geodesics

    from ottocircle.errors import NumericalError

    real = geodesics.rk4
    monkeypatch.setattr(geodesics, "rk4", lambda *args: real(*args) * (1.0 + 1e-9))
    with pytest.raises(NumericalError, match=rf"{route} route: the RK4 density at t = 0\.125 "
                                             r"is not a density \(density mass"):
        if route == "hj":
            geodesic_hj(WEIGHTED, PSI0, TIMES)
        else:
            geodesic_christoffel(WEIGHTED, np.eye(32)[0] * 0.1 / np.sqrt(2.0), TIMES)


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


def test_hj_integrates_the_eulerian_system_without_an_inverse(monkeypatch):
    # 16 intervals of 4 RK4 steps of 4 stages each, and no monotone inverse:
    # HJ advances (psi, rho) on the nodes and never solves for characteristics
    import ottocircle.geodesics as geodesics

    inverses = _count_calls(monkeypatch, "monotone_inverse")
    real = geodesics.rk4
    stages = []
    monkeypatch.setattr(geodesics, "rk4", lambda f, *args: real(
        lambda t, y: stages.append(t) or f(t, y), *args))
    times = np.linspace(0.0, 1.0, 17)
    hj = geodesic_hj(WEIGHTED, PSI0, times)
    assert inverses == [] and len(stages) == 4 * 4 * 16
    # its Eulerian potentials agree with the displacement route's
    # characteristic potentials at the pushforward feet (measured 4.8e-15)
    reference = displacement_path(WEIGHTED, PSI0, times)
    for a, b in zip(hj.potentials, reference.potentials):
        np.testing.assert_allclose(a.values, b.values, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n, a", kepler.CASES)
def test_routes_match_the_kepler_closed_form(n, a):
    mu, psi = kepler.start(n, a)
    coeffs = np.zeros(64)
    coeffs[0] = a / np.sqrt(2.0)  # psi0 = a cos x in the sqrt(2) cos x row, N = 32
    paths = {"hj": geodesic_hj(mu, psi, kepler.TIMES),
             "christoffel": geodesic_christoffel(mu, coeffs, kepler.TIMES),
             "displacement": displacement_path(mu, psi, kepler.TIMES)}
    for route, path in paths.items():
        assert kepler.worst_density_error(path, a) <= kepler.bound(route, a), route


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
    assert np.abs(rho_hj - rho_ch).max() < 1e-10
    assert np.abs(rho_hj - rho_di).max() < 1e-10


def test_displacement_route_matches_hj_to_roundoff():
    # criterion 4's scenario: the pushforward takes the exact Jacobian at the
    # feet of the nodes, so it meets the HJ route at the RK4 error, ~1e-13
    paths = ValidationSession().scenario_paths
    rho = {name: np.stack([d.rho for d in path.densities]) for name, path in paths.items()}
    assert np.abs(rho["displacement"] - rho["hj"]).max() <= 1e-12


def test_steep_potential_on_a_fine_grid_takes_stable_steps():
    # psi0 = 0.5 cos x on 1024 nodes, caustic at t = 2: 4 RK4 steps on each of
    # the 16 intervals would give a CFL number of 4, past RK4's 2*sqrt(2), and
    # a negative density by t = 0.3125; the step rule takes 8, and both RK4
    # routes meet the exact pushforward
    grid = GridSpec(1024)
    vol = uniform_density(grid)
    psi0 = ScalarField(grid, 0.5 * np.cos(grid.nodes))
    times = np.linspace(0.0, 1.0, 17)
    coeffs = np.zeros(64)
    coeffs[0] = 0.5 / np.sqrt(2.0)
    exact = np.stack([d.rho for d in displacement_path(vol, psi0, times).densities])
    hj = np.stack([d.rho for d in geodesic_hj(vol, psi0, times).densities])
    ch = np.stack([d.rho for d in geodesic_christoffel(vol, coeffs, times, N=32).densities])
    assert np.abs(hj - exact).max() <= 1e-8
    assert np.abs(ch - exact).max() <= 1e-7


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
    assert resid.shape == (hj_path.times.size - 4,)
    assert resid.max() < 1e-6

    short = geodesic_hj(WEIGHTED, PSI0, np.linspace(0.0, 1.0, 3))
    with pytest.raises(ConfigError):
        continuity_residual(short)
    uneven = geodesic_hj(WEIGHTED, PSI0, np.array([0.0, 0.1, 0.3, 0.6, 1.0]))
    with pytest.raises(ConfigError):
        continuity_residual(uneven)


@pytest.mark.parametrize("count", [5, 9])
def test_continuity_residual_has_one_finite_value_per_interior_time(count):
    # the 5-point stencil needs two times on each side, so T times give T - 4 values
    path = geodesic_hj(WEIGHTED, PSI0, np.linspace(0.0, 1.0, count))
    resid = continuity_residual(path)
    assert resid.shape == (count - 4,)
    assert np.all(np.isfinite(resid))


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
    assert report["pair_count"] == 10
    # the endpoint distance is the (first, last) pair's oracle value
    assert report["w2_endpoints"] == solver.distance(sub.densities[0], sub.densities[-1]).w2


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


def test_path_serialization(tmp_path):
    # `ottocircle geodesic` at the defaults writes each route's path as
    # (time, node, density, potential) rows; its HJ route starts at the
    # uniform density with psi0 = 0.1 cos x on 17 times in [0, 1]
    assert main(["geodesic", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "geodesic_hj.csv").read_text().strip().split("\n")
    assert rows[0] == "time,node,density,potential"
    assert len(rows) == 1 + 17 * GRID.n
    path = geodesic_hj(VOL, PSI0, np.linspace(0.0, 1.0, 17))
    last = [float(v) for v in rows[-1].split(",")]
    assert last == [1.0, float(GRID.nodes[-1]), float(path.densities[-1].rho[-1]),
                    float(path.potentials[-1].values[-1])]
