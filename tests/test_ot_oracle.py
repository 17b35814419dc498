"""Circular optimal transport: quantile route, LP route, and their agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottocircle import (
    CircleDistanceSolver,
    ConfigError,
    Density,
    GridSpec,
    NumericalError,
    ScalarField,
    circular_distance,
    cosine_density,
    density_atoms,
    flow_path,
    transport_lp,
    trig_series,
    uniform_density,
    w2_lp,
)
from ottocircle import grid, ot_oracle
from ottocircle.grid import monotone_inverse
from ottocircle.ot_oracle import QUANTILE_MIDPOINTS, _QuantileTable, _cdf
from package_imports import PACKAGE, imported_modules, package_imports

GRID = GridSpec(256)
VOL = uniform_density(GRID)


def test_circular_distance_frozen():
    assert circular_distance(0.0, np.pi) == pytest.approx(np.pi)
    assert circular_distance(0.1, 2.0 * np.pi - 0.1) == pytest.approx(0.2)
    assert circular_distance(1.3, 1.3) == 0.0
    # wraps any real inputs
    assert circular_distance(0.0, 2.0 * np.pi + 0.3) == pytest.approx(0.3)


def test_w2_identity_is_zero():
    mu = cosine_density(GRID, 0.3)
    assert CircleDistanceSolver().distance(mu, mu).w2 == pytest.approx(0.0, abs=1e-12)
    assert CircleDistanceSolver().distance(VOL, VOL).w2 == 0.0


def test_w2_mode_one_cosine_is_analytic():
    # the quantile displacement for 1 + eps cos x is exactly eps sin x, so
    # W2(vol, mu_eps) = eps / sqrt(2) with no higher-order correction
    for eps in (0.01, 0.05, 0.3):
        mu = cosine_density(GRID, eps)
        assert CircleDistanceSolver().distance(VOL, mu).w2 == pytest.approx(eps / np.sqrt(2.0), abs=1e-12)


def test_w2_symmetry_and_triangle():
    a = cosine_density(GRID, 0.25, phase=0.3)
    b = cosine_density(GRID, 0.4, mode=2, phase=1.0)
    c = cosine_density(GRID, 0.35, mode=3, phase=0.7)
    solver = CircleDistanceSolver()
    ab = solver.distance(a, b).w2
    ba = solver.distance(b, a).w2
    assert ab == pytest.approx(ba, abs=1e-12)
    bc = solver.distance(b, c).w2
    ac = solver.distance(a, c).w2
    assert ab + bc >= ac - 1e-12
    assert ac + bc >= ab - 1e-12


def test_w2_rotation_equivariance():
    # rotating both densities by the same angle cannot change the distance;
    # the stored phase enters as cos(mode*x - phase), so a rotation by delta
    # shifts phase by mode*delta
    delta = 0.9
    a = cosine_density(GRID, 0.25, phase=0.3)
    b = cosine_density(GRID, 0.4, mode=2, phase=1.0)
    a_rot = cosine_density(GRID, 0.25, phase=0.3 + delta)
    b_rot = cosine_density(GRID, 0.4, mode=2, phase=1.0 + 2.0 * delta)
    d = CircleDistanceSolver().distance(a, b).w2
    d_rot = CircleDistanceSolver().distance(a_rot, b_rot).w2
    assert d_rot == pytest.approx(d, abs=1e-10)


def test_w2_bounded_by_rigid_rotation():
    # moving every particle by delta is an admissible plan, so W2 <= delta
    mu = cosine_density(GRID, 0.3)
    delta = 0.4
    nu = cosine_density(GRID, 0.3, phase=delta)
    w = CircleDistanceSolver().distance(mu, nu).w2
    assert w <= delta + 1e-12
    # and a rigid rotation of a non-uniform profile is not optimal transport
    assert w < 0.6 * delta


@settings(max_examples=10, deadline=None)
@given(
    amp=st.floats(min_value=0.05, max_value=0.6),
    phase=st.floats(min_value=0.0, max_value=6.2),
    mode=st.integers(min_value=1, max_value=3),
)
def test_w2_nonnegative_and_symmetric(amp, phase, mode):
    mu = cosine_density(GRID, amp, mode=mode, phase=phase)
    fwd = CircleDistanceSolver().distance(VOL, mu).w2
    rev = CircleDistanceSolver().distance(mu, VOL).w2
    assert fwd >= 0.0
    assert fwd == pytest.approx(rev, abs=1e-10)


def _scan_pair(name):
    if name == "phase_half_pi":  # optimal cut ~0.196, about 400 cells from 0
        return cosine_density(GRID, 0.9), cosine_density(GRID, 0.9, phase=np.pi / 2)
    if name == "phase_pi":  # grid costs symmetric about j = 0
        return cosine_density(GRID, 0.9), cosine_density(GRID, 0.9, phase=np.pi)
    if name == "mode2_mode3":
        return (cosine_density(GRID, 0.3, mode=2, phase=0.4),
                cosine_density(GRID, 0.6, mode=3, phase=2.0))
    if name == "flow_pushforward":
        return cosine_density(GRID, 0.3), _flow_density()
    return cosine_density(GRID, 0.3), cosine_density(GRID, 0.3)


@pytest.mark.parametrize("name", ["phase_half_pi", "phase_pi", "mode2_mode3",
                                  "flow_pushforward", "identical"])
def test_cut_scan_finds_the_exhaustive_grid_minimum(name):
    mu, nu = _scan_pair(name)
    solver = CircleDistanceSolver()
    result = solver.distance(mu, nu)
    m = QUANTILE_MIDPOINTS
    qF, qG = solver.table(mu).q_mid, solver.table(nu).q_mid
    # every grid cut j/m in [-1, 1], one at a time
    costs = []
    for j in range(-m, m + 1):
        turn, k = divmod(j + np.arange(m), m)
        costs.append(np.mean((qF - qG[k] - 2.0 * np.pi * turn) ** 2))
    j_star = int(np.argmin(costs)) - m
    assert abs(result.shift - j_star / m) <= 1.0 / m
    assert result.w2_squared <= min(costs)


@pytest.mark.parametrize("name, w2, shift", [
    ("phase_half_pi", 0.8916000899889918, 0.19584723919508296),
    ("mode2_mode3", 0.176091511027785, 0.019605742130928142),
    ("flow_pushforward", 0.20876817955336602, -5.246416147413516e-10),
])
def test_distance_values_are_pinned(name, w2, shift):
    result = CircleDistanceSolver().distance(*_scan_pair(name))
    assert abs(result.w2 - w2) <= 1e-12
    assert abs(result.shift - shift) <= 1e-9


def _rotated_pair(seed):
    # criterion 10's pair family: two-mode densities a quarter to a half turn apart
    rng = np.random.default_rng(seed)
    a1, a2 = rng.uniform(0.25, 0.45, 2)
    t1, t2 = rng.uniform(0.0, 2.0 * np.pi, 2)
    delta = rng.uniform(np.pi / 2.0, np.pi)
    x = GRID.nodes
    va = 1.0 + a1 * np.cos(x - t1) + 0.5 * a2 * np.sin(2.0 * (x - t2))
    vb = 1.0 + a2 * np.cos(x - t1 - delta) + 0.5 * a1 * np.cos(2.0 * (x - t2 - delta))
    return Density(GRID, va / va.mean()), Density(GRID, vb / vb.mean())


POLISH_PAIRS = ["phase_half_pi", "phase_pi", "mode2_mode3", "flow_pushforward", "identical",
                "rotated_0", "rotated_1", "rotated_2"]


def _polish_case(name):
    """The solver's result on a pair, with the pair's source quantiles and target table."""
    pair = _rotated_pair(int(name[-1])) if name.startswith("rotated") else _scan_pair(name)
    solver = CircleDistanceSolver()
    return solver.distance(*pair), solver.table(pair[0]).q_mid, solver.table(pair[1])


def _spline_cost(qF, table, alphas):
    """mean((qF - quantile(s + alpha))^2) at each cut alpha, straight from the spline."""
    m = qF.size
    s = (np.arange(m) + 0.5) / m
    return np.concatenate([np.mean((qF - _unrolled(table, s + block[:, None])) ** 2, axis=1)
                           for block in np.array_split(np.asarray(alphas, dtype=float), 16)])


@pytest.mark.parametrize("name", POLISH_PAIRS)
def test_polish_value_is_the_spline_cost_at_its_shift(name):
    result, qF, table = _polish_case(name)
    direct = _spline_cost(qF, table, [result.shift])[0]
    assert abs(result.w2_squared - direct) <= 1e-13


@pytest.mark.parametrize("name", POLISH_PAIRS)
def test_polish_is_the_bracket_minimum(name):
    result, qF, table = _polish_case(name)
    m = QUANTILE_MIDPOINTS
    # the bracket is the two cells around the exhaustive grid minimum
    turns = np.concatenate((table.q_mid - 2.0 * np.pi, table.q_mid, table.q_mid + 2.0 * np.pi))
    best = int(np.argmin([np.mean((qF - turns[j: j + m]) ** 2) for j in range(2 * m + 1)])) - m
    sampled = _spline_cost(qF, table, np.linspace((best - 1) / m, (best + 1) / m, 4001))
    assert result.w2_squared <= sampled.min() + 1e-15


def test_polish_keeps_a_symmetric_pair_at_zero_shift():
    # the costs of the phase_pi pair are symmetric about the cut 0
    result, _, _ = _polish_case("phase_pi")
    assert abs(result.shift) <= 1e-12


def test_oracle_imports_no_geometry_module():
    # the oracle is an independent check on the geometry: of the package it
    # may import only the density type, the errors and the grid
    modules = package_imports("ot_oracle")
    assert modules and modules <= {"density", "errors", "grid"}, modules


def test_only_the_cli_writes_report_files():
    # the CLI owns its report files and creates --out, so it alone imports
    # os; besides it only density, which owns the custom-density CSV, imports csv
    roots = {path.stem: {name.split(".")[0] for name in imported_modules(path.stem)}
             for path in PACKAGE.glob("*.py")}
    assert {module for module, names in roots.items() if "csv" in names} == {"cli", "density"}
    assert {module for module, names in roots.items() if "os" in names} == {"cli"}


def test_solver_caches_tables():
    solver = CircleDistanceSolver()
    mu = cosine_density(GRID, 0.3)
    nu = cosine_density(GRID, 0.3, phase=2.0)
    first = solver.distance(mu, nu).w2
    assert len(solver._tables) == 2
    second = solver.distance(mu, nu).w2
    assert len(solver._tables) == 2
    assert first == second


def _series(mu):
    return trig_series(mu.field())


def _quantiles(series, s):
    """The CDF's inverse at s: x + int_0^x (rho - 1) = 2*pi*s."""
    return monotone_inverse(series, -1, 2.0 * np.pi * np.asarray(s))


def test_table_build_inverts_the_cdf_once(monkeypatch):
    calls = []

    def counting(series, order, targets):
        calls.append(np.size(targets))
        return monotone_inverse(series, order, targets)

    monkeypatch.setattr(ot_oracle, "monotone_inverse", counting)
    _QuantileTable(cosine_density(GRID, 0.3), 64)
    assert calls == [64]


def test_only_a_distance_target_builds_its_spline():
    # the source side of a distance reads only the midpoint quantiles
    solver = CircleDistanceSolver()
    mu, nu = cosine_density(GRID, 0.3), cosine_density(GRID, 0.2, phase=1.0)
    solver.distance(mu, nu)
    assert "spline" not in vars(solver.table(mu))
    assert "spline" in vars(solver.table(nu))


def _unrolled(table, u):
    """The table's quantile at any u, extended by quantile(u + 1) = quantile(u) + 2*pi:
    the spline's cubic on the cell holding u, at u's offset t in that cell."""
    m = table.s.size
    cell, t = np.divmod((np.asarray(u) - table.s[0]) * m, 1.0)
    rows = table.spline[:, cell.astype(int) % m]
    return 2.0 * np.pi * u + ((rows[3] * t + rows[2]) * t + rows[1]) * t + rows[0]


@pytest.mark.parametrize("name", ["cosine", "cosine_mode2", "flow_pushforward"])
def test_table_spline_is_scipys_periodic_cubic(name):
    # the numpy spline's coefficient rows are scipy's periodic CubicSpline
    # through the wobble at the midpoints, rescaled to the cell variable
    from scipy.interpolate import CubicSpline

    table = CircleDistanceSolver().table(_table_density(name))
    s, wobble, m = table.s, table.q_mid - 2.0 * np.pi * table.s, QUANTILE_MIDPOINTS
    expected = CubicSpline(np.append(s, s[0] + 1.0), np.append(wobble, wobble[0]),
                           bc_type="periodic").c[::-1] / float(m) ** np.arange(4)[:, None]
    assert table.spline.shape == (4, m)
    # the cubic row is of order 1e-8, so an absolute 1e-16 pins every row
    assert np.abs(table.spline - expected).max() <= 1e-16


def test_table_unrolled_passes_through_midpoint_quantiles():
    m = 64
    table = _QuantileTable(cosine_density(GRID, 0.45, mode=2), m)
    s = (np.arange(m) + 0.5) / m
    for k in (-1, 0, 1, 2):
        np.testing.assert_allclose(_unrolled(table, s + k), table.q_mid + 2.0 * np.pi * k,
                                   rtol=0.0, atol=1e-12)


def _table_density(name):
    if name == "cosine":
        return cosine_density(GRID, 0.3)
    if name == "cosine_mode2":
        return cosine_density(GRID, 0.45, mode=2)
    return _flow_density()


@pytest.mark.parametrize("name", ["cosine", "cosine_mode2", "flow_pushforward"])
def test_table_off_grid_matches_direct_quantile(name):
    mu = _table_density(name)
    table = CircleDistanceSolver().table(mu)
    # off-grid points across three turns, none on a midpoint or a turn boundary
    u = np.linspace(-1.0, 2.0, 401) + 1e-4 * np.pi
    turns = np.floor(u)
    direct = _quantiles(_series(mu), u - turns) + 2.0 * np.pi * turns
    np.testing.assert_allclose(_unrolled(table, u), direct, rtol=0.0, atol=1e-10)


def _flow_density():
    # the t = 3 density of criterion 7's flow path: 1 + 0.3 cos x pushed
    # along grad(0.1 cos x)
    psi = ScalarField(GRID, 0.1 * np.cos(GRID.nodes))
    return flow_path(cosine_density(GRID, 0.3), psi, [0.0, 3.0]).densities[-1]


def _all_modes_density():
    # 1 + 0.3 sum_k cos(k (x - 1)) / k^2 over k <= 128: all 128 modes at n = 256
    k = np.arange(1, 129)
    values = 1.0 + 0.3 * (np.cos(np.outer(GRID.nodes, k) - k) / k**2).sum(axis=1)
    return Density(GRID, values / values.mean())


def test_quantile_evaluates_only_unconverged_points(monkeypatch):
    series = _series(_all_modes_density())
    assert series.k.size == 128
    points = []
    eval_trig = grid.eval_trig

    def counting(series, x, orders):
        points.append(x.size)
        return eval_trig(series, x, orders)

    monkeypatch.setattr(grid, "eval_trig", counting)
    m = QUANTILE_MIDPOINTS
    _quantiles(series, (np.arange(m) + 0.5) / m)
    # the seeded start needs one Newton step; converged points are frozen
    assert sum(points) <= 3 * m


def test_quantile_meets_the_stopping_rule_at_every_midpoint():
    m = QUANTILE_MIDPOINTS
    s = (np.arange(m) + 0.5) / m
    for series in (_series(_flow_density()), _series(_all_modes_density())):
        assert np.abs(_cdf(series, _quantiles(series, s)) - s).max() < 1e-14


@pytest.mark.parametrize("name", ["uniform", "cosine", "flow_pushforward"])
def test_quantile_pins_the_exact_endpoints(name):
    mu = {"uniform": VOL, "cosine": cosine_density(GRID, 0.3),
          "flow_pushforward": _flow_density()}[name]
    q = _quantiles(_series(mu), np.array([0.0, 1.0]))
    assert q[0] == 0.0
    assert q[1] == 2.0 * np.pi


def test_quantile_non_convergence_names_index_and_residual(monkeypatch):
    series = _series(cosine_density(GRID, 0.3))
    eval_trig = grid.eval_trig

    def offset(series, x, orders):
        rows = eval_trig(series, x, orders)
        rows[0] += 1e-9
        return rows

    # an offset CDF sits above s = 0 on all of [0, 2*pi], so that target
    # cannot converge while the others still do
    monkeypatch.setattr(grid, "eval_trig", offset)
    with pytest.raises(NumericalError, match=r"worst index 1 \(target 0\.0\) has residual 1\.000e-09"):
        _quantiles(series, np.array([0.25, 0.0, 0.75]))


def test_transport_lp_two_antipodal_atoms():
    plan = transport_lp(np.array([0.0]), np.array([1.0]), np.array([np.pi]), np.array([1.0]))
    assert plan.w2 == pytest.approx(np.pi, abs=1e-9)
    assert plan.coupling.shape == (1, 1)


def test_transport_lp_marginals_and_positivity():
    rng = np.random.default_rng(109)
    xa = rng.uniform(0.0, 2.0 * np.pi, 12)
    xb = rng.uniform(0.0, 2.0 * np.pi, 9)
    wa = rng.uniform(0.2, 1.0, 12)
    wb = rng.uniform(0.2, 1.0, 9)
    wa /= wa.sum()
    wb /= wb.sum()
    plan = transport_lp(xa, wa, xb, wb)
    row_err, col_err = plan.marginal_errors()
    assert max(row_err, col_err) < 1e-9
    assert plan.coupling.min() >= -1e-12
    assert plan.w2 >= 0.0


def test_transport_lp_beats_product_coupling():
    rng = np.random.default_rng(113)
    xa = rng.uniform(0.0, 2.0 * np.pi, 8)
    xb = rng.uniform(0.0, 2.0 * np.pi, 8)
    wa = np.full(8, 1.0 / 8.0)
    wb = np.full(8, 1.0 / 8.0)
    plan = transport_lp(xa, wa, xb, wb)
    product_cost = float(
        np.einsum("i,j,ij->", wa, wb, circular_distance(xa[:, None], xb[None, :]) ** 2)
    )
    assert plan.w2_squared <= product_cost + 1e-12


def test_transport_lp_input_validation():
    good_x = np.array([0.0, 1.0])
    good_w = np.array([0.5, 0.5])
    with pytest.raises(ConfigError):
        transport_lp(good_x, np.array([0.6, 0.6]), good_x, good_w)  # mass 1.2
    with pytest.raises(ConfigError):
        transport_lp(good_x, np.array([-0.5, 1.5]), good_x, good_w)
    with pytest.raises(ConfigError):
        transport_lp(good_x, np.array([0.5, 0.25, 0.25]), good_x, good_w)


def test_density_atoms_masses():
    atoms = density_atoms(VOL, 16)
    np.testing.assert_allclose(atoms[1], np.full(16, 1.0 / 16.0), atol=1e-12)
    mu = cosine_density(GRID, 0.4)
    locations, weights = density_atoms(mu, 32)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert weights.min() > 0.0
    assert locations.min() >= 0.0 and locations.max() < 2.0 * np.pi
    # more mass where the density is high (near x = 0 for a cos profile)
    assert weights[0] > weights[16]
    with pytest.raises(ConfigError, match="at least 2 atoms"):
        density_atoms(mu, 1)


def test_lp_converges_to_quantile_route():
    mu = cosine_density(GRID, 0.3)
    nu = cosine_density(GRID, 0.3, phase=2.0)
    exact = CircleDistanceSolver().distance(mu, nu).w2
    errors = [abs(w2_lp(mu, nu, m=m).w2 - exact) / exact for m in (16, 32, 64)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[2] > 8.0  # quadratic in the atom spacing
    assert errors[2] < 0.02
