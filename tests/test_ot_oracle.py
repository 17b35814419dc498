"""Circular optimal transport: quantile route, LP route, and their agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottocircle import (
    CircleDistanceSolver,
    ConfigError,
    GridSpec,
    NumericalError,
    ScalarField,
    circular_distance,
    cosine_density,
    density_atoms,
    flow_constant_field,
    transport_lp,
    uniform_density,
    w2_lp,
)
from ottocircle.ot_oracle import QUANTILE_MIDPOINTS, _QuantileTable, _SpectralCDF

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


def test_solver_caches_tables():
    solver = CircleDistanceSolver()
    mu = cosine_density(GRID, 0.3)
    nu = cosine_density(GRID, 0.3, phase=2.0)
    first = solver.distance(mu, nu).w2
    assert len(solver._tables) == 2
    second = solver.distance(mu, nu).w2
    assert len(solver._tables) == 2
    assert first == second


def test_table_build_inverts_the_cdf_once(monkeypatch):
    real = _SpectralCDF.quantile
    calls = []

    def counting(self, s):
        calls.append(np.size(s))
        return real(self, s)

    monkeypatch.setattr(_SpectralCDF, "quantile", counting)
    _QuantileTable(cosine_density(GRID, 0.3), 64)
    assert calls == [64]


def test_table_unrolled_passes_through_midpoint_quantiles():
    m = 64
    table = _QuantileTable(cosine_density(GRID, 0.45, mode=2), m)
    s = (np.arange(m) + 0.5) / m
    for k in (-1, 0, 1, 2):
        np.testing.assert_allclose(table.unrolled(s + k), table.q_mid + 2.0 * np.pi * k,
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["cosine", "cosine_mode2", "flow_pushforward"])
def test_table_off_grid_matches_direct_quantile(name):
    if name == "cosine":
        mu = cosine_density(GRID, 0.3)
    elif name == "cosine_mode2":
        mu = cosine_density(GRID, 0.45, mode=2)
    else:
        mu = _flow_density()
    table = CircleDistanceSolver().table(mu)
    # off-grid points across three turns, none on a midpoint or a turn boundary
    u = np.linspace(-1.0, 2.0, 401) + 1e-4 * np.pi
    turns = np.floor(u)
    direct = _SpectralCDF(mu).quantile(u - turns) + 2.0 * np.pi * turns
    np.testing.assert_allclose(table.unrolled(u), direct, rtol=0.0, atol=1e-10)


def _flow_density():
    # the t = 3 density of criterion 7's flow path: 1 + 0.3 cos x pushed
    # along grad(0.1 cos x), which keeps all 128 modes at n = 256
    psi = ScalarField(GRID, 0.1 * np.cos(GRID.nodes))
    return flow_constant_field(psi, cosine_density(GRID, 0.3), 3.0)


def test_quantile_evaluates_only_unconverged_points(monkeypatch):
    cdf = _SpectralCDF(_flow_density())
    assert cdf.k.size == 128
    real = _SpectralCDF._cdf_pdf
    points = []

    def counting(self, x):
        points.append(x.size)
        return real(self, x)

    monkeypatch.setattr(_SpectralCDF, "_cdf_pdf", counting)
    m = QUANTILE_MIDPOINTS
    cdf.quantile((np.arange(m) + 0.5) / m)
    # the seeded start needs one Newton step; converged points are frozen
    assert sum(points) <= 3 * m


def test_quantile_meets_the_stopping_rule_at_every_midpoint():
    cdf = _SpectralCDF(_flow_density())
    m = QUANTILE_MIDPOINTS
    s = (np.arange(m) + 0.5) / m
    assert np.abs(cdf.cdf(cdf.quantile(s)) - s).max() < 1e-14


@pytest.mark.parametrize("name", ["uniform", "cosine", "flow_pushforward"])
def test_quantile_pins_the_exact_endpoints(name):
    mu = {"uniform": VOL, "cosine": cosine_density(GRID, 0.3),
          "flow_pushforward": _flow_density()}[name]
    q = _SpectralCDF(mu).quantile(np.array([0.0, 1.0]))
    assert q[0] == 0.0
    assert q[1] == 2.0 * np.pi


def test_quantile_non_convergence_names_index_and_residual(monkeypatch):
    cdf = _SpectralCDF(cosine_density(GRID, 0.3))
    real = _SpectralCDF._cdf_pdf

    def offset(self, x):
        value, slope = real(self, x)
        return value + 1e-9, slope

    # an offset CDF sits above s = 0 on all of [0, 2*pi], so that target
    # cannot converge while the others still do
    monkeypatch.setattr(_SpectralCDF, "_cdf_pdf", offset)
    with pytest.raises(NumericalError, match=r"worst index 1 \(s = 0\.0\) has residual 1\.000e-09"):
        cdf.quantile(np.array([0.25, 0.0, 0.75]))


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


def test_lp_converges_to_quantile_route():
    mu = cosine_density(GRID, 0.3)
    nu = cosine_density(GRID, 0.3, phase=2.0)
    exact = CircleDistanceSolver().distance(mu, nu).w2
    errors = [abs(w2_lp(mu, nu, m=m).w2 - exact) / exact for m in (16, 32, 64)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[2] > 8.0  # quadratic in the atom spacing
    assert errors[2] < 0.02
