"""Tangent vectors, the Otto metric, linear statistics, and gradient-field flows."""

import numpy as np
import pytest

from ottocircle import (
    DomainError,
    ScalarField,
    TangentVector,
    GridSpec,
    WeightedOperatorContext,
    basis_matrix,
    cosine_density,
    deriv,
    flow_map,
    flow_path,
    integrate,
    metric_gram,
    otto_inner,
    otto_norm,
    uniform_density,
    vector_from_potential,
)

GRID = GridSpec(128)
VOL = uniform_density(GRID)
WEIGHTED = cosine_density(GRID, 0.3)
N_MODES = 6


@pytest.fixture(scope="module")
def ctx_vol():
    return WeightedOperatorContext(VOL, N_MODES)


@pytest.fixture(scope="module")
def ctx_weighted():
    return WeightedOperatorContext(WEIGHTED, N_MODES)


def unit_vector(index, base=VOL):
    coeffs = np.zeros(2 * N_MODES)
    coeffs[index] = 1.0
    return TangentVector(coeffs, base)


def test_gram_diagonal_at_uniform():
    ctx = metric_gram(VOL, N_MODES)
    expected = np.diag(np.repeat(np.arange(1, N_MODES + 1), 2) ** 2).astype(float)
    np.testing.assert_allclose(ctx.gram, expected, atol=1e-13)


def test_otto_inner_frozen_values():
    gram = metric_gram(VOL, N_MODES)
    assert otto_inner(unit_vector(0), unit_vector(0), gram) == pytest.approx(1.0)
    assert otto_inner(unit_vector(2), unit_vector(2), gram) == pytest.approx(4.0)
    assert otto_inner(unit_vector(0), unit_vector(1), gram) == pytest.approx(0.0, abs=1e-13)
    assert otto_norm(unit_vector(4), gram) == pytest.approx(3.0)


def test_otto_inner_base_discipline():
    gram_vol = metric_gram(VOL, N_MODES)
    v_weighted = unit_vector(0, base=WEIGHTED)
    with pytest.raises(DomainError):
        otto_inner(v_weighted, v_weighted, gram_vol)
    with pytest.raises(DomainError):
        otto_inner(unit_vector(0), v_weighted, gram_vol)


def test_tangent_vector_validation():
    with pytest.raises(DomainError):
        TangentVector(np.zeros(5), VOL)
    with pytest.raises(DomainError):
        TangentVector(np.zeros((2, 4)), VOL)


def test_vector_from_potential_recovers_band_limited(ctx_weighted):
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal(2 * N_MODES)
    psi = ScalarField(GRID, coeffs @ ctx_weighted.basis0)
    v = vector_from_potential(psi, ctx_weighted)
    np.testing.assert_allclose(v.coeffs, coeffs, atol=1e-12)


def test_potential_roundtrip(ctx_vol):
    v = unit_vector(2)
    psi = ctx_vol.potential_values(v.coeffs)
    np.testing.assert_allclose(psi, basis_matrix(GRID, 2)[2], atol=1e-15)


def test_observable_frozen_value(ctx_weighted, ctx_vol):
    # the linear statistic int phi dmu for phi = cos x:
    # int cos(x) (1 + 0.3 cos x) dvol = 0.15
    phi = np.cos(GRID.nodes)
    assert ctx_weighted.mu_mean(phi) == pytest.approx(0.15, abs=1e-14)
    assert ctx_vol.mu_mean(phi) == pytest.approx(0.0, abs=1e-14)


def test_observable_derivative_matches_linearization(ctx_weighted):
    # moving mass along V_psi changes rho at rate -(rho psi')'; for a linear
    # statistic the chain rule gives exactly int phi' psi' dmu, which is the
    # order-1 weighted moment contracted with psi's coefficients
    rng = np.random.default_rng(23)
    phi = ScalarField(GRID, np.cos(2 * GRID.nodes) + 0.5 * np.sin(GRID.nodes))
    coeffs = rng.standard_normal(2 * N_MODES)
    dpsi = coeffs @ ctx_weighted.basis1
    drho = -deriv(ScalarField(GRID, WEIGHTED.rho * dpsi)).values
    linearized = float(np.mean(phi.values * drho))
    derivative = float(coeffs @ ctx_weighted.weighted_moment(deriv(phi).values, 1))
    assert derivative == pytest.approx(linearized, abs=1e-12)


def test_flow_map_fixed_points():
    psi = ScalarField(GRID, np.zeros(GRID.n))
    np.testing.assert_allclose(flow_map(psi, [0.0, 1.0]), [GRID.nodes] * 2, atol=1e-15)
    np.testing.assert_allclose(flow_map(ScalarField(GRID, np.cos(GRID.nodes)), [0.0]),
                               [GRID.nodes], atol=1e-15)


def test_flow_map_matches_separable_solution():
    # dx/dt = -sin x solves to tan(x/2) e^{-t} = tan(x0/2) on (0, pi)
    psi = ScalarField(GRID, np.cos(GRID.nodes))
    t = 0.4
    # 32 intervals of 8 steps: the step of a single 256-step pass
    moved = flow_map(psi, np.linspace(0.0, t, 33))[-1]
    interior = (GRID.nodes > 0.3) & (GRID.nodes < np.pi - 0.3)
    expected = 2.0 * np.arctan(np.tan(GRID.nodes[interior] / 2.0) * np.exp(-t))
    np.testing.assert_allclose(moved[interior], expected, atol=1e-10)


def test_flow_conserves_mass():
    psi = ScalarField(GRID, 0.2 * np.cos(GRID.nodes))
    nu = flow_path(WEIGHTED, psi, [0.0, 0.5]).densities[-1]
    assert integrate(nu.field()) == pytest.approx(1.0, abs=1e-12)
    assert nu.rho.min() > 0.0


def _remap_to_vol(v, ctx_vol):
    """Project the velocity field rho * psi' of V_psi onto gradients at vol."""
    coeffs, _ = ctx_vol.project_gradient_coeffs(v.base.rho * (v.coeffs @ ctx_vol.basis1))
    return TangentVector(coeffs, VOL)


def test_remap_identity_at_uniform(ctx_vol):
    rng = np.random.default_rng(29)
    v = TangentVector(rng.standard_normal(2 * N_MODES), VOL)
    back = _remap_to_vol(v, ctx_vol)
    np.testing.assert_allclose(back.coeffs, v.coeffs, atol=1e-12)


def test_remap_norm_bound(ctx_vol):
    # the L^2(vol) projection contracts: |remap(v)|_vol^2 <= max(rho) |v|_mu^2
    rng = np.random.default_rng(31)
    v = TangentVector(rng.standard_normal(2 * N_MODES), WEIGHTED)
    moved = _remap_to_vol(v, ctx_vol)
    bound = WEIGHTED.rho.max() * otto_inner(v, v, metric_gram(WEIGHTED, N_MODES))
    assert otto_inner(moved, moved, metric_gram(VOL, N_MODES)) <= bound + 1e-12
