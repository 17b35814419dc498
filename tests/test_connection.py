"""Lie bracket, covariant derivative, Christoffel symbols, parallel transport.

The bracket and connection identities hold at solver precision only when the
quadratic products of the inputs stay inside the Galerkin span, so identity
tests draw potentials band-limited to N/2.
"""

import numpy as np
import pytest

from ottocircle import (
    ChristoffelTensor,
    DomainError,
    GridSpec,
    ScalarField,
    TangentVector,
    WeightedOperatorContext,
    christoffel,
    christoffel_residual,
    cosine_density,
    covariant_derivative,
    deriv,
    geodesic_hj,
    lie_bracket,
    metric_gram,
    otto_inner,
    otto_norm,
    parallel_transport,
    uniform_density,
    vector_from_potential,
)

GRID = GridSpec(256)
VOL = uniform_density(GRID)
WEIGHTED = cosine_density(GRID, 0.3)
N_MODES = 8


@pytest.fixture(scope="module")
def ctx_vol():
    return WeightedOperatorContext(VOL, N_MODES)


@pytest.fixture(scope="module")
def ctx_weighted():
    return WeightedOperatorContext(WEIGHTED, N_MODES)


def band_limited_pair(rng, ctx):
    """Two random potentials with modes <= N/2, so products stay in the span."""
    half = ctx.N // 2
    fields = []
    for _ in range(2):
        coeffs = np.zeros(2 * ctx.N)
        coeffs[: 2 * half] = rng.standard_normal(2 * half)
        fields.append(ScalarField(ctx.grid, coeffs @ ctx.basis0))
    return fields


def test_bracket_of_first_harmonics_vanishes_at_uniform(ctx_vol):
    # phi1' phi2'' - phi1'' phi2' is constant for the two first harmonics,
    # and constants project to zero
    c1 = ScalarField(GRID, np.sqrt(2.0) * np.cos(GRID.nodes))
    s1 = ScalarField(GRID, np.sqrt(2.0) * np.sin(GRID.nodes))
    bracket = lie_bracket(c1, s1, ctx_vol)
    np.testing.assert_allclose(bracket.coeffs, 0.0, atol=1e-13)


def test_bracket_frozen_example_at_uniform(ctx_vol):
    # [V_{sqrt2 cos x}, V_{sqrt2 cos 2x}]: the antisymmetrized field is
    # 2 sin 3x - 6 sin x, whose potential is 6 cos x - (2/3) cos 3x
    f1 = ScalarField(GRID, np.sqrt(2.0) * np.cos(GRID.nodes))
    f2 = ScalarField(GRID, np.sqrt(2.0) * np.cos(2 * GRID.nodes))
    bracket = lie_bracket(f1, f2, ctx_vol)
    expected = np.zeros(2 * N_MODES)
    expected[0] = 6.0 / np.sqrt(2.0)
    expected[4] = -2.0 / (3.0 * np.sqrt(2.0))
    np.testing.assert_allclose(bracket.coeffs, expected, atol=1e-12)


def test_bracket_antisymmetry(ctx_weighted):
    rng = np.random.default_rng(41)
    for _ in range(5):
        f1, f2 = band_limited_pair(rng, ctx_weighted)
        fwd = lie_bracket(f1, f2, ctx_weighted)
        rev = lie_bracket(f2, f1, ctx_weighted)
        np.testing.assert_allclose(fwd.coeffs, -rev.coeffs, atol=1e-11)


def test_bracket_routes_agree(ctx_weighted):
    rng = np.random.default_rng(43)
    f1, f2 = band_limited_pair(rng, ctx_weighted)
    hess = lie_bracket(f1, f2, ctx_weighted, route="hessian")
    lap = lie_bracket(f1, f2, ctx_weighted, route="laplacian")
    np.testing.assert_allclose(hess.coeffs, lap.coeffs, atol=1e-10)


def test_bracket_laplacian_sign_invariance(ctx_weighted):
    # both Laplacian occurrences flip together, so the flip cancels exactly
    rng = np.random.default_rng(47)
    f1, f2 = band_limited_pair(rng, ctx_weighted)
    plus = lie_bracket(f1, f2, ctx_weighted, route="laplacian", laplace_sign=1.0)
    minus = lie_bracket(f1, f2, ctx_weighted, route="laplacian", laplace_sign=-1.0)
    assert np.abs(plus.coeffs - minus.coeffs).max() <= 1e-15
    with pytest.raises(DomainError):
        lie_bracket(f1, f2, ctx_weighted, route="laplacian", laplace_sign=0.5)
    with pytest.raises(DomainError):
        lie_bracket(f1, f2, ctx_weighted, route="upwind")


def test_covariant_derivative_weak_form(ctx_weighted):
    # <nabla_{V1} V2, V3> = int phi1' phi2'' phi3' dmu for phi3 in the span
    rng = np.random.default_rng(53)
    f1, f2 = band_limited_pair(rng, ctx_weighted)
    c3 = rng.standard_normal(2 * N_MODES)
    v3 = TangentVector(c3, WEIGHTED)
    nabla = covariant_derivative(f1, f2, ctx_weighted)
    gram = metric_gram(WEIGHTED, N_MODES)
    direct = float(
        np.mean(deriv(f1).values * deriv(f2, 2).values * (c3 @ ctx_weighted.basis1) * WEIGHTED.rho)
    )
    assert otto_inner(nabla, v3, gram) == pytest.approx(direct, abs=1e-12)


def test_stage_projection_is_the_covariant_derivative(ctx_weighted):
    # the geodesic and transport ODE right-hand side at the base density is
    # minus the covariant derivative nabla_{V_psi} V_eta
    rng = np.random.default_rng(61)
    psi, eta = band_limited_pair(rng, ctx_weighted)
    w = deriv(psi).values * deriv(eta, 2).values
    np.testing.assert_allclose(-ctx_weighted.project_at(ctx_weighted.mu.rho, w),
                               -covariant_derivative(psi, eta, ctx_weighted).coeffs,
                               rtol=0.0, atol=1e-13)


def test_half_sum_identity(ctx_weighted):
    # nabla_{V1} V2 = (1/2) V_{phi1' phi2'} + (1/2) [V1, V2]
    rng = np.random.default_rng(59)
    f1, f2 = band_limited_pair(rng, ctx_weighted)
    nabla = covariant_derivative(f1, f2, ctx_weighted)
    grad_pair = ScalarField(GRID, deriv(f1).values * deriv(f2).values)
    v_pair = vector_from_potential(grad_pair, ctx_weighted)
    bracket = lie_bracket(f1, f2, ctx_weighted)
    combined = 0.5 * v_pair.coeffs + 0.5 * bracket.coeffs
    np.testing.assert_allclose(nabla.coeffs, combined, atol=1e-11)


def test_torsion_free(ctx_weighted):
    rng = np.random.default_rng(61)
    f1, f2 = band_limited_pair(rng, ctx_weighted)
    asym = covariant_derivative(f1, f2, ctx_weighted).coeffs \
        - covariant_derivative(f2, f1, ctx_weighted).coeffs
    bracket = lie_bracket(f1, f2, ctx_weighted)
    np.testing.assert_allclose(asym, bracket.coeffs, atol=1e-11)


def test_metric_compatibility(ctx_weighted):
    # d/dh of int phi1' phi2' d(mu_h) along delta_rho = -(rho phi3')' equals
    # <nabla_3 V1, V2> + <V1, nabla_3 V2>; the pairing is linear in rho, so a
    # central difference is exact up to rounding
    rng = np.random.default_rng(67)
    f1, f2 = band_limited_pair(rng, ctx_weighted)
    f3 = band_limited_pair(rng, ctx_weighted)[0]
    d1, d2 = deriv(f1).values, deriv(f2).values
    drho = -deriv(ScalarField(GRID, WEIGHTED.rho * deriv(f3).values)).values
    h = 1e-3
    pairing_plus = np.mean(d1 * d2 * (WEIGHTED.rho + h * drho))
    pairing_minus = np.mean(d1 * d2 * (WEIGHTED.rho - h * drho))
    lhs = (pairing_plus - pairing_minus) / (2.0 * h)

    n31 = covariant_derivative(f3, f1, ctx_weighted)
    n32 = covariant_derivative(f3, f2, ctx_weighted)
    rhs = float(np.mean((n31.coeffs @ ctx_weighted.basis1) * d2 * WEIGHTED.rho)) \
        + float(np.mean(d1 * (n32.coeffs @ ctx_weighted.basis1) * WEIGHTED.rho))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_christoffel_contract_matches_covariant_derivative(ctx_weighted):
    rng = np.random.default_rng(71)
    tensor = christoffel(ctx_weighted)
    a = rng.standard_normal(2 * N_MODES)
    b = rng.standard_normal(2 * N_MODES)
    fa = ScalarField(GRID, a @ ctx_weighted.basis0)
    fb = ScalarField(GRID, b @ ctx_weighted.basis0)
    direct = covariant_derivative(fa, fb, ctx_weighted)
    np.testing.assert_allclose(np.einsum("kij,i,j->k", tensor.gamma, a, b), direct.coeffs,
                               atol=1e-10)


def test_christoffel_frozen_entry_at_uniform(ctx_vol):
    # c_{0,0,l} = int (sqrt2 cos x)' (sqrt2 cos x)'' phi_l' dvol picks out only
    # the cos-2 mode, giving Gamma^2_{0,0} = -sqrt(2)/4
    tensor = christoffel(ctx_vol)
    expected = np.zeros(2 * N_MODES)
    expected[2] = -np.sqrt(2.0) / 4.0
    np.testing.assert_allclose(tensor.gamma[:, 0, 0], expected, atol=1e-13)


def test_christoffel_frame_is_not_coordinate(ctx_weighted):
    # nonzero brackets force gamma to be asymmetric in its lower indices
    tensor = christoffel(ctx_weighted)
    assert tensor.max_ij_asymmetry() > 0.1


def test_christoffel_quadrature_oracle(ctx_weighted):
    # rebuild a few entries from raw trig quadrature and a numpy solve
    x = GRID.nodes
    rho = WEIGHTED.rho
    d = 2 * N_MODES

    def dphi(index):
        k = index // 2 + 1
        base = -np.sin(k * x) if index % 2 == 0 else np.cos(k * x)
        return np.sqrt(2.0) * k * base

    def ddphi(index):
        k = index // 2 + 1
        base = -np.cos(k * x) if index % 2 == 0 else -np.sin(k * x)
        return np.sqrt(2.0) * k * k * base

    gram = np.array([[np.mean(dphi(i) * dphi(j) * rho) for j in range(d)] for i in range(d)])
    tensor = christoffel(ctx_weighted)
    for i, j in ((0, 0), (1, 2), (5, 3), (7, 7)):
        rhs = np.array([np.mean(dphi(i) * ddphi(j) * dphi(l) * rho) for l in range(d)])
        gamma_ij = np.linalg.solve(gram, rhs)
        np.testing.assert_allclose(tensor.gamma[:, i, j], gamma_ij, atol=1e-11)


def test_christoffel_residual_small(ctx_weighted):
    tensor = christoffel(ctx_weighted)
    assert christoffel_residual(tensor, ctx_weighted) < 1e-12


def test_christoffel_tensor_shape_validation():
    with pytest.raises(DomainError):
        ChristoffelTensor(np.zeros((4, 4, 2)), np.zeros((4, 4, 4)), 2)
    with pytest.raises(DomainError):
        ChristoffelTensor(np.zeros((4, 4, 4)), np.zeros((4, 4, 2)), 2)


@pytest.fixture(scope="module")
def transport_path():
    psi0 = ScalarField(GRID, 0.1 * np.cos(GRID.nodes))
    return geodesic_hj(WEIGHTED, psi0, np.linspace(0.0, 1.0, 17))


def test_transport_preserves_norm(transport_path):
    rng = np.random.default_rng(73)
    v0 = TangentVector(rng.standard_normal(2 * N_MODES), WEIGHTED)
    moved = parallel_transport(v0, transport_path)
    norms = [otto_norm(v, metric_gram(v.base, N_MODES)) for v in moved]
    assert max(abs(nm - norms[0]) for nm in norms) / norms[0] < 1e-8


def test_transport_preserves_pair_inner(transport_path):
    rng = np.random.default_rng(79)
    v = TangentVector(rng.standard_normal(2 * N_MODES), WEIGHTED)
    w = TangentVector(rng.standard_normal(2 * N_MODES), WEIGHTED)
    moved_v = parallel_transport(v, transport_path)
    moved_w = parallel_transport(w, transport_path)
    inners = [
        otto_inner(a, b, metric_gram(a.base, N_MODES))
        for a, b in zip(moved_v, moved_w)
    ]
    assert max(abs(i - inners[0]) for i in inners) < 1e-6


def test_geodesic_velocity_is_self_parallel(transport_path):
    ctx0 = WeightedOperatorContext(WEIGHTED, N_MODES)
    v0 = vector_from_potential(transport_path.potentials[0], ctx0)
    moved = parallel_transport(v0, transport_path)
    worst = 0.0
    for idx in range(len(transport_path.times)):
        ctx_t = WeightedOperatorContext(transport_path.densities[idx], N_MODES)
        expected = vector_from_potential(transport_path.potentials[idx], ctx_t)
        worst = max(worst, float(np.abs(moved[idx].coeffs - expected.coeffs).max()))
    assert worst < 1e-8


def test_transport_substep_refinement(transport_path):
    rng = np.random.default_rng(83)
    v0 = TangentVector(rng.standard_normal(2 * N_MODES), WEIGHTED)
    coarse = parallel_transport(v0, transport_path, substeps=4)
    fine = parallel_transport(v0, transport_path, substeps=8)
    gap = max(
        float(np.abs(a.coeffs - b.coeffs).max()) for a, b in zip(coarse, fine)
    )
    assert gap < 1e-7


def test_transport_input_validation(transport_path):
    rng = np.random.default_rng(89)
    wrong_base = TangentVector(rng.standard_normal(2 * N_MODES), VOL)
    with pytest.raises(DomainError):
        parallel_transport(wrong_base, transport_path)
