"""Weighted divergence, Laplacian, Green solve, and gradient projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from ottocircle import (
    CompatibilityError,
    ConfigError,
    Density,
    GridSpec,
    OneForm,
    ScalarField,
    WeightedOperatorContext,
    cosine_density,
    deriv,
    div_mu,
    field_from_coeffs,
    green_mu_coeffs,
    laplace_mu,
    project_exact,
    uniform_density,
    weighted_inner,
)
from ottocircle.operators import assemble_gram

N_MODES = 6
GRID = GridSpec(128)
VOL_CTX = WeightedOperatorContext(uniform_density(GRID), N_MODES)
WEIGHTED_CTX = WeightedOperatorContext(cosine_density(GRID, 0.3), N_MODES)

coeff_arrays = st.lists(
    st.floats(min_value=-2.0, max_value=2.0), min_size=2 * N_MODES, max_size=2 * N_MODES
).map(np.array)


def test_context_validation():
    with pytest.raises(ConfigError):
        WeightedOperatorContext(uniform_density(GRID), 0)


def test_gram_is_diagonal_at_uniform():
    expected = np.diag(np.repeat(np.arange(1, N_MODES + 1), 2) ** 2).astype(float)
    np.testing.assert_allclose(VOL_CTX.gram, expected, atol=1e-13)


def test_div_reduces_to_derivative_at_uniform():
    xi = ScalarField(GRID, np.sin(GRID.nodes))
    np.testing.assert_allclose(div_mu(xi, VOL_CTX).values, np.cos(GRID.nodes), atol=1e-13)


def test_div_weighted_product_rule():
    # (rho*xi)'/rho for rho = 1 + 0.3 cos x, xi = sin x
    xi = ScalarField(GRID, np.sin(GRID.nodes))
    rho = 1.0 + 0.3 * np.cos(GRID.nodes)
    expected = (np.cos(GRID.nodes) + 0.3 * np.cos(2 * GRID.nodes)) / rho
    np.testing.assert_allclose(div_mu(xi, WEIGHTED_CTX).values, expected, atol=1e-12)


def test_laplacian_sign_convention():
    # positive operator: at the uniform density L(cos 2x) = +4 cos 2x
    psi = ScalarField(GRID, np.cos(2 * GRID.nodes))
    np.testing.assert_allclose(
        laplace_mu(psi, VOL_CTX).values, 4.0 * np.cos(2 * GRID.nodes), atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(coeffs=coeff_arrays)
def test_laplacian_positive_semidefinite(coeffs):
    psi = field_from_coeffs(GRID, coeffs)
    quad = weighted_inner(psi, laplace_mu(psi, WEIGHTED_CTX), WEIGHTED_CTX.mu)
    assert quad >= -1e-10


@settings(max_examples=25, deadline=None)
@given(c1=coeff_arrays, c2=coeff_arrays)
def test_laplacian_self_adjoint(c1, c2):
    f = field_from_coeffs(GRID, c1)
    g = field_from_coeffs(GRID, c2)
    mu = WEIGHTED_CTX.mu
    left = weighted_inner(laplace_mu(f, WEIGHTED_CTX), g, mu)
    right = weighted_inner(f, laplace_mu(g, WEIGHTED_CTX), mu)
    assert left == pytest.approx(right, abs=1e-9)


def test_green_inverts_laplacian_on_the_span():
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(2 * N_MODES)
    phi = field_from_coeffs(GRID, coeffs)
    f = laplace_mu(phi, WEIGHTED_CTX)
    # weighted mean of L phi vanishes by periodicity, so the solve is admissible
    solved = WEIGHTED_CTX.potential_values(green_mu_coeffs(f, WEIGHTED_CTX))
    solved -= WEIGHTED_CTX.mu_mean(solved)
    centered = phi.values - WEIGHTED_CTX.mu_mean(phi.values)
    np.testing.assert_allclose(solved, centered, atol=1e-10)


def test_green_coeffs_match_values():
    # the potential of the Green coefficients solves L_mu phi = f in the
    # Galerkin sense: its weak form against every basis row matches f's
    f = ScalarField(GRID, np.cos(GRID.nodes) - WEIGHTED_CTX.mu_mean(np.cos(GRID.nodes)))
    coeffs = green_mu_coeffs(f, WEIGHTED_CTX)
    phi = ScalarField(GRID, WEIGHTED_CTX.potential_values(coeffs))
    np.testing.assert_allclose(WEIGHTED_CTX.weighted_moment(deriv(phi).values, 1),
                               WEIGHTED_CTX.weighted_moment(f.values, 0), atol=1e-13)


def test_green_rejects_nonzero_mean():
    f = ScalarField(GRID, 1.0 + np.cos(GRID.nodes))
    with pytest.raises(CompatibilityError):
        green_mu_coeffs(f, WEIGHTED_CTX)


def test_projection_recovers_exact_forms():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(2 * N_MODES)
    theta = field_from_coeffs(GRID, coeffs)
    omega = OneForm(GRID, deriv(theta).values)
    recovered, residual = project_exact(omega, WEIGHTED_CTX)
    np.testing.assert_allclose(deriv(recovered).values, omega.values, atol=1e-12)
    assert weighted_inner(residual, residual, WEIGHTED_CTX.mu) < 1e-24


def test_projection_residual_is_orthogonal():
    # residual of a non-exact form must be L^2(mu)-orthogonal to every d(phi_i)
    omega = OneForm(GRID, np.cos(3 * GRID.nodes) ** 2)
    _, residual = project_exact(omega, WEIGHTED_CTX)
    moments = WEIGHTED_CTX.weighted_moment(residual.values, 1)
    np.testing.assert_allclose(moments, 0.0, atol=1e-15)


def test_weighted_moment_orders():
    f = np.cos(GRID.nodes)
    m0 = VOL_CTX.weighted_moment(f, 0)
    # only the cos-1 basis row pairs with cos x: sqrt(2) * 1/2
    expected = np.zeros(2 * N_MODES)
    expected[0] = np.sqrt(2.0) / 2.0
    np.testing.assert_allclose(m0, expected, atol=1e-14)


def full_spectrum_density(grid, seed):
    """rho = 1 + sum_k a_k cos(kx + p_k) / k^2 over every mode below Nyquist,
    with random phases p_k, so every DFT bin is nonzero and both the cos and
    the sin parts of each bin carry weight (|rho - 1| <= 0.3 * pi^2/6 < 1/2)."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, grid.n // 2)[:, None]
    amps = rng.uniform(-0.3, 0.3, k.shape) / k**2
    phases = rng.uniform(0.0, 2.0 * np.pi, k.shape)
    return Density(grid, 1.0 + (amps * np.cos(k * grid.nodes + phases)).sum(0))


def table_gram(ctx, rho):
    """Node quadrature of the derivative table against rho: the oracle for
    the Fourier-bin Gram assembly."""
    gram = (ctx.basis1 * (rho / ctx.grid.n)) @ ctx.basis1.T
    return 0.5 * (gram + gram.T)


def table_triple_products(ctx):
    """Node quadrature of phi_i' phi_j'' phi_l' against rho: the oracle for
    the Fourier-bin triple products."""
    return np.einsum("ix,jx,lx,x->ijl", ctx.basis1, ctx.basis2, ctx.basis1,
                     ctx.mu.rho / ctx.grid.n, optimize=True)


@pytest.mark.parametrize("n, N", [(256, 8), (512, 32), (1024, 64)])
def test_fourier_assembly_matches_node_quadrature(n, N):
    grid = GridSpec(n)
    ctx = WeightedOperatorContext(full_spectrum_density(grid, n + N), N)
    expected = table_gram(ctx, ctx.mu.rho)
    # the cos/sin cross blocks are nonzero, so a sign slip there shows
    assert np.abs(expected[0::2, 1::2]).max() > 1e-3 * np.abs(expected).max()
    gram = assemble_gram(ctx.mu.rho, N)
    assert np.abs(gram - expected).max() <= 1e-13 * np.abs(expected).max()
    expected = table_triple_products(ctx)
    triple = ctx.triple_products()
    assert np.abs(triple - expected).max() <= 1e-13 * np.abs(expected).max()


def test_stage_projection_at_a_moved_density():
    # project_at solves against the Gram matrix of its own rho, not the base's
    grid = GridSpec(256)
    ctx = WeightedOperatorContext(cosine_density(grid, 0.3, phase=0.4), 16)
    rho = full_spectrum_density(grid, 7).rho
    w = np.cos(3 * grid.nodes) ** 2 + np.sin(grid.nodes + 0.2)
    moment = ctx.basis1 @ (w * rho) / grid.n
    expected = cho_solve(cho_factor(table_gram(ctx, rho)), moment)
    solved = ctx.project_at(rho, w)
    assert np.abs(solved - expected).max() <= 1e-12 * np.abs(expected).max()
    base = cho_solve(cho_factor(ctx.gram), moment)
    assert np.abs(base - expected).max() > 1e-3 * np.abs(expected).max()
