"""T-tensor, curvature form, sectional curvature, finite-difference oracle."""

import numpy as np
import pytest

from ottocircle import (
    ConfigError,
    DomainError,
    GridSpec,
    ScalarField,
    WeightedOperatorContext,
    basis_matrix,
    cosine_density,
    riemann,
    riemann_fd_oracle,
    sectional,
    t_tensor,
    uniform_density,
    weighted_inner,
)
from ottocircle import curvature

GRID = GridSpec(256)
C1, S1 = (ScalarField(GRID, row) for row in basis_matrix(GRID, 1))
VOL = uniform_density(GRID)
WEIGHTED = cosine_density(GRID, 0.3)
N_MODES = 8


@pytest.fixture(scope="module")
def ctx_vol():
    return WeightedOperatorContext(VOL, N_MODES)


@pytest.fixture(scope="module")
def ctx_weighted():
    return WeightedOperatorContext(WEIGHTED, N_MODES)


def band_limited(rng, ctx, count):
    half = ctx.N // 2
    fields = []
    for _ in range(count):
        coeffs = np.zeros(2 * ctx.N)
        coeffs[: 2 * half] = rng.standard_normal(2 * half)
        fields.append(ScalarField(ctx.grid, coeffs @ ctx.basis0))
    return fields


def test_t_tensor_frozen_values(ctx_vol):
    # cos/sin first harmonics: phi' psi'' dx = (1 - cos 2x) dx, whose
    # non-gradient part is the unit harmonic form with squared norm 1
    t_cs = t_tensor(C1, S1, ctx_vol)
    assert t_cs.norm2 == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(t_cs.residual.values, 1.0, atol=1e-12)
    # same potential twice: the product is a pure gradient, residual vanishes
    assert t_tensor(C1, C1, ctx_vol).norm2 == pytest.approx(0.0, abs=1e-20)


def test_t_pairing_is_bilinear_pairing(ctx_vol):
    t_cs = t_tensor(C1, S1, ctx_vol)
    t_sc = t_tensor(S1, C1, ctx_vol)
    assert weighted_inner(t_cs.residual, t_sc.residual, VOL) == pytest.approx(-1.0, abs=1e-12)


def test_riemann_frozen_value(ctx_vol):
    assert riemann(C1, S1, C1, S1, ctx_vol) == pytest.approx(-3.0, abs=1e-12)


def test_sectional_frozen_value(ctx_vol):
    assert sectional(C1, S1, ctx_vol) == pytest.approx(3.0, abs=1e-12)


def test_sectional_plane_invariance(ctx_weighted):
    rng = np.random.default_rng(97)
    f1, f2 = band_limited(rng, ctx_weighted, 2)
    value = sectional(f1, f2, ctx_weighted)
    rescaled = ScalarField(GRID, 2.5 * f1.values)
    sheared = ScalarField(GRID, f2.values - 0.7 * f1.values)
    assert sectional(rescaled, sheared, ctx_weighted) == pytest.approx(value, rel=1e-9)


def test_sectional_degenerate_plane(ctx_weighted):
    doubled = ScalarField(GRID, 2.0 * C1.values)
    with pytest.raises(DomainError):
        sectional(C1, doubled, ctx_weighted)


def test_riemann_symmetries(ctx_weighted):
    rng = np.random.default_rng(101)
    f1, f2, f3, f4 = band_limited(rng, ctx_weighted, 4)
    r = riemann(f1, f2, f3, f4, ctx_weighted)
    assert riemann(f2, f1, f3, f4, ctx_weighted) == pytest.approx(-r, abs=1e-10)
    assert riemann(f1, f2, f4, f3, ctx_weighted) == pytest.approx(-r, abs=1e-10)
    assert riemann(f3, f4, f1, f2, ctx_weighted) == pytest.approx(r, abs=1e-10)


def test_first_bianchi(ctx_weighted):
    rng = np.random.default_rng(103)
    f1, f2, f3, f4 = band_limited(rng, ctx_weighted, 4)
    cyclic = (
        riemann(f1, f2, f3, f4, ctx_weighted)
        + riemann(f2, f3, f1, f4, ctx_weighted)
        + riemann(f3, f1, f2, f4, ctx_weighted)
    )
    assert cyclic == pytest.approx(0.0, abs=1e-10)


def test_sectional_nonnegative(ctx_weighted):
    rng = np.random.default_rng(107)
    for _ in range(8):
        f1, f2 = band_limited(rng, ctx_weighted, 2)
        assert sectional(f1, f2, ctx_weighted) >= -1e-10


def test_fd_oracle_matches_t_route():
    for mu in (VOL, WEIGHTED):
        ctx4 = WeightedOperatorContext(mu, 4)
        c1 = ScalarField(GRID, ctx4.basis0[0])
        s1 = ScalarField(GRID, ctx4.basis0[1])
        reference = riemann(c1, s1, c1, s1, ctx4)
        fd = riemann_fd_oracle(0, 1, 0, 1, ctx4)
        assert fd == pytest.approx(reference, rel=1e-3)


def test_fd_oracle_second_order_in_h(monkeypatch):
    ctx4 = WeightedOperatorContext(WEIGHTED, 4)
    c1 = ScalarField(GRID, ctx4.basis0[0])
    s1 = ScalarField(GRID, ctx4.basis0[1])
    reference = riemann(c1, s1, c1, s1, ctx4)
    err_fine = abs(riemann_fd_oracle(0, 1, 0, 1, ctx4) - reference)
    monkeypatch.setattr(curvature, "FD_STEP", 4.0 * curvature.FD_STEP)
    err_coarse = abs(riemann_fd_oracle(0, 1, 0, 1, ctx4) - reference)
    assert err_coarse / err_fine > 8.0  # a 4x step refinement gains ~16x


def test_fd_oracle_step_validation():
    ctx4 = WeightedOperatorContext(VOL, 4)
    with pytest.raises(ConfigError):
        riemann_fd_oracle(0, 9, 0, 1, ctx4)
