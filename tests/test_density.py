"""Densities, weighted pairing, and the monotone pushforward."""

import numpy as np
import pytest

from ottocircle import (
    Density,
    DomainError,
    FoldError,
    GridMismatchError,
    GridSpec,
    NumericalError,
    ScalarField,
    cosine_density,
    density_from_csv,
    density_to_csv,
    integrate,
    make_density,
    pushforward_monotone,
    uniform_density,
    weighted_inner,
)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(128)


def test_uniform_density(grid):
    vol = uniform_density(grid)
    assert integrate(vol.field()) == 1.0


def test_cosine_density_shape(grid):
    mu = cosine_density(grid, 0.3)
    expected = 1.0 + 0.3 * np.cos(grid.nodes)
    np.testing.assert_allclose(mu.rho, expected, atol=1e-14)
    with pytest.raises(DomainError):
        cosine_density(grid, 1.0)


def test_density_validation(grid):
    with pytest.raises(DomainError):
        Density(grid, np.full(grid.n, -1.0))
    with pytest.raises(DomainError):
        Density(grid, np.full(grid.n, 2.0))  # mass 2
    with pytest.raises(GridMismatchError):
        Density(grid, np.ones(grid.n + 2))
    values = np.ones(grid.n)
    values[0] = np.inf
    with pytest.raises(DomainError):
        Density(grid, values)
    with pytest.raises(DomainError, match="cannot normalize"):
        make_density(ScalarField(grid, np.zeros(grid.n)))


def test_make_density_normalizes(grid):
    mu = make_density(ScalarField(grid, 2.0 + np.cos(grid.nodes)))
    assert integrate(mu.field()) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(mu.rho, (2.0 + np.cos(grid.nodes)) / 2.0, atol=1e-14)


def test_density_is_immutable(grid):
    mu = uniform_density(grid)
    with pytest.raises(ValueError):
        mu.rho[0] = 5.0


def test_sha256_distinguishes(grid):
    a = uniform_density(grid)
    b = cosine_density(grid, 0.3)
    assert a.sha256() == uniform_density(grid).sha256()
    assert a.sha256() != b.sha256()


def test_weighted_inner_frozen_values(grid):
    mu = cosine_density(grid, 0.3)
    c = ScalarField(grid, np.cos(grid.nodes))
    s = ScalarField(grid, np.sin(grid.nodes))
    # int cos^2 (1 + 0.3 cos) dvol = 1/2 since the cos^3 term integrates to 0
    assert weighted_inner(c, c, mu) == pytest.approx(0.5, abs=1e-14)
    assert weighted_inner(c, s, mu) == pytest.approx(0.0, abs=1e-14)


def test_weighted_inner_type_discipline(grid):
    mu = uniform_density(grid)
    f = ScalarField(grid, np.cos(grid.nodes))
    with pytest.raises(DomainError):
        weighted_inner(np.cos(grid.nodes), np.cos(grid.nodes), mu)
    with pytest.raises(DomainError):
        weighted_inner(f, np.cos(grid.nodes), mu)


def test_pushforward_identity(grid):
    mu = cosine_density(grid, 0.3)
    moved, feet = pushforward_monotone(mu, ScalarField(grid, np.zeros(grid.n)))
    np.testing.assert_allclose(moved.rho, mu.rho, atol=1e-12)
    np.testing.assert_allclose(feet, grid.nodes, rtol=0.0, atol=1e-14)


def test_pushforward_rotation(grid):
    # rigid rotation by a constant displacement, by more than a turn for 7.5,
    # shifts the density profile
    mu = cosine_density(grid, 0.3)
    for shift in (0.7, 7.5):
        moved, feet = pushforward_monotone(mu, ScalarField(grid, np.full(grid.n, shift)))
        expected = 1.0 + 0.3 * np.cos(grid.nodes - shift)
        np.testing.assert_allclose(moved.rho, expected, rtol=0.0, atol=1e-13)
        assert np.abs(feet + shift - grid.nodes).max() <= 1e-13


def test_pushforward_change_of_variables(grid):
    # int g d(T_# mu) = int g(x + T(x)) dmu(x), checked on trig observables
    mu = cosine_density(grid, 0.3)
    t_values = 0.2 * np.sin(grid.nodes)
    moved, _ = pushforward_monotone(mu, ScalarField(grid, t_values))
    y = grid.nodes + t_values
    for g in (np.cos, np.sin, lambda x: np.cos(2 * x)):
        direct = float(np.mean(g(y) * mu.rho))
        via_density = float(np.mean(g(grid.nodes) * moved.rho))
        assert via_density == pytest.approx(direct, abs=1e-13)


def test_pushforward_near_fold_feet(grid):
    # min(1 + T') = 0.4: the feet still solve x + T(x) = node to roundoff,
    # and the density is the exact Jacobian formula there
    mu = uniform_density(grid)
    moved, feet = pushforward_monotone(mu, ScalarField(grid, -0.6 * np.sin(grid.nodes)))
    assert np.abs(feet - 0.6 * np.sin(feet) - grid.nodes).max() <= 1e-13
    np.testing.assert_allclose(moved.rho, 1.0 / (1.0 - 0.6 * np.cos(feet)), rtol=1e-13)


def test_pushforward_under_resolved_raises():
    # min(1 + T') = 0.01: the pushed density peaks at 100 in a spike that
    # 256 nodes under-resolve, so the node mass is off 1 and nothing hides it
    grid = GridSpec(256)
    squeeze = ScalarField(grid, -0.99 * np.sin(grid.nodes))
    with pytest.raises(NumericalError, match="under-resolved on 256 nodes: density mass"):
        pushforward_monotone(uniform_density(grid), squeeze)


def test_pushforward_fold_raises(grid):
    mu = uniform_density(grid)
    folding = ScalarField(grid, -2.0 * np.sin(grid.nodes))
    with pytest.raises(FoldError):
        pushforward_monotone(mu, folding)


def test_csv_roundtrip(grid, tmp_path):
    mu = cosine_density(grid, 0.4, mode=2, phase=0.3)
    path = tmp_path / "density.csv"
    density_to_csv(mu, path)
    back = density_from_csv(path, grid)
    np.testing.assert_allclose(back.rho, mu.rho, rtol=0.0, atol=0.0)
    with pytest.raises(GridMismatchError):
        density_from_csv(path, GridSpec(2 * grid.n))

    with open(tmp_path / "bad.csv", "w") as handle:
        handle.write("x,y\n0.0,1.0\n")
    with pytest.raises(DomainError):
        density_from_csv(tmp_path / "bad.csv", grid)
