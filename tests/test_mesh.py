"""Meshes, fields, discrete gradients, and the plateau construction."""

import math

import numpy as np
import pytest

from orlicz_eigen.errors import ConfigError, ConformanceError, GeometryError
from orlicz_eigen.mesh import (Mesh, ScalarField, bump_field,
                               cell_gradient_magnitudes)
from orlicz_eigen.young import YoungFunction
from orlicz_eigen.solver import energy

import oracles


def test_interval_weights_sum_to_measure():
    m = Mesh.interval(3.0, 17)
    assert m.node_weights.sum() == pytest.approx(3.0, rel=1e-14)
    assert m.cell_weights.sum() == pytest.approx(3.0, rel=1e-14)


def test_rectangle_weights_sum_to_measure():
    m = Mesh.rectangle(2.0, 3.0, 8, 9)
    assert m.node_weights.sum() == pytest.approx(6.0, rel=1e-13)
    assert m.measure == pytest.approx(6.0, rel=1e-14)


def test_inner_radius():
    assert Mesh.interval(4.0, 10).inner_radius == pytest.approx(2.0)
    assert Mesh.rectangle(1.0, 2.0, 10, 10).inner_radius == pytest.approx(0.5)


def test_field_conformance_errors():
    m = Mesh.interval(1.0, 10)
    with pytest.raises(ConformanceError):
        ScalarField(np.zeros(3), m)
    with pytest.raises(ConformanceError):
        ScalarField(np.array([1.0, np.nan] + [0.0] * 7), m)


def test_config_validation():
    with pytest.raises(ConfigError):
        Mesh.from_config({"dim": 1, "extents": [1.0], "counts": [10],
                          "bogus": 1})
    with pytest.raises(ConfigError):
        Mesh(3, (1.0,), (4,))


def test_gradient_magnitudes_linear_ramp():
    m = Mesh.interval(1.0, 50)
    u = m.field(m.interior_coords[:, 0])  # u = x inside, 0 at both ends
    g = cell_gradient_magnitudes(u, m)
    assert np.allclose(g[:-1], 1.0, atol=1e-12)


def test_hat_energy():
    # peak 1 at the midpoint of (0,1): slope +-2 on measure 1
    m = Mesh.interval(1.0, 100)
    x = m.interior_coords[:, 0]
    u = m.field(1.0 - 2.0 * np.abs(x - 0.5))
    F = YoungFunction.power(2)
    assert energy(F, u, m) == pytest.approx(4.0, rel=1e-12)


def test_gradient_consistency_sine_converges():
    # discrete energy of sin(pi x) converges to pi^2/2 at rate O(h^2)
    F = YoungFunction.power(2)
    errs = []
    for n in (50, 100, 200):
        m = Mesh.interval(1.0, n)
        u = m.field(np.sin(math.pi * m.interior_coords[:, 0]))
        errs.append(abs(energy(F, u, m) - math.pi ** 2 / 2.0))
    # halving h must cut the error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_2d_gradient_magnitudes_plane():
    m = Mesh.rectangle(1.0, 1.0, 20, 20)
    # u = x away from the boundary: every triangle with no boundary vertex
    # sees unit slope
    u = m.field(m.interior_coords[:, 0])
    g = cell_gradient_magnitudes(u, m)
    D, _ = oracles.dense_differences(m.extents, m.counts)
    inner = np.all((np.abs(D).sum(axis=1) == 2).reshape(m.dim, -1), axis=0)
    assert inner.sum() == 2 * 18 * 18
    assert np.allclose(g[inner], 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", [
    Mesh.interval(1.0, 7), Mesh.interval(1.0, 2),
    Mesh.rectangle(1.0, 1.0, 4, 3), Mesh.rectangle(1.0, 1.0, 2, 2),
    Mesh.rectangle(1.0, 1.0, 2, 3), Mesh.rectangle(1.0, 1.0, 3, 2),
    Mesh.rectangle(2.0, 1.0, 6, 5)],
    ids=["interval", "interval-2", "rectangle", "rectangle-2x2",
         "rectangle-2x3", "rectangle-3x2", "rectangle-6x5"])
def test_difference_operator_matches_dense_rows(m):
    # differences, transpose and band against dense matrices built from
    # the elements' vertex coordinates: B u = D u / h for the unscaled
    # differences D, D^T f and the band of D^T diag(c) D, whose upper
    # bandwidth is the mesh's
    D, spacing = oracles.dense_differences(m.extents, m.counts)
    rows, n = D.shape
    rng = np.random.default_rng(7)
    u, f, c = (rng.standard_normal(size) for size in (n, rows, rows))
    np.testing.assert_allclose(m.differences(u).ravel(), D @ u / spacing,
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(m.transpose(f), D.T @ f, rtol=0.0,
                               atol=1e-14 * np.abs(f).sum())
    ab = m.band(c)
    b = m.bandwidth
    i, j = np.nonzero(np.abs(D).T @ np.abs(D))
    assert b == np.max(j - i)
    assert ab.shape == (b + 1, n)
    K = sum((np.diag(ab[b - k, k:], k) for k in range(1, b + 1)),
            np.zeros((n, n)))
    np.testing.assert_allclose(K + K.T + np.diag(ab[b]),
                               D.T @ (c[:, None] * D), rtol=0.0,
                               atol=1e-14 * np.abs(c).sum())


def test_bump_field_plateau_and_gradient_bound():
    m = Mesh.interval(4.0, 200)
    u = bump_field(m, 0.5)
    x = m.interior_coords[:, 0]
    inside = np.abs(x - 2.0) <= 0.5
    assert np.allclose(u.values[inside], 1.0)
    assert cell_gradient_magnitudes(u, m).max() < 1.0


def test_bump_field_geometry_errors():
    with pytest.raises(GeometryError):
        bump_field(Mesh.interval(1.0, 50), 0.2)  # no width-1 annulus fits
    with pytest.raises(GeometryError):
        bump_field(Mesh.interval(4.0, 50), 2.5)  # plateau exceeds inner radius


def test_to_csv_roundtrip(tmp_path):
    m = Mesh.interval(1.0, 5)
    u = m.field(np.arange(1, 5, dtype=float))
    path = tmp_path / "u.csv"
    u.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 1], u.values)


def test_tridiagonal_oracle_matches_closed_form():
    # the assembled quadratic forms used by the oracle agree with the
    # closed-form uniform-mass eigenvalue to discretization accuracy
    lam, _ = oracles.tridiagonal_ground_pair(1.0, 200)
    closed = oracles.closed_form_discrete_eigenvalue(1.0, 200)
    assert lam == pytest.approx(closed, rel=1e-4)
    assert closed == pytest.approx(math.pi ** 2, rel=1e-3)
