"""Fractional pair-sum energy: weights, gradients, quotients, solves."""

import numpy as np
import pytest

from orlicz_eigen.errors import ConfigError
from orlicz_eigen.fractional import (ROW_BLOCK, NonlocalMesh, _PairSums,
                                     energy_s, energy_s_gradient,
                                     lagrange_quotient_s, solve_Es,
                                     tail_bound, weak_residual_s)
from orlicz_eigen.solver import EPS_GRAD, SolveOptions
from orlicz_eigen.young import YoungFunction, modular

import oracles


@pytest.fixture(scope="module")
def nm():
    return NonlocalMesh(1.0, 64, 0.5)


def test_config_validation():
    with pytest.raises(ConfigError):
        NonlocalMesh(1.0, 64, 1.0)  # s must be < 1
    with pytest.raises(ConfigError):
        NonlocalMesh(1.0, 64, 0.0)
    with pytest.raises(ConfigError):
        NonlocalMesh.from_config({"length": 1.0, "nodes": 64, "s": 0.5,
                                  "bogus": 1})


def test_pair_weights_symmetric_positive(nm):
    assert _close(nm._w, nm._w.T)
    off_diag = nm._w[~np.eye(nm.interior_count, dtype=bool)]
    assert np.all(off_diag > 0.0)


def test_energy_zero_field(nm):
    F = YoungFunction.power(2)
    assert energy_s(F, np.zeros(nm.interior_count), nm) == 0.0


def test_energy_homogeneity(nm):
    F = YoungFunction.power(3)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(nm.interior_count)
    assert energy_s(F, 2.0 * u, nm) == \
        pytest.approx(8.0 * energy_s(F, u, nm), rel=1e-12)


def test_energy_reflection_symmetry(nm):
    F = YoungFunction.sum_of_powers(2, 4)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(nm.interior_count)
    assert energy_s(F, u, nm) == pytest.approx(energy_s(F, u[::-1], nm),
                                               abs=1e-14 * energy_s(F, u, nm))


def test_gradient_matches_finite_differences(nm):
    F = YoungFunction.sum_of_powers(2, 4)
    rng = np.random.default_rng(2)
    u = np.abs(rng.standard_normal(nm.interior_count)) + 0.1
    v = rng.standard_normal(nm.interior_count)
    g = energy_s_gradient(F, u, nm)
    num = oracles.directional_derivative(lambda w: energy_s(F, w, nm), u, v)
    assert float(g @ v) == pytest.approx(num, rel=1e-5)


def test_quotient_power_identity(nm):
    F = YoungFunction.power(2)
    rng = np.random.default_rng(3)
    u = np.abs(rng.standard_normal(nm.interior_count)) + 0.1
    lam = lagrange_quotient_s(F, u, nm)
    assert lam == pytest.approx(
        energy_s(F, u, nm) / modular(F, u, nm.mesh), rel=1e-12)


def test_quotient_sandwich_under_doubling(nm):
    F = YoungFunction.sum_of_powers(2, 4)
    res = solve_Es(F, nm, 1.0, SolveOptions(restarts=2))
    p = 4.0
    q = res.energy / 1.0
    assert q / p * (1 - 1e-9) <= res.lam <= p * q * (1 + 1e-9)


def test_solve_converges_with_small_residual(nm):
    F = YoungFunction.power(2)
    res = solve_Es(F, nm, 1.0, SolveOptions(restarts=2))
    assert res.converged
    assert weak_residual_s(F, res.u.values, res.lam, nm) <= 1e-8
    assert abs(res.alpha - 1.0) <= 1e-10


def test_solve_minimizer_symmetric(nm):
    F = YoungFunction.power(2)
    res = solve_Es(F, nm, 1.0, SolveOptions(restarts=2))
    u = res.u.values
    assert np.max(np.abs(u - u[::-1])) <= 5e-2 * np.max(np.abs(u))


def test_halo_truncation_monotone_and_small(nm):
    # widening the halo may only add energy, and the 4L -> 8L increment
    # stays below the closed-form tail bound reported for the 4L mesh
    F = YoungFunction.power(2)
    res = solve_Es(F, nm, 1.0, SolveOptions(restarts=2))
    nm8 = NonlocalMesh(1.0, 64, 0.5, r_cut=8.0)
    e4 = energy_s(F, res.u.values, nm)
    e8 = energy_s(F, res.u.values, nm8)
    assert e8 >= e4
    assert e8 - e4 <= tail_bound(F, res.u.values, nm)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("F", [YoungFunction.power(1.2),
                               YoungFunction.power(1.5),
                               YoungFunction.sum_of_powers(1.5, 4)],
                         ids=lambda F: F.label)
def test_tail_bound_covers_far_halo(F, s):
    # the halo pairs count in both orders, so the gain from widening r_cut
    # a hundredfold exceeds (2h/s) sum A(tau_R) for p < 2; (4h/s) bounds it
    nm4 = NonlocalMesh(1.0, 32, s)
    nm400 = NonlocalMesh(1.0, 32, s, r_cut=400.0)
    u = np.sin(np.pi * nm4.x)
    gain = energy_s(F, u, nm400) - energy_s(F, u, nm4)
    assert 0.0 < gain <= tail_bound(F, u, nm4)


def test_tail_bound_reported(nm):
    F = YoungFunction.power(2)
    res = solve_Es(F, nm, 1.0, SolveOptions(restarts=1))
    assert res.tail_bound > 0.0
    assert "tail_bound" in res.as_dict()


def _dense_reference(F, u, nm):
    """Energy, gradient and lagged stiffness over the full pair arrays, the
    halo built from the public geometry: one column per zero node."""
    t = np.abs(u[:, None] - u[None, :]) * nm._q
    Dz = np.abs(nm.x[:, None] - nm.zero_x[None, :])
    qz, wz = Dz ** (-nm.s), nm.h ** 2 / Dz
    tz = np.abs(u)[:, None] * qz
    E = np.sum(nm._w * F.A(t)) + 2.0 * np.sum(wz * F.A(tz))
    tr = np.maximum(t, EPS_GRAD)
    C = nm._w * nm._q ** 2 * F.a(tr) / tr
    trz = np.maximum(tz, EPS_GRAD)
    dz = np.sum(wz * qz ** 2 * F.a(trz) / trz, axis=1)
    g = 2.0 * (np.sum(C * (u[:, None] - u[None, :]), axis=1) + dz * u)
    K = -2.0 * C
    K[np.diag_indices_from(K)] = 2.0 * (np.sum(C, axis=1) + dz)
    return E, g, K


def _close(x, ref):
    return np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


FAMILIES = [YoungFunction.sum_of_powers(2, 4), YoungFunction.power(1.5),
            YoungFunction.exp_minus_poly(2)]


def _assert_matches_dense_reference(F, nm):
    rng = np.random.default_rng(4)
    u = rng.standard_normal(nm.interior_count)
    u[5] = u[6]  # a vanishing pair quotient exercises the regularization
    E, g, K = _dense_reference(F, u, nm)
    assert energy_s(F, u, nm) == pytest.approx(E, rel=1e-13)
    assert _close(energy_s_gradient(F, u, nm), g)
    assert _close(_PairSums(nm).stiffness(F, u), K)


@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.family.value)
def test_block_assembly_matches_dense_reference(F):
    nm = NonlocalMesh(1.0, 37, 0.4)
    assert nm.interior_count % ROW_BLOCK != 0
    _assert_matches_dense_reference(F, nm)


@pytest.mark.parametrize("geometry", [
    (48, 0.4, None),    # even N, a multiple of ROW_BLOCK
    (37, 0.4, 0.3),     # r_cut = 11.4 h: halo sides shorter than N apart
    (40, 0.5, 2.345),   # r_cut = 96.1 h
], ids=["even", "short-rcut", "fractional-rcut"])
@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.family.value)
def test_halo_columns_match_dense_reference(F, geometry):
    # the halo is one column per zero-partner distance, trimmed per block;
    # the reference keeps one column per zero node
    nodes, s, r_cut = geometry
    _assert_matches_dense_reference(F, NonlocalMesh(1.0, nodes, s, r_cut))


def test_pair_memo_never_stale():
    nm = NonlocalMesh(1.0, 21, 0.5)
    F2, F4 = YoungFunction.power(2), YoungFunction.power(4)
    pairs = _PairSums(nm)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(nm.interior_count)
    for F in (F2, F4, F2):
        # same field, another Young function on the same mesh
        _, g, K = _dense_reference(F, u, nm)
        assert _close(pairs.gradient(F, u), g)
        assert _close(pairs.stiffness(F, u), K)
    # the field changed in place under the memo
    u[3] += 0.5
    _, g, K = _dense_reference(F2, u, nm)
    assert _close(pairs.stiffness(F2, u), K)
    assert _close(pairs.gradient(F2, u), g)
    # a gradient through the module call shares the solve's assembly
    u *= 2.0
    _, g, K = _dense_reference(F4, u, nm)
    assert _close(energy_s_gradient(F4, u, nm, pairs=pairs), g)
    assert _close(pairs.stiffness(F4, u), K)


def test_solves_on_shared_mesh_match_fresh_mesh():
    # the sweep's Power(2) and Power(4) reference solves share one mesh
    nm = NonlocalMesh(1.0, 24, 0.5)
    opts = SolveOptions(restarts=1)
    shared = [solve_Es(F, nm, 1.0, opts) for F in
              (YoungFunction.power(2), YoungFunction.power(4))]
    fresh = solve_Es(YoungFunction.power(4), NonlocalMesh(1.0, 24, 0.5),
                     1.0, opts)
    assert shared[1].energy == fresh.energy and shared[1].lam == fresh.lam


def test_default_restarts_stop_at_first_agreeing_pair():
    nm = NonlocalMesh(1.0, 37, 0.5)
    F = YoungFunction.sum_of_powers(2, 4)
    early = solve_Es(F, nm, 1.0)
    full = solve_Es(F, nm, 1.0, SolveOptions(restarts=5))
    assert early.converged and early.restarts_used == 2
    assert full.restarts_used == 5
    assert abs(early.energy - full.energy) <= 1e-8 * full.energy
    assert 0.0 <= early.as_dict()["restart_spread"] <= 1e-8


def test_custom_young_matches_power_on_pair_arrays():
    # pair quotients are 2D arrays; the custom family must keep their shape
    nm = NonlocalMesh(1.0, 8, 0.5)
    custom, power = YoungFunction.custom(lambda t: 2.0 * t), \
        YoungFunction.power(2)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(nm.interior_count)
    # A is integrated by quad at epsrel 1e-10; a is the density itself
    assert energy_s(custom, u, nm) == pytest.approx(energy_s(power, u, nm),
                                                    rel=1e-9)
    assert _close(energy_s_gradient(custom, u, nm),
                  energy_s_gradient(power, u, nm))
