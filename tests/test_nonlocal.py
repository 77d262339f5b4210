"""Fractional pair-sum energy: weights, gradients, quotients, solves."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

from orlicz_eigen import solver
from orlicz_eigen.errors import ConfigError, ConformanceError
from orlicz_eigen.fractional import NonlocalMesh, _Primitive
from orlicz_eigen.mesh import Mesh
from orlicz_eigen.solver import (EPS_GRAD, Problem, SolveOptions, energy,
                                 energy_gradient, lagrange_quotient, solve_E,
                                 weak_residual)
from orlicz_eigen.young import YoungFunction, _primitive_by_rule, modular

import oracles


@pytest.fixture(scope="module")
def nm():
    return NonlocalMesh(1.0, 64, 0.5)


def _close(x, ref):
    return np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


FAMILIES = [YoungFunction.sum_of_powers(2, 4), YoungFunction.power(1.5),
            YoungFunction.exp_minus_poly(2)]


def test_config_validation():
    with pytest.raises(ConfigError):
        NonlocalMesh(1.0, 64, 1.0)  # s must be < 1
    with pytest.raises(ConfigError):
        NonlocalMesh(1.0, 64, 0.0)
    with pytest.raises(ConfigError):
        NonlocalMesh.from_config({"length": 1.0, "nodes": 64, "s": 0.5,
                                  "bogus": 1})


def test_equality_is_on_length_nodes_and_s():
    # a NonlocalMesh is a Mesh, whose fields (dim, extents, counts) alone
    # would call meshes of different s equal
    nm = NonlocalMesh(1.0, 16, 0.5)
    assert nm == NonlocalMesh(1.0, 16, 0.5)
    assert nm != NonlocalMesh(1.0, 16, 0.3)
    assert nm != NonlocalMesh(2.0, 16, 0.5)
    assert nm != NonlocalMesh(1.0, 17, 0.5)
    assert nm != Mesh.interval(1.0, 17) and Mesh.interval(1.0, 17) != nm


@pytest.mark.parametrize("key,value", [("length", "a"), ("nodes", None),
                                       ("s", [0.5])])
def test_from_config_rejects_non_numeric(key, value):
    cfg = dict({"length": 1.0, "nodes": 16, "s": 0.5}, **{key: value})
    with pytest.raises(ConfigError, match="non-numeric"):
        NonlocalMesh.from_config(cfg)


def test_from_config_rejects_r_cut():
    # the halo cutoff is gone: the exterior is integrated exactly
    with pytest.raises(ConfigError, match="r_cut"):
        NonlocalMesh.from_config({"length": 1.0, "nodes": 64, "s": 0.5,
                                  "r_cut": 4.0})


def _dense_stiffness(F, u, nm, cells=None):
    """The lagged stiffness of a solve (the Problem ``cells``, or a fresh
    one), read out of its upper band."""
    ab = (cells or Problem(F, nm)).band(u)
    b = ab.shape[0] - 1
    K = sum(np.diag(ab[b - k, k:], k) for k in range(1, b + 1))
    return K + K.T + np.diag(ab[b])


def test_pair_weights_symmetric_positive(nm):
    # one row per unordered pair i < j covers each off-diagonal entry once,
    # with the weight 2 h^2/|x_i - x_j| of both orders
    n = nm.interior_count
    plus, minus = oracles.pair_ends(n)
    W = np.zeros((n, n))
    np.add.at(W, (plus, minus), nm.pairs.cell_weights)
    np.add.at(W, (minus, plus), nm.pairs.cell_weights)
    assert _close(W, W.T)
    off_diag = ~np.eye(n, dtype=bool)
    assert np.all(W[off_diag] > 0.0)
    D = np.abs(nm.x[:, None] - nm.x[None, :])
    assert _close(W[off_diag], 2.0 * nm.h * nm.h / D[off_diag])


@pytest.mark.parametrize("n", [2, 3, 8, 63, 64])
def test_partners_window_matches_sliding_window_view(n):
    # the same read-only view of [u, u]: values, shape and strides
    from numpy.lib.stride_tricks import sliding_window_view
    from orlicz_eigen.fractional import _partners
    u = np.random.default_rng(n).standard_normal(n)
    got = _partners(u)
    want = sliding_window_view(np.concatenate((u, u)), n)[1:n // 2 + 1]
    assert got.shape == want.shape and got.strides == want.strides
    assert not got.flags.writeable
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("fn", [energy, energy_gradient],
                         ids=["energy", "gradient"])
def test_wrong_shape_field_raises_conformance_error(nm, fn):
    # the same fault as a wrong-shape field on a local mesh
    F = YoungFunction.power(2)
    with pytest.raises(ConformanceError):
        fn(F, np.zeros(nm.interior_count + 1), nm)


def test_energy_zero_field(nm):
    F = YoungFunction.power(2)
    assert energy(F, np.zeros(nm.interior_count), nm) == 0.0


def test_energy_homogeneity(nm):
    F = YoungFunction.power(3)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(nm.interior_count)
    assert energy(F, 2.0 * u, nm) == \
        pytest.approx(8.0 * energy(F, u, nm), rel=1e-12)


def test_energy_reflection_symmetry(nm):
    F = YoungFunction.sum_of_powers(2, 4)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(nm.interior_count)
    assert energy(F, u, nm) == pytest.approx(energy(F, u[::-1], nm),
                                             abs=1e-14 * energy(F, u, nm))


def test_gradient_matches_finite_differences(nm):
    F = YoungFunction.sum_of_powers(2, 4)
    rng = np.random.default_rng(2)
    u = np.abs(rng.standard_normal(nm.interior_count)) + 0.1
    v = rng.standard_normal(nm.interior_count)
    g = energy_gradient(F, u, nm)
    num = oracles.directional_derivative(lambda w: energy(F, w, nm), u, v)
    assert float(g @ v) == pytest.approx(num, rel=1e-5)


def test_quotient_power_identity(nm):
    F = YoungFunction.power(2)
    rng = np.random.default_rng(3)
    u = np.abs(rng.standard_normal(nm.interior_count)) + 0.1
    lam = lagrange_quotient(F, u, nm)
    assert lam == pytest.approx(
        energy(F, u, nm) / modular(F, u, nm), rel=1e-12)


def test_quotient_sandwich_under_doubling(nm):
    F = YoungFunction.sum_of_powers(2, 4)
    res = solve_E(F, nm, 1.0, SolveOptions(restarts=2))
    p = 4.0
    q = res.energy / 1.0
    assert q / p * (1 - 1e-9) <= res.lam <= p * q * (1 + 1e-9)


def test_solve_converges_with_small_residual(nm):
    F = YoungFunction.power(2)
    res = solve_E(F, nm, 1.0, SolveOptions(restarts=2))
    assert res.converged
    assert weak_residual(F, res.u.values, res.lam, nm) <= 1e-8
    assert abs(res.alpha - 1.0) <= 1e-10


def test_solve_minimizer_symmetric(nm):
    F = YoungFunction.power(2)
    res = solve_E(F, nm, 1.0, SolveOptions(restarts=2))
    u = res.u.values
    assert np.max(np.abs(u - u[::-1])) <= 5e-2 * np.max(np.abs(u))


def _exterior_quad(F, u, L, s):
    """Per node: the exterior energy 2h sum_sides int_d^inf A(|u_i|
    rho^{-s}) drho/rho, d = x_i - h/2 and L - x_i - h/2, and its derivative
    in u_i, by adaptive quadrature in v = log(rho/d); each component is
    scaled by its integrand at v = 0, so the tolerance holds per node."""
    h, x = _grid(L, u.size)
    d = np.concatenate([x - h / 2, L - x - h / 2])
    tau = np.tile(np.abs(u), 2) * d ** -s
    A0, a0 = F.A(tau), F.a(tau)
    opts = dict(epsabs=0.0, epsrel=1e-13, norm="max")
    iA, _ = quad_vec(lambda v: F.A(tau * np.exp(-s * v)) / A0,
                     0.0, np.inf, **opts)
    ia, _ = quad_vec(lambda v: F.a(tau * np.exp(-s * v))
                     * np.exp(-s * v) / a0, 0.0, np.inf, **opts)

    def sides(w):
        return 2.0 * h * w.reshape(2, -1).sum(axis=0)
    return sides(iA * A0), sides(ia * a0 * d ** -s) * np.sign(u)


def _dense_reference(F, u, nm):
    """Energy, gradient and lagged stiffness over the full interior pair
    arrays, built from the length and s alone, plus the exterior by
    quadrature; the lagged exterior coefficient is its gradient over u."""
    L, s = nm.length, nm.s
    h, x = _grid(L, u.size)
    D = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(D, np.inf)
    q, w = D ** -s, h * h / D
    diff = u[:, None] - u[None, :]
    t = np.abs(diff) * q
    E_ext, g_ext = _exterior_quad(F, u, L, s)
    E = float(np.sum(w * F.A(t)) + np.sum(E_ext))
    tr = np.maximum(t, EPS_GRAD)
    C = w * q ** 2 * F.a(tr) / tr
    g = 2.0 * np.sum(C * diff, axis=1) + g_ext
    K = -2.0 * C
    K[np.diag_indices_from(K)] = 2.0 * np.sum(C, axis=1) + g_ext / u
    return E, g, K


def _assert_matches_dense_reference(F, nm):
    rng = np.random.default_rng(4)
    u = rng.standard_normal(nm.interior_count)
    u[5] = u[6]  # a vanishing pair quotient exercises the regularization
    E, g, K = _dense_reference(F, u, nm)
    assert energy(F, u, nm) == pytest.approx(E, rel=1e-13)
    assert _close(energy_gradient(F, u, nm), g)
    assert _close(_dense_stiffness(F, u, nm), K)


@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.family.value)
def test_block_assembly_matches_dense_reference(F):
    # an odd N: one row per unordered pair, every pair within the band
    nm = NonlocalMesh(1.0, 37, 0.4)
    assert nm.pairs.row_spacing.shape == (1, 37 * 36 // 2)
    assert nm.pairs.cell_weights.shape == (37 * 36 // 2,)
    assert nm.pairs.bandwidth == 36
    _assert_matches_dense_reference(F, nm)


SMALL_N = [2, 3, 4, 5, 6]


@pytest.mark.parametrize("n", SMALL_N)
@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.family.value)
def test_wrap_around_layout_matches_dense_reference(F, n):
    # odd N lists each pair once; even N repeats row N/2 with a zero-weight
    # second half, and N = 2 is that half row alone
    nm = NonlocalMesh(1.0, n, 0.4)
    assert nm.pairs.row_spacing.shape == (1, n // 2 * n)
    assert nm.pairs.cell_weights.shape == (n // 2 * n,)
    assert nm.pairs.bandwidth == n - 1
    u = np.random.default_rng(n).standard_normal(n)
    E, g, K = _dense_reference(F, u, nm)
    assert energy(F, u, nm) == pytest.approx(E, rel=1e-13)
    assert _close(energy_gradient(F, u, nm), g)
    assert _close(_dense_stiffness(F, u, nm), K)


@pytest.mark.parametrize("n", SMALL_N + [7, 8, 64, 65])
def test_each_pair_once_with_its_weight(n):
    # every unordered pair i < j has exactly one row of positive weight
    # 2h^2/|x_i - x_j|; the only other rows are the N/2 repeats of an even N,
    # with weight 0
    nm = NonlocalMesh(1.0, n, 0.5)
    w = nm.pairs.cell_weights
    plus, minus = oracles.pair_ends(n)
    lo, hi = np.minimum(plus, minus), np.maximum(plus, minus)
    live = w > 0.0
    pairs = lo[live] * n + hi[live]
    assert np.array_equal(np.sort(pairs), np.flatnonzero(
        np.triu(np.ones((n, n), dtype=bool), 1)))
    np.testing.assert_allclose(
        w[live], 2.0 * nm.h * nm.h / (nm.x[hi] - nm.x[lo])[live],
        rtol=1e-15, atol=0.0)
    assert np.count_nonzero(~live) == (n // 2 if n % 2 == 0 else 0)
    assert np.all(w[~live] == 0.0)
    assert np.all(np.isin(lo[~live] * n + hi[~live], pairs))


@pytest.mark.parametrize("n", SMALL_N + [7, 37, 48])
def test_pair_operators_match_dense_rows(n):
    # differences, transpose and band against the dense pair differences D
    # built from plus and minus: B u = D u / spacing, D^T f, D^T diag(c) D
    nm = NonlocalMesh(1.0, n, 0.3)
    rng = np.random.default_rng(n)
    rows = n // 2 * n
    plus, minus = oracles.pair_ends(n)
    D = np.zeros((rows, n))
    D[np.arange(rows), plus] += 1.0
    D[np.arange(rows), minus] -= 1.0
    u, f, c = (rng.standard_normal(size) for size in (n, rows, rows))
    c[nm.pairs.cell_weights == 0.0] = 0.0  # as band_weights makes it
    assert _close(nm.pairs.differences(u)[0],
                  D @ u / nm.pairs.row_spacing[0])
    assert _close(nm.pairs.transpose(f), D.T @ f)
    ab = nm.pairs.band(c)
    K = sum(np.diag(ab[n - 1 - k, k:], k) for k in range(1, n))
    assert _close(K + K.T + np.diag(ab[-1]), D.T @ (c[:, None] * D))


@pytest.mark.parametrize("n", SMALL_N + [7, 37, 48])
def test_band_finite_and_build_solves_dense_stiffness(n, monkeypatch):
    # every entry of the band is finite, the ones LAPACK never reads too,
    # since the build checks the whole array
    F = YoungFunction.sum_of_powers(2, 4)
    nm = NonlocalMesh(1.0, n, 0.5)
    rng = np.random.default_rng(n)
    u, rhs = rng.standard_normal(n), rng.standard_normal(n)
    cells = Problem(F, nm)
    K = _dense_stiffness(F, u, nm)
    cells.at(u).coefficients()  # fills the memo
    with monkeypatch.context() as mp:
        # an entry the assembly leaves unwritten would keep its NaN: the
        # first build makes the kept band here
        mp.setattr(np, "empty", lambda shape: np.full(shape, np.nan))
        ab = cells.band(u)
    assert np.all(np.isfinite(ab))
    x = cells.preconditioner(u)(rhs)
    ref = np.linalg.solve(K, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("geometry", [(48, 0.4), (40, 0.7), (29, 0.3)],
                         ids=["even", "s0.7", "s0.3"])
@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.family.value)
def test_exterior_matches_quad_reference(F, geometry):
    # an even N; s spans the range of the halo tests
    _assert_matches_dense_reference(F, NonlocalMesh(1.0, *geometry))


def test_stiffness_diagonal_not_lifted():
    # exp_minus_poly(2) at s = 0.7: the lagged diagonals span many orders,
    # and a floor at 1e-10 of the largest once lifted most rows; a positive
    # finite coefficient and diagonal are kept as assembled, row by row
    F = YoungFunction.exp_minus_poly(2)
    nm = NonlocalMesh(1.0, 40, 0.7)
    u = np.random.default_rng(4).standard_normal(nm.interior_count)
    ref = np.diag(_dense_reference(F, u, nm)[2])
    assert ref.max() > 1e12 * ref.min()
    np.testing.assert_allclose(np.diag(_dense_stiffness(F, u, nm)), ref,
                               rtol=1e-13, atol=0.0)


def test_stiffness_guards_vanishing_rows():
    # at a field of 1e-5 every exp_neg_inv_power(1) coefficient underflows
    # to 0: the floored diagonal keeps the factorization defined
    F = YoungFunction.exp_neg_inv_power(1)
    nm = NonlocalMesh(1.0, 12, 0.5)
    u = np.full(nm.interior_count, 1e-5)
    K = _dense_stiffness(F, u, nm)
    d = np.diag(K)
    assert np.all(K == np.diag(d)) and np.all(d > 0.0)
    assert np.all(np.isfinite(
        Problem(F, nm).preconditioner(u)(np.ones(nm.interior_count))))


def _grid(L, N):
    """Spacing and interior nodes of the uniform grid on (0, L), built
    without the mesh."""
    h = L / (N + 1)
    return h, h * np.arange(1, N + 1)


def _interior_energy(F, u, L, s):
    """Ordered interior pair sum of h^2/|x_i - x_j| A(|D^s u|)."""
    h, x = _grid(L, u.size)
    D = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(D, np.inf)
    t = np.abs(u[:, None] - u[None, :]) * D ** -s
    return float(np.sum(h * h / D * F.A(t)))


def _discrete_halo(F, u, L, s, r_cut):
    """A zero halo out to ``r_cut``: the pairs, in both orders, of each node
    with the zero nodes -n h and L + n h, n = 0..ceil(r_cut/h); and the
    exterior beyond it, the midpoint cells past the last zero node, by
    adaptive quadrature in log rho."""
    h, x = _grid(L, u.size)
    n = np.arange(math.ceil(r_cut / h) + 1)
    near = 0.0
    for d0 in (x, L - x):
        D = d0[:, None] + n * h
        near += 2.0 * float(np.sum(h * h / D * F.A(np.abs(u)[:, None]
                                                   * D ** -s)))
    tau = np.tile(np.abs(u), 2) * (np.concatenate([x, L - x])
                                   + (n[-1] + 0.5) * h) ** -s
    far, _ = quad_vec(lambda v: F.A(tau * np.exp(-s * v)), 0.0, np.inf,
                      epsabs=0.0, epsrel=1e-10)
    return near, 2.0 * h * float(np.sum(far))


def test_halo_truncation_monotone_and_small(nm):
    # a zero halo around the Power(2) minimizer only gains energy as it
    # widens and stays below the exterior term; with the quadrature beyond
    # it added it no longer depends on its width, and the exterior term is
    # above that limit by less than h (O(h) midpoint error at the boundary)
    F = YoungFunction.power(2)
    res = solve_E(F, nm, 1.0, SolveOptions(restarts=2))
    u = res.u.values
    ext = energy(F, u, nm) - _interior_energy(F, u, nm.length, nm.s)
    halos = [_discrete_halo(F, u, nm.length, nm.s, r) for r in (4, 8, 40)]
    near = [a for a, _ in halos]
    assert near[0] < near[1] < near[2] < ext
    limit = sum(halos[-1])
    for a, b in halos:
        assert a + b == pytest.approx(limit, rel=1e-6)
    assert 0.0 < ext - limit <= nm.h * ext


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("F", [YoungFunction.power(1.2),
                               YoungFunction.power(1.5),
                               YoungFunction.sum_of_powers(1.5, 4)],
                         ids=lambda F: F.label)
def test_tail_bound_covers_far_halo(F, s):
    # widening a zero halo from 4L to 400L adds a Riemann sum of the
    # decreasing rho -> A(|u_i| rho^{-s})/rho, so the closed-form exterior
    # tail (2h/s) sum_i G(|u_i| d_i^{-s}) bounds the gain from above with d
    # the widest distance of the narrow halo, and from below by the same
    # tails one cell further out
    L = 1.0
    h, x = _grid(L, 32)
    u = np.sin(np.pi * x)
    gain = (_discrete_halo(F, u, L, s, 400.0)[0]
            - _discrete_halo(F, u, L, s, 4.0)[0])

    def tail(k):
        d = np.concatenate([x, L - x]) + k * h
        return 2.0 * h / s * float(np.sum(F.G(
            np.tile(np.abs(u), 2) * d ** -s)))
    k4, k400 = math.ceil(4.0 / h), math.ceil(400.0 / h)
    assert 0.0 < tail(k4 + 1) - tail(k400 + 1) <= gain <= tail(k4)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.family.value)
def test_discrete_halo_converges_to_exterior_term(F, s):
    # a zero halo widened from L to 4L gains energy, the quadrature beyond
    # it accounts for the gain, and the exterior term of energy exceeds
    # that limit by O(h) or less: measured ratios 0.24-0.44 per halving
    gaps = []
    for N in (32, 64, 128):
        h, x = _grid(1.0, N)
        u = np.sin(np.pi * x)
        ext = (energy(F, u, NonlocalMesh(1.0, N, s))
               - _interior_energy(F, u, 1.0, s))
        (n1, f1), (n4, f4) = (_discrete_halo(F, u, 1.0, s, r)
                              for r in (1.0, 4.0))
        assert n1 < n4
        assert n1 + f1 == pytest.approx(n4 + f4, rel=1e-4)
        gaps.append((ext - n4 - f4) / ext)
    assert 0.0 < gaps[0] <= 3.0 / 33
    assert gaps[1] <= 0.55 * gaps[0] and gaps[2] <= 0.55 * gaps[1]


def test_pair_memo_never_stale():
    nm = NonlocalMesh(1.0, 21, 0.5)
    F2, F4 = YoungFunction.power(2), YoungFunction.power(4)
    problems = {id(F): Problem(F, nm) for F in (F2, F4)}
    rng = np.random.default_rng(5)
    u = rng.standard_normal(nm.interior_count)

    def stiffness(F, u):
        return _dense_stiffness(F, u, nm, problems[id(F)])

    def memo_energy(F, u):
        # the line-search energy fills the memo the gradient then reads
        E = energy(F, u, nm, cells=problems[id(F)])
        assert E == energy(F, u.copy(), nm)
        return E

    def memo_gradient(F, u):
        return energy_gradient(F, u, nm, cells=problems[id(F)])

    for F in (F2, F4, F2):
        # same field, each Young function with its own Problem on the mesh
        E, g, K = _dense_reference(F, u, nm)
        assert memo_energy(F, u) == pytest.approx(E, rel=1e-13)
        assert _close(memo_gradient(F, u), g)
        assert _close(stiffness(F, u), K)
    # the field changed in place under the memo
    u[3] += 0.5
    E, g, K = _dense_reference(F2, u, nm)
    assert memo_energy(F2, u) == pytest.approx(E, rel=1e-13)
    assert _close(stiffness(F2, u), K)
    assert _close(memo_gradient(F2, u), g)
    # a rejected trial between the gradient and the band at u
    memo_energy(F2, 3.0 * u)
    assert _close(stiffness(F2, u), K)
    # a gradient through the module call shares the solve's assembly
    u *= 2.0
    _, g, K = _dense_reference(F4, u, nm)
    assert _close(memo_gradient(F4, u), g)
    assert _close(stiffness(F4, u), K)


def test_exterior_coefficient_once_per_gradient_and_build(monkeypatch):
    # the exterior rows' a(g)/g = A(g)/g^2 is one evaluation of A, which
    # the gradient and the band's diagonal share; the pair rows use a
    nm = NonlocalMesh(1.0, 21, 0.5)
    F = YoungFunction.sum_of_powers(2, 4)
    calls = []
    A = F.A
    monkeypatch.setattr(F, "A", lambda t: calls.append(1) or A(t))
    u = np.random.default_rng(8).standard_normal(nm.interior_count)
    cells = Problem(F, nm)
    g = energy_gradient(F, u, nm, cells=cells)
    x = cells.preconditioner(u)(u)
    assert len(calls) == 1
    calls.clear()
    assert _close(energy_gradient(F, u, nm), g)
    assert np.array_equal(Problem(F, nm).preconditioner(u)(u), x)
    assert len(calls) == 2  # without the memo: once each


def test_solve_pins_the_cli_answer():
    """A determinism pin, not an accuracy check: the CLI's `nonlocal
    --young sop24 --s 0.5 --alpha 1 --nodes 128 --seed 1` answer (one BLAS
    thread), kept through refactors of the pair assembly.  lambda moves by
    about 1e-10 with the projection radius at the 1e-14 level, so 1e-12
    pins the arithmetic, not the discrete eigenvalue; the accuracy of
    lambda is checked by ``test_lambda_is_the_derivative_of_the_energy``."""
    res = solve_E(YoungFunction.sum_of_powers(2, 4),
                  NonlocalMesh(1.0, 128, 0.5), 1.0, SolveOptions(seed=1))
    assert res.converged
    assert res.energy == pytest.approx(15.47905825466219, rel=1e-12)
    assert res.lam == pytest.approx(15.696976706614997, rel=1e-12)


def test_each_run_polishes_in_at_most_3_newton_steps(monkeypatch):
    # the `nonlocal --nodes 128 --seed 1` solve with two starts (the
    # default stops after the first): handed over at residual
    # 1e-1, both runs end within 3 Newton steps (4 with a fixed CG forcing
    # of 1e-2) after at most 3 descent steps (2 and 3).  A linear tail
    # takes more steps, or stalls and hands the iterate back to the
    # descent steps (9 and 11 iterations, each hand-over check counted,
    # when the descent went on to 1e-4)
    descend, runs = solver._descend, []

    def counted_run(*args):
        run = descend(*args)
        runs.append(run)
        return run
    monkeypatch.setattr(solver, "_descend", counted_run)
    res = solve_E(YoungFunction.sum_of_powers(2, 4),
                  NonlocalMesh(1.0, 128, 0.5), 1.0,
                  SolveOptions(seed=1, restarts=2))
    assert res.converged and len(runs) == 2
    assert max(run.newton_steps for run in runs) <= 3
    assert max(run.iterations - run.newton_steps for run in runs) <= 3


@pytest.mark.parametrize("alpha", [1.0, 100.0])
def test_index_below_two_converges_by_the_half_newton_step(alpha):
    # Power(1.3): where a row's slope s vanishes at the minimizer, the
    # Newton step maps s to -2.3 s and its half step to -0.67 s.  Without
    # the half step every start stops near residual 1e-7, unconverged;
    # with it the first start converges, and its check certifies it
    res = solve_E(YoungFunction.power(1.3), NonlocalMesh(1.0, 32, 0.7),
                  alpha, SolveOptions(seed=1))
    assert res.converged and res.restarts_used == 1
    assert res.hessian_min > 0.0
    assert res.residual < 1e-8


def test_index_five_quarters_converges_by_the_quarter_newton_step(
        monkeypatch):
    # Power(1.25): where a row's slope s vanishes at the minimizer, the
    # Newton step maps s to -3 s, its half step to -s and its quarter step
    # to 0.  A polish step keeps a damped step only if the residual falls
    # by (1 - theta/2), so it takes the quarter step instead of crawling
    # through its budget on the half step's tiny decreases
    project, projections = Problem.project, []

    def counted(self, values, alpha):
        projections.append(1)
        return project(self, values, alpha)
    monkeypatch.setattr(Problem, "project", counted)
    res = solve_E(YoungFunction.power(1.25), NonlocalMesh(1.0, 64, 0.5),
                  100.0, SolveOptions(seed=1, max_iter=2000))
    assert res.converged and res.restarts_used == 1
    assert len(projections) <= 200


def test_lambda_is_the_derivative_of_the_energy():
    # the Lagrange multiplier is dE/dalpha: a central difference of warm
    # solves at alpha = 1 +- 1e-4 reproduces lambda at alpha = 1
    F, nm = YoungFunction.sum_of_powers(2, 4), NonlocalMesh(1.0, 128, 0.5)
    d, opts = 1e-4, SolveOptions(seed=1)
    mid = solve_E(F, nm, 1.0, opts)
    up, down = (solve_E(F, nm, 1.0 + e, opts, initial=mid.u)
                for e in (d, -d))
    assert mid.converged and up.converged and down.converged
    slope = (up.energy - down.energy) / (2.0 * d)
    assert abs(slope / mid.lam - 1.0) <= 1e-8


def test_solves_on_shared_mesh_match_fresh_mesh():
    # the sweep's Power(2) and Power(4) reference solves share one mesh
    nm = NonlocalMesh(1.0, 24, 0.5)
    opts = SolveOptions(restarts=1)
    shared = [solve_E(F, nm, 1.0, opts) for F in
              (YoungFunction.power(2), YoungFunction.power(4))]
    fresh = solve_E(YoungFunction.power(4), NonlocalMesh(1.0, 24, 0.5),
                    1.0, opts)
    assert shared[1].energy == fresh.energy and shared[1].lam == fresh.lam


def test_default_restarts_stop_at_first_certified_run():
    nm = NonlocalMesh(1.0, 37, 0.5)
    F = YoungFunction.sum_of_powers(2, 4)
    early = solve_E(F, nm, 1.0)
    full = solve_E(F, nm, 1.0, SolveOptions(restarts=5))
    assert early.converged and early.restarts_used == 1
    assert early.hessian_min > 0.0 and full.hessian_min is None
    assert full.restarts_used == 5
    assert abs(early.energy - full.energy) <= 1e-8 * full.energy
    assert early.as_dict()["restart_spread"] is None


def test_uncertified_default_runs_the_whole_pool(monkeypatch):
    # a stand-in check that certifies no run: the solve runs all
    # MAX_STARTS starts, though its first two converged runs agree in
    # energy, and returns what restarts=5 returns
    monkeypatch.setattr(solver, "_hessian_min", lambda problem, run: math.nan)
    nm = NonlocalMesh(1.0, 37, 0.5)
    F = YoungFunction.sum_of_powers(2, 4)
    early = solve_E(F, nm, 1.0)
    full = solve_E(F, nm, 1.0, SolveOptions(restarts=5))
    assert early.converged and early.restarts_used == full.restarts_used == 5
    first, second = early.restart_energies[:2]
    assert abs(first - second) <= SolveOptions().tol * first
    assert early.energy == full.energy == min(early.restart_energies)
    assert early.restart_spread == full.restart_spread
    assert 0.0 <= early.as_dict()["restart_spread"] <= 1e-8


def test_custom_young_matches_power_on_pair_arrays():
    # pair quotients are 2D arrays; the custom family must keep their shape
    nm = NonlocalMesh(1.0, 8, 0.5)
    custom, power = YoungFunction.custom(lambda t: 2.0 * t), \
        YoungFunction.power(2)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(nm.interior_count)
    # A is integrated by quad at epsrel 1e-10; a is the density itself
    assert energy(custom, u, nm) == pytest.approx(energy(power, u, nm),
                                                  rel=1e-9)
    assert _close(energy_gradient(custom, u, nm),
                  energy_gradient(power, u, nm))


@pytest.mark.parametrize("F", [YoungFunction.power(1.2),
                               YoungFunction.power(2.5),
                               YoungFunction.sum_of_powers(2, 4),
                               YoungFunction.sum_of_powers(1.5, 4)],
                         ids=lambda F: F.label)
def test_primitive_rule_matches_closed_form(F):
    tau = np.geomspace(1e-3, 40.0, 41)
    np.testing.assert_allclose(_primitive_by_rule(F, tau),
                               F.G(tau), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("F", [YoungFunction.power_log(2, 1, 1),
                               YoungFunction.exp_minus_poly(2),
                               YoungFunction.exp_neg_inv_power(1)],
                         ids=lambda F: F.label)
def test_primitive_rule_matches_quad(F):
    # G(tau) = int_0^tau A(s)/s ds; exp_neg_inv_power(1) is E1(1/tau) up to
    # its knot t0 = 1/2, where the closed form hands over to a quadratic
    tau = np.geomspace(2e-3, 40.0, 25)
    t0 = F.knot if F.family.value == "exp_neg_inv_power" else None

    def G(t):
        return quad(lambda x: F.A(x) / x, 0.0, t, epsabs=0.0, epsrel=1e-13,
                    limit=400, points=[t0] if t0 and t > t0 else None)[0]
    np.testing.assert_allclose(F.G(tau), [G(t) for t in tau],
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("F, da", [
    (YoungFunction.power(3), lambda t: 2.0 * t),
    (YoungFunction.sum_of_powers(2, 4), lambda t: 0.5 + 0.75 * t * t)],
    ids=["p3", "sop24"])
def test_exterior_young_function_is_G_with_density_and_derivative(F, da):
    # the exterior rows' Young function is F's G, with density A(t)/t
    # (t^2 and t/2 + t^3/4) and its derivative by the central difference
    G, tau = _Primitive(F), np.geomspace(1e-3, 10.0, 13)
    assert np.array_equal(G.A(tau), F.G(tau))
    assert np.array_equal(G.a(tau), F.A(tau) / tau)
    np.testing.assert_allclose(G.da(tau), da(tau), rtol=1e-9, atol=0.0)


def test_mesh_keeps_no_pair_index_arrays():
    # the pair rows keep four arrays of N^2/2 doubles (spacings, weights
    # and the two row factors, 16 MiB at N = 1024) and no index arrays of
    # their layout (4 MiB each)
    tracemalloc.start()
    try:
        nm = NonlocalMesh(1.0, 1024, 0.5)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert nm.pairs.row_spacing.size == 512 * 1024
    assert kept <= 17 * 2 ** 20


def test_a_start_whose_stiffness_is_not_definite_ends_and_the_next_goes_on():
    # exp_minus_poly(2) at s = 0.9, seed 1, three starts (the default stops
    # after the first, certified, start): a descent step of the second
    # start meets a stiffness that is not positive definite even lifted
    # (minor 128).  That run ends unconverged and the third start
    # converges to the energy of seed 2's second start, where the build
    # raised LinAlgError before
    F = YoungFunction.exp_minus_poly(2)
    nm = NonlocalMesh(1.0, 128, 0.9)
    got = solve_E(F, nm, 100.0, SolveOptions(seed=1, restarts=3))
    ref = solve_E(F, nm, 100.0, SolveOptions(seed=2, restarts=2))
    assert got.converged and got.restarts_used == 3
    assert got.energy == pytest.approx(ref.energy, rel=1e-14)


# -- the kept bands --------------------------------------------------------

SOP24 = YoungFunction.sum_of_powers(2, 4)


def _largest_rise(f):
    """Run f() and return the largest rise of traced memory within one line
    of this package that it runs: the line's own allocations and those of
    the code outside the package that it calls."""
    rise, level = [0], [0]

    def trace(frame, event, arg):
        if not frame.f_globals.get("__name__", "").startswith("orlicz_eigen"):
            return None
        current, peak = tracemalloc.get_traced_memory()
        rise[0] = max(rise[0], peak - level[0])
        tracemalloc.reset_peak()
        level[0] = current
        return trace

    tracemalloc.start()
    before = sys.gettrace()
    level[0] = tracemalloc.get_traced_memory()[0]
    sys.settrace(trace)
    try:
        f()
    finally:
        sys.settrace(before)
        tracemalloc.stop()
    return rise[0]


def test_warm_steps_allocate_no_block_of_n_squared_doubles():
    # once both kept bands exist, a descent build and a Newton step (its
    # Hessian and CG) assemble, factor and apply in them; each line's
    # temporaries stay below the N x N doubles of a band (the pair rows
    # have N^2/2 entries), where a new band or a Fortran-order copy of one
    # would reach it
    nm = NonlocalMesh(1.0, 256, 0.5)
    problem = Problem(SOP24, nm)
    u = problem.project(np.sin(np.pi * nm.x) + 0.1, 1.0)
    check = solver._check(problem, u)
    for _ in range(2):
        solve = problem.preconditioner(u)
    band = 8 * nm.interior_count ** 2
    assert _largest_rise(lambda: problem.preconditioner(u)) < band
    assert _largest_rise(lambda: solver._newton_step(
        problem, check, solve, solve(check.mg))) < band


def test_a_factor_kept_by_newton_holds_through_later_builds():
    # the factor that _newton keeps after a full step lives in one kept
    # band; the next stiffness band and the Hessian are written in the
    # other, so its solves do not change
    nm = NonlocalMesh(1.0, 48, 0.5)
    problem = Problem(SOP24, nm)
    u = solve_E(SOP24, nm, 1.0, SolveOptions(seed=1)).u.values
    check = solver._check(problem, problem.project(u * (1.0 + 1e-3 * nm.x),
                                                   1.0))
    moved, factor = solver._newton(problem, 1.0, check, None, 1e-8)
    assert moved is not None and factor is not None
    rhs = np.random.default_rng(5).standard_normal(nm.interior_count)
    x = factor(rhs)
    problem.band(2.0 * u)
    problem.tangent(3.0 * u, moved.lam)
    assert np.array_equal(factor(rhs), x)


@pytest.mark.parametrize("n", [37, 48], ids=["odd", "even"])
def test_pair_band_in_lapack_layout_holds_the_pair_sums(n):
    # the band written node by node into a Fortran-order array: each pair's
    # -c at its offset and the plus- and minus-end sums on the diagonal, bit
    # for bit, and every entry finite, the ones LAPACK never reads too
    p = NonlocalMesh(1.0, n, 0.5).pairs
    plus, minus = oracles.pair_ends(n)
    c = np.random.default_rng(n).random(len(plus))
    c[p.cell_weights == 0.0] = 0.0
    i, j = np.minimum(plus, minus), np.maximum(plus, minus)
    once = p.cell_weights > 0.0
    ref = np.zeros((n, n))
    ref[n - 1 - (j - i)[once], j[once]] = -c[once]
    ref[-1] = np.bincount(plus, c, n) + np.bincount(minus, c, n)
    out = np.full((n, n), np.nan).T
    ab = p.band(c, out)
    assert np.shares_memory(ab, out) and ab.flags.f_contiguous
    assert np.all(np.isfinite(ab))
    for k in range(n):
        assert np.array_equal(ab[n - 1 - k, k:], ref[n - 1 - k, k:])


@pytest.mark.parametrize("m", [
    Mesh.interval(1.0, 40), Mesh.rectangle(2.0, 1.0, 7, 5),
    NonlocalMesh(1.0, 37, 0.5), NonlocalMesh(1.0, 48, 0.5)],
    ids=["interval", "rectangle", "N37", "N48"])
def test_kept_bands_solve_and_apply_as_new_copied_ones(m):
    # against the copy-based path (a band built anew, copied to Fortran
    # order and factored in the copy; a Hessian built anew, its band
    # copied), builds in the kept bands of one Problem give the same solves
    # and matvecs bit for bit, in the kept bands that held factors before
    # too
    rng = np.random.default_rng(m.interior_count)
    rhs, v = rng.standard_normal((2, m.interior_count))
    problem = Problem(SOP24, m)
    for step in range(3):
        u = problem.project(np.abs(rng.standard_normal(m.interior_count))
                            + 0.1, 1.0)
        lam = solver._check(problem, u).lam
        fresh = Problem(SOP24, m)
        cho, info = solver._PBTRF(np.array(fresh.band(u), order="F"))
        assert info == 0
        assert np.array_equal(problem.preconditioner(u)(rhs),
                              solver._PBTRS(cho, rhs)[0])
        apply = fresh.tangent(u, lam)
        want = apply(v)
        if m.dim == 1:
            hessian = np.array(fresh.kept["band"], order="F")
            assert np.array_equal(want, solver._SBMV(
                len(hessian) - 1, 1.0, hessian, v))
        assert np.array_equal(problem.tangent(u, lam)(v), want)
