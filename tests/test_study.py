"""The default path on the study grids of ``study.py``: one start whose
second-order check certifies it, with the multistart's answer; the check
against a dense eigensolve; and its rejection of the planted saddles."""

import numpy as np
import pytest

from orlicz_eigen import solver
from orlicz_eigen.fractional import NonlocalMesh
from orlicz_eigen.mesh import Mesh
from orlicz_eigen.solver import Problem, SolveOptions, solve_E
from orlicz_eigen.young import YoungFunction

from study import GRIDS

# the one broad solve whose returned run has a negative tangent mode: the
# dense eigensolve of the projected Hessian reads -8.591e-3 there, against
# lambda = 13.50 (seed 1), so no run is certified and the solve goes on
NOT_CERTIFIED = {"expinv1-rect32x16-0.01": -8.591484074762772e-3}


def _dense_hessian_min(F, m, values, lam):
    """The lowest eigenvalue of J v = mu W v on {v : <mg, v> = 0}, from
    the dense matrix of Problem.tangent and an orthonormal basis Q of the
    tangent: the eigenvalues of L^-1 Q^T J Q L^-T, L L^T = Q^T W Q."""
    problem = Problem(F, m)
    apply = problem.tangent(values, lam)
    n = len(values)
    J = np.column_stack([apply(e) for e in np.eye(n)])
    mg = problem.mass_gradient(values)
    Q = np.linalg.qr(np.column_stack([mg, np.eye(n)[:, :n - 1]]))[0][:, 1:]
    L = np.linalg.cholesky(Q.T @ (m.node_weights[:, None] * Q))
    C = np.linalg.solve(L, np.linalg.solve(L, Q.T @ J @ Q).T)
    return float(np.linalg.eigvalsh(0.5 * (C + C.T))[0])


@pytest.fixture(scope="module")
def broad():
    """Each broad solve at seed 1, with the default options and with four
    starts."""
    return {case.name: (case, case.solve(seed=1),
                        case.solve(seed=1, restarts=4))
            for case in GRIDS["broad"]}


def test_broad_default_is_one_certified_start_with_the_multistart_energy(
        broad):
    # every solve converges to the energy of four starts within 1e-12
    # relative, from one start its check certifies; a single disagreement
    # fails
    assert len(broad) == 90
    wrong = []
    for name, (case, res, multi) in broad.items():
        tol = SolveOptions().tol
        certified = (res.restarts_used == 1
                     and res.hessian_min >= -tol * abs(res.lam))
        if not (res.converged and multi.converged
                and abs(res.energy - multi.energy) <= 1e-12 * multi.energy
                and certified == (name not in NOT_CERTIFIED)):
            wrong.append((name, res.energy, multi.energy, res.restarts_used,
                          res.hessian_min))
    assert wrong == []


def test_broad_uncertified_solve_has_a_negative_tangent_mode(broad):
    # the check's rejection is the dense eigensolve's, and the solve went
    # on through the pool
    for name, mu in NOT_CERTIFIED.items():
        case, res, _ = broad[name]
        assert res.restarts_used >= 2 and res.hessian_min < 0.0
        dense = _dense_hessian_min(case.young(), res.u.mesh, res.u.values,
                                   res.lam)
        assert dense == pytest.approx(mu, rel=1e-6)
        assert res.hessian_min == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("case", GRIDS["saddles"], ids=lambda c: c.name)
def test_the_check_rejects_each_saddle(case, monkeypatch):
    # negative control: with _run's |u| restart patched out, the first run
    # converges at the saddle; its check finds the negative tangent mode
    # (-55.53, -2254.6 and -22.53, as a dense eigensolve does), so it is
    # not certified, and the solve goes on to a second start, which reaches
    # the minimizer and is certified.  At tol 2e-8: under OpenBLAS's
    # Haswell kernels the interval alpha = 1e-2 run stalls at the saddle
    # at residual 1.13e-8 (9.35e-9 natively), so at the default tol it
    # would end unconverged there and never meet the check
    checked, hessian_min = [], solver._hessian_min

    def recorded(problem, run):
        checked.append(run)
        return hessian_min(problem, run)
    monkeypatch.setattr(solver, "_one_signed", lambda values: True)
    monkeypatch.setattr(solver, "_hessian_min", recorded)
    tol = 2e-8
    res = case.solve(seed=1, tol=tol)
    saddle, minimum = checked
    assert saddle.converged and saddle.hessian_min < -tol * saddle.lam
    assert minimum.hessian_min > 0.0 and res.restarts_used == 2
    assert np.any(saddle.values < 0.0) and np.any(saddle.values > 0.0)
    m = case.mesh()
    assert saddle.hessian_min == pytest.approx(_dense_hessian_min(
        case.young(), m, saddle.values, saddle.lam), rel=1e-6)
    assert res.energy == minimum.energy < saddle.energy
    assert res.hessian_min == minimum.hessian_min > 0.0


def _symmetric_starts(m):
    """Two starts that the mirror x -> L - x maps to themselves."""
    x = m.interior_coords[:, 0]
    return np.array([np.ones_like(x), x * (x.max() + x.min() - x)])


@pytest.mark.parametrize("alpha", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("make", [lambda: NonlocalMesh(1.0, 63, 0.5),
                                  lambda: Mesh.interval(1.0, 100)],
                         ids=["nonlocal63", "interval100"])
def test_hessian_min_matches_a_dense_eigensolve(make, alpha, monkeypatch):
    # the check's estimate is the lowest tangent eigenvalue to 1e-6.
    # Negative control: from symmetric starts LOBPCG stays among the
    # symmetric modes and settles on the lowest of those, while the lowest
    # tangent mode at the symmetric minimizer is antisymmetric
    F, m = YoungFunction.sum_of_powers(2, 4), make()
    res = solve_E(F, m, alpha, SolveOptions(seed=1))
    assert res.converged and res.restarts_used == 1
    dense = _dense_hessian_min(F, m, res.u.values, res.lam)
    assert res.hessian_min == pytest.approx(dense, rel=1e-6)
    monkeypatch.setattr(solver, "_ritz_starts", _symmetric_starts)
    symmetric = solve_E(F, m, alpha, SolveOptions(seed=1))
    assert symmetric.hessian_min != pytest.approx(dense, rel=1e-6)


# double_exp, max_iter 2000: (mesh, alpha, seed) -> the energy of the
# default solve before this check existed, corrected to the requested
# alpha by dE/dalpha = lambda (the achieved modulars differ by up to
# 1.5e-13 relative, which moves E by 2.6e-12 at alpha = 100)
DOUBLE_EXP = {
    ("interval200", 1.0, 1): 89.45243764012258,
    ("interval200", 1.0, 2): 89.45243764012261,
    ("interval200", 100.0, 1): 7.843688424870046e+21,
    ("interval200", 100.0, 2): 7.843688424870027e+21,
    ("square24", 1.0, 1): 2002.2817562585806,
}


@pytest.mark.parametrize("key", sorted(DOUBLE_EXP), ids=str)
def test_double_exp_default_is_one_start(key):
    # the default path no longer runs the random starts that burned up to
    # 183 s here (they saturate A and crawl to max_iter): one start,
    # certified, with the multistart's answer
    mesh, alpha, seed = key
    m = (Mesh.interval(1.0, 200) if mesh == "interval200"
         else Mesh.rectangle(1.0, 1.0, 24, 24))
    res = solve_E(YoungFunction.double_exp(), m, alpha,
                  SolveOptions(seed=seed, max_iter=2000))
    assert res.converged and res.restarts_used == 1
    assert res.hessian_min > 0.0
    at_alpha = res.energy - res.lam * (res.alpha - alpha)
    assert at_alpha == pytest.approx(DOUBLE_EXP[key], rel=1e-12)
