"""Acceptance gate: the ten criteria, one test (and one pass/fail line in
``pytest -v``) per criterion, at the stated tolerances."""

import math
import time

import numpy as np
import pytest

from orlicz_eigen.fractional import NonlocalMesh
from orlicz_eigen.mesh import Mesh
from orlicz_eigen.solver import (SolveOptions, energy, energy_gradient,
                                 solve_E)
from orlicz_eigen.sweep import (check_bounds, check_decay, estimate_limits,
                                geometric_grid, run_sweep)
from orlicz_eigen.young import (Endpoint, Regime, YoungFunction,
                                complementary_eval, delta2_report,
                                luxemburg_norm, matuszewska_exponent, modular)

import oracles


def test_criterion_01_p2_oracle(mesh200):
    """E/alpha within 1% of the discrete eigenvalue 2(1-cos pi h)/h^2."""
    start = time.time()
    res = solve_E(YoungFunction.power(2), mesh200, 1.0)
    elapsed = time.time() - start
    discrete = oracles.closed_form_discrete_eigenvalue(1.0, 200)
    assert abs(discrete - math.pi ** 2) / math.pi ** 2 <= 1e-3
    assert res.converged
    assert abs(res.energy / 1.0 - discrete) / discrete <= 1e-2
    assert elapsed < 10.0
    print(f"criterion 1 PASS: E/alpha = {res.energy:.6f} vs discrete "
          f"{discrete:.6f} ({elapsed:.2f} s)")


def test_criterion_02_p3_shooting(mesh200):
    """Quotient within 2% of the independent shooting-method reference."""
    res = solve_E(YoungFunction.power(3), mesh200, 1.0)
    mu = oracles.p_laplacian_shooting(3.0)
    closed = oracles.p_laplacian_quotient(3.0)
    assert abs(mu - closed) / closed <= 1e-8  # closed-form cross-check
    assert abs((3.0 - 1.0) * mu - oracles.p_laplacian_lambda(3.0)) \
        <= 1e-8 * oracles.p_laplacian_lambda(3.0)
    assert res.converged
    assert abs(res.lam - mu) / mu <= 2e-2
    print(f"criterion 2 PASS: quotient {res.lam:.6f} vs shooting {mu:.6f}")


def test_criterion_03_derivative_identity(sweep24_narrow):
    """Median |dE/dalpha - lambda|/lambda <= 2%; sandwich everywhere."""
    start = time.time()
    recs = sweep24_narrow
    mid = [r for r in recs if r.converged and math.isfinite(r.dE_dalpha)]
    assert mid, "no interior records"
    gaps = sorted(abs(r.dE_dalpha - r.lam) / r.lam for r in mid)
    median = gaps[len(gaps) // 2]
    assert median <= 2e-2
    assert all(-1e-12 <= r.dE_dalpha <= 1.05 * r.lam for r in mid)
    assert time.time() - start < 300.0
    print(f"criterion 3 PASS: median gap {median:.4f}, "
          f"{len(mid)} interior records")


def test_criterion_04_bounds_suite(sum24, sweep24_narrow):
    """Both lemma bounds plus the quotient bound at every converged
    record, with p from the doubling report; negative control fails."""
    p = delta2_report(sum24, Endpoint.INFINITY).p_index
    assert p == pytest.approx(4.0, abs=1e-6)
    report = check_bounds(sweep24_narrow, p)
    assert report["overall_pass"] and report["failures"] == []
    import copy
    perturbed = copy.deepcopy(sweep24_narrow)
    for r in perturbed:
        r.energy *= max(r.alpha ** p, r.alpha ** (1.0 / p)) * 1.01
        r.quotient = r.energy / r.alpha
    assert not check_bounds(perturbed, p)["overall_pass"]
    print(f"criterion 4 PASS: {report['records_checked']} records, "
          "negative control fails as designed")


def test_criterion_05_asymptotic_limits(sum24, mesh200, sweep24_wide):
    """Extrapolated quotients within 5% of the Power(2)/Power(4)
    quotients on the identical mesh."""
    low = estimate_limits(sum24, mesh200, sweep24_wide, Endpoint.ZERO)
    high = estimate_limits(sum24, mesh200, sweep24_wide, Endpoint.INFINITY)
    assert low.exponent == pytest.approx(2.0, abs=1e-2)
    assert high.exponent == pytest.approx(4.0, abs=1e-2)
    assert low.relative_gap <= 5e-2
    assert high.relative_gap <= 5e-2
    print(f"criterion 5 PASS: gaps {low.relative_gap:.2e} (zero), "
          f"{high.relative_gap:.2e} (infinity)")


def test_criterion_06_non_doubling_decay():
    """Quotient strictly decreasing over the last decade; final value at
    most 20% of the alpha = 1 value."""
    F = YoungFunction.exp_minus_poly(2)
    m = Mesh.interval(4.0, 400)
    recs = run_sweep(F, m, geometric_grid(1.0, 1e4, 5))
    report = check_decay(F, m, recs, Endpoint.INFINITY, fraction=0.2)
    assert report["strictly_decreasing_last_decade"]
    assert report["overall_pass"]
    print(f"criterion 6 PASS: final quotient {report['final_quotient']:.4f} "
          f"vs {report['quotient_at_one']:.4f} at alpha = 1")


def test_criterion_07_matuszewska_recovery():
    """All tabulated example exponents within 1e-2; degenerate families
    classified as such."""
    cases = [
        (YoungFunction.power(2.5), Endpoint.ZERO, 2.5),
        (YoungFunction.power(2.5), Endpoint.INFINITY, 2.5),
        (YoungFunction.sum_of_powers(2, 4), Endpoint.ZERO, 2.0),
        (YoungFunction.sum_of_powers(2, 4), Endpoint.INFINITY, 4.0),
        (YoungFunction.power_log(2, 1, 1), Endpoint.ZERO, 3.0),   # p + r*alpha
        (YoungFunction.power_log(2, 1, 1), Endpoint.INFINITY, 2.0),  # p
        (YoungFunction.exp_minus_poly(2), Endpoint.ZERO, 2.0),    # M_0 = t^n
    ]
    for F, ep, expected in cases:
        est = matuszewska_exponent(F, ep)
        assert est.regime is Regime.POWER_LIKE, (F.label, ep)
        assert abs(est.exponent - expected) <= 1e-2, (F.label, ep)
    degenerate = [
        (YoungFunction.exp_minus_poly(2), Endpoint.INFINITY),
        (YoungFunction.double_exp(), Endpoint.INFINITY),
        (YoungFunction.exp_neg_inv_power(1), Endpoint.ZERO),
    ]
    for F, ep in degenerate:
        assert matuszewska_exponent(F, ep).regime \
            is Regime.TRIVIAL_DEGENERATE, (F.label, ep)
    print(f"criterion 7 PASS: {len(cases)} exponents within 1e-2, "
          f"{len(degenerate)} degenerate classifications")


def test_criterion_08_young_calculus_properties(mesh200):
    """Randomized property suites (1000 cases per family): Young
    inequality, complementary involution, norm-modular bound, convexity
    scaling, and the density-index inequality."""
    rng = np.random.default_rng(2024)
    cases = [(YoungFunction.power(2), 2.0), (YoungFunction.power(3.5), 3.5),
             (YoungFunction.sum_of_powers(2, 4), 4.0),
             (YoungFunction.power_log(2, 1, 1), 4.0)]
    # independent grid-based Legendre transform for the conjugate checks
    # (oracles.discrete_legendre, the grid maximum in linear time); log
    # spacing resolves the maximizer down to the origin
    tau = np.concatenate([[0.0], np.geomspace(1e-9, 12.0, 24_001)])
    violations = 0
    for F, p in cases:
        A_tau = F.A(tau)
        s = rng.uniform(0.0, 4.0, 1000)
        t = rng.uniform(0.0, 4.0, 1000)
        conj_t = oracles.discrete_legendre(tau, A_tau, t)
        # the same grid maxima as the brute-force transform
        assert np.array_equal(conj_t[:5], np.max(
            tau[None, :] * t[:5, None] - A_tau[None, :], axis=1))
        # Young inequality s t <= A(s) + conj(t)
        violations += int(np.sum(s * t > F.A(s) + conj_t + 1e-8))
        # spot-check the package conjugate against the grid transform
        for tv, cv in zip(t[:5], conj_t[:5]):
            if abs(complementary_eval(F, tv) - cv) > 1e-5 * max(cv, 1.0):
                violations += 1
        # involution: transforming the tabulated conjugate recovers A
        tgrid = np.concatenate([[0.0], np.geomspace(1e-9, 60.0, 24_001)])
        conj_grid = oracles.discrete_legendre(tau, A_tau, tgrid)
        x = rng.uniform(0.1, 3.0, 1000)
        back = oracles.discrete_legendre(tgrid, conj_grid, x)
        violations += int(np.sum(np.abs(back - F.A(x))
                                 > 1e-4 * np.maximum(F.A(x), 1e-3)))
        # convexity scalings A(tau t) <= tau A(t), A(sigma t) >= sigma A(t)
        shrink = rng.uniform(0.01, 0.99, 1000)
        growf = rng.uniform(1.01, 10.0, 1000)
        At = F.A(t)
        violations += int(np.sum(F.A(shrink * t)
                                 > shrink * At * (1 + 1e-10) + 1e-300))
        violations += int(np.sum(F.A(growf * t)
                                 < growf * At * (1 - 1e-10)))
        # density-index inequality A(t) <= a(t) t <= p A(t)
        pos = t > 0
        prod = F.a(t[pos]) * t[pos]
        violations += int(np.sum(prod < At[pos] * (1 - 1e-10)))
        violations += int(np.sum(prod > p * At[pos] * (1 + 1e-10)))
    # norm-modular bound over random fields: ||u||_A <= max(1, modular)
    for _ in range(50):
        F = cases[int(rng.integers(len(cases)))][0]
        u = mesh200.field(
            np.abs(rng.standard_normal(mesh200.interior_count))
            * rng.uniform(0.2, 5.0))
        norm = luxemburg_norm(F, u, mesh200)
        if norm > max(1.0, modular(F, u, mesh200)) * (1 + 1e-6):
            violations += 1
    assert violations == 0
    print("criterion 8 PASS: 1000-case property suites, zero violations")


def test_criterion_09_nonlocal_homogeneity():
    """E^s(alpha)/alpha constant within 1% for Power(2); pair-sum gradient
    matches finite differences within 1e-5; runtime < 2 min."""
    start = time.time()
    F = YoungFunction.power(2)
    nm = NonlocalMesh(1.0, 128, 0.5)
    quotients = []
    for alpha in (0.5, 1.0, 2.0):
        res = solve_E(F, nm, alpha)
        assert res.converged
        quotients.append(res.energy / alpha)
    spread = (max(quotients) - min(quotients)) / min(quotients)
    assert spread <= 1e-2
    rng = np.random.default_rng(9)
    u = np.abs(rng.standard_normal(nm.interior_count)) + 0.1
    v = rng.standard_normal(nm.interior_count)
    g = float(energy_gradient(F, u, nm) @ v)
    num = oracles.directional_derivative(lambda w: energy(F, w, nm), u, v)
    assert abs(g - num) / abs(num) <= 1e-5
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"criterion 9 PASS: quotient spread {spread:.2e}, "
          f"gradient gap within 1e-5 ({elapsed:.1f} s)")


def test_criterion_10_nonlocal_limit(sum24):
    """SumOfPowers(2,4) quotient at alpha = 1e-3 within 10% of the
    Power(2) nonlocal quotient on the identical mesh."""
    nm = NonlocalMesh(1.0, 128, 0.5)
    mixed = solve_E(sum24, nm, 1e-3)
    pure = solve_E(YoungFunction.power(2), nm, 1e-3)
    assert mixed.converged and pure.converged
    gap = abs(mixed.energy / 1e-3 - pure.energy / 1e-3) / (pure.energy / 1e-3)
    assert gap <= 0.10
    print(f"criterion 10 PASS: relative gap {gap:.2e}")
