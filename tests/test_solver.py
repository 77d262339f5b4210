"""Constrained minimization: normalization, gradients, residuals, solves."""

import decimal
import importlib.util
import itertools
import math
import re
import sys
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from orlicz_eigen.errors import (BracketRangeError, ConfigError,
                                 ConformanceError, OrliczError,
                                 ZeroDenominatorError)
from orlicz_eigen import fractional, solver, young
from orlicz_eigen.fractional import NonlocalMesh
from orlicz_eigen.mesh import Mesh, bump_field
from orlicz_eigen.solver import (Problem, SolveOptions, energy,
                                 energy_gradient, lagrange_quotient,
                                 mass_gradient, phi_root, solve_E,
                                 weak_residual)
from orlicz_eigen.young import (SATURATION, YoungFunction, luxemburg_norm,
                                modular)

import oracles


@pytest.fixture(scope="module")
def m200():
    return Mesh.interval(1.0, 200)


# -- phi_root ---------------------------------------------------------------

def test_phi_root_power_homogeneity(m200):
    F = YoungFunction.power(3)
    rng = np.random.default_rng(0)
    u = m200.field(np.abs(rng.standard_normal(m200.interior_count)) + 0.1)
    r1 = phi_root(F, u, m200, modular(F, u, m200))
    assert r1.r_alpha == pytest.approx(1.0, rel=1e-10)
    base = modular(F, u, m200)
    r = phi_root(F, u, m200, 8.0 * base)
    assert r.r_alpha == pytest.approx(2.0, rel=1e-10)  # alpha^(1/p)


def test_phi_root_sum_of_powers_bracket(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    rng = np.random.default_rng(1)
    u = m200.field(np.abs(rng.standard_normal(m200.interior_count)) + 0.1)
    base = modular(F, u, m200)
    u = u * (1.0 / (base ** 0.25))  # crude normalization toward modular 1
    r = phi_root(F, u, m200, 16.0 * modular(F, u, m200))
    assert 16.0 ** 0.25 <= r.r_alpha <= 16.0 ** 0.5


def test_phi_root_rejects_zero_field(m200):
    F = YoungFunction.power(2)
    with pytest.raises(ZeroDenominatorError):
        phi_root(F, m200.zeros(), m200, 1.0)


CLOSED_FORM_FAMILIES = {
    "power": lambda: YoungFunction.power(3),
    "sum_of_powers": lambda: YoungFunction.sum_of_powers(2, 4),
    "power_log": lambda: YoungFunction.power_log(2, 1, 1),
    "exp_minus_poly": lambda: YoungFunction.exp_minus_poly(2),
    "exp_neg_inv_power": lambda: YoungFunction.exp_neg_inv_power(1),
    "double_exp": YoungFunction.double_exp,
}


@pytest.mark.parametrize("r0", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("alpha", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("family", sorted(CLOSED_FORM_FAMILIES))
def test_normalization_newton(m200, family, alpha, r0):
    F = CLOSED_FORM_FAMILIES[family]()
    u = m200.field(np.sin(math.pi * m200.interior_coords[:, 0]))
    evaluate_A = F.A
    calls = []

    def counted_A(t):
        calls.append(1)
        return evaluate_A(t)
    F.A = counted_A
    res = phi_root(F, u, m200, alpha, r0)
    # a fallback to plain bisection needs ~45 evaluations
    if F._moment_terms is None:
        assert len(calls) == res.iterations <= 15
    else:
        # scalar Newton steps on the moments, then one array check
        assert len(calls) == 1 and res.iterations <= 15
    achieved = modular(F, u * res.r_alpha, m200)
    assert abs(achieved - alpha) <= 1e-12 * alpha
    assert res.phi_value == achieved
    # the projection starts from r0 = 1; a root from another r0 may
    # differ in the last bit
    projected = Problem(F, m200).project(u.values, alpha)
    assert np.array_equal(projected,
                          u.values * phi_root(F, u, m200, alpha).r_alpha)


def _fields(n):
    """A sine with zeros, and values spanning 1e-200 ... 1 in mixed order."""
    x = np.linspace(0.0, 1.0, n)
    sine = np.sin(3.0 * math.pi * x)
    sine[::7] = 0.0
    order = np.random.default_rng(4).permutation(n)
    spread = np.geomspace(1e-200, 1.0, n)[order]
    return {"zeros": sine, "spread": spread}


MOMENT_FAMILIES = {
    "power1.5": lambda: YoungFunction.power(1.5),
    "power2": lambda: YoungFunction.power(2),
    "power4": lambda: YoungFunction.power(4),
    "sum_of_powers": lambda: YoungFunction.sum_of_powers(2, 4),
}


def _exact_radius(F, values, m, alpha):
    """The root of sum w A(r |u|) = alpha for A = sum c t^p, by Newton's
    method in 50-digit decimal arithmetic from the root of the top power
    alone, which lies above it."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        moments = [(D(p), D(c) * sum(D(w) * D(x) ** D(p) for w, x
                                     in zip(m.node_weights, np.abs(values))
                                     if x > 0.0))
                   for p, c in F._moment_terms]
        a = D(alpha)
        p, cm = moments[-1]
        r = (a / cm) ** (1 / p)
        for _ in range(100):
            phi = sum(c * r ** q for q, c in moments)
            dphi = sum(q * c * r ** q for q, c in moments)
            r, dr = r * (1 - (phi - a) / dphi), r * (phi - a) / dphi
            if abs(dr) <= r * D(10) ** -40:
                return float(r)
    raise AssertionError("decimal Newton did not converge")


@pytest.mark.parametrize("field", ["zeros", "spread"])
@pytest.mark.parametrize("family", sorted(MOMENT_FAMILIES))
def test_moment_radius_matches_array_path(m200, family, field):
    # both paths take the same Newton iterates and stop by the same rule,
    # so each radius is the root to the radius tolerance 1e-13; they are
    # not ulp-equal, since a long last step (from r0 = 1e-3, say) carries
    # the rounding of log phi and of the slope, which the paths form
    # differently (measured: up to 61 ulp apart, 434 ulp from the root)
    F = MOMENT_FAMILIES[family]()
    u = m200.field(_fields(m200.interior_count)[field])
    plain = MOMENT_FAMILIES[family]()
    plain._moment_terms = None  # the array evaluator throughout
    for alpha in (1e-4, 1.0, 1e4):
        exact = _exact_radius(F, u.values, m200, alpha)
        for r0 in (1e-3, 1.0, 1e3):
            res = phi_root(F, u, m200, alpha, r0)
            ref = phi_root(plain, u, m200, alpha, r0)
            assert res.iterations == ref.iterations + 1  # the array check
            assert abs(res.r_alpha - exact) <= 1e-13 * exact
            assert abs(ref.r_alpha - exact) <= 1e-13 * exact
            assert res.phi_value == modular(F, u * res.r_alpha, m200)
            assert abs(res.phi_value - alpha) <= 1e-12 * alpha


# r_alpha, phi_value (float.hex) and iterations of phi_root on m200, pinned
# bit for bit; keyed by family, field of _fields, alpha and r0
PINNED_ROOTS = {
    ("power1.5", "zeros", 1e-4, 1e-3):
        ("0x1.d1b382c331938p-9", "0x1.a36e2eb1c4332p-14", 3),
    ("power1.5", "zeros", 1e-4, 1.0):
        ("0x1.d1b382c331938p-9", "0x1.a36e2eb1c4332p-14", 3),
    ("power1.5", "zeros", 1e-4, 1e3):
        ("0x1.d1b382c331937p-9", "0x1.a36e2eb1c4332p-14", 3),
    ("power1.5", "zeros", 1.0, 1e-3):
        ("0x1.a62fad8075a8dp+0", "0x1.0000000000001p+0", 3),
    ("power1.5", "zeros", 1.0, 1.0):
        ("0x1.a62fad8075a8dp+0", "0x1.0000000000001p+0", 3),
    ("power1.5", "zeros", 1.0, 1e3):
        ("0x1.a62fad8075a8dp+0", "0x1.0000000000001p+0", 3),
    ("power1.5", "zeros", 1e4, 1e-3):
        ("0x1.7ebcbf446a26ap+9", "0x1.3880000000006p+13", 3),
    ("power1.5", "zeros", 1e4, 1.0):
        ("0x1.7ebcbf446a26bp+9", "0x1.3880000000006p+13", 3),
    ("power1.5", "zeros", 1e4, 1e3):
        ("0x1.7ebcbf446a26dp+9", "0x1.3880000000009p+13", 3),
    ("power1.5", "spread", 1e-4, 1e-3):
        ("0x1.279eb09b8b638p-4", "0x1.a36e2eb1c4334p-14", 3),
    ("power1.5", "spread", 1e-4, 1.0):
        ("0x1.279eb09b8b637p-4", "0x1.a36e2eb1c4331p-14", 3),
    ("power1.5", "spread", 1e-4, 1e3):
        ("0x1.279eb09b8b637p-4", "0x1.a36e2eb1c4331p-14", 3),
    ("power1.5", "spread", 1.0, 1e-3):
        ("0x1.0bff4c17cb493p+5", "0x1.0000000000001p+0", 3),
    ("power1.5", "spread", 1.0, 1.0):
        ("0x1.0bff4c17cb492p+5", "0x1.ffffffffffffep-1", 3),
    ("power1.5", "spread", 1.0, 1e3):
        ("0x1.0bff4c17cb493p+5", "0x1.0000000000001p+0", 3),
    ("power1.5", "spread", 1e4, 1e-3):
        ("0x1.e5e94e79f91c9p+13", "0x1.3880000000008p+13", 3),
    ("power1.5", "spread", 1e4, 1.0):
        ("0x1.e5e94e79f91c5p+13", "0x1.3880000000004p+13", 3),
    ("power1.5", "spread", 1e4, 1e3):
        ("0x1.e5e94e79f91c2p+13", "0x1.3880000000001p+13", 3),
    ("sop24", "zeros", 1e-4, 1e-3):
        ("0x1.63aedc4bb7b32p-6", "0x1.a36e2eb1c432dp-14", 5),
    ("sop24", "zeros", 1e-4, 1.0):
        ("0x1.63aedc4bb7b36p-6", "0x1.a36e2eb1c4336p-14", 6),
    ("sop24", "zeros", 1e-4, 1e3):
        ("0x1.63aedc4bb7b35p-6", "0x1.a36e2eb1c4334p-14", 6),
    ("sop24", "zeros", 1.0, 1e-3):
        ("0x1.9112909d3e524p+0", "0x1.ffffffffffffcp-1", 7),
    ("sop24", "zeros", 1.0, 1.0):
        ("0x1.9112909d3e524p+0", "0x1.ffffffffffffcp-1", 6),
    ("sop24", "zeros", 1.0, 1e3):
        ("0x1.9112909d3e524p+0", "0x1.ffffffffffffcp-1", 7),
    ("sop24", "zeros", 1e4, 1e-3):
        ("0x1.2cb41a96dedf2p+4", "0x1.3880000000007p+13", 6),
    ("sop24", "zeros", 1e4, 1.0):
        ("0x1.2cb41a96dedf1p+4", "0x1.3880000000003p+13", 6),
    ("sop24", "zeros", 1e4, 1e3):
        ("0x1.2cb41a96dedf1p+4", "0x1.3880000000003p+13", 5),
    ("sop24", "spread", 1e-4, 1e-3):
        ("0x1.93c5ba7833f61p-3", "0x1.a36e2eb1c4336p-14", 5),
    ("sop24", "spread", 1e-4, 1.0):
        ("0x1.93c5ba7833f5dp-3", "0x1.a36e2eb1c432dp-14", 6),
    ("sop24", "spread", 1e-4, 1e3):
        ("0x1.93c5ba7833f60p-3", "0x1.a36e2eb1c4333p-14", 7),
    ("sop24", "spread", 1.0, 1e-3):
        ("0x1.4e580321d18ccp+2", "0x1.0000000000000p+0", 7),
    ("sop24", "spread", 1.0, 1.0):
        ("0x1.4e580321d18ccp+2", "0x1.0000000000000p+0", 6),
    ("sop24", "spread", 1.0, 1e3):
        ("0x1.4e580321d18ccp+2", "0x1.0000000000000p+0", 6),
    ("sop24", "spread", 1e4, 1e-3):
        ("0x1.a960c8332ca90p+5", "0x1.3880000000005p+13", 6),
    ("sop24", "spread", 1e4, 1.0):
        ("0x1.a960c8332ca90p+5", "0x1.3880000000005p+13", 6),
    ("sop24", "spread", 1e4, 1e3):
        ("0x1.a960c8332ca8fp+5", "0x1.3880000000001p+13", 5),
}


def _pinned_root_misses(m200):
    families = {"power1.5": YoungFunction.power(1.5),
                "sop24": YoungFunction.sum_of_powers(2, 4)}
    fields = _fields(m200.interior_count)
    misses = []
    for (family, field, alpha, r0), want in PINNED_ROOTS.items():
        res = phi_root(families[family], m200.field(fields[field]), m200,
                       alpha, r0)
        got = (res.r_alpha.hex(), res.phi_value.hex(), res.iterations)
        if got != want:
            misses.append(((family, field, alpha, r0), got, want))
    return misses


def test_normalization_is_pinned_bit_for_bit(m200):
    assert _pinned_root_misses(m200) == []


def test_pinned_roots_see_the_order_of_the_moment_sum(m200, monkeypatch):
    # the negative control of the pin: each moment sum w x^p taken over the
    # field in reverse order, the same sums in another order, moves some
    # bits (reversing the two terms of sum_k c_k rho^p_k M_k would not:
    # a + b == b + a in floating point)
    built = young._Modular.__init__

    def reversed_moments(self, F, absu, w, tmax):
        built(self, F, absu[::-1], w[::-1], tmax)
        self.absu, self.w = absu, w
    monkeypatch.setattr(young._Modular, "__init__", reversed_moments)
    misses = _pinned_root_misses(m200)
    assert {key[0] for key, _, _ in misses} == {"power1.5", "sop24"}


@pytest.mark.parametrize("family", sorted(MOMENT_FAMILIES))
def test_moment_path_evaluates_arrays_where_A_saturates(m200, family):
    # A(1e80) = 1e320 saturates for q = 4: those iterates read the
    # saturated array and halve r, as on the array path, then Newton runs
    # on the moments
    F = MOMENT_FAMILIES[family]()
    u = m200.field(1e80 * _fields(m200.interior_count)["zeros"])
    evaluate_A = F.A
    calls = []

    def counted_A(t):
        calls.append(1)
        return evaluate_A(t)
    F.A = counted_A
    res = phi_root(F, u, m200, 1.0, 1.0)
    saturating = evaluate_A(np.array([1e80]))[0] >= SATURATION
    assert (len(calls) > 1) == saturating  # otherwise the check alone
    exact = _exact_radius(F, u.values, m200, 1.0)
    assert abs(res.r_alpha - exact) <= 1e-13 * exact
    assert res.phi_value == modular(F, u * res.r_alpha, m200)


@pytest.mark.parametrize("family", sorted(MOMENT_FAMILIES))
def test_moment_path_range_errors(m200, family):
    F = MOMENT_FAMILIES[family]()
    ones = np.ones(m200.interior_count)
    with pytest.raises(ZeroDenominatorError):
        phi_root(F, m200.zeros(), m200, 1.0)
    with pytest.raises(BracketRangeError):
        phi_root(F, m200.field(ones), m200, SATURATION)
    with pytest.raises(BracketRangeError):
        phi_root(F, m200.field(1e-290 * ones), m200, 1.0)
    with pytest.raises(BracketRangeError):
        phi_root(F, m200.field(1e290 * ones), m200, 1.0)


@pytest.mark.parametrize("family", sorted(MOMENT_FAMILIES))
def test_moment_terms_and_saturation_radius_are_cached(m200, monkeypatch,
                                                      family):
    # built once with the Young function, equal bit for bit to the terms
    # and rho_sat by their formulas, and read by every projection: two
    # phi_root calls build their _Modular of F, whose very tuple and rho_sat
    # they read, and neither recomputes rho_sat
    F = MOMENT_FAMILIES[family]()
    built = F._moment_terms
    terms = [(q, 1.0 / d) for q, _, d in F._sums["A"]]
    k = len(terms)
    rho_sat = min(math.exp((math.log(SATURATION)
                            - math.log(max(k * c, 1.0))) / p)
                  for p, c in terms)
    assert isinstance(built, tuple)
    assert list(built) == terms
    assert F._rho_sat == rho_sat
    modular_class, handed = young._Modular, []

    def recorded(G, absu, w, tmax):
        handed.append((G._moment_terms, G._rho_sat))
        return modular_class(G, absu, w, tmax)
    monkeypatch.setattr(young, "_Modular", recorded)
    monkeypatch.setattr(young, "_saturation_radius", None)
    u = m200.field(np.ones(m200.interior_count))
    for alpha in (1.0, 3.0):
        phi_root(F, u, m200, alpha)
    assert len(handed) == 2
    assert all(t is built and r == rho_sat for t, r in handed)
    absu = np.array([0.0, 0.5, 2.0])
    phi_at = modular_class(F, absu, np.ones(3), 2.0)
    phi_at(rho_sat * (1.0 - 1e-15) / 2.0)
    assert not phi_at.on_array
    phi_at(rho_sat / 2.0)
    assert phi_at.on_array


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_normalization_rejects_bad_alpha(m200, alpha):
    F = YoungFunction.power(2)
    u = m200.field(np.ones(m200.interior_count))
    with pytest.raises(ConfigError):
        phi_root(F, u, m200, alpha)
    with pytest.raises(ConfigError):
        solve_E(F, m200, alpha)


def test_normalization_range_errors(m200):
    F = YoungFunction.power(2)
    problem = Problem(F, m200)
    ones = np.ones(m200.interior_count)
    with pytest.raises(ZeroDenominatorError):
        problem.project(np.zeros(m200.interior_count), 1.0)
    with pytest.raises(BracketRangeError):
        phi_root(F, m200.field(ones), m200, SATURATION)
    with pytest.raises(BracketRangeError):
        problem.project(ones, SATURATION)
    # roots beyond the representable radii [1e-280, 1e280]
    with pytest.raises(BracketRangeError):
        phi_root(F, m200.field(1e-290 * ones), m200, 1.0)
    with pytest.raises(BracketRangeError):
        phi_root(F, m200.field(1e290 * ones), m200, 1.0)


@pytest.mark.parametrize("alpha", [1e-320, 1e-318, 2e-308])
def test_subnormal_alpha_raises_before_any_start(m200, monkeypatch, alpha):
    # a subnormal alpha once ran on for over a minute (1e-320), or ended
    # unconverged after five starts (1e-318)
    def no_descent(*args, **kwargs):
        raise AssertionError("a start ran")
    monkeypatch.setattr(solver, "_descend", no_descent)
    F = YoungFunction.power(2)
    with pytest.raises(BracketRangeError, match="representable"):
        solve_E(F, m200, alpha)
    with pytest.raises(BracketRangeError, match="representable"):
        phi_root(F, m200.field(np.ones(m200.interior_count)), m200, alpha)


def test_a_normal_alpha_near_the_least_solves():
    F, m = YoungFunction.power(2), Mesh.interval(1.0, 20)
    res = solve_E(F, m, 2.3e-308)
    assert res.converged
    assert abs(modular(F, res.u, m) - 2.3e-308) <= 1e-10 * 2.3e-308


# -- fields entering from outside --------------------------------------------

def _nan_field(m):
    values = np.ones(m.interior_count)
    values[3] = math.nan
    return values


def test_solve_rejects_an_initial_field_that_does_not_conform(m200):
    # a wrong length is not a numpy broadcasting error, and a NaN is not
    # a bracketing failure of the projection's radius
    F = YoungFunction.sum_of_powers(2, 4)
    for initial in (np.ones(m200.interior_count + 1), _nan_field(m200)):
        with pytest.raises(ConformanceError):
            solve_E(F, m200, 1.0, SolveOptions(restarts=1), initial=initial)


def test_phi_root_rejects_a_field_that_does_not_conform(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    for u in (np.ones(m200.interior_count - 1), _nan_field(m200)):
        with pytest.raises(ConformanceError):
            phi_root(F, u, m200, 1.0)


@pytest.mark.parametrize("fn", [modular, luxemburg_norm])
def test_modulars_reject_a_field_with_a_nan(m200, fn):
    # the modular of a NaN field read 1e300 instead of failing
    with pytest.raises(ConformanceError):
        fn(YoungFunction.sum_of_powers(2, 4), _nan_field(m200), m200)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("m", [Mesh.interval(1.0, 20),
                               NonlocalMesh(1.0, 20, 0.5)],
                         ids=["interval", "nonlocal"])
@pytest.mark.parametrize("fn", [
    energy, energy_gradient, lagrange_quotient,
    lambda F, u, m: weak_residual(F, u, 1.0, m)],
    ids=["energy", "energy_gradient", "lagrange_quotient", "weak_residual"])
def test_public_entries_reject_a_non_finite_field(fn, m, bad):
    # a NaN read 1e299 as the energy, NaN gradient entries, a quotient
    # with a zero denominator and an inf residual instead of failing
    u = np.ones(m.interior_count)
    u[3] = bad
    with pytest.raises(ConformanceError):
        fn(YoungFunction.sum_of_powers(2, 4), u, m)


# -- gradients and residuals ------------------------------------------------

def test_energy_gradient_matches_finite_differences(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    rng = np.random.default_rng(2)
    u = np.abs(rng.standard_normal(m200.interior_count)) + 0.1
    v = rng.standard_normal(m200.interior_count)
    g = energy_gradient(F, m200.field(u), m200)
    num = oracles.directional_derivative(
        lambda w: energy(F, m200.field(w), m200), u, v)
    assert float(g @ v) == pytest.approx(num, rel=1e-5)


def test_energy_gradient_2d_matches_finite_differences():
    m = Mesh.rectangle(1.0, 1.0, 12, 12)
    F = YoungFunction.sum_of_powers(2, 4)
    rng = np.random.default_rng(3)
    u = np.abs(rng.standard_normal(m.interior_count)) + 0.1
    v = rng.standard_normal(m.interior_count)
    g = energy_gradient(F, m.field(u), m)
    num = oracles.directional_derivative(
        lambda w: energy(F, m.field(w), m), u, v)
    assert float(g @ v) == pytest.approx(num, rel=1e-5)


@pytest.mark.parametrize("F", [YoungFunction.sum_of_powers(2, 4),
                               YoungFunction.exp_minus_poly(2)],
                         ids=["sop24", "exp_minus_poly2"])
@pytest.mark.parametrize("m", [Mesh.interval(1.0, 50),
                               Mesh.rectangle(1.0, 1.0, 6, 5),
                               NonlocalMesh(1.0, 20, 0.5)],
                         ids=["interval", "rectangle", "nonlocal"])
def test_tangent_is_the_derivative_of_the_lagrangian_gradient(m, F):
    # the Hessian matvec of E - lam M against the central difference of
    # its gradient along a random direction: the triangles' n n^T term,
    # the nonlocal pairs and the exterior's G each enter
    rng = np.random.default_rng(4)
    u = np.abs(rng.standard_normal(m.interior_count)) + 0.1
    v = rng.standard_normal(m.interior_count)
    lam, eps = 1.7, 1e-5

    def lagrangian_gradient(w):
        return energy_gradient(F, w, m) - lam * mass_gradient(F, w, m)
    num = (lagrangian_gradient(u + eps * v)
           - lagrangian_gradient(u - eps * v)) / (2.0 * eps)
    got = Problem(F, m).tangent(u, lam)(v)
    assert np.linalg.norm(got - num) <= 1e-6 * np.linalg.norm(num)


@pytest.mark.parametrize("F", [YoungFunction.power(1.2),
                               YoungFunction.power(3),
                               YoungFunction.sum_of_powers(1.5, 3),
                               YoungFunction.sum_of_powers(2, 4)],
                         ids=["p1.2", "p3", "sop1.5-3", "sop24"])
def test_closed_form_density_derivative_matches_the_central_difference(F):
    t = np.geomspace(solver.EPS_GRAD, 1e3, 61)
    closed = F.da(t)
    num = young._derivative(F.a, t)
    assert np.all(np.abs(closed - num) <= 1e-8 * closed)


def test_closed_form_density_derivative_overflows_to_inf():
    # where a saturates, its central difference reads a zero curvature;
    # the closed form overflows to inf instead, and without a warning
    F, t = YoungFunction.sum_of_powers(2, 4), np.array([1e100, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = F.da(t)
    assert closed[0] == pytest.approx(3e200, rel=1e-14)
    assert closed[1] == math.inf and F.a(t[1]) == SATURATION
    assert young._derivative(F.a, t[1:])[0] == 0.0


def test_an_overflowing_curvature_breaks_cg_without_a_warning():
    # a' = inf at one node, and on its two cells, makes the first
    # direction's curvature an inf or a NaN: CG's curvature check ends the
    # step there, a zero step
    F, m = YoungFunction.sum_of_powers(2, 4), Mesh.interval(1.0, 8)
    values = np.ones(m.interior_count)
    values[3] = 1e200
    w = m.node_weights
    check = solver._Check(values, np.ones_like(w), w, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = solver._newton_step(Problem(F, m), check, np.copy, w)
    assert np.array_equal(step, np.zeros_like(values))


@pytest.mark.parametrize("F,m,differences", [
    (YoungFunction.sum_of_powers(2, 4), Mesh.interval(1.0, 20), 0),
    (YoungFunction.power(1.5), Mesh.rectangle(1.0, 1.0, 4, 3), 0),
    (YoungFunction.sum_of_powers(2, 4), NonlocalMesh(1.0, 20, 0.5), 1),
    (YoungFunction.exp_minus_poly(2), Mesh.interval(1.0, 20), 2),
    (YoungFunction.power_log(2, 1, 1), NonlocalMesh(1.0, 20, 0.5), 3),
], ids=["sop24-interval", "p1.5-rectangle", "sop24-nonlocal",
        "exp_minus_poly2", "power_log-nonlocal"])
def test_tangent_takes_a_prime_in_closed_form_for_power_sums(
        monkeypatch, F, m, differences):
    # a power sum's a' is its closed form, for its rows and its mass term;
    # the exterior's G and every other family take the central difference
    derivative, calls = young._derivative, []

    def counted(a, t):
        calls.append(len(t))
        return derivative(a, t)
    for module in (young, fractional):
        monkeypatch.setattr(module, "_derivative", counted)
    u = np.linspace(0.5, 1.5, m.interior_count)
    Problem(F, m).tangent(u, 1.0)(np.ones(m.interior_count))
    assert len(calls) == differences
    F.da(u)  # a central difference of F's own density, or none
    assert (len(calls) > differences) == (differences > 1)


def _rows_matrix(b, n):
    """B of the row block b as a dense (rows, n) matrix, column j its
    differences at the j-th unit vector."""
    return np.stack([b.differences(e).ravel() for e in np.eye(n)], axis=1)


_BANDED_MESHES = [Mesh.interval(1.0, 20), NonlocalMesh(1.0, 21, 0.5),
                  NonlocalMesh(1.0, 20, 0.5)]
_BANDED_IDS = ["interval", "nonlocal-odd", "nonlocal-even"]


@pytest.mark.parametrize("F", [YoungFunction.sum_of_powers(2, 4),
                               YoungFunction.exp_minus_poly(2)],
                         ids=["sop24", "exp_minus_poly2"])
@pytest.mark.parametrize("m", _BANDED_MESHES, ids=_BANDED_IDS)
def test_tangent_band_is_the_dense_hessian(m, F):
    # the banded Hessian against B^T diag(w a'(g)) B - lam w a'(|u|) summed
    # in the test over each block's dense rows, the exterior's included,
    # and over the zero-weight repeats of an even N
    rng = np.random.default_rng(m.interior_count)
    n = m.interior_count
    u = 0.05 * np.abs(rng.standard_normal(n)) + 0.01
    v = rng.standard_normal(n)
    lam = 1.7

    def slope(G, t):
        return G.da(np.maximum(t, solver.EPS_GRAD))
    H = -np.diag(lam * m.node_weights * slope(F, np.abs(u)))
    for b in m.blocks:
        B = _rows_matrix(b, n)
        g = np.abs(b.differences(u)).ravel()  # as the memo's, bit for bit
        w = np.ravel(b.cell_weights) * slope(b.young(F), g)
        H += B.T @ (w[:, None] * B)
    got = Problem(F, m).tangent(u, lam)(v)
    want = H @ v
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("m, rows", [
    *((m, False) for m in _BANDED_MESHES),
    (Mesh.rectangle(1.0, 1.0, 5, 4), True)],
    ids=_BANDED_IDS + ["rectangle"])
def test_tangent_applies_one_component_rows_without_the_row_passes(
        monkeypatch, m, rows):
    # the 1D cells, the nonlocal pairs and the exterior are applied as one
    # band: no differences or transpose per matvec.  2D triangles, whose
    # Hessian has a cross term n n^T, still run through their rows
    calls = []
    for b in m.blocks:
        for name in ("differences", "transpose"):
            method = getattr(b, name)
            monkeypatch.setattr(b, name, lambda x, *pad, method=method:
                                calls.append(1) or method(x, *pad))
    rng = np.random.default_rng(3)
    u = np.abs(rng.standard_normal(m.interior_count)) + 0.1
    apply = Problem(YoungFunction.sum_of_powers(2, 4), m).tangent(u, 1.0)
    calls.clear()
    out = apply(rng.standard_normal(m.interior_count))
    assert out.shape == (m.interior_count,) and np.isfinite(out).all()
    assert (len(calls) > 0) == rows


def test_energy_gradient_zero_at_zero(m200):
    F = YoungFunction.power(2)
    g = energy_gradient(F, m200.zeros(), m200)
    assert g.shape == (m200.interior_count,)
    assert np.all(g == 0.0)


def test_quadratic_gradient_matches_matrix_form(m200):
    # for A = t^2 the assembled gradient is the tridiagonal stiffness action
    F = YoungFunction.power(2)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(m200.interior_count)
    g = energy_gradient(F, m200.field(u), m200)
    main, off, _ = oracles.tridiagonal_forms(1.0, 200)
    Ku = main * u
    Ku[:-1] += off * u[1:]
    Ku[1:] += off * u[:-1]
    assert np.allclose(g, 2.0 * Ku, rtol=1e-12, atol=1e-12)


def test_weak_residual_zero_at_discrete_eigenpair(m200):
    lam, v = oracles.tridiagonal_ground_pair(1.0, 200)
    F = YoungFunction.power(2)
    res = weak_residual(F, m200.field(v), lam, m200)
    assert res <= 1e-10


def test_weak_residual_positive_for_non_solution(m200):
    F = YoungFunction.power(2)
    u = bump_field(Mesh.interval(4.0, 200), 0.5)
    res = weak_residual(F, u, 1.0, Mesh.interval(4.0, 200))
    assert res > 1e-3


def test_weak_residual_scale_invariant_for_powers(m200):
    F = YoungFunction.power(3)
    rng = np.random.default_rng(5)
    u = m200.field(np.abs(rng.standard_normal(m200.interior_count)) + 0.1)
    lam1 = lagrange_quotient(F, u, m200)
    r1 = weak_residual(F, u, lam1, m200)
    uc = u * 3.0
    lam2 = lagrange_quotient(F, uc, m200)
    r2 = weak_residual(F, uc, lam2, m200)
    assert r1 == pytest.approx(r2, rel=1e-10)


def test_lagrange_quotient_power_identity(m200):
    F = YoungFunction.power(3)
    rng = np.random.default_rng(6)
    u = m200.field(np.abs(rng.standard_normal(m200.interior_count)) + 0.1)
    lam = lagrange_quotient(F, u, m200)
    assert lam == pytest.approx(energy(F, u, m200) / modular(F, u, m200),
                                rel=1e-12)


def test_lagrange_quotient_rejects_zero(m200):
    F = YoungFunction.power(2)
    with pytest.raises(ZeroDenominatorError):
        lagrange_quotient(F, m200.zeros(), m200)


# -- solve_E ----------------------------------------------------------------

def test_solve_quadratic_matches_oracle(m200):
    # at alpha = 1 the minimal energy of A = t^2 is the eigenvalue itself
    F = YoungFunction.power(2)
    res = solve_E(F, m200, 1.0)
    lam, _ = oracles.tridiagonal_ground_pair(1.0, 200)
    assert res.converged
    assert res.lam == pytest.approx(lam, rel=1e-12)
    assert res.energy == pytest.approx(lam, rel=1e-12)
    assert abs(res.alpha - 1.0) <= 1e-10


def test_solve_homogeneity(m200):
    F = YoungFunction.power(2)
    r1 = solve_E(F, m200, 1.0)
    r10 = solve_E(F, m200, 10.0)
    assert r10.energy == pytest.approx(10.0 * r1.energy, rel=1e-10)


def test_solve_homogeneous_quotient_constant(m200):
    F = YoungFunction.power(3)
    qs = [solve_E(F, m200, a).energy / a for a in (0.1, 1.0, 10.0)]
    assert max(qs) - min(qs) <= 1e-10 * min(qs)


def test_solve_sum_of_powers_energy_bounds(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    E1 = solve_E(F, m200, 1.0).energy
    E16 = solve_E(F, m200, 16.0).energy
    assert 16.0 ** 0.5 * E1 * (1 - 1e-9) <= E16 <= 16.0 ** 4 * E1 * (1 + 1e-9)


def test_solve_eigenvalue_sandwich(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    res = solve_E(F, m200, 2.0)
    p = 4.0
    q = res.energy / 2.0
    assert q / p * (1 - 1e-9) <= res.lam <= p * q * (1 + 1e-9)


def test_returned_minimizer_nonnegative_up_to_sign(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    res = solve_E(F, m200, 1.0)
    u = res.u
    flipped = m200.field(np.abs(u.values))
    assert energy(F, flipped, m200) <= energy(F, u, m200) + 1e-12


def test_solve_2d_quadratic():
    m = Mesh.rectangle(1.0, 1.0, 30, 30)
    F = YoungFunction.power(2)
    res = solve_E(F, m, 1.0, SolveOptions(restarts=2))
    assert res.converged
    assert res.lam == pytest.approx(2.0 * math.pi ** 2, rel=5e-3)


@pytest.mark.parametrize("lx,ly,nx,ny", [(1.0, 1.0, 16, 16),
                                         (2.0, 1.0, 20, 8),
                                         (1.0, 3.0, 6, 15)])
def test_solve_2d_quadratic_matches_five_point_oracle(lx, ly, nx, ny):
    # on right P1 triangles the stiffness is the 5-point stencil
    F = YoungFunction.power(2)
    res = solve_E(F, Mesh.rectangle(lx, ly, nx, ny), 1.0)
    assert res.converged
    assert res.lam == pytest.approx(
        oracles.five_point_ground_eigenvalue(lx, ly, nx, ny), rel=1e-12)


@pytest.mark.parametrize("lx,ly,nx,ny,E,lam,iterations", [
    (1.0, 1.0, 32, 32, 105.78761050590053, 131.0289836183901, 6),
    (2.0, 1.0, 24, 12, 42.46842746057703, 54.89764467293589, 6),
    (1.0, 1.0, 3, 2, 22.473171161671292, 29.98926846466852, 0),
], ids=["32x32", "24x12", "3x2"])
def test_solve_2d_pins_the_answer(lx, ly, nx, ny, E, lam, iterations):
    """A determinism pin for refactors of the 2D operators, not an accuracy
    check: E, lambda and the iteration count of SumOfPowers(2,4) at
    alpha = 1, seed 1 (one BLAS thread), on a square, a non-square and the
    smallest uneven rectangle, where a swapped axis or stride shows.  The
    count is the first start's, which its check certifies: the solve no
    longer returns whichever of two runs tied to rounding is lower."""
    res = solve_E(YoungFunction.sum_of_powers(2, 4),
                  Mesh.rectangle(lx, ly, nx, ny), 1.0, SolveOptions(seed=1))
    assert res.converged is True
    assert res.iterations == iterations
    assert res.energy == pytest.approx(E, rel=1e-12)
    assert res.lam == pytest.approx(lam, rel=1e-12)


def test_solve_2d_quadratic_converges_to_two_pi_squared():
    F = YoungFunction.power(2)
    errs = []
    for n in (8, 16, 32, 64):
        res = solve_E(F, Mesh.rectangle(1.0, 1.0, n, n), 1.0)
        assert res.converged and res.iterations < 50
        errs.append(abs(res.lam - 2.0 * math.pi ** 2))
    # at least h^2: each halving of h cuts the error by 4 or more
    assert errs[1] >= 4.0 * errs[2] and errs[2] >= 4.0 * errs[3]


@pytest.mark.parametrize("F", [YoungFunction.sum_of_powers(2, 4),
                               YoungFunction.exp_minus_poly(2)],
                         ids=["sop24", "exp2"])
def test_solve_2d_nonquadratic_converges_at_default_tol(F):
    res = solve_E(F, Mesh.rectangle(1.0, 1.0, 16, 16), 1.0)
    assert res.converged and res.residual < 1e-8
    assert res.iterations < 50


def test_constraint_postcondition_raises(m200, monkeypatch):
    project = Problem.project

    def off_constraint(self, values, alpha):
        return project(self, values, alpha) * (1.0 + 1e-6)
    monkeypatch.setattr(Problem, "project", off_constraint)
    F = YoungFunction.power(2)
    with pytest.raises(OrliczError, match="misses the constraint"):
        solve_E(F, m200, 1.0, SolveOptions(max_iter=3, restarts=1))


def test_plateau_start_error_is_not_swallowed(monkeypatch):
    # only a geometry that admits no plateau skips that start; any other
    # failure of bump_field reaches the caller
    def broken(*args, **kwargs):
        raise RuntimeError("bump_field broke")
    monkeypatch.setattr(solver, "bump_field", broken)
    with pytest.raises(RuntimeError, match="bump_field broke"):
        solve_E(YoungFunction.power(2), Mesh.interval(4.0, 100), 1.0,
                SolveOptions(restarts=2))  # the plateau start is the second


def test_unconverged_run_is_flagged(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    res = solve_E(F, m200, 1.0, SolveOptions(max_iter=2, restarts=1))
    assert not res.converged  # never silent


def test_deterministic_given_seed(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    a = solve_E(F, m200, 1.0, SolveOptions(seed=7))
    b = solve_E(F, m200, 1.0, SolveOptions(seed=7))
    assert a.energy == b.energy and a.lam == b.lam
    assert np.array_equal(a.u.values, b.u.values)


SADDLES = {  # mesh, alpha, the saddle's energy and the minimum's (seed 1)
    "interval-1e-2": (lambda: Mesh.interval(1.0, 100), 1e-2, 0.5934590147,
                      0.1107152097),
    "interval-1": (lambda: Mesh.interval(1.0, 100), 1.0, 575.4943062,
                   40.20709757),
    "nonlocal-1e-2": (lambda: NonlocalMesh(1.0, 63, 0.5), 1e-2,
                      0.3575060831, 0.1459696379),
}


@pytest.mark.parametrize("case", sorted(SADDLES))
def test_converged_means_a_field_of_one_sign(case, monkeypatch):
    # from sin(2 pi x) the run converges to a critical point that changes
    # sign once, a saddle of E on the constraint: it is not converged
    # there, and goes on from |u| to the minimizer, its counts summing both
    # parts.  Negative control: with every field taken as one-signed, the
    # solve returns the saddle as converged
    make, alpha, saddle, minimum = SADDLES[case]
    m = make()
    F = YoungFunction.sum_of_powers(2, 4)
    wave = np.sin(2 * np.pi * m.interior_coords[:, 0])
    opts = SolveOptions(seed=1, restarts=1)
    res = solve_E(F, m, alpha, opts, initial=wave)
    assert res.converged and np.all(res.u.values >= 0.0)
    assert res.energy == pytest.approx(minimum, rel=1e-9)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_one_signed", lambda values: True)
        first = solve_E(F, m, alpha, opts, initial=wave)
        rest = solve_E(F, m, alpha, opts, initial=np.abs(first.u.values))
    assert first.converged and first.energy == pytest.approx(saddle,
                                                             rel=1e-9)
    assert np.any(first.u.values < 0.0) and np.any(first.u.values > 0.0)
    for count in ("iterations", "newton_steps", "cg_iterations"):
        assert (getattr(res, count)
                == getattr(first, count) + getattr(rest, count))
    # the restart shares the budget: with none left it ends unconverged
    out = solve_E(F, m, alpha, replace(opts, max_iter=first.iterations),
                  initial=wave)
    assert not out.converged and out.iterations == first.iterations


@pytest.mark.parametrize("ends_one_signed", [True, False])
def test_a_stalled_sign_changing_run_goes_on_from_its_abs(m200, monkeypatch,
                                                          ends_one_signed):
    # a run that ends unconverged at a field of both signs with steps left
    # (a stalled saddle) goes on once from its |u| with the steps left, its
    # counts summing both parts; the second part is converged only at a
    # field of one sign, and with no step left the first end is returned
    wave = np.sin(2 * np.pi * m200.interior_coords[:, 0])
    starts = []

    def descend(problem, alpha, start, opts):
        starts.append((start, opts.max_iter))
        if len(starts) == 1:
            return solver._RunResult(
                values=wave, energy=2.0, lam=1.0, residual=1e-8,
                iterations=7, converged=False, newton_steps=3,
                cg_iterations=11)
        return solver._RunResult(
            values=np.abs(start) if ends_one_signed else wave, energy=1.0,
            lam=1.0, residual=0.0, iterations=4, converged=True,
            newton_steps=2, cg_iterations=5)
    monkeypatch.setattr(solver, "_descend", descend)
    problem = Problem(YoungFunction.power(2), m200)
    run = solver._run(problem, 1.0, wave, SolveOptions(max_iter=20))
    [(first, budget), (again, left)] = starts
    assert first is wave and budget == 20
    assert np.array_equal(again, np.abs(wave)) and left == 13
    assert run.converged is ends_one_signed
    assert (run.iterations, run.newton_steps, run.cg_iterations) == (11, 5,
                                                                     16)
    starts.clear()
    run = solver._run(problem, 1.0, wave, SolveOptions(max_iter=7))
    assert len(starts) == 1 and run.values is wave and not run.converged


# -- Newton steps ------------------------------------------------------------

@pytest.mark.parametrize("alpha", [1.0, 1e2, 1e4])
def test_polish_projects_at_most_twice_per_iteration(m200, monkeypatch,
                                                     alpha):
    # each damped Newton trial is one projection, and a step that keeps
    # the full Newton step makes only that one.  These solves keep every
    # full step
    counts = {"inside": 0, "projections": 0, "steps": 0}
    project, newton, descend = Problem.project, solver._newton, \
        solver._descend

    def counting_project(self, values, alpha):
        counts["projections"] += counts["inside"] > 0
        return project(self, values, alpha)

    def counting_newton(*args):
        counts["inside"] += 1
        try:
            return newton(*args)
        finally:
            counts["inside"] -= 1

    def counting_descend(*args):
        run = descend(*args)
        counts["steps"] += run.newton_steps
        return run
    monkeypatch.setattr(Problem, "project", counting_project)
    monkeypatch.setattr(solver, "_newton", counting_newton)
    monkeypatch.setattr(solver, "_descend", counting_descend)
    F = YoungFunction.sum_of_powers(2, 4)
    res = solve_E(F, m200, alpha, SolveOptions(restarts=1))
    assert res.converged
    assert counts["steps"] > 0
    assert counts["projections"] <= 2 * counts["steps"]


@pytest.mark.parametrize("alpha", [1e-4, 1.0, 1e4])
def test_polish_starts_from_the_descents_last_check(m200, monkeypatch,
                                                    alpha):
    # each Newton step starts from the check of the last step, bit for bit
    # the one a fresh check at its iterate makes, and no iterate of a run
    # is checked twice: the hand-over to the Newton steps makes no check
    check_at, newton, seen, handed = solver._check, solver._newton, [], []

    def recorded(problem, values, lam=None):
        seen.append(values.tobytes())
        return check_at(problem, values, lam)

    def compared(problem, alpha, check, factor, tol):
        fresh = check_at(problem, check.values)
        for name in ("values", "g", "mg", "defect"):
            assert np.array_equal(getattr(check, name), getattr(fresh, name))
        assert (check.lam, check.res) == (fresh.lam, fresh.res)
        handed.append(check.res)
        return newton(problem, alpha, check, factor, tol)
    monkeypatch.setattr(solver, "_check", recorded)
    monkeypatch.setattr(solver, "_newton", compared)
    res = solve_E(YoungFunction.sum_of_powers(2, 4), m200, alpha,
                  SolveOptions(restarts=2, seed=1))
    assert res.converged and handed
    assert len(set(seen)) == len(seen)


class _TurnedGradient:
    """Two-node stand-in for a Problem.  The constraint is u[0] = 1, the
    mass gradient is u, and the energy gradient is u turned by the angle
    phi(y) = 0.1 - 0.2 y + 1.6 y^3 at y = u[1], so the residual is
    |sin phi(y)|.  The canned solve adds rhs[0] to rhs[1], and the tangent
    is the identity, so the Newton step is the projected defect, which
    takes the damped trial theta v from y to
    (y - theta sin phi)/(1 + theta y sin phi): from y = 0, -theta sin 0.1.
    No energy has this gradient: the energy reads 0, which a run that
    makes only Newton steps evaluates once, for its result."""

    m = SimpleNamespace(node_weights=np.ones(2))

    def __init__(self):
        self.trials = []

    def energy(self, values):
        return 0.0

    def gradient(self, values):
        phi = 0.1 - 0.2 * values[1] + 1.6 * values[1] ** 3
        c, s = math.cos(phi), math.sin(phi)
        return np.array([c * values[0] - s * values[1],
                         s * values[0] + c * values[1]])

    def mass_gradient(self, values):
        return values.copy()

    def project(self, values, alpha):
        self.trials.append(values[1] / values[0])
        return values / values[0]

    def preconditioner(self, values):
        return lambda rhs: rhs + np.array([0.0, rhs[0]])

    def tangent(self, values, lam):
        return lambda v: v


def _turned_residual(y):
    return math.sin(0.1 - 0.2 * y + 1.6 * y ** 3)


def _newton_run(monkeypatch, problem, start, **options):
    """A run of ``solver._descend`` from ``start`` on a two-node stand-in,
    with SolveOptions(**options), in which every step is a Newton step:
    the hand-over residual is infinite, and a failed step ends the run."""
    monkeypatch.setattr(solver, "_HANDOVER", math.inf)
    monkeypatch.setattr(solver, "_HANDBACK", math.inf)
    return solver._descend(problem, 1.0, np.array(start),
                           SolveOptions(**options))


def test_polish_stops_when_no_damped_newton_step_falls_enough():
    # from y = 0 the ten damped trials -sin(0.1) 2^-k, k = 0..9 (the next
    # theta, 2^-10, is below _THETA_MIN) all raise the residual, so the
    # Newton step fails and keeps no factor
    problem = _TurnedGradient()
    check = solver._check(problem, np.array([1.0, 0.0]))
    assert solver._newton(problem, 1.0, check, None, 1e-12) == (None, None)
    s = math.sin(0.1)
    assert check.res == pytest.approx(s, rel=1e-15)
    thetas = [0.5 ** k for k in range(10)]
    assert problem.trials == pytest.approx([-s * t for t in thetas],
                                           rel=1e-12)
    assert all(_turned_residual(y) > s for y in problem.trials)

    # from y = 0.25 each trial lowers the residual sin 0.075, but none
    # below (1 - theta/2) of it: a decrease that does not shrink with the
    # damping is not kept
    problem.trials = []
    check = solver._check(problem, np.array([1.0, 0.25]))
    assert solver._newton(problem, 1.0, check, None, 1e-12) == (None, None)
    s = math.sin(0.075)
    assert problem.trials == pytest.approx(
        [(0.25 - t * s) / (1.0 + 0.25 * t * s) for t in thetas], rel=1e-12)
    for t, y in zip(thetas, problem.trials):
        assert (1.0 - 0.5 * t) * s <= _turned_residual(y) < s


class _PowerRow:
    """Two-node stand-in for a Problem: E = u0^2/2 + |y|^q/q at y = u[1],
    whose slope vanishes at y = 0, under the constraint u0 = 1 (mass
    gradient (1, 0)).  The tangent is the exact Hessian,
    diag(1, (q - 1) |y|^(q - 2)), so the damped step theta v maps y to
    y (1 - theta/(q - 1)): the Newton step overshoots for q < 2, and
    theta = q - 1 lands on y = 0.  The canned solve adds rhs[0] to
    rhs[1]."""

    m = SimpleNamespace(node_weights=np.ones(2))

    def __init__(self, q):
        self.q = q
        self.trials = []

    def energy(self, values):
        return 0.5 * values[0] ** 2 + abs(values[1]) ** self.q / self.q

    def gradient(self, values):
        y = values[1]
        return np.array([values[0], math.copysign(abs(y) ** (self.q - 1), y)])

    def mass_gradient(self, values):
        return np.array([1.0, 0.0])

    def project(self, values, alpha):
        self.trials.append(values[1] / values[0])
        return values / values[0]

    def preconditioner(self, values):
        return lambda rhs: rhs + np.array([0.0, rhs[0]])

    def tangent(self, values, lam):
        h = (self.q - 1) * abs(values[1]) ** (self.q - 2)
        return lambda v: v * np.array([1.0, h])


def test_polish_keeps_the_half_step_where_the_newton_step_reflects():
    # q = 3/2: the Newton step maps y = 0.25 to -0.25, and the residual
    # does not fall; the half step lands on 0, and keeps no factor
    problem = _PowerRow(1.5)
    moved, factor = solver._newton(
        problem, 1.0, solver._check(problem, np.array([1.0, 0.25])), None,
        SolveOptions().tol)
    assert problem.trials == [-0.25, 0.0]
    assert np.array_equal(moved.values, [1.0, 0.0])
    assert moved.res == 0.0 and moved.lam == 1.0 and factor is None


def test_polish_damps_to_the_quarter_step_where_the_half_step_reflects(
        monkeypatch):
    # q = 5/4: the Newton step maps y = 0.25 to -0.75 and the half step
    # to -0.25, neither lowering the residual; the quarter step,
    # theta = q - 1, lands on 0 up to rounding
    problem = _PowerRow(1.25)
    run = _newton_run(monkeypatch, problem, [1.0, 0.25])
    assert problem.trials[0] == 0.25  # the start's own projection
    assert problem.trials[1:4] == pytest.approx([-0.75, -0.25, 0.0],
                                                abs=1e-15)
    assert run.converged and abs(run.values[1]) < 1e-15
    assert run.iterations == run.newton_steps <= 3


def _counting_builds(problem):
    """``problem`` with its preconditioner wrapped to log each build, as
    ("build", y) at y = u[1], into its list of trials."""
    build = problem.preconditioner

    def preconditioner(values):
        problem.trials.append(("build", values[1]))
        return build(values)
    problem.preconditioner = preconditioner
    return problem


@pytest.mark.parametrize("q, builds", [(1.25, "every step"), (3.0, 1)])
def test_polish_keeps_its_factor_only_across_full_newton_steps(
        monkeypatch, q, builds):
    # q = 5/4: every step is damped (to theta = q - 1 = 1/4 at most), so
    # each drops its factor and the next step factors afresh, without a
    # full trial on a kept factor that would fail and be redone.  q = 3:
    # the full step maps y to y/2 and the residual y^2 falls fourfold, so
    # one factor serves every step of the run
    problem = _counting_builds(_PowerRow(q))
    run = _newton_run(monkeypatch, problem, [1.0, 0.25])
    made = sum(isinstance(t, tuple) for t in problem.trials)
    trials = [t for t in problem.trials if not isinstance(t, tuple)]
    assert run.converged and run.iterations == run.newton_steps > 1
    assert made == (run.iterations if builds == "every step" else builds)
    assert len(set(trials)) == len(trials)  # no step redone


class _SteepeningRow(_PowerRow):
    """:class:`_PowerRow` of q = 3/2 plus y^2/2: the gradient's row is
    y + sign(y) |y|^(1/2) and the exact Hessian's 1 + |y|^(-1/2)/2, so the
    Newton step maps y to -y/(1 + 2 |y|^(1/2)).  It falls within the
    full step's (1 - 1/2) far from 0 (y = 4 to -0.8) and not near it
    (-0.8 to 0.287), where the half step (to -0.257) passes."""

    def __init__(self):
        super().__init__(1.5)

    def energy(self, values):
        return super().energy(values) + 0.5 * values[1] ** 2

    def gradient(self, values):
        return super().gradient(values) + np.array([0.0, values[1]])

    def tangent(self, values, lam):
        h = 1.0 + 0.5 / math.sqrt(abs(values[1]))
        return lambda v: v * np.array([1.0, h])


def test_a_failed_full_step_on_a_kept_factor_is_redone_on_a_fresh_one(
        monkeypatch):
    # the first step, on a fresh factor, keeps its full step 4 -> -0.8 and
    # so its factor; the second tries only the full step on that factor,
    # which fails, and is redone at -0.8 on a fresh factor, whose full
    # step fails again and whose half step passes.  The redo costs one
    # projection (4 against 3 when each step factored afresh) and counts
    # as one step
    problem = _counting_builds(_SteepeningRow())
    run = _newton_run(monkeypatch, problem, [1.0, 4.0], max_iter=2)
    full = 0.8 / (1.0 + 2.0 * math.sqrt(0.8))
    assert problem.trials == [
        4.0, ("build", 4.0), pytest.approx(-0.8, rel=1e-15),
        pytest.approx(full, rel=1e-15),
        ("build", pytest.approx(-0.8, rel=1e-15)),
        pytest.approx(full, rel=1e-15),
        pytest.approx(0.5 * (full - 0.8), rel=1e-15)]
    assert run.values[1] == problem.trials[-1]
    assert run.iterations == run.newton_steps == 2 and not run.converged


def _nan_defect(problem, u):
    check = solver._check(problem, u)
    check.g, check.res = np.full(2, np.nan), 1.0
    return check


def _minus_identity(problem, u):
    problem.tangent = lambda values, lam: lambda v: -v
    return solver._check(problem, u)


@pytest.mark.parametrize("start", [_nan_defect, _minus_identity],
                         ids=["nan-defect", "negative-curvature"])
def test_a_zero_newton_step_ends_the_polish_at_u(start):
    # CG breaks at once on a non-finite defect or a direction of
    # non-positive curvature: the step is zero, and the Newton step fails
    # with no trial, on a fresh factor and on a kept one (redone on a
    # fresh one)
    problem = _TurnedGradient()
    u0 = np.array([1.0, 0.0])
    check = start(problem, u0)
    solve = problem.preconditioner(u0)
    step = solver._newton_step(problem, check, solve, solve(check.mg))
    assert np.array_equal(step, np.zeros(2))
    for factor in (None, solve):
        assert solver._newton(problem, 1.0, check, factor, 1e-12) == \
            (None, None)
    assert problem.trials == []


def test_newton_step_is_zero_where_the_projection_is_not_defined():
    # <mg, K^-1 mg> <= 0: no projection onto the tangent along K^-1 mg
    problem = _TurnedGradient()
    check = solver._check(problem, np.array([1.0, 0.0]))
    step = solver._newton_step(problem, check, lambda rhs: -rhs, -check.mg)
    assert np.array_equal(step, np.zeros(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_step_takes_its_dots_under_errstate():
    # a defect of 1e160 makes <r, z> overflow; with the dots under the
    # matvec's errstate it reads as inf, and CG ends with a zero step
    # instead of warning "overflow encountered in dot"
    m = Mesh.interval(1.0, 8)
    ones, w = np.ones(m.interior_count), m.node_weights
    problem = Problem(YoungFunction.power(2), m)
    solve = problem.preconditioner(ones)
    problem.tangent = lambda values, lam: lambda v: 1e160 * v
    check = solver._Check(ones, 1e160 * ones, w, 1.0, 1.0)
    step = solver._newton_step(problem, check, solve, solve(w))
    assert np.array_equal(step, np.zeros(m.interior_count))


def test_a_stiffness_not_definite_even_lifted_ends_the_run_at_its_check():
    # the descent step's build raises LinAlgError after its lifted retry:
    # the run ends unconverged at the check of its projected start
    m = Mesh.interval(1.0, 20)
    problem = Problem(YoungFunction.sum_of_powers(2, 4), m)

    def indefinite(values):
        raise np.linalg.LinAlgError("minor 3 is not positive definite")
    problem.preconditioner = indefinite
    start = np.abs(solver.quadratic_eigenvector(m))
    run = solver._descend(problem, 1.0, start, SolveOptions())
    check = solver._check(Problem(problem.F, m), problem.project(start, 1.0))
    assert np.array_equal(run.values, check.values)
    assert (run.lam, run.residual) == (check.lam, check.res)
    assert run.iterations == 0 and not run.converged


def test_polish_keeps_a_newton_trial_that_halves_the_residual():
    # from y = 0.5 (residual sin 0.2) one CG step solves the identity
    # tangent's system: v = (sin 0.2 / 2) (1, -2), and the projected
    # y = (0.5 - sin 0.2)/(1 + sin 0.2 / 2) = 0.274 has residual 0.078,
    # below half of sin 0.2, so it is the step's only trial, and the full
    # step keeps its factor
    problem = _TurnedGradient()
    moved, factor = solver._newton(
        problem, 1.0, solver._check(problem, np.array([1.0, 0.5])), None,
        1e-12)
    s = math.sin(0.2)
    y = (0.5 - s) / (1.0 + 0.5 * s)
    assert problem.trials == pytest.approx([y], rel=1e-12)
    assert moved.values == pytest.approx([1.0, y], rel=1e-12)
    assert moved.res == pytest.approx(_turned_residual(y), rel=1e-12)
    assert moved.res < 0.5 * s and factor is not None


@pytest.mark.parametrize("iterate", [np.zeros(2), np.array([np.nan, 1.0])],
                         ids=["zero", "nan"])
def test_polish_stops_on_a_zero_or_non_finite_stiffness_solve_of_mg(
        monkeypatch, iterate):
    # a K^-1 mg that is zero or not finite projects nothing onto the
    # tangent, so the Newton step is zero and the run ends at its start
    # before any trial
    problem = _TurnedGradient()
    problem.preconditioner = lambda values: lambda rhs: iterate
    run = _newton_run(monkeypatch, problem, [1.0, 0.0])
    assert problem.trials == [0.0]  # the start's own projection
    assert np.array_equal(run.values, [1.0, 0.0])
    assert run.lam == pytest.approx(math.cos(0.1), rel=1e-15)
    assert run.residual == pytest.approx(math.sin(0.1), rel=1e-15)
    assert run.iterations == run.newton_steps == 0 and not run.converged


def test_a_failed_line_search_hands_the_unmoved_check_to_the_polish(
        monkeypatch):
    # an energy finite only at the start never passes Armijo, so the line
    # search halves to its floor and the Newton step is made at once, on a
    # fresh factor, from the check made at the start, which the descent
    # has not moved; when it fails too, the run ends there
    problem = _ScaledQuartic(3.0)
    energies = iter([0.25])
    monkeypatch.setattr(problem, "energy",
                        lambda values: next(energies, math.inf))
    handed = []

    def newton(problem, alpha, check, factor, tol):
        handed.append((check, factor))
        return None, None
    monkeypatch.setattr(solver, "_newton", newton)
    run = solver._descend(problem, 1.0, np.array([1.0, 1.0]),
                          SolveOptions(max_iter=5))
    [(check, factor)] = handed
    fresh = solver._check(problem, np.array([1.0, 1.0]))
    for name in ("values", "g", "mg", "defect"):
        assert np.array_equal(getattr(check, name), getattr(fresh, name))
    assert (check.lam, check.res) == (fresh.lam, fresh.res) == \
        (1.0, math.sqrt(2.0))
    assert factor is None and run.energy == 0.25
    assert run.iterations == run.newton_steps == 0 and not run.converged
    # the start's projection, then the trials s = 1, 1/2, ..., 2^-59
    assert len(problem.steps) == 61
    assert problem.steps[:4] == pytest.approx([0.0, 1.0, 0.5, 0.25])


def _newton_calls(monkeypatch, stalls=0, below=math.inf):
    """Record each Newton step of a run as (the residual it starts from,
    whether it moved), a step redone on a fresh factor once; and make the
    Newton step v zero, so that the step fails, where the residual is
    below ``below``, until ``stalls`` steps have failed.  Returns the list
    of records; clear it between runs."""
    newton, newton_step = solver._newton, solver._newton_step
    calls, depth = [], [0]

    def recorded(problem, alpha, check, factor, tol):
        depth[0] += 1
        try:
            out = newton(problem, alpha, check, factor, tol)
        finally:
            depth[0] -= 1
        if not depth[0]:
            calls.append((check.res, out[0] is not None))
        return out

    def step(problem, check, solve, pc, forcing):
        failed = sum(not moved for _, moved in calls)
        if failed < stalls and check.res < below:
            return np.zeros_like(check.values)
        return newton_step(problem, check, solve, pc, forcing)
    monkeypatch.setattr(solver, "_newton", recorded)
    monkeypatch.setattr(solver, "_newton_step", step)
    return calls


def _sop24_descent(m, **options):
    """One descent run of SumOfPowers(2,4) at alpha = 1 on m, from the
    pool's first start, with SolveOptions(**options)."""
    return solver._descend(Problem(YoungFunction.sum_of_powers(2, 4), m),
                           1.0, np.abs(solver.quadratic_eigenvector(m)),
                           SolveOptions(**options))


def test_a_converging_polish_takes_over_at_residual_1e_1(m200, monkeypatch):
    # the descent steps hand over below 1e-1, not 1e-4, and from there
    # every step is a Newton step that moves, until the run converges
    calls = _newton_calls(monkeypatch)
    run = _sop24_descent(m200)
    assert run.converged and calls and all(moved for _, moved in calls)
    assert 1e-4 <= calls[0][0] < 1e-1
    assert run.newton_steps == len(calls) < run.iterations


def test_a_stalled_polish_hands_back_to_the_descent_once(m200, monkeypatch):
    # the first Newton step fails, unconverged, at the residual it starts
    # from below 1e-1; the descent steps take the iterate back down to
    # 1e-4, where the Newton steps take over again and converge to the
    # energy of the run without the stall.  The failed step is not counted
    plain = _sop24_descent(m200)
    calls = _newton_calls(monkeypatch, stalls=1)
    run = _sop24_descent(m200)
    assert plain.converged and run.converged
    (res1, moved1), (res2, _) = calls[:2]
    assert 1e-4 <= res1 < 1e-1 and not moved1
    assert res2 < 1e-4 and all(moved for _, moved in calls[1:])
    assert run.newton_steps == len(calls) - 1
    assert (run.iterations - run.newton_steps
            > plain.iterations - plain.newton_steps)
    assert run.energy == pytest.approx(plain.energy, rel=1e-12)


def test_a_second_stalled_polish_ends_the_run(m200, monkeypatch):
    # at most one hand-back: when the Newton step after it fails too, the
    # run ends there, unconverged, at that step's residual
    calls = _newton_calls(monkeypatch, stalls=2)
    run = _sop24_descent(m200)
    assert [moved for _, moved in calls] == [False, False]
    assert calls[1][0] < 1e-4 and run.residual == calls[1][0]
    assert not run.converged and run.newton_steps == 0


def test_a_polish_stalled_below_1e_4_is_not_handed_back(m200, monkeypatch):
    # a Newton step that fails below the second hand-over residual ends the
    # run: the descent steps would hand the same check straight back to a
    # Newton step that fails alike
    calls = _newton_calls(monkeypatch, stalls=1, below=1e-4)
    run = _sop24_descent(m200)
    *steps, (stop, moved) = calls
    assert len(steps) >= 2 and all(m for _, m in steps) and not moved
    assert steps[0][0] >= 1e-4 > stop
    assert not run.converged and run.residual == stop
    assert run.newton_steps == len(steps)


def test_the_hand_back_keeps_within_max_iter(m200, monkeypatch):
    # descent and Newton steps share max_iter across the hand-back: a run
    # cut at any budget makes that many steps, and converges only with the
    # budget of the uncut run
    calls = _newton_calls(monkeypatch, stalls=1)
    full = _sop24_descent(m200)
    assert full.converged and sum(not moved for _, moved in calls) == 1
    for max_iter in range(1, full.iterations + 2):
        calls.clear()
        run = _sop24_descent(m200, max_iter=max_iter)
        assert run.iterations == min(max_iter, full.iterations)
        assert math.isfinite(run.residual)
        assert run.converged == (max_iter >= full.iterations)
        assert sum(not moved for _, moved in calls) <= 1


@pytest.mark.parametrize("stalls", [0, 1], ids=["plain", "handed-back"])
def test_iterations_count_the_steps_made(m200, monkeypatch, stalls):
    # a run's iterations are its descent steps, each of which factors the
    # stiffness once outside the Newton steps, and its Newton steps that
    # moved; neither the checks nor a failed Newton step count
    start = np.abs(solver.quadratic_eigenvector(m200))  # factors p = 2's
    calls = _newton_calls(monkeypatch, stalls=stalls)
    newton, build = solver._newton, Problem.preconditioner
    inside, descent = [0], [0]

    def counted_newton(*args):
        inside[0] += 1
        try:
            return newton(*args)
        finally:
            inside[0] -= 1

    def counted_build(self, values):
        descent[0] += not inside[0]
        return build(self, values)
    monkeypatch.setattr(solver, "_newton", counted_newton)
    monkeypatch.setattr(Problem, "preconditioner", counted_build)
    run = solver._descend(Problem(YoungFunction.sum_of_powers(2, 4), m200),
                          1.0, start, SolveOptions())
    moved = sum(moved for _, moved in calls)
    assert run.converged and len(calls) - moved == stalls
    assert run.newton_steps == moved > 0 and descent[0] > 0
    assert run.iterations == descent[0] + moved


def test_a_warm_run_without_descent_steps_evaluates_the_energy_once(
        m200, monkeypatch):
    # a start below residual 1e-1 makes only Newton steps, and the run
    # evaluates the energy once, for its result
    F = YoungFunction.sum_of_powers(2, 4)
    start = solve_E(F, m200, 1.0, SolveOptions(seed=1)).u.values
    assert weak_residual(F, start, lagrange_quotient(F, start, m200),
                         m200) < 1e-8
    calls = []
    monkeypatch.setattr(solver, "energy",
                        lambda *args, **kw: calls.append(1) or energy(*args,
                                                                      **kw))
    res = solve_E(F, m200, 1.1, SolveOptions(restarts=1), initial=start)
    assert res.converged and res.iterations == res.newton_steps > 0
    assert res.as_dict()["newton_steps"] == res.newton_steps
    assert len(calls) == 1 and res.energy == energy(F, res.u, m200)


# -- line search -------------------------------------------------------------

class _ScaledQuartic:
    """Two-node stand-in for a Problem.  The energy is y^4/4 at y = u[1]
    (inf beyond |y| > ``wall``), the mass gradient is (1, 0) and the solve
    multiplies by ``scale``, so the descent direction is (0, scale y^3) and
    from y = 1 the trial at step s is y = 1 - scale s.  The projection is
    the identity and records the trial steps."""

    m = SimpleNamespace(node_weights=np.ones(2))

    def __init__(self, scale, wall=math.inf):
        self.scale, self.wall = scale, wall
        self.steps = []

    def energy(self, values):
        y = values[1]
        return y ** 4 / 4.0 if abs(y) <= self.wall else math.inf

    def gradient(self, values):
        return np.array([0.0, values[1] ** 3])

    def mass_gradient(self, values):
        return np.array([1.0, 0.0])

    def project(self, values, alpha):
        self.steps.append((1.0 - values[1]) / self.scale)
        return values

    def preconditioner(self, values):
        return lambda rhs: self.scale * rhs


def _quadratic_step(scale, s):
    # minimizer of E0 - gd x + c x^2 through E(s), with E0 = 1/4, gd = scale
    Es = (1.0 - scale * s) ** 4 / 4.0
    return 0.5 * scale * s * s / (Es - 0.25 + scale * s)


@pytest.mark.parametrize("scale,wall,steps", [
    # the quadratic minimizer 2/9 lies inside [0.1, 0.5]
    (3.0, math.inf, [1.0, _quadratic_step(3.0, 1.0)]),
    # far below 0.1: clamped, then the minimizer from s = 0.1 is kept
    (30.0, math.inf, [1.0, 0.1, _quadratic_step(30.0, 0.1)]),
    # non-finite trial energies halve; the first finite one interpolates,
    # clamped to 0.1 of its step
    (30.0, 10.0, [1.0, 0.5, 0.25, 0.025]),
])
def test_backtracking_takes_the_clamped_quadratic_step(scale, wall, steps):
    problem = _ScaledQuartic(scale, wall)
    run = solver._descend(problem, 1.0, np.array([1.0, 1.0]),
                          SolveOptions(max_iter=1))
    assert problem.steps[0] == 0.0  # the start's own projection
    assert problem.steps[1:] == pytest.approx(steps, rel=1e-12)
    assert run.energy == pytest.approx((1.0 - scale * steps[-1]) ** 4 / 4.0,
                                       rel=1e-12)
    assert run.energy <= 0.25 - 1e-4 * steps[-1] * scale


def test_line_search_after_a_stall_starts_at_the_model_step(monkeypatch):
    # on the quartic the residual is sqrt(1 + y^2), so the second iteration
    # (y = 1/3) stalls against the first (y = 1): its line search starts at
    # the minimizer of the first one's model through its accepted trial
    # (s = 2/9, y = 1/3), not at the unit step
    problem = _ScaledQuartic(3.0)
    trials = []
    energy = problem.energy
    monkeypatch.setattr(problem, "energy",
                        lambda v: trials.append(v[1]) or energy(v))
    run = solver._descend(problem, 1.0, np.array([1.0, 1.0]),
                          SolveOptions(max_iter=2))
    model = _quadratic_step(3.0, 2.0 / 9.0)
    assert 0.1 < model < 0.5
    y1 = 1.0 - 3.0 * (2.0 / 9.0)
    # the start, the first line search (1, 2/9), one trial of the second
    assert trials == pytest.approx(
        [1.0, -2.0, y1, y1 - model * 3.0 * y1 ** 3], rel=1e-12)
    assert run.energy == pytest.approx(trials[-1] ** 4 / 4.0, rel=1e-12)


def test_descent_falls_back_to_the_unprojected_direction():
    # a solve by the skew matrix S = [[1, 1], [2, 1]] turns the projected
    # direction y^3 (0, -1) uphill; its unprojected y^3 (1, 1) is taken
    # instead: the unit trial (0, 0) has no projection, the halved one is
    # accepted
    problem = _ScaledQuartic(1.0)
    skew = np.array([[1.0, 1.0], [2.0, 1.0]])
    problem.preconditioner = lambda values: lambda rhs: skew @ rhs
    run = solver._descend(problem, 1.0, np.array([1.0, 1.0]),
                          SolveOptions(max_iter=1))
    assert problem.steps == [0.0, 0.5]
    assert np.array_equal(run.values, [0.5, 0.5])
    assert run.energy == 0.5 ** 4 / 4.0


def test_descent_stops_when_no_direction_descends():
    # a negative solve makes both the projected and the unprojected slope
    # negative: the descent stops at its start, without a trial
    problem = _ScaledQuartic(-1.0)
    run = solver._descend(problem, 1.0, np.array([1.0, 1.0]),
                          SolveOptions(max_iter=5))
    assert problem.steps == [0.0]  # the start's own projection
    assert np.array_equal(run.values, [1.0, 1.0])
    assert run.iterations == 0 and run.energy == 0.25
    assert not run.converged


@pytest.mark.parametrize("curv,step", [
    (0.5, 1.0),    # the minimizer 3 is clamped to 1
    (29.0, 0.1),   # the minimizer 3/58 is clamped to 0.1
    (6.0, 0.25),   # the minimizer 1/4 is kept
    (0.0, 1.0),    # a linear model: the fallback
    (math.inf, 1.0),
])
def test_model_step_is_the_clamped_minimizer(curv, step):
    # E(0) = 1/4, slope -3 and E(1) = 1/4 - 3 + curv
    assert solver._model_step(0.25, 3.0, 1.0, 0.25 - 3.0 + curv,
                              0.1, 1.0, 1.0) == step


# -- coefficient memo -----------------------------------------------------------

@pytest.mark.parametrize("m", [Mesh.interval(1.0, 50),
                               Mesh.rectangle(1.0, 1.0, 6, 5)],
                         ids=["1d", "2d"])
def test_preconditioner_reuses_the_gradients_coefficient(m, monkeypatch):
    F = YoungFunction.sum_of_powers(2, 4)
    calls = []
    a = F.a
    monkeypatch.setattr(F, "a", lambda t: calls.append(1) or a(t))
    rng = np.random.default_rng(3)
    u = np.abs(rng.standard_normal(m.interior_count)) + 0.1
    rhs = rng.standard_normal(m.interior_count)
    cells = Problem(F, m)
    g = energy_gradient(F, u, m, cells=cells)
    assert np.array_equal(g, energy_gradient(F, u, m))
    calls.clear()
    hit = cells.preconditioner(u)(rhs)
    assert calls == []  # same iterate: the gradient's a(g)/g is reused
    assert np.array_equal(hit, Problem(F, m).preconditioner(u)(rhs))
    assert len(calls) == 1  # a fresh build evaluates a once
    # an iterate changed in place after the gradient misses the memo
    u[3] *= 1.5
    calls.clear()
    moved = cells.preconditioner(u)(rhs)
    assert len(calls) == 1
    assert np.array_equal(moved, Problem(F, m).preconditioner(u)(rhs))
    # another Young function at the same iterate is another Problem, whose
    # build leaves this memo and its a(g)/g as they are
    G = YoungFunction.power(3)
    calls.clear()
    Problem(G, m).preconditioner(u)
    assert np.array_equal(cells.preconditioner(u)(rhs), moved)
    assert calls == []


@pytest.mark.parametrize("m", [Mesh.interval(1.0, 50),
                               Mesh.rectangle(1.0, 1.0, 6, 5)],
                         ids=["1d", "2d"])
def test_energy_shares_the_row_memo(m, monkeypatch):
    # the line search's energy fills the memo with B u of its trial; the
    # gradient and the band at an accepted trial read it, and a rejected
    # trial never feeds the next gradient or band
    F, G = YoungFunction.sum_of_powers(2, 4), YoungFunction.power(3)
    passes = []
    rows = solver.cell_gradients
    monkeypatch.setattr(solver, "cell_gradients",
                        lambda u, m: passes.append(1) or rows(u, m))
    rng = np.random.default_rng(4)
    u = np.abs(rng.standard_normal(m.interior_count)) + 0.1
    rhs = rng.standard_normal(m.interior_count)
    cells = Problem(F, m)

    def fresh(fn, F, v):
        return fn(F, v.copy(), m)

    def memo(fn, F, v, problem=cells):
        """fn through the memo of ``problem``, and the passes over the rows
        it made."""
        passes.clear()
        return fn(F, v, m, cells=problem), len(passes)

    # a trial, then the gradient and the band once it is accepted
    trial = u - 0.1 * rng.standard_normal(m.interior_count)
    assert memo(energy, F, trial) == (fresh(energy, F, trial), 1)
    g, made = memo(energy_gradient, F, trial)
    x = cells.preconditioner(trial)(rhs)
    assert made == 0 and len(passes) == 0  # one pass per iterate
    assert np.array_equal(g, fresh(energy_gradient, F, trial))
    assert np.array_equal(x, Problem(F, m).preconditioner(trial)(rhs))
    # the accepted iterate again, as after a polish
    assert memo(energy, F, trial) == (fresh(energy, F, trial), 0)
    # a rejected trial, then the gradient and band at the iterate it left
    rejected = 3.0 * trial
    assert memo(energy, F, rejected) == (fresh(energy, F, rejected), 1)
    assert np.array_equal(memo(energy_gradient, F, trial)[0], g)
    assert np.array_equal(cells.preconditioner(trial)(rhs), x)
    # a field changed in place under the memo
    trial[2] *= 1.5
    assert memo(energy, F, trial) == (fresh(energy, F, trial), 1)
    got, made = memo(energy_gradient, F, trial)
    assert made == 0
    assert np.array_equal(got, fresh(energy_gradient, F, trial))
    # a second Young function at the same field is a second Problem: one
    # pass of its own, and the first one's memo still holds the field
    other = Problem(G, m)
    assert memo(energy, G, trial, other) == (fresh(energy, G, trial), 1)
    got, made = memo(energy_gradient, G, trial, other)
    assert made == 0
    assert np.array_equal(got, fresh(energy_gradient, G, trial))
    assert memo(energy, F, trial) == (fresh(energy, F, trial), 0)


def _with_band(F, m, ab):
    problem = Problem(F, m)
    problem.band = lambda values, keep=0.0: ab(keep).copy()
    return problem


def test_build_retries_once_then_raises_linalg_error():
    m = Mesh.interval(1.0, 6)
    F, u = YoungFunction.power(2), np.ones(m.interior_count)
    good = Problem(F, m).band(u)
    indefinite = good.copy()
    indefinite[-1, 2] = -1.0
    # the retry with lifted coefficients is factored when it is definite
    keeps = []
    cells = _with_band(F, m, lambda keep: keeps.append(keep) or (
        indefinite if keep == 0.0 else good))
    x = cells.preconditioner(u)(np.ones(m.interior_count))
    assert keeps == [0.0, 1e-10] and np.all(np.isfinite(x))
    # and a retry that still fails raises
    keeps.clear()
    cells = _with_band(F, m, lambda keep: keeps.append(keep) or indefinite)
    with pytest.raises(np.linalg.LinAlgError):
        cells.preconditioner(u)
    assert keeps == [0.0, 1e-10]


@pytest.mark.parametrize("m", [
    Mesh.interval(1.0, 40), Mesh.rectangle(1.0, 1.0, 4, 3),
    NonlocalMesh(1.0, 7, 0.5), NonlocalMesh(1.0, 37, 0.5),
    NonlocalMesh(1.0, 48, 0.5)], ids=["1d", "2d", "N7", "N37", "N48"])
def test_build_factors_and_solves_as_scipy_wrappers(m, monkeypatch):
    # LAPACK called directly gives the factor and the solve of
    # cholesky_banded/cho_solve_banded bit for bit, and leaves the band
    F = YoungFunction.sum_of_powers(2, 4)
    rng = np.random.default_rng(m.interior_count)
    u, rhs = (rng.standard_normal(m.interior_count) for _ in range(2))
    cells = Problem(F, m)
    band = cells.band(u)
    kept = band.copy()
    cells.band = lambda values, keep=0.0: band.copy()
    factors, pbtrf = [], solver._PBTRF
    monkeypatch.setattr(solver, "_PBTRF", lambda ab, **kw: factors.append(
        pbtrf(ab, **kw)) or factors[-1])
    x = cells.preconditioner(u)(rhs)
    cho = scipy.linalg.cholesky_banded(kept, lower=False)
    assert len(factors) == 1 and factors[0][1] == 0
    assert np.array_equal(factors[0][0], cho)
    assert np.array_equal(x, scipy.linalg.cho_solve_banded((cho, False), rhs))
    assert np.array_equal(band, kept)


@pytest.mark.parametrize("kd", [0, 1, "n - 1"])
def test_sbmv_is_the_dense_symmetric_product(kd):
    # the BLAS wrapper the Newton steps' Hessian is applied with, on upper
    # banded storage of kd superdiagonals, against the dense symmetric
    # matrix it holds; it is scipy's own, as the LAPACK wrappers are
    n = 9
    kd = n - 1 if kd == "n - 1" else kd
    rng = np.random.default_rng(kd)
    ab = rng.standard_normal((kd + 1, n))
    dense = np.zeros((n, n))
    for k in range(kd + 1):  # band row kd - k holds the k-th superdiagonal
        dense += np.diag(ab[kd - k, k:], k)
        if k:
            dense += np.diag(ab[kd - k, k:], -k)
    v = rng.standard_normal(n)
    got = solver._SBMV(kd, 1.0, np.asfortranarray(ab), v)
    assert np.allclose(got, dense @ v, rtol=1e-14, atol=1e-14)
    assert sys.modules["scipy.linalg._fblas"].dsbmv is solver._SBMV
    assert scipy.linalg.get_blas_funcs("sbmv", (np.empty(0),)) is solver._SBMV


def test_lapack_wrappers_are_scipys():
    # scipy.linalg reuses the extension module the solver loaded (or the
    # solver reuses scipy's), so get_lapack_funcs returns the solver's
    # wrappers themselves
    assert sys.modules["scipy.linalg._flapack"] is solver._LAPACK
    pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"),
                                                 (np.empty(0),))
    assert pbtrf is solver._PBTRF and pbtrs is solver._PBTRS
    ab = np.array([[0.0, -1.0, -1.0], [4.0, 4.0, 4.0]])
    cho, info = solver._PBTRF(np.array(ab, order="F"))
    assert info == 0
    assert np.array_equal(cho, scipy.linalg.cholesky_banded(ab))
    rhs = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(solver._PBTRS(cho, rhs)[0],
                          scipy.linalg.cho_solve_banded((cho, False), rhs))


def test_lapack_loader_names_a_missing_file(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    spec = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match=re.escape(
            str(tmp_path / "linalg" / "_flapack"))):
        solver._flapack()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_rejects_a_bad_band_or_right_hand_side(bad):
    m = Mesh.interval(1.0, 6)
    F, u = YoungFunction.power(2), np.ones(m.interior_count)
    good = Problem(F, m).band(u)
    # ab[0, 0] is never read by LAPACK; the whole band is checked
    for slot in ((0, 0), (-1, 2), (0, 3)):
        ab = good.copy()
        ab[slot] = bad
        with pytest.raises(ValueError):
            _with_band(F, m, lambda keep: ab).preconditioner(u)
    solve = _with_band(F, m, lambda keep: good).preconditioner(u)
    rhs = np.ones(m.interior_count)
    rhs[1] = bad
    with pytest.raises(ValueError):
        solve(rhs)
    for n in (m.interior_count - 1, m.interior_count + 1):
        with pytest.raises(ValueError):  # as cho_solve_banded's shape check
            solve(np.ones(n))


@pytest.mark.parametrize("factored", [
    lambda cho: (np.where(cho > 1.5, np.nan, cho), 0),
    lambda cho: (cho, -3)], ids=["nan-factor", "illegal-argument"])
def test_build_rejects_a_non_finite_factor_or_negative_info(factored,
                                                            monkeypatch):
    m = Mesh.interval(1.0, 6)
    F, u = YoungFunction.power(2), np.ones(m.interior_count)
    pbtrf = solver._PBTRF
    monkeypatch.setattr(solver, "_PBTRF",
                        lambda ab, **kw: factored(pbtrf(ab, **kw)[0]))
    with pytest.raises(ValueError):
        Problem(F, m).preconditioner(u)


def test_stiffness_lifts_a_block_cut_off_by_underflow():
    # exp_neg_inv_power(1): a(g)/g underflows to 0 on the flat cells of
    # nodes 0-14 and 24-39, cutting them off from the rest of the band; the
    # lifted zero coefficients keep the solve bounded, where flooring only
    # the diagonal left it nearly singular (max |K^-1 1| about 1.2e17)
    m = Mesh.interval(1.0, 41)
    F = YoungFunction.exp_neg_inv_power(1)
    u = np.full(m.interior_count, 1e-3)
    u[15:25:2] = 1.0
    x = Problem(F, m).preconditioner(u)(np.ones(m.interior_count))
    assert np.all(np.isfinite(x)) and np.max(np.abs(x)) < 1e12


def test_stiffness_refactors_when_the_spread_cancels_a_pivot():
    # exp_minus_poly(2) with one node at 8: the two cells at the peak carry
    # a(g)/g about 1e140 times the rest, which cancels a pivot of the 1D
    # band; the build factors again with the coefficients lifted to within
    # 1e10 of the largest, as at alpha = 1e3 on interval:1.0,200
    m = Mesh.interval(1.0, 41)
    F = YoungFunction.exp_minus_poly(2)
    u = np.full(m.interior_count, 1e-3)
    u[20] = 8.0
    cells = Problem(F, m)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cholesky_banded(cells.band(u), lower=False)
    x = cells.preconditioner(u)(np.ones(m.interior_count))
    assert np.all(np.isfinite(x)) and np.all(x > 0.0)


def test_stationarity_of_a_huge_gradient_is_finite():
    # a gradient entry of 4.1e169 (seen at alpha = 1e3 on exp_minus_poly(2))
    # overflows g g unless g is scaled first, and a NaN residual would pass
    # every "not yet converged" test
    ones = np.ones(3)
    lam, res = solver._stationarity(np.array([4.1e169, 1.0, 2.0]), ones,
                                    ones, ones)
    assert lam == pytest.approx(4.1e169 / 3, rel=1e-15)
    assert res == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    # a gradient that is not finite has no residual to speak of
    assert solver._stationarity(np.array([np.inf, 1.0, 2.0]), ones, ones,
                                ones, lam=1.0)[1] == math.inf


def test_stationarity_of_a_zero_gradient_is_inf():
    # at the quartic's minimizer y = 0 the energy gradient vanishes, and
    # the defect relative to it has no finite value
    check = solver._check(_ScaledQuartic(1.0), np.array([1.0, 0.0]))
    assert check.lam == 0.0 and check.res == math.inf


# -- multistart early stop --------------------------------------------------

def test_default_restarts_stop_at_first_certified_run(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    early = solve_E(F, m200, 1.0)
    full = solve_E(F, m200, 1.0, SolveOptions(restarts=5))
    assert early.converged and early.restarts_used == 1
    assert early.hessian_min > 0.0 and full.hessian_min is None
    assert full.restarts_used == 5
    assert abs(early.energy - full.energy) <= 1e-8 * full.energy
    assert early.restart_energies == [early.energy]
    assert early.restart_spread is None


def test_uncertified_default_runs_the_whole_pool(m200, monkeypatch):
    # a stand-in check that certifies no run: the solve runs all
    # MAX_STARTS starts, though its first two converged runs agree in
    # energy, and returns what restarts=5 returns
    monkeypatch.setattr(solver, "_hessian_min", lambda problem, run: math.nan)
    F = YoungFunction.sum_of_powers(2, 4)
    early = solve_E(F, m200, 1.0)
    full = solve_E(F, m200, 1.0, SolveOptions(restarts=5))
    assert early.converged and early.restarts_used == full.restarts_used == 5
    first, second = early.restart_energies[:2]
    assert abs(first - second) <= SolveOptions().tol * first
    assert early.energy == full.energy == min(early.restart_energies)
    assert early.restart_energies == full.restart_energies
    assert early.restart_spread == full.restart_spread
    assert 0.0 <= early.as_dict()["restart_spread"] <= 1e-8


def _smooth_by_pad(values, passes=10):
    """The reference for ``solver._smooth``: np.pad on every pass."""
    v = values.copy()
    for _ in range(passes):
        padded = np.pad(v, 1)
        v = 0.5 * v + 0.25 * (padded[:-2] + padded[2:])
    return v


@pytest.mark.parametrize("n", [1, 2, 3, 199])
def test_smooth_matches_the_padded_stencil(n):
    raw = np.abs(np.random.default_rng(n).standard_normal(n))
    before = raw.copy()
    assert np.array_equal(solver._smooth(raw), _smooth_by_pad(raw))
    assert np.array_equal(raw, before)


def _smoothings_of_a_cold_solve(m, monkeypatch):
    """(restarts_used, calls of solver._smooth) of the default SumOfPowers(2,4)
    solve at alpha = 1, seed 1."""
    smooth, calls = solver._smooth, []

    def counted(values, *args):
        calls.append(1)
        return smooth(values, *args)
    monkeypatch.setattr(solver, "_smooth", counted)
    res = solve_E(YoungFunction.sum_of_powers(2, 4), m, 1.0,
                  SolveOptions(seed=1))
    return res.restarts_used, len(calls)


def test_cold_solve_draws_only_the_starts_it_runs(m200, monkeypatch):
    # one certified run, the eigenvector start: no random field
    assert _smoothings_of_a_cold_solve(m200, monkeypatch) == (1, 0)


def test_uncertified_cold_solve_draws_only_the_starts_it_runs(m200,
                                                              monkeypatch):
    # with a stand-in check that certifies no run, the whole pool: the
    # eigenvector start and four random fields, each smoothed once
    monkeypatch.setattr(solver, "_hessian_min", lambda problem, run: math.nan)
    assert _smoothings_of_a_cold_solve(m200, monkeypatch) == (5, 4)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_start_pool_is_the_seeded_draw_in_order(m200, seed):
    # the quadratic eigenvector, then smoothed |N(0, 1)| fields plus 1e-3
    # from one generator of the seed, all drawn up front here
    opts = SolveOptions(seed=seed)
    got = list(itertools.islice(solver._start_pool(m200, opts, None), 5))
    rng = np.random.default_rng(seed)
    want = [np.abs(solver.quadratic_eigenvector(m200))] + [
        _smooth_by_pad(np.abs(rng.standard_normal(m200.interior_count)))
        + 1e-3 for _ in range(4)]
    assert len(got) == 5
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    warm = list(itertools.islice(solver._start_pool(
        m200, SolveOptions(), want[2]), 1))
    assert len(warm) == 1 and np.array_equal(warm[0], want[2])


def test_explicit_restarts_draw_the_seeded_fields_in_order(m200,
                                                           monkeypatch):
    # --restarts 3 still runs the eigenvector start, then the first two
    # smoothed |N(0, 1)| + 1e-3 fields of one generator of the seed
    descend, starts = solver._descend, []

    def recorded(problem, alpha, start, opts):
        starts.append(start)
        return descend(problem, alpha, start, opts)
    monkeypatch.setattr(solver, "_descend", recorded)
    solve_E(YoungFunction.sum_of_powers(2, 4), m200, 1.0,
            SolveOptions(seed=3, restarts=3))
    rng = np.random.default_rng(3)
    want = [np.abs(solver.quadratic_eigenvector(m200))] + [
        _smooth_by_pad(np.abs(rng.standard_normal(m200.interior_count)))
        + 1e-3 for _ in range(2)]
    assert len(starts) == 3
    for got, ref in zip(starts, want):
        assert np.array_equal(got, ref)


def test_second_start_is_the_plateau_where_it_fits(monkeypatch):
    # on (0, 4) the plateau fits, so the pool's second start is
    # bump_field(m, 0.8 r_plateau); exp_minus_poly(2) at alpha = 1e4, where
    # the solve makes 22 projections from it against 88 from a random
    # second start, converges to the first run's energy
    bump, descend, calls, starts = solver.bump_field, solver._descend, [], []

    def recorded_bump(m, r):
        out = bump(m, r)
        calls.append((r, out.values))
        return out

    def recorded_descend(problem, alpha, start, opts):
        starts.append(start)
        return descend(problem, alpha, start, opts)
    monkeypatch.setattr(solver, "bump_field", recorded_bump)
    monkeypatch.setattr(solver, "_descend", recorded_descend)
    m = Mesh.interval(4.0, 200)
    res = solve_E(YoungFunction.exp_minus_poly(2), m, 1e4,
                  SolveOptions(seed=1, max_iter=2000, restarts=2))
    r_plateau = m.inner_radius - 1.0 - 3.0 * max(m.spacing)
    assert [r for r, _ in calls] == [0.8 * r_plateau]
    assert len(starts) == 2 and np.array_equal(starts[1], calls[0][1])
    assert res.converged and res.restarts_used == 2
    first, second = res.restart_energies
    assert abs(first - second) <= 1e-12 * first


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_small_eigh_matches_numpy(k):
    # the second-order check's dense eigensolve (LAPACK dsyev) against
    # numpy's eigh, on a random symmetric matrix with a nearly double
    # lowest pair
    rng = np.random.default_rng(k)
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    want = np.sort(np.concatenate([[1.0, 1.0 + 1e-9], rng.random(k)])[:k])
    a = (q * want) @ q.T
    vals, vecs = solver._eigh(0.5 * (a + a.T))
    assert vals == pytest.approx(np.linalg.eigh(a)[0], abs=1e-14)
    assert np.allclose(vecs.T @ vecs, np.eye(k), atol=1e-14)
    assert np.allclose(a @ vecs, vecs * vals, atol=1e-14)


def _counting_matvecs(monkeypatch):
    """Count every application of :meth:`Problem.tangent`'s matvec into
    the one-entry list returned."""
    tangent, matvecs = Problem.tangent, [0]

    def counted(self, values, lam):
        apply = tangent(self, values, lam)

        def counted_apply(v):
            matvecs[0] += 1
            return apply(v)
        return counted_apply
    monkeypatch.setattr(Problem, "tangent", counted)
    return matvecs


@pytest.mark.parametrize("m", [Mesh.interval(1.0, 200),
                               NonlocalMesh(1.0, 64, 0.5),
                               Mesh.rectangle(1.0, 1.0, 12, 10)],
                         ids=["interval", "nonlocal", "rectangle"])
def test_cg_iterations_count_the_hessian_matvecs_of_the_run(m,
                                                             monkeypatch):
    # one per matvec of each Newton step's CG, and the same on a rerun
    matvecs = _counting_matvecs(monkeypatch)
    run = _sop24_descent(m)
    assert run.converged and run.newton_steps > 0
    assert run.cg_iterations == matvecs[0] > run.newton_steps
    matvecs[0] = 0
    assert _sop24_descent(m).cg_iterations == run.cg_iterations == matvecs[0]


def test_cg_iterations_count_a_failed_newton_steps_matvecs(m200, monkeypatch):
    # the first Newton step runs its CG and then fails (its step is
    # dropped): the run hands back, and its count keeps that CG's matvecs
    matvecs = _counting_matvecs(monkeypatch)
    newton_step, failed = solver._newton_step, []

    def dropped(problem, check, solve, pc, forcing):
        step = newton_step(problem, check, solve, pc, forcing)
        if not failed:
            failed.append(matvecs[0])
            return np.zeros_like(step)
        return step
    monkeypatch.setattr(solver, "_newton_step", dropped)
    run = _sop24_descent(m200)
    assert run.converged and failed[0] > 0
    assert run.cg_iterations == matvecs[0] > failed[0]


def test_solve_reports_the_cg_iterations_of_the_returned_run(m200,
                                                             monkeypatch):
    descend, runs = solver._descend, []
    monkeypatch.setattr(solver, "_descend",
                        lambda *args: runs.append(descend(*args)) or runs[-1])
    res = solve_E(YoungFunction.sum_of_powers(2, 4), m200, 1.0,
                  SolveOptions(restarts=3, seed=1))
    [best] = [r for r in runs if r.values is res.u.values]
    assert len(runs) == 3 and res.cg_iterations == best.cg_iterations > 0
    assert res.as_dict()["cg_iterations"] == res.cg_iterations


def _canned_descend(energies, converged):
    """Stand-in for ``solver._descend`` returning preset runs in order; the
    values are the projected start, so the constraint postcondition holds."""
    calls = []

    def descend(problem, alpha, start, opts):
        k = len(calls)
        calls.append(k)
        return solver._RunResult(
            values=problem.project(start, alpha), energy=energies[k],
            lam=1.0, residual=0.0 if converged[k] else 1.0, iterations=1,
            converged=converged[k], newton_steps=0)
    return descend, calls


@pytest.mark.parametrize("energies,converged", [
    # the first converged energy and the third agree to 1e-12 relative
    ([1.0, 1.0 + 1e-6, 1.0 + 1e-12, 2.0, 2.0], [True] * 5),
    ([1.0 + k * 1e-6 for k in range(5)], [True] * 5),
    ([1.0, 1.0, 1.0, 1.0, 1.0], [False, False, True, False, True]),
    ([1.0, 1.0, 1.0, 1.0, 1.0], [False, True, True, True, True]),
], ids=["third-agrees", "none-agree", "unconverged-only", "skip-unconverged"])
def test_early_stop_needs_two_converged_agreeing_runs(
        m200, monkeypatch, energies, converged):
    # with a stand-in check that certifies no run, no energies, agreeing or
    # not, stop the solve: it runs all five starts and returns the lowest
    # converged energy
    descend, calls = _canned_descend(energies, converged)
    monkeypatch.setattr(solver, "_descend", descend)
    monkeypatch.setattr(solver, "_hessian_min", lambda problem, run: math.nan)
    F = YoungFunction.power(2)
    res = solve_E(F, m200, 1.0)
    assert res.restarts_used == len(calls) == solver.MAX_STARTS
    kept = [E for E, c in zip(energies, converged) if c]
    assert res.restart_energies == kept
    assert res.energy == min(kept)
    lo = min(kept)
    assert res.restart_spread == pytest.approx((max(kept) - lo) / lo)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_default_stops_at_the_first_certified_run(m200, monkeypatch, k):
    # a stand-in check that certifies only the k-th converged run it sees:
    # the solve stops there, though the first and third converged runs
    # agree in energy, and returns the lowest converged energy so far,
    # that of the run it stopped at
    energies = [1.0, 0.5, 1.0 - 1e-12, 1.0 - 2e-12, 0.1]
    converged = [True, False, True, True, True]
    descend, calls = _canned_descend(energies, converged)
    monkeypatch.setattr(solver, "_descend", descend)
    checked = []

    def check(problem, run):
        checked.append(run.energy)
        return 1.0 if len(checked) == k else math.nan
    monkeypatch.setattr(solver, "_hessian_min", check)
    res = solve_E(YoungFunction.power(2), m200, 1.0)
    kept = [E for E, c in zip(energies, converged) if c][:k]
    assert checked == res.restart_energies == kept
    assert res.restarts_used == len(calls) == energies.index(kept[-1]) + 1
    assert res.energy == kept[-1] and res.hessian_min == 1.0

