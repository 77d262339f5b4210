"""Young-function calculus: families, conjugates, modulars, doubling
diagnostics, and Matuszewska-Orlicz limits."""

import decimal
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from orlicz_eigen.cli import main
from orlicz_eigen.errors import BracketRangeError, ConfigError
from orlicz_eigen.mesh import Mesh
from orlicz_eigen.young import (SATURATION, Endpoint, Family, Regime,
                                YoungFunction, _exp_tail, _Modular, _newton,
                                _normalize, _saturate, complementary_eval,
                                complementary_function, delta2_report,
                                luxemburg_norm, matuszewska_exponent,
                                modular)


# -- family values ----------------------------------------------------------

def test_power_values():
    F = YoungFunction.power(2)
    assert F.A(3.0) == pytest.approx(9.0, rel=1e-14)
    assert F.a(3.0) == pytest.approx(6.0, rel=1e-14)
    assert F.A(0.0) == 0.0 and F.a(0.0) == 0.0


def test_sum_of_powers_values():
    F = YoungFunction.sum_of_powers(2, 4)
    assert F.A(2.0) == pytest.approx(2.0 ** 2 / 2 + 2.0 ** 4 / 4, rel=1e-14)
    assert F.a(2.0) == pytest.approx(2.0 + 8.0, rel=1e-14)


def test_power_log_values():
    F = YoungFunction.power_log(2, 1, 1)
    assert F.A(1.0) == pytest.approx(0.5 * math.log(2.0), rel=1e-13)


def test_exp_minus_poly_values():
    F = YoungFunction.exp_minus_poly(2)
    assert F.A(1.0) == pytest.approx(math.e - 2.0, rel=1e-13)
    # small-argument branch must not cancel catastrophically
    t = 1e-8
    assert F.A(t) == pytest.approx(t ** 2 / 2.0, rel=1e-6, abs=0)


def test_exp_minus_poly_needs_degree_two():
    with pytest.raises(Exception):
        YoungFunction.exp_minus_poly(1)


def test_double_exp_values():
    F = YoungFunction.double_exp()
    assert F.A(0.0) == 0.0
    assert F.A(1.0) == pytest.approx(math.exp(math.e) - 2.0 * math.e,
                                     rel=1e-13)


def test_exp_neg_inv_power_continuation_is_c1():
    F = YoungFunction.exp_neg_inv_power(1)
    t0 = 0.5  # alpha/(alpha+1) for alpha = 1
    eps = 1e-7
    left = (F.A(t0) - F.A(t0 - eps)) / eps
    right = (F.A(t0 + eps) - F.A(t0)) / eps
    assert left == pytest.approx(right, rel=1e-5)


SAT = SATURATION
SPECIAL_POINTS = [0.0, 1.0, math.inf, -math.inf, math.nan, 1e200, -1.0]
E2 = math.exp(-2.0)
# (F, A, a) on SPECIAL_POINTS: every non-finite value reads SATURATION, and
# the result is then clipped to [0, SATURATION]
PINNED = {
    "power(2)": (YoungFunction.power(2),
                 [0.0, 1.0, SAT, SAT, SAT, SAT, 1.0],
                 [0.0, 2.0, SAT, SAT, SAT, 2e200, 0.0]),
    "power(1.5)": (YoungFunction.power(1.5),
                   [0.0, 1.0, SAT, SAT, SAT, 1e300, SAT],
                   [0.0, 1.5, SAT, SAT, SAT, 1.5e100, SAT]),
    "power(3)": (YoungFunction.power(3),
                 [0.0, 1.0, SAT, SAT, SAT, SAT, 0.0],
                 [0.0, 3.0, SAT, SAT, SAT, SAT, 3.0]),
    "power(4)": (YoungFunction.power(4),
                 [0.0, 1.0, SAT, SAT, SAT, SAT, 1.0],
                 [0.0, 4.0, SAT, SAT, SAT, SAT, 0.0]),
    "sum_of_powers(2,4)": (YoungFunction.sum_of_powers(2, 4),
                           [0.0, 0.75, SAT, SAT, SAT, SAT, 0.75],
                           [0.0, 2.0, SAT, SAT, SAT, SAT, 0.0]),
    "sum_of_powers(1.5,4)": (YoungFunction.sum_of_powers(1.5, 4),
                             [0.0, 11.0 / 12.0, SAT, SAT, SAT, SAT, SAT],
                             [0.0, 2.0, SAT, SAT, SAT, SAT, SAT]),
    # a(1e200) = t (ln(1+t) + t/(2(1+t))) is finite, while A saturates
    "power_log(2,1,1)": (YoungFunction.power_log(2, 1, 1),
                         [0.0, 0.5 * math.log(2.0), SAT, SAT, SAT, SAT, SAT],
                         [0.0, math.log(2.0) + 0.25, SAT, 0.0, 0.0,
                          1e200 * (200.0 * math.log(10.0) + 0.5), 0.0]),
    "exp_minus_poly(2)": (YoungFunction.exp_minus_poly(2),
                          [0.0, math.e - 2.0, SAT, SAT, SAT, SAT,
                           math.exp(-1.0)],
                          [0.0, math.e - 1.0, SAT, SAT, SAT, SAT, 0.0]),
    "exp_minus_poly(3)": (YoungFunction.exp_minus_poly(3),
                          [0.0, math.e - 2.5, SAT, SAT, SAT, SAT, 0.0],
                          [0.0, math.e - 2.0, SAT, SAT, SAT, SAT,
                           math.exp(-1.0)]),
    # quadratic continuation past t0 = 1/2
    "exp_neg_inv_power(1)": (YoungFunction.exp_neg_inv_power(1),
                             [0.0, 3.5 * E2, SAT, 0.0, SAT, SAT, 0.0],
                             [0.0, 6.0 * E2, SAT, SAT, SAT,
                              4.0 * E2 * (1e200 - 0.5), SAT]),
    "double_exp()": (YoungFunction.double_exp(),
                     [0.0, math.exp(math.e) - 2.0 * math.e, SAT, SAT, SAT,
                      SAT, math.e * (math.expm1(math.expm1(-1.0)) + 1.0)],
                     [0.0, math.e * math.expm1(math.e), SAT, 0.0, SAT, SAT,
                      0.0]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_closed_forms_pinned_on_special_points(name):
    F, *pins = PINNED[name]
    t = np.array(SPECIAL_POINTS)
    for got, want in zip((F.A(t), F.a(t)), pins):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _general(impl, t):
    """``impl`` on ``t`` read as a float array of rank 1 or more, returned
    as a float for a 0-d ``t``."""
    t = np.asarray(t, dtype=float)
    out = impl(np.atleast_1d(t.copy()))
    return float(out[0]) if t.ndim == 0 else out


def _same(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)  # NaN equals NaN
    assert np.array_equal(np.signbit(got), np.signbit(want))


EVALUATION_INPUTS = {
    "nan": np.array([0.5, math.nan, 2.0]),
    "inf": np.array([math.inf, 1.0, -math.inf]),
    "negative": np.array([-2.0, -0.0, 0.0, 3.0]),
    "empty": np.array([]),
    "0-d": np.array(0.7),
    "scalar": 0.7,
    "integer": np.array([0, 1, 3]),
    "non-contiguous": np.linspace(-1.0, 40.0, 30)[::3],
    "rank 2": np.linspace(0.0, 3.0, 12).reshape(3, 4).T,
}


@pytest.mark.parametrize("kind", sorted(EVALUATION_INPUTS))
@pytest.mark.parametrize("name", sorted(PINNED))
def test_evaluation_matches_general_path(name, kind):
    # every input reads exactly as it does through asarray/atleast_1d,
    # signed zeros included
    F = PINNED[name][0]
    t = EVALUATION_INPUTS[kind]
    before = np.array(t, copy=True)
    _same(F.A(t), _general(F._A_impl, t))
    _same(F.a(t), _general(F._a_impl, t))
    np.testing.assert_array_equal(t, before)  # the input is not written


def _saturate_reference(out):
    np.copyto(out, SATURATION, where=out == -np.inf)
    np.fmin(out, SATURATION, out=out)
    np.maximum(out, 0.0, out=out)
    return out


@pytest.mark.parametrize("values", [
    [0.5, 2.0, 1e300], [0.5, math.nan], [math.inf, 1.0], [-math.inf, 1.0],
    [-1.0, 2.0], [-0.0, 1.0], [0.0, 1.0], [2e300, 1.0], [],
    # a least value of 0 takes the fast path, which maps -0.0 to +0.0
    [0.0, 1.0, 0.0, 3.0], [-0.0, 2.0, 0.0, -0.0], [-0.0], [0.0, 1e300, -0.0],
], ids=lambda v: ",".join(map(str, v)) or "empty")
def test_saturate_fast_path_matches_full_mapping(values):
    got = _saturate(np.array(values, dtype=float))
    _same(got, _saturate_reference(np.array(values, dtype=float)))


def _power_sum_reference(t, terms):
    # the term-by-term evaluation: _ipow(t, e) (t ** e, by multiplication
    # for e = 1..4), times c, over d, added from the first term on
    from orlicz_eigen.young import _ipow
    out = None
    for e, c, d in terms:
        x = _ipow(t, e)
        if c != 1.0:
            x = c * x
        if d != 1.0:
            x = x / d
        out = x if out is None else out + x
    return out


POWER_SUMS = {f"power{p}": YoungFunction.power(p) for p in (1.5, 2, 3, 4)}
POWER_SUMS.update({f"sop{p},{q}": YoungFunction.sum_of_powers(p, q)
                   for p, q in ((2, 4), (1.5, 4), (2, 3), (3, 4), (1.5, 2),
                                (2.5, 6), (4, 6))})


def _power_sum_inputs(F):
    # 0, -0.0, subnormals, the saturation radius of the terms and its
    # neighbours, overflow, inf and NaN, among random values
    rho = F._rho_sat
    special = [0.0, -0.0, 5e-324, 2.5e-310, 1e-160, rho, np.nextafter(rho, 0),
               np.nextafter(rho, np.inf), 2.0 * rho, 1e200, np.inf, np.nan]
    rng = np.random.default_rng(42)
    return np.concatenate([special, rng.uniform(0.0, 10.0, 200),
                           np.exp(rng.uniform(-300.0, 300.0, 200))])


@pytest.mark.parametrize("key", ["A", "a", "da", "G"])
@pytest.mark.parametrize("name", sorted(POWER_SUMS))
def test_power_sum_matches_term_by_term_evaluation(name, key):
    # bit for bit, with the constant term added as c/d, a power-of-two d as
    # a product by 1/d and a shared t*t; the input is not written
    from orlicz_eigen.young import _power_sum
    F = POWER_SUMS[name]
    t = _power_sum_inputs(F)
    before = t.copy()
    with np.errstate(all="ignore"):
        got = _power_sum(t, F._sums[key])
        want = _power_sum_reference(t, F._sums[key])
        assert got.tobytes() == want.tobytes()
        assert t.tobytes() == before.tobytes()
        # negative control: a product by 1/d is not exact for d = 3, so
        # these inputs would show a reciprocal taken where it is not
        assert (t / 3.0).tobytes() != (t * (1.0 / 3.0)).tobytes()


def test_power_sums_keep_no_more_arrays_alive():
    # SumOfPowers(2,4) at the pairs of N = 256: A holds the square and one
    # term at once, a and a' one array, so the shared t*t adds no live
    # array of the input's size
    import tracemalloc
    F = YoungFunction.sum_of_powers(2, 4)
    t = np.random.default_rng(3).uniform(1e-3, 3.0, 256 * 128)
    for method, arrays in ((F.A, 2), (F.a, 1), (F.da, 1)):
        method(t)  # warm
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = method(t)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.nbytes == t.nbytes
        assert peak <= (arrays + 0.5) * t.nbytes, (method.__name__, peak)


def test_exp_neg_inv_power_density_vanishes_near_zero():
    # a(t) = t^-2 exp(-1/t) underflows to 0 long before t^-2 overflows near
    # 1e-154; below the closed form it matches the direct product
    F = YoungFunction.exp_neg_inv_power(1)
    assert np.all(F.a(np.geomspace(1e-300, 1e-150, 61)) == 0.0)
    t = np.geomspace(2e-3, 0.5, 41)
    np.testing.assert_allclose(F.a(t), t ** -2.0 * np.exp(-1.0 / t),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("e", [1.0, 2.0, 3.0, 4.0])
def test_whole_power_by_multiplication_matches_pow(e):
    from orlicz_eigen.young import _ipow
    t = np.geomspace(1e-100, 1e75, 4001)
    ref = t ** e
    got = _ipow(t, e)
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))


def _exp_tail_reference(t, n):
    """e^t minus its Taylor polynomial, in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(float(t))
        tail = d.exp() - sum(d ** k / math.factorial(k) for k in range(n))
        return min(float(tail), SATURATION)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_exp_tail_matches_decimal_reference(n):
    t = np.geomspace(1e-8, 700.0, 601)
    ref = np.array([_exp_tail_reference(x, n) for x in t])
    assert np.all(np.abs(_exp_tail(t, n) - ref) <= 1e-15 * ref)


@pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-3, 0.1, 1.0])
def test_double_exp_matches_decimal_reference(t):
    """A(t) = e (e^(e^t - 1) - 1 - t) has no cancellation at small t."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(t)
        ref = float(decimal.Decimal(1).exp()
                    * ((d.exp() - 1).exp() - 1 - d))
    assert abs(YoungFunction.double_exp().A(t) - ref) <= 1e-14 * ref


def test_density_monotone_and_A_convex():
    for F in [YoungFunction.power(3), YoungFunction.sum_of_powers(2, 4),
              YoungFunction.power_log(2, 1, 1),
              YoungFunction.exp_minus_poly(2), YoungFunction.double_exp()]:
        # cap the grid where the doubly exponential family is representable
        t = np.geomspace(1e-6, 5.0, 200)
        a = F.a(t)
        assert np.all(np.diff(a) >= -1e-12 * np.abs(a[1:]))
        A = F.A(t)
        chord = 0.5 * (A[:-2] + A[2:])
        assert np.all(F.A(0.5 * (t[:-2] + t[2:])) <= chord * (1 + 1e-10))


def test_custom_family_matches_power():
    F = YoungFunction.custom(lambda t: 2.0 * t, label="custom square")
    assert F.A(3.0) == pytest.approx(9.0, rel=1e-8)


def test_custom_anchor_lookup_matches_a_linear_scan():
    # the sorted keys find the anchor a scan over the whole cache finds, so
    # a full cache (4096 anchors, no more inserted) gives the same bits; a
    # NaN saturates as in the closed-form families and is never cached
    from scipy import integrate

    def density(t):
        return 2.0 * t + t ** 3
    F = YoungFunction.custom(density)
    assert F.A(math.nan) == SATURATION and F._keys == [0.0]
    rng = np.random.default_rng(0)
    F.A(rng.uniform(0.0, 10.0, 5000))
    assert len(F._anchors) == 4096 and F._keys == sorted(F._anchors)
    keys = rng.choice(F._keys[1:], 50)
    for t in np.concatenate([rng.uniform(0.0, 12.0, 200), keys]):
        lower = max(x for x in F._anchors if x <= t)
        want = F._anchors[lower]
        if lower != t:
            want += integrate.quad(density, lower, t, epsabs=1e-14,
                                   epsrel=1e-10, limit=200)[0]
        assert F.A(t) == want


def test_custom_family_saturates_at_infinity():
    # inf reads SATURATION as in the closed forms, with no quad over a
    # divergent density (IntegrationWarning, an error here), and neither
    # inf nor NaN is cached: the anchors' keys stay sorted and finite
    import warnings
    F = YoungFunction.custom(lambda t: 2.0 * t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert F.A(math.inf) == SATURATION
        got = F.A(np.array([1.0, math.inf, math.nan, 2.0, math.inf]))
    np.testing.assert_array_equal(
        got, [pytest.approx(1.0), SATURATION, SATURATION, pytest.approx(4.0),
              SATURATION])
    assert F._keys == sorted(F._anchors) == [0.0, 1.0, 2.0]


def test_from_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        YoungFunction.from_config({"family": "power", "params": {"p": 2},
                                   "bogus": 1})
    with pytest.raises(ConfigError):
        YoungFunction.from_config({"family": "power",
                                   "params": {"p": 2, "extra": 3}})


# (from_config params, the classmethod's build, the default label)
CONFIGURED = {
    "power": ({"p": 3}, lambda: YoungFunction.power(3), "t^3.0"),
    "sum_of_powers": ({"p": 1.5, "q": 3},
                      lambda: YoungFunction.sum_of_powers(1.5, 3),
                      "t^1.5/1.5 + t^3.0/3.0"),
    "power_log": ({"p": 2, "alpha": 1, "r": 0.5},
                  lambda: YoungFunction.power_log(2, 1, 0.5),
                  "(t^2.0/2.0) ln^1.0(1+t^0.5)"),
    "exp_minus_poly": ({"n": 3}, lambda: YoungFunction.exp_minus_poly(3),
                       "e^t - T_2(t)"),
    "exp_neg_inv_power": ({"alpha": 1.5},
                          lambda: YoungFunction.exp_neg_inv_power(1.5),
                          "exp(-t^-1.5)"),
    "double_exp": ({}, YoungFunction.double_exp, "e^(e^t) - e - e t"),
}


@pytest.mark.parametrize("family", sorted(CONFIGURED))
def test_from_config_matches_constructor(family):
    params, build, label = CONFIGURED[family]
    F = YoungFunction.from_config({"family": family, "params": params})
    G = build()
    assert (F.label, F.params, repr(F)) == (G.label, G.params, repr(G))
    assert F.label == label
    assert [type(v) for v in F.params.values()] == \
        [type(v) for v in G.params.values()]
    t = np.concatenate(([0.0], np.geomspace(1e-6, 40.0, 97)))
    for name in ("A", "a", "log_A", "log_a"):
        _same(getattr(F, name)(t), getattr(G, name)(t))


@pytest.mark.parametrize("cfg, message", [
    ({"family": "sum_of_powers", "params": {"p": 2}},
     "missing parameter 'q' for family 'sum_of_powers'"),
    ({"family": "power_log", "params": {"p": "x", "alpha": 1, "r": 1}},
     "non-numeric parameter for family 'power_log': "
     "could not convert string to float: 'x'"),
    ({"family": "power", "params": {"p": 2, "q": 3}},
     "unknown parameter 'q' for family 'power'"),
    ({"family": "power", "params": {"p": 0.5}}, "power family needs p > 1"),
    ({"family": "exp_minus_poly", "params": {"n": 1}},
     "exp_minus_poly needs n >= 2 and n <= 170"),
    # n! passes the double range: an OverflowError traceback once (n = 171),
    # or an n-step loop (n = 1e20)
    ({"family": "exp_minus_poly", "params": {"n": 171}},
     "exp_minus_poly needs n >= 2 and n <= 170"),
    ({"family": "exp_minus_poly", "params": {"n": 1e20}},
     "exp_minus_poly needs n >= 2 and n <= 170"),
    # a TypeError or ValueError traceback once
    *[({"family": "power", "params": params},
       "young-function params must be a mapping")
      for params in (None, 5, "p", [2])],
])
def test_from_config_messages(cfg, message):
    with pytest.raises(ConfigError) as info:
        YoungFunction.from_config(cfg)
    assert str(info.value) == message


_VALID_PARAMS = {"power": {"p": 2}, "sum_of_powers": {"p": 2, "q": 4},
                 "power_log": {"p": 2, "alpha": 1, "r": 1},
                 "exp_minus_poly": {"n": 2}, "exp_neg_inv_power": {"alpha": 1}}


@pytest.mark.parametrize("family, name, value", [
    (family, name, value) for family, params in _VALID_PARAMS.items()
    for name in params for value in (math.inf, -math.inf, math.nan)
] + [("exp_minus_poly", "n", 2.5)])
def test_a_non_finite_or_fractional_parameter_is_a_config_error(
        capsys, family, name, value):
    # each parameter of each family at +-inf (JSON 1e400) and NaN, and a
    # fractional n: once accepted (p = 1e400 ran a solve for over a
    # minute, n = 2.5 ran as 2) or a traceback (n = 1e400 overflowed)
    cfg = {"family": family, "params": {**_VALID_PARAMS[family],
                                        name: value}}
    with pytest.raises(ConfigError, match=f"^parameter '{name}' for family "
                                          f"'{family}' must be a finite"):
        YoungFunction.from_config(cfg)
    text = json.dumps(cfg).replace("Infinity", "1e400")
    assert main(["inspect", "--young", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parameter '{name}'")
    assert "Traceback" not in err


@pytest.mark.parametrize("params, expected", [
    ({"p": 3, "q": 1}, "unknown parameter 'q' for family 'power'"),
    ({"p": 3}, ({"p": 3.0}, "t^3.0")),
    ({}, "missing parameter 'p' for family 'power'"),
    ({"p": "3"}, ({"p": 3.0}, "t^3.0")),
    ({"p": "x"}, "non-numeric parameter for family 'power': "
                 "could not convert string to float: 'x'"),
])
def test_dataclass_constructor_validates_as_from_config(params, expected):
    # YoungFunction(family, params) runs from_config's checks: the same
    # parameters of the table's kinds, or the same ConfigError
    for build in (lambda: YoungFunction("power", params),
                  lambda: YoungFunction.from_config(
                      {"family": "power", "params": params})):
        try:
            F = build()
        except ConfigError as exc:
            assert str(exc) == expected
        else:
            assert (F.params, F.label) == expected
            assert type(F.params["p"]) is float


# -- complementary function -------------------------------------------------

def test_complementary_power2():
    # conjugate of t^2 is t^2/4
    F = YoungFunction.power(2)
    assert complementary_eval(F, 2.0) == pytest.approx(1.0, rel=1e-8)


def test_complementary_via_maximization():
    # sup_tau (tau t - A(tau)) cross-check on a non-power family
    F = YoungFunction.sum_of_powers(2, 4)
    for t in (0.5, 2.0 / 3.0, 1.5):
        tau = np.linspace(0.0, 10.0, 400_001)
        sup = float(np.max(tau * t - F.A(tau)))
        assert complementary_eval(F, t) == pytest.approx(sup, rel=1e-6,
                                                         abs=1e-9)


def test_complementary_function_is_young():
    F = YoungFunction.power(3)
    G = complementary_function(F)
    assert G.A(0.0) == 0.0
    assert G.A(1.0) == pytest.approx(complementary_eval(F, 1.0), rel=1e-6)


def test_young_inequality_randomized():
    rng = np.random.default_rng(42)
    F = YoungFunction.sum_of_powers(2, 4)
    for _ in range(200):
        s, t = rng.uniform(0.0, 5.0, 2)
        assert s * t <= F.A(s) + complementary_eval(F, t) + 1e-9


CLOSED_FORMS = {
    "power(3.5)": lambda: YoungFunction.power(3.5),
    "sum_of_powers(2,4)": lambda: YoungFunction.sum_of_powers(2, 4),
    "power_log(2,1,1)": lambda: YoungFunction.power_log(2, 1, 1),
    "exp_minus_poly(2)": lambda: YoungFunction.exp_minus_poly(2),
    "exp_neg_inv_power(1)": lambda: YoungFunction.exp_neg_inv_power(1),
    "double_exp()": YoungFunction.double_exp,
}


def _conjugate_by_maximization(F, t):
    """sup_tau (tau t - A(tau)) by bounded scalar maximization, bracketed
    by the neighbours of the best point of a log grid (the objective is
    concave, so the bracket holds the maximizer)."""
    tau = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 1801)])
    k = int(np.argmax(tau * t - F.A(tau)))
    lo, hi = tau[max(k - 1, 0)], tau[min(k + 1, tau.size - 1)]
    res = optimize.minimize_scalar(lambda x: F.A(x) - x * t,
                                   bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-15 * hi})
    return -res.fun


@pytest.mark.parametrize("t", [0.3, 1.0, 3.0, 20.0])
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_complementary_matches_bounded_maximization(name, t):
    F = CLOSED_FORMS[name]()
    want = _conjugate_by_maximization(F, t)
    assert complementary_eval(F, t) == pytest.approx(want, rel=1e-13,
                                                     abs=0.0)


def _jump_flat_density(x):
    # a(x) = x below 1, jumps to 2 at x = 1, stays at 2 up to x = 2 and
    # equals x beyond
    return x if x < 1.0 else max(x, 2.0)


def _jump_flat_conjugate(t):
    # inverse density t, then 1 on the jump (1, 2], then t
    if t <= 1.0:
        return 0.5 * t * t
    return t - 0.5 if t <= 2.0 else 0.5 * t * t - 0.5


def test_complementary_of_density_with_jump_and_flat():
    F = YoungFunction.custom(_jump_flat_density)
    # Young's equality s t = A(s) + A*(t) wherever t is in [a(s-), a(s)]:
    # on either side of the jump, along it (s = 1) and on the flat (t = 2)
    s = np.concatenate([np.linspace(0.05, 3.0, 40), np.ones(9),
                        np.linspace(1.0, 2.0, 9)])
    t = np.concatenate([[_jump_flat_density(x) for x in s[:40]],
                        np.linspace(1.0, 2.0, 9), np.full(9, 2.0)])
    conj = np.array([complementary_eval(F, x) for x in t])
    np.testing.assert_allclose(conj, [_jump_flat_conjugate(x) for x in t],
                               rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(F.A(s) + conj, s * t, rtol=1e-13, atol=1e-15)
    # Young's inequality on a random grid
    rng = np.random.default_rng(11)
    s, t = rng.uniform(0.0, 4.0, (2, 60))
    conj = np.array([complementary_eval(F, x) for x in t])
    gap = F.A(s)[:, None] + conj[None, :] - s[:, None] * t[None, :]
    assert gap.min() >= -1e-13


def test_complementary_beyond_range_raises():
    F = YoungFunction.power(2)  # a(x) = 2x, so a_inv(t) = t/2
    with pytest.raises(BracketRangeError):
        complementary_eval(F, 1e300)
    with pytest.raises(BracketRangeError):
        F.a_inv(np.array([1.0, 1e-300]))


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_inverse_density_on_arrays(name):
    F = CLOSED_FORMS[name]()
    x = np.geomspace(0.05, 5.0, 41)
    s = F.a(x)
    inv = F.a_inv(s)
    assert np.array_equal(inv, [F.a_inv(v) for v in s])
    np.testing.assert_allclose(inv, x, rtol=1e-13, atol=0.0)
    assert np.array_equal(F.a_inv(s.reshape(41, 1)), inv.reshape(41, 1))
    assert F.a_inv(0.0) == 0.0 and F.a_inv(-1.0) == 0.0


# -- modular and Luxemburg norm ---------------------------------------------

def test_modular_constant_field():
    m = Mesh.interval(1.0, 100)
    u = m.field(np.ones(m.interior_count))
    F = YoungFunction.power(2)
    assert modular(F, u, m) == pytest.approx(1.0, rel=1e-14)


def test_luxemburg_norm_power_scaling():
    # for A = t^p the Luxemburg norm is the L^p norm
    m = Mesh.interval(1.0, 100)
    u = m.field(np.full(m.interior_count, 2.0))
    F = YoungFunction.power(2)
    assert luxemburg_norm(F, u, m) == pytest.approx(2.0, rel=1e-7)


def test_luxemburg_unit_ball():
    m = Mesh.interval(1.0, 100)
    rng = np.random.default_rng(3)
    u = m.field(np.abs(rng.standard_normal(m.interior_count)) + 0.1)
    F = YoungFunction.sum_of_powers(2, 4)
    k = luxemburg_norm(F, u, m)
    assert modular(F, u * (1.0 / k), m) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_luxemburg_norm_puts_modular_on_one(name):
    F = CLOSED_FORMS[name]()
    m = Mesh.interval(1.0, 100)
    rng = np.random.default_rng(5)
    for scale in (0.01, 1.0, 30.0):
        u = m.field(scale * rng.standard_normal(m.interior_count))
        k = luxemburg_norm(F, u, m)
        assert abs(modular(F, u * (1.0 / k), m) - 1.0) <= 1e-12


@pytest.mark.parametrize("p, q", [(2.0, 4.0), (1.5, 2.0)])
def test_power_sum_writes_no_term_that_is_its_input(p, q):
    # the density of t^p/p + t^q/q has a term t^1 (first or second), which
    # the power sum reads as t itself and must not add into
    from orlicz_eigen.young import _ipow
    F = YoungFunction.sum_of_powers(p, q)
    t = np.geomspace(1e-3, 1e3, 301)
    before = t.copy()
    np.testing.assert_array_equal(F.a(t),
                                  _ipow(t, p - 1.0) + _ipow(t, q - 1.0))
    np.testing.assert_array_equal(t, before)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_power_terms_reproduce_A(name):
    F = PINNED[name][0]
    terms = F._moment_terms
    if F.family.value not in ("power", "sum_of_powers"):
        assert terms is None  # exp_minus_poly(2) and the rest: array path
        return
    t = np.geomspace(1e-30, 1e30, 121)
    np.testing.assert_allclose(sum(c * t ** p for p, c in terms), F.A(t),
                               rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS) + ["custom"])
def test_density_derivative_and_exterior_primitive_are_total(name):
    # every family has a' and G(tau) = int_0^tau A(s)/s ds, the power sums
    # in closed form and the others by the central difference and the
    # fixed rule: a' integrates to the increments of a, and G's increments
    # are the integrals of A(s)/s, by Gauss-Legendre on pieces that avoid
    # exp_neg_inv_power's knot at 1/2
    F = (YoungFunction.custom(lambda t: 2.0 * t) if name == "custom"
         else CLOSED_FORMS[name]())
    x, w = np.polynomial.legendre.leggauss(40)
    for lo, hi in [(0.1, 0.45), (0.6, 2.0)]:
        s, ws = lo + (hi - lo) * (x + 1.0) / 2.0, (hi - lo) / 2.0 * w
        assert float(np.dot(ws, F.da(s))) == pytest.approx(
            F.a(hi) - F.a(lo), rel=1e-8)
        G = F.G(np.array([lo, hi]))
        assert G[1] - G[0] == pytest.approx(float(np.dot(ws, F.A(s) / s)),
                                            rel=1e-12)
    # and both stay defined far out: G saturates like A, and a' of a
    # saturated density reads 0 or inf, never NaN
    tau = np.geomspace(1e-6, 1e3, 10)
    G, da = F.G(tau), F.da(tau)
    assert np.all(np.diff(G) >= 0.0) and 0.0 <= G[0] and G[-1] <= SATURATION
    assert da.shape == tau.shape and np.all(da >= 0.0)


@pytest.mark.parametrize("F", [YoungFunction.power(1.5),
                               YoungFunction.power(4),
                               YoungFunction.sum_of_powers(2, 4),
                               YoungFunction.sum_of_powers(1.01, 1e4)],
                         ids=["power1.5", "power4", "sop24", "sop-wide"])
def test_moments_stay_below_saturation(F):
    # below rho_sat the scalar phi neither overflows nor reaches the
    # saturated range, where the moment path evaluates the array instead
    absu = np.array([0.0, 1e-300, 0.5, 1e-20, 3.0])
    w = np.full(absu.size, 0.25)
    phi_at = _Modular(F, absu, w, 3.0)
    rho = F._rho_sat * (1.0 - 1e-15)
    assert F.A(rho) < SATURATION
    phi = phi_at(rho / phi_at.tmax)
    assert not phi_at.on_array and math.isfinite(phi)
    assert phi == pytest.approx(float(np.dot(w, F.A(rho / 3.0 * absu))),
                                rel=1e-12)
    r = F._rho_sat / phi_at.tmax
    assert phi_at(r) == float(np.dot(w, F.A(r * absu)))
    assert phi_at.on_array


def test_missed_moment_check_continues_on_the_array():
    # a density the moments do not describe: the check at the scalar root
    # misses, and the array Newton finds the root of the evaluated A
    F = YoungFunction.sum_of_powers(2, 4)
    closed_A, closed_a = F.A, F.a
    F.A = lambda t: 2.0 * closed_A(t)
    F.a = lambda t: 2.0 * closed_a(t)
    absu = np.abs(np.sin(np.linspace(0.0, 3.0, 50)))
    w = np.full(absu.size, 0.02)
    res = _normalize(F, absu, w, 1.0)
    assert res.phi_value == float(np.dot(w, F.A(res.r_alpha * absu)))
    assert abs(res.phi_value - 1.0) <= 1e-12
    plain = _normalize(YoungFunction.sum_of_powers(2, 4), absu, w, 1.0)
    assert res.r_alpha < plain.r_alpha
    assert res.iterations > plain.iterations


def test_miss_at_the_saturation_radius_continues_on_the_array():
    # moments that read half of the evaluated A below a lowered rho_sat,
    # and alphas between the two sides of it: the first Newton closes its
    # bracket at rho_sat, its last call off the array or on it (both occur
    # over these alphas and starts), and either miss goes on to the
    # array's root below
    F = YoungFunction.sum_of_powers(2, 4)
    closed_A, closed_a = F.A, F.a
    F.A = lambda t: 2.0 * closed_A(t)
    F.a = lambda t: 2.0 * closed_a(t)
    F._rho_sat = 1.0
    absu = np.abs(np.sin(np.linspace(0.0, 3.0, 50)))
    w = np.full(absu.size, 0.02)
    tmax = float(absu.max())
    below = _Modular(F, absu, w, tmax)((1.0 - 1e-15) / tmax)
    last_on_array = set()
    for alpha, r0 in itertools.product(
            (1.2 * below, 1.5 * below, 1.9 * below), (1e-3, 1.0, 1e3)):
        first = _Modular(F, absu, w, tmax)
        r, phi, _ = _newton(first, alpha, r0)
        assert abs(r * tmax - 1.0) <= 1e-15 and abs(phi - alpha) > 1e-2 * alpha
        last_on_array.add(first.on_array)
        res = _normalize(F, absu, w, alpha, r0)
        assert res.phi_value == float(np.dot(w, F.A(res.r_alpha * absu)))
        assert abs(res.phi_value - alpha) <= 1e-12 * alpha
        assert res.r_alpha * tmax < 0.99
    assert last_on_array == {False, True}


# -- doubling diagnostics ---------------------------------------------------

def test_delta2_power():
    rep = delta2_report(YoungFunction.power(2), Endpoint.INFINITY)
    assert rep.holds
    assert rep.p_index == pytest.approx(2.0, abs=1e-10)


def test_delta2_sum_of_powers_index():
    rep = delta2_report(YoungFunction.sum_of_powers(2, 4), Endpoint.INFINITY)
    assert rep.holds
    assert rep.p_index == pytest.approx(4.0, abs=1e-6)


def test_delta2_exp_fails_at_infinity():
    rep = delta2_report(YoungFunction.exp_minus_poly(2), Endpoint.INFINITY)
    assert not rep.holds
    rep0 = delta2_report(YoungFunction.exp_minus_poly(2), Endpoint.ZERO)
    assert rep0.holds


def test_delta2_exp_neg_inv_power_fails_at_zero():
    rep = delta2_report(YoungFunction.exp_neg_inv_power(1), Endpoint.ZERO)
    assert not rep.holds


# (zero, infinity) verdicts.  exp_neg_inv_power(1)'s doubling ratio at
# infinity and power_log(2,1,1)'s at zero rise at every grid point of the
# last two decades, to 4 (the quadratic continuation) and to 8
# (A ~ t^3/2), by increments that shrink: bounded ratios
DELTA2_HOLDS = {
    "power(2)": (YoungFunction.power(2), (True, True)),
    "power(1.5)": (YoungFunction.power(1.5), (True, True)),
    "sum_of_powers(2,4)": (YoungFunction.sum_of_powers(2, 4), (True, True)),
    "exp_minus_poly(2)": (YoungFunction.exp_minus_poly(2), (True, False)),
    "exp_neg_inv_power(1)": (YoungFunction.exp_neg_inv_power(1),
                             (False, True)),
    "power_log(2,1,1)": (YoungFunction.power_log(2, 1, 1), (True, True)),
    "double_exp()": (YoungFunction.double_exp(), (True, False)),
}


@pytest.mark.parametrize("name", sorted(DELTA2_HOLDS))
def test_delta2_verdicts_per_family(name):
    F, holds = DELTA2_HOLDS[name]
    assert tuple(delta2_report(F, ep).holds
                 for ep in (Endpoint.ZERO, Endpoint.INFINITY)) == holds


class _SlowlyUnbounded:
    """A stand-in Young function with log A(t) = 2 log t + (log t)^2 / 20:
    its doubling ratio 4 exp((2 log 2 log t + log^2 2) / 20) grows without
    bound, yet stays below 15 on the grid toward infinity, which spans 8
    decades for a custom family."""

    family, label, knot = Family.CUSTOM, "slowly unbounded", math.inf

    @staticmethod
    def log_A(t):
        x = np.log(t)
        return 2.0 * x + 0.05 * x * x

    def log_a(self, t):
        x = np.log(t)
        return self.log_A(t) + np.log(2.0 + 0.1 * x) - x


def test_delta2_fails_for_an_unbounded_ratio_below_the_threshold():
    # negative control: rising increments read as growth
    rep = delta2_report(_SlowlyUnbounded(), Endpoint.INFINITY)
    assert rep.doubling_sup < 15.0 and not rep.holds
    assert rep.C_constant == math.inf


def test_the_log_of_a_zero_value_is_minus_infinity():
    # the endpoint table reads a log that is not finite as no value; an
    # evaluated A or a of 0 once had the log of a floor of 1e-300, which
    # the table had to find again and throw away
    for F in (YoungFunction.double_exp(),
              YoungFunction.custom(lambda t: 2.0 * t)):
        assert F.log_A(0.0) == F.log_a(0.0) == -math.inf


@pytest.mark.parametrize("alpha", [1e-3, 0.007])
def test_exp_neg_inv_power_with_its_knot_below_the_floor_is_a_config_error(
        capsys, alpha):
    # t0 = (alpha/(alpha+1))^(1/alpha) falls below the 1e-300 floor of A's
    # closed form for alpha below about 0.00716 (to 0 at 1e-3): once a
    # ZeroDivisionError or an OverflowError
    with pytest.raises(ConfigError, match="exp_neg_inv_power with alpha"):
        YoungFunction.exp_neg_inv_power(alpha)
    assert main(["inspect", "--young", json.dumps(
        {"family": "exp_neg_inv_power", "params": {"alpha": alpha}})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exp_neg_inv_power with alpha")
    assert "Traceback" not in err


@pytest.mark.parametrize("alpha", [0.0075, 0.01])
def test_exp_neg_inv_power_continuation_logs_without_overflow(alpha):
    # a(t0) is about 1e156 at alpha = 0.01, so the continuation overflows
    # past the knot; its log, taken in log space, reads t^2 at infinity
    F = YoungFunction.exp_neg_inv_power(alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = matuszewska_exponent(F, Endpoint.INFINITY)
    assert est.regime is Regime.POWER_LIKE
    assert est.exponent == pytest.approx(2.0, abs=1e-2)


@pytest.mark.parametrize("alpha", [0.02, 0.3, 1.0])
def test_exp_neg_inv_power_log_is_the_log_of_each_finite_value(alpha):
    # past the knot, the log-space continuation only replaces values that
    # overflow
    F = YoungFunction.exp_neg_inv_power(alpha)
    t = np.geomspace(F.knot, 1e100, 401)[1:]
    for log, f in ((F.log_A, F.A), (F.log_a, F.a)):
        values = f(t)
        finite = values < SATURATION
        assert finite.sum() > 100
        assert np.array_equal(log(t)[finite], np.log(values[finite]))


@pytest.mark.parametrize("alpha,regime", [
    (0.01, "oscillating"), (0.02, "trivial_degenerate"),
    (0.03, "trivial_degenerate"), (0.05, "trivial_degenerate")])
def test_inspect_of_exp_neg_inv_power_of_small_alpha_at_zero(capsys, alpha,
                                                             regime):
    # exp(-t^-alpha) is not doubling at zero and its ratios there vanish or
    # blow up; both grids reach past the knot (3.7e-201 at alpha = 0.01),
    # where t^-alpha has grown past 1/alpha.  Their grids once stopped at
    # 1e-100 and 1e-9, in the quadratic continuation: power_like 1.0 (to
    # alpha = 0.017) or oscillating (to 0.03), and Delta_2 held (to 0.05)
    assert main(["inspect", "--young", json.dumps(
        {"family": "exp_neg_inv_power", "params": {"alpha": alpha}})]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matuszewska"]["zero"]["regime"] == regime
    assert payload["delta2"]["zero"]["holds"] is False
    assert payload["delta2"]["infinity"]["holds"] is True


@pytest.mark.parametrize("alpha", [0.0071606, 0.00717, 0.0072])
def test_exp_neg_inv_power_with_its_knot_near_the_floor_has_no_verdict(
        alpha):
    # the 1e-300 floor comes first: t^-alpha reaches only 10^(300 alpha),
    # about 140, at the deepest tau.  At 0.0071606 (knot 1.01e-300) the
    # grid's last decade lies past the knot, where the continuation once
    # read power_like 1.0: now each such sample has no value
    F = YoungFunction.exp_neg_inv_power(alpha)
    est = matuszewska_exponent(F, Endpoint.ZERO)
    assert est.regime is Regime.OSCILLATING and math.isnan(est.exponent)
    if 80.0 * est.tau_grid[-1] > F.knot:
        assert all(math.isnan(v) for _, v in est.samples)
    assert not delta2_report(F, Endpoint.ZERO).holds


@pytest.mark.parametrize("alpha", [3.3, 5.0, 10.0, 100.0])
def test_inspect_of_exp_neg_inv_power_of_large_alpha_gives_a_verdict(
        capsys, alpha):
    # A(1e-9) = exp(-1e9 alpha) is far below the double range, but its log
    # is exact, so the Delta_2 grid keeps every point past the knot: the
    # ratios diverge and Delta_2 fails at zero.  Keeping only log A > -700
    # leaves fewer than 8 points from alpha = 3.3 on
    assert main(["inspect", "--young", json.dumps(
        {"family": "exp_neg_inv_power", "params": {"alpha": alpha}})]) == 0
    zero = json.loads(capsys.readouterr().out)["delta2"]["zero"]
    assert zero["holds"] is False and zero["p_index"] == math.inf


@pytest.mark.parametrize("alpha", [400.0, 1000.0])
def test_inspect_without_enough_points_for_a_verdict_exits_2(capsys, alpha):
    # log A = -t^-alpha overflows below t = exp(-709.8/alpha), 0.17 at
    # alpha = 400, so under 8 points of the grid are left
    assert main(["inspect", "--young", json.dumps(
        {"family": "exp_neg_inv_power", "params": {"alpha": alpha}})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exp(-t^-") and "Delta_2 verdict" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("F,p", [(YoungFunction.power_log(40, 1, 1), 41.0),
                                 (YoungFunction.power_log(2, 40, 1), 42.0)],
                         ids=lambda x: getattr(x, "label", x))
def test_delta2_index_skips_a_density_at_the_log_floor(F, p):
    # log a of power_log was the log of the evaluated a, clamped at
    # log(1e-300) where a underflows, while log A went on below; t a/A read
    # there is about e^700, so the index at zero would be infinite instead
    # of near p + alpha r.  Both are taken in log space now.  The doubling
    # ratio tends to 2^p: bounded however large, so Delta_2 holds
    rep = delta2_report(F, Endpoint.ZERO)
    assert rep.holds and rep.p_index == pytest.approx(p, rel=1e-6)


def test_index_inequality_a_t_vs_A():
    # A(t) <= a(t) t <= p A(t) over a broad grid
    F = YoungFunction.sum_of_powers(2, 4)
    p = delta2_report(F, Endpoint.INFINITY).p_index
    t = np.geomspace(1e-4, 1e4, 200)
    ratio = F.a(t) * t / F.A(t)
    assert np.all(ratio >= 1.0 - 1e-10)
    assert np.all(ratio <= p * (1.0 + 1e-10))


# -- Matuszewska-Orlicz -----------------------------------------------------

def test_matuszewska_power():
    est = matuszewska_exponent(YoungFunction.power(3), Endpoint.INFINITY)
    assert dict(est.samples)[2.0] == pytest.approx(8.0, rel=1e-6)


def test_matuszewska_exponents_sum_of_powers():
    F = YoungFunction.sum_of_powers(2, 4)
    est0 = matuszewska_exponent(F, Endpoint.ZERO)
    est1 = matuszewska_exponent(F, Endpoint.INFINITY)
    assert est0.regime is Regime.POWER_LIKE
    assert est1.regime is Regime.POWER_LIKE
    assert est0.exponent == pytest.approx(2.0, abs=1e-2)
    assert est1.exponent == pytest.approx(4.0, abs=1e-2)


def test_matuszewska_power_log():
    F = YoungFunction.power_log(2, 1, 1)
    est0 = matuszewska_exponent(F, Endpoint.ZERO)
    est1 = matuszewska_exponent(F, Endpoint.INFINITY)
    assert est0.exponent == pytest.approx(3.0, abs=1e-2)  # p + r alpha
    assert est1.exponent == pytest.approx(2.0, abs=1e-2)  # p
    assert est0.regime is Regime.POWER_LIKE


def test_matuszewska_degenerate_families():
    assert matuszewska_exponent(YoungFunction.exp_minus_poly(2),
                                Endpoint.INFINITY).regime \
        is Regime.TRIVIAL_DEGENERATE
    assert matuszewska_exponent(YoungFunction.double_exp(),
                                Endpoint.INFINITY).regime \
        is Regime.TRIVIAL_DEGENERATE
    assert matuszewska_exponent(YoungFunction.exp_neg_inv_power(1),
                                Endpoint.ZERO).regime \
        is Regime.TRIVIAL_DEGENERATE


@pytest.mark.parametrize("make", [
    lambda: YoungFunction.sum_of_powers(2, 4),
    lambda: YoungFunction.power_log(2, 1, 1),
    lambda: YoungFunction.exp_minus_poly(2),
    lambda: YoungFunction.exp_neg_inv_power(0.3),
    lambda: YoungFunction.double_exp(),
    lambda: YoungFunction.custom(lambda x: x * (1.0 + np.log1p(x)))],
    ids=["sum_of_powers", "power_log", "exp_minus_poly", "exp_neg_inv_power",
         "double_exp", "custom"])
@pytest.mark.parametrize("endpoint", list(Endpoint))
def test_matuszewska_exponent_evaluates_the_base_once(monkeypatch, make,
                                                      endpoint):
    # one table of 12 log A(tau t), one log A(tau) and one log a(tau): 13
    # evaluations of log A, not 24, and the same samples, bit for bit, from
    # a fresh instance (a custom family's primitive cache fills in the
    # same order)
    est = matuszewska_exponent(make(), endpoint)
    calls = {"log_A": 0, "log_a": 0}
    for name in calls:
        def counted(self, t, name=name, f=getattr(YoungFunction, name)):
            calls[name] += 1
            return f(self, t)
        monkeypatch.setattr(YoungFunction, name, counted)
    again = matuszewska_exponent(make(), endpoint)
    assert calls == {"log_A": 13, "log_a": 1}
    assert np.array_equal(again.samples, est.samples, equal_nan=True)
    assert np.array_equal(again.tau_grid, est.tau_grid)


def test_exp_minus_poly_zero_exponent():
    # near zero the tail series starts at t^n
    est = matuszewska_exponent(YoungFunction.exp_minus_poly(2), Endpoint.ZERO)
    assert est.exponent == pytest.approx(2.0, abs=1e-2)


# -- one endpoint table ------------------------------------------------------

STEEP = ([(YoungFunction.power(p), ep, p) for p in (7.0, 10.0, 19.0, 21.0, 100.0)
          for ep in Endpoint]
         + [(YoungFunction.sum_of_powers(1.2, 7), Endpoint.INFINITY, 7.0),
            (YoungFunction.power_log(40, 1, 1), Endpoint.ZERO, 41.0)])


@pytest.mark.parametrize("F,endpoint,p", STEEP,
                         ids=[f"{F.label}-{ep.value}" for F, ep, _ in STEEP])
def test_a_steep_endpoint_is_power_like_and_doubling(F, endpoint, p):
    # 8^p passes DIVERGENCE_THRESHOLD from p = 6.65 on, and 2^p from
    # p = 19.93: a ratio is judged by its growth, not its size
    est = matuszewska_exponent(F, endpoint)
    assert est.regime is Regime.POWER_LIKE
    assert est.exponent == pytest.approx(p, rel=1e-6)
    assert delta2_report(F, endpoint).holds


@pytest.mark.parametrize("n", range(2, 9))
def test_exp_minus_poly_is_power_like_at_zero(n):
    # log A = n log t - log n! + log of the series' factor where t^n/n!
    # underflows; the log of the value itself read -inf there (n >= 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = matuszewska_exponent(YoungFunction.exp_minus_poly(n),
                                   Endpoint.ZERO)
    assert est.regime is Regime.POWER_LIKE
    assert abs(est.exponent - n) <= 1e-12


def _geometric(lo, hi, per_decade):
    """lo, lo 10^(1/per_decade), ... up to hi, by the stdlib."""
    count = int(per_decade * math.log10(hi / lo) + 1e-9) + 1
    return [lo * 10.0 ** (k / per_decade) for k in range(count)]


def _spaced(lo, hi, count):
    return [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]


# every built-in family across its accepted parameters
WALK = ([("power", {"p": p}) for p in _geometric(1.05, 200.0, 4)]
        + [("sum_of_powers", {"p": p, "q": q})
           for p in _spaced(1.05, 20.0, 6) for q in _spaced(1.2, 60.0, 6)
           if p < q]
        + [("power_log", {"p": p, "alpha": al, "r": r})
           for p in (1.1, 2.0, 10.0, 40.0) for al in (0.0, 0.25, 0.5, 1.0, 5.0)
           for r in (0.5, 1.0, 2.0, 10.0)]
        + [("exp_minus_poly", {"n": n}) for n in range(2, 13)]
        + [("exp_neg_inv_power", {"alpha": al})
           for al in _geometric(0.0072, 1000.0, 4)]
        + [("double_exp", {})])


# and further: Power up to p = 590 (from p = 333 its ratio 8^p settles past
# the double range); sum_of_powers up to q = 600; and power_log at
# alpha = 40, and at r = 0.1, whose doubling ratio converges like t^0.1,
# which the two-decade growth rule of Delta_2 alone reads as growth
WIDE_WALK = (WALK + [("power", {"p": p})
                     for p in _geometric(1.05, 1000.0, 4) if p > 200.0]
             + [("sum_of_powers", {"p": p, "q": q})
                for p in _spaced(1.05, 20.0, 6)
                for q in _spaced(1.2, 600.0, 8)[1:] if p < q]
             + [("power_log", {"p": p, "alpha": al, "r": r})
                for p in (1.1, 2.0, 10.0, 40.0)
                for al in (0.0, 0.25, 0.5, 1.0, 5.0, 40.0)
                for r in (0.1, 0.5, 1.0, 2.0, 10.0) if al == 40.0 or r == 0.1])


def _ids(cases):
    return [f"{f}({','.join(f'{v:.4g}' for v in p.values())})"
            for f, p in cases]


@pytest.mark.parametrize("family,params", WIDE_WALK, ids=_ids(WIDE_WALK))
def test_inspect_walk_gives_verdicts_that_agree(capsys, family, params):
    # exit 0 without a warning, with power_like only where Delta_2 holds
    # and trivial_degenerate only where it fails; or exit 2 with a message
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["inspect", "--young", json.dumps(
            {"family": family, "params": params})])
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    if code == 2:
        assert err.startswith("error: ") and "Traceback" not in err
        return
    assert code == 0
    payload = json.loads(out)
    for ep in ("zero", "infinity"):
        regime = payload["matuszewska"][ep]["regime"]
        holds = payload["delta2"][ep]["holds"]
        assert regime != "power_like" or holds, ep
        assert regime != "trivial_degenerate" or not holds, ep


@pytest.mark.parametrize("family,params", WALK, ids=_ids(WALK))
def test_density_is_the_derivative_of_A(family, params):
    # a against a central difference of A of relative step 1e-5 / k, k the
    # local index t a/A, wherever A is a normal float below SATURATION/1e6
    # (power_log raised ln(1 + t^r) to max(alpha - 1, 0), not alpha - 1)
    F = YoungFunction(family, params)
    t = np.geomspace(1e-299, 1e300, 20001)  # above the floor of 1e-300
    if math.isfinite(F.knot):  # A'' jumps there
        t = t[np.abs(np.log(t) - math.log(F.knot)) > 1e-3]
    A, a = F.A(t), F.a(t)
    ok = (A > np.finfo(float).tiny) & (A < SATURATION / 1e6)
    t, A, a = t[ok], A[ok], a[ok]
    h = 1e-5 * A / (t * a)
    hi, lo = t * (1.0 + h), t * (1.0 - h)
    slope = (F.A(hi) - F.A(lo)) / (hi - lo)
    assert t.size >= 50
    np.testing.assert_allclose(a, slope, rtol=1e-7, atol=0.0)


LOGGED = [(f, p) for f, p in WALK if f in ("exp_minus_poly", "power_log")]


@pytest.mark.parametrize("family,params", LOGGED, ids=_ids(LOGGED))
def test_logs_are_the_logs_of_the_values(family, params):
    # log A and log a are taken in log space where A or a underflows, and
    # equal the log of each value above 1e-290 to 1e-13
    F = YoungFunction(family, params)
    t = np.geomspace(1e-300, 1e300, 6001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for log, f in ((F.log_A, F.A), (F.log_a, F.a)):
            values, logs = f(t), log(t)
            ok = (values > 1e-290) & (values < SATURATION)
            np.testing.assert_allclose(logs[ok], np.log(values[ok]),
                                       rtol=1e-13, atol=1e-13)
