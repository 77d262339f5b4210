"""Young functions and the scalar calculus built on them.

A Young function A is the primitive of a nondecreasing density a with
a(0) = 0 and a(t) -> infinity.  This module evaluates A, a, a' (``da``),
G(t) = int_0^t A(s)/s ds (``G``), the density's generalized inverse, the
complementary function, modulars, the normalization radius (and the
Luxemburg norm), Delta_2 diagnostics and the Matuszewska-Orlicz exponents;
the README's component table lists how.  Each closed-form family is one
row of ``_SPECS``.  Power and SumOfPowers are one power sum
A(t) = sum_k t^p_k / d_k, from whose terms everything above follows in
closed form.  Exponential families saturate at ``SATURATION``, and
endpoint ratios are formed in log space.
"""

import bisect
import enum
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BracketRangeError, ConfigError, ZeroDenominatorError
from .mesh import _conform

__all__ = [
    "SATURATION", "DIVERGENCE_THRESHOLD", "VANISHING_THRESHOLD",
    "Family", "Endpoint", "Regime", "YoungFunction",
    "Delta2Report", "MatuszewskaEstimate",
    "complementary_eval", "complementary_function",
    "modular", "luxemburg_norm", "delta2_report",
    "matuszewska_exponent",
]

SATURATION = 1e300
LOG_SATURATION = math.log(SATURATION)

# Regime thresholds of a ratio that has not settled (a settled one is
# power-like however large): it blows up past the first, vanishes below.
DIVERGENCE_THRESHOLD = 1e6
VANISHING_THRESHOLD = 1e-6
_FIT_TOL = 1e-2  # spread of a power-like ratio over its last decade


class Family(str, enum.Enum):
    POWER = "power"
    SUM_OF_POWERS = "sum_of_powers"
    POWER_LOG = "power_log"
    EXP_MINUS_POLY = "exp_minus_poly"
    EXP_NEG_INV_POWER = "exp_neg_inv_power"
    DOUBLE_EXP = "double_exp"
    CUSTOM = "custom"


class Endpoint(str, enum.Enum):
    ZERO = "zero"
    INFINITY = "infinity"


class Regime(str, enum.Enum):
    POWER_LIKE = "power_like"
    TRIVIAL_DEGENERATE = "trivial_degenerate"
    OSCILLATING = "oscillating"


def _ipow(t, e):
    """t ** e, by multiplication when e is a whole number from 1 to 4 (within
    2 ulp of ``pow`` and several times cheaper); may return ``t`` itself."""
    if e == 1.0:
        return t
    if e == 2.0:
        return t * t
    if e == 3.0:
        out = t * t
        out *= t
        return out
    if e == 4.0:
        out = t * t
        out *= out
        return out
    return t ** e


def _saturate(out):
    """Map every non-finite value of ``out`` to SATURATION, then clip it to
    [0, SATURATION], in place: ``out`` is a float array the caller owns."""
    if out.size:
        lo, hi = out.min(), out.max()
        if lo >= 0.0 and hi <= SATURATION:  # NaN fails both tests
            # with a least value of 0, only a -0.0 maps (to +0.0)
            return out if lo > 0.0 else np.maximum(out, 0.0, out=out)
    np.copyto(out, SATURATION, where=out == -np.inf)
    np.fmin(out, SATURATION, out=out)
    np.maximum(out, 0.0, out=out)
    return out


def _exp_tail_factor(ts, n):
    """The factor 1 + t/(n+1) (1 + t/(n+2) (...)) of the series
    sum_{k>=n} t^k/k! = t^n/n! times it, in Horner form, truncated after
    the first term below 2^-60 at the largest |t| of ``ts``."""
    tmax = float(np.max(np.abs(ts), initial=0.0))
    last, term = n, 1.0
    while term > 2.0 ** -60 and last < 3 * n + 40:
        last += 1
        term *= tmax / last
    acc = np.ones_like(ts)
    for k in range(last, n, -1):
        acc *= ts
        acc /= k
        acc += 1.0
    return acc


def _exp_tail(t, n):
    """e^t minus its Taylor polynomial of degree n-1, to a few ulp.

    Below t = n, where that difference cancels, it is the series
    sum_{k>=n} t^k/k! (:func:`_exp_tail_factor`), run on that subset only;
    from t = n on, expm1(t) minus the terms of degree 1..n-1, capped at
    SATURATION.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < n
    ts = t[small]
    acc = _exp_tail_factor(ts, n)
    acc *= ts ** n / math.factorial(n)
    out[small] = acc
    big = ~small
    tl = t[big]
    term = np.ones_like(tl)
    poly = np.zeros_like(tl)
    for k in range(1, n):
        term = term * tl / k
        poly += term
    with np.errstate(over="ignore", invalid="ignore"):
        out[big] = np.minimum(np.expm1(tl) - poly, SATURATION)
    return out


def _log_exp_tail(t, n):
    """log of _exp_tail: below t = n, n log t - log n! plus the log of
    :func:`_exp_tail_factor`, so no t^n/n! underflows; from t = n on,
    t + log(1 - poly e^-t), where the correction is at most about 1/2."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < n
    ts, tb = t[small], t[~small]
    corr = np.zeros_like(tb)
    for k in range(n):
        corr += np.exp(k * np.log(tb) - math.lgamma(k + 1) - tb)
    out[~small] = tb + np.log1p(-corr)
    with np.errstate(divide="ignore"):
        out[small] = (n * np.log(ts) - math.lgamma(n + 1)
                      + np.log(_exp_tail_factor(ts, n)))
    return out


_SQUARED = (2.0, 3.0, 4.0)  # the exponents _ipow forms from t*t


def _power_sum(t, terms):
    """sum_k c_k t^e_k / d_k over the (e_k, c_k, d_k) of ``terms``, added
    from the first term on, bit for bit as _ipow(t, e) times c over d: a
    constant term (e = 0) adds c/d, since pow(x, 0) is 1 for every x; a d
    that is a power of two is a product by 1/d, which is exact; and two
    terms of exponents 2 to 4 share one t*t, which the second takes in
    place unless the first is that square.  No c or d of 1 makes a pass,
    and no pass writes into ``t``, or into the square while a term to come
    reads it."""
    sq = (t * t if len(terms) == 2 and terms[0][0] in _SQUARED
          and terms[1][0] in _SQUARED else None)
    out = None
    for e, c, d in terms:
        if e == 0.0:
            x = c / d
        else:
            if sq is None or e not in _SQUARED:
                x = _ipow(t, e)
            elif e == 2.0:
                x = sq
            else:
                x = np.multiply(sq, t if e == 3.0 else sq, out=None if (
                    out is None or out is sq) else sq)
            own = x is not t and (x is not sq or out is not None)
            if c != 1.0:
                x, own = np.multiply(c, x, out=x if own else None), True
            if d != 1.0:
                x = (np.multiply(x, 1.0 / d, out=x if own else None)
                     if math.frexp(d)[0] == 0.5
                     else np.divide(x, d, out=x if own else None))
        if out is None:
            out = x
        else:
            out = np.add(out, x, out=(
                out if type(out) is np.ndarray and out is not t else
                x if type(x) is np.ndarray and x is not t else None))
    return out if type(out) is np.ndarray else np.full_like(t, out)


def _log_power_sum(logt, terms):
    """log of :func:`_power_sum` from log t, by logaddexp over the terms."""
    out = None
    for e, c, d in terms:
        x = e * logt
        if c != 1.0:
            x = x + math.log(c)
        if d != 1.0:
            x = x - math.log(d)
        out = x if out is None else np.logaddexp(out, x)
    return out


class _Spec(NamedTuple):
    """One closed-form family: its parameters as (name, kind) in constructor
    order, the test ``fails(params)`` of its hypotheses with the ConfigError
    ``message`` when it holds, its default ``label(params)`` and, for the
    power sums A(t) = sum_k t^p_k / d_k, ``terms(params)`` = [(p_k, d_k)]."""
    params: tuple
    fails: Callable
    message: str
    label: Callable
    terms: Optional[Callable] = None


_SPECS = {
    Family.POWER: _Spec(
        (("p", float),), lambda p: p["p"] <= 1, "power family needs p > 1",
        lambda p: f"t^{p['p']}", lambda p: [(p["p"], 1.0)]),
    Family.SUM_OF_POWERS: _Spec(
        (("p", float), ("q", float)), lambda p: not 1 < p["p"] < p["q"],
        "sum_of_powers needs 1 < p < q",
        lambda p: f"t^{p['p']}/{p['p']} + t^{p['q']}/{p['q']}",
        lambda p: [(p["p"], p["p"]), (p["q"], p["q"])]),
    Family.POWER_LOG: _Spec(
        (("p", float), ("alpha", float), ("r", float)),
        lambda p: p["p"] <= 1 or p["alpha"] < 0 or p["r"] <= 0,
        "power_log needs p > 1, alpha >= 0, r > 0",
        lambda p: f"(t^{p['p']}/{p['p']}) ln^{p['alpha']}(1+t^{p['r']})"),
    # n = 1 would give a(0) = 1, breaking the Young normalization
    Family.EXP_MINUS_POLY: _Spec(
        (("n", int),), lambda p: p["n"] < 2, "exp_minus_poly needs n >= 2",
        lambda p: f"e^t - T_{p['n'] - 1}(t)"),
    Family.EXP_NEG_INV_POWER: _Spec(
        (("alpha", float),), lambda p: p["alpha"] <= 0,
        "exp_neg_inv_power needs alpha > 0",
        lambda p: f"exp(-t^-{p['alpha']})"),
    Family.DOUBLE_EXP: _Spec(
        (), lambda p: False, "", lambda p: "e^(e^t) - e - e t"),
}


@dataclass
class YoungFunction:
    """A Young function with its density, evaluated in closed form per family.

    ``a``, ``A`` and ``a_inv`` accept scalars or numpy arrays;
    ``log_A``/``log_a`` are used internally whenever endpoint ratios could
    overflow or underflow.  ``knot`` is the point where A'' jumps
    (exp_neg_inv_power's hand-over to its quadratic continuation), and
    infinite for every other family.
    """

    family: Family
    params: dict = field(default_factory=dict)
    custom_density: Optional[Callable] = None
    label: str = ""

    def __post_init__(self):
        self.family = Family(self.family)
        spec = _SPECS.get(self.family)
        if spec is None:  # the custom family
            if self.custom_density is None:
                raise ConfigError("custom family needs a density callable")
            self._anchors = {0.0: 0.0}  # primitive cache: t -> A(t)
            self._keys = [0.0]  # its keys, sorted
        else:  # the table's names and kinds, then the hypotheses
            given, fam = dict(self.params), self.family.value
            try:
                raw = [(name, kind, float(given.pop(name)))
                       for name, kind in spec.params]
            except KeyError as exc:
                raise ConfigError(f"missing parameter {exc} for family "
                                  f"{fam!r}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"non-numeric parameter for family "
                                  f"{fam!r}: {exc}") from exc
            for name, kind, x in raw:  # a finite float, or a whole int
                if not (math.isfinite(x) and kind(x) == x):
                    raise ConfigError(f"parameter {name!r} for family {fam!r} "
                                      f"must be a finite {kind.__name__}, "
                                      f"got {x!r}")
            self.params = {name: kind(x) for name, kind, x in raw}
            if spec.fails(self.params):
                raise ConfigError(spec.message)
            if given:
                raise ConfigError(f"unknown parameter {sorted(given)[0]!r} "
                                  f"for family {fam!r}")
        p = self.params
        self.label = self.label or (spec.label(p) if spec else "custom")
        # (exponent, factor, divisor) of each term of A, of a, of a' and of
        # the primitive G(t) = int_0^t A(s)/s ds of a power sum
        terms = spec.terms(p) if spec and spec.terms else None
        self._sums = None if terms is None else {
            "A": [(q, 1.0, d) for q, d in terms],
            "a": [(q - 1.0, q / d, 1.0) for q, d in terms],
            "da": [(q - 2.0, q * (q - 1.0) / d, 1.0) for q, d in terms],
            "G": [(q, 1.0, d * q) for q, d in terms]}
        # what the normalization's moment path needs of A alone, once:
        # (p_k, c_k) with A(t) = sum_k c_k t^p_k, and its rho_sat; None for
        # every family but the power sums
        self._moment_terms = self._rho_sat = None
        if terms is not None:
            self._moment_terms = tuple((q, 1.0 / d) for q, d in terms)
            self._rho_sat = _saturation_radius(self._moment_terms)
        self.knot = math.inf
        if self.family is Family.EXP_NEG_INV_POWER:
            al = p["alpha"]
            self.knot = t0 = (al / (al + 1.0)) ** (1.0 / al)
            if t0 < 1e-300:  # the floor _enip_A and _log clamp t to
                raise ConfigError(f"exp_neg_inv_power with alpha = {al!r} "
                                  f"has its knot {t0!r} below 1e-300")
            self._A0 = math.exp(-t0 ** (-al))  # A and a at the knot
            self._a0 = al * t0 ** (-al - 1.0) * self._A0

    # -- constructors ------------------------------------------------------

    @classmethod
    def _build(cls, family, *values):
        """The family with its parameters given in table order."""
        return cls(family, {name: v for (name, _), v
                            in zip(_SPECS[family].params, values)})

    @classmethod
    def power(cls, p):
        """A(t) = t^p for p > 1."""
        return cls._build(Family.POWER, p)

    @classmethod
    def sum_of_powers(cls, p, q):
        """A(t) = t^p/p + t^q/q, the (p,q)-Laplacian profile."""
        return cls._build(Family.SUM_OF_POWERS, p, q)

    @classmethod
    def power_log(cls, p, alpha, r):
        """A(t) = (t^p/p) * ln^alpha(1 + t^r)."""
        return cls._build(Family.POWER_LOG, p, alpha, r)

    @classmethod
    def exp_minus_poly(cls, n):
        """A(t) = e^t minus its Taylor polynomial of degree n-1."""
        return cls._build(Family.EXP_MINUS_POLY, n)

    @classmethod
    def exp_neg_inv_power(cls, alpha):
        """A(t) = exp(-t^-alpha) near zero, continued quadratically beyond
        the point where the closed-form density stops being monotone."""
        return cls._build(Family.EXP_NEG_INV_POWER, alpha)

    @classmethod
    def double_exp(cls):
        """A(t) = e^(e^t) - e - e t, doubly exponential at infinity."""
        return cls._build(Family.DOUBLE_EXP)

    @classmethod
    def custom(cls, density, label="custom"):
        """Build from a density callable; the primitive is integrated
        adaptively and cached."""
        return cls(Family.CUSTOM, {}, custom_density=density, label=label)

    @classmethod
    def from_config(cls, cfg):
        """Build from a ``{"family": name, "params": {...}}`` mapping."""
        if not isinstance(cfg, dict):
            raise ConfigError("young-function config must be a mapping")
        extra = set(cfg) - {"family", "params"}
        if extra:
            raise ConfigError(
                f"unknown key in young-function config: {sorted(extra)[0]!r}")
        try:
            fam = Family(cfg["family"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad young-function family: {exc}") from exc
        if fam not in _SPECS:
            raise ConfigError("custom families cannot be built from config")
        return cls(fam, cfg.get("params", {}))

    # -- evaluation --------------------------------------------------------

    def a(self, t):
        """Density value(s) a(t)."""
        t = np.asarray(t, dtype=float)
        if t.ndim:
            return self._a_impl(t)
        return float(self._a_impl(t.reshape(1))[0])

    def A(self, t):
        """Primitive value(s) A(t), saturating at SATURATION on overflow."""
        t = np.asarray(t, dtype=float)
        if t.ndim:
            return self._A_impl(t)
        return float(self._A_impl(t.reshape(1))[0])

    def log_A(self, t):
        """log A(t), computed without forming A where it would overflow."""
        return self._log(t, density=False)

    def log_a(self, t):
        """log a(t), likewise."""
        return self._log(t, density=True)

    def da(self, t):
        """a'(t) at an array t > 0 of rank 1 or more: a power sum's closed
        form (inf where it overflows), else :func:`_derivative`."""
        if self._sums is None:
            return _derivative(self.a, t)
        with np.errstate(over="ignore", divide="ignore"):
            return _power_sum(np.asarray(t, dtype=float), self._sums["da"])

    def G(self, tau):
        """G(tau) = int_0^tau A(s)/s ds at an array tau of rank 1 or more,
        saturating like A: a power sum's closed form, else
        :func:`_primitive_by_rule`."""
        with np.errstate(over="ignore"):
            G = (_primitive_by_rule(self, tau) if self._sums is None else
                 _power_sum(np.asarray(tau, dtype=float), self._sums["G"]))
        return np.minimum(G, SATURATION)

    def _A_impl(self, t):
        fam, p = self.family, self.params
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self._sums is not None:
                out = _power_sum(t, self._sums["A"])
            elif fam is Family.POWER_LOG:
                out = _ipow(t, p["p"]) / p["p"] * self._power_log_parts(t)[2]
            elif fam is Family.EXP_MINUS_POLY:
                out = _exp_tail(t, p["n"])
            elif fam is Family.EXP_NEG_INV_POWER:
                out = self._enip_A(t)
            elif fam is Family.DOUBLE_EXP:
                # e (expm1(y) - t) with y = expm1(t), as two exp tails
                # e^x - 1 - x, so nothing cancels at small t
                t = np.minimum(t, 700.0)
                y = np.expm1(t)
                out = math.e * (_exp_tail(t, 2)
                                + _exp_tail(np.minimum(y, 700.0), 2))
            else:
                out = np.array([self._custom_A_scalar(x)
                                for x in t.ravel()]).reshape(t.shape)
        return _saturate(out)

    def _a_impl(self, t):
        fam, p = self.family, self.params
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self._sums is not None:
                out = _power_sum(t, self._sums["a"])
            elif fam is Family.POWER_LOG:
                out = self._power_log_a(t)
            elif fam is Family.EXP_MINUS_POLY:
                out = _exp_tail(t, p["n"] - 1)
            elif fam is Family.EXP_NEG_INV_POWER:
                out = self._enip_a(t)
            elif fam is Family.DOUBLE_EXP:
                out = math.e * np.expm1(np.minimum(t + np.expm1(t), 700.0))
            else:
                out = np.array([float(self.custom_density(x))
                                for x in t.ravel()]).reshape(t.shape)
        return _saturate(out)

    def _log(self, t, density):
        """log a(t) if ``density``, else log A(t), from the asymptotics of
        each family where the value itself would overflow."""
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return float(self._log(t.reshape(1), density)[0])
        fam, p = self.family, self.params
        exact = self._a_impl if density else self._A_impl
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logt = np.log(t)
            if self._sums is not None:
                return _log_power_sum(logt, self._sums["a" if density
                                                       else "A"])
            if fam is Family.POWER_LOG:
                # log L for L = ln(1 + e^x), x = r log t: log x above
                # x = 30, x below -30, where e^x underflows first
                pp, al, x = p["p"], p["alpha"], p["r"] * logt
                logL = np.where(x > 30.0, np.log(np.maximum(x, 1e-300)),
                                np.where(x < -30.0, x, np.log(np.log1p(
                                    np.exp(np.clip(x, -30.0, 30.0))))))
                if not density:
                    return pp * logt - math.log(pp) + al * logL
                # a = t^(p-1) L^alpha (1 + (alpha r/p) e^x / ((1 + e^x) L))
                return ((pp - 1.0) * logt + al * logL + np.log1p(
                    al * p["r"] / pp
                    * np.exp(x - np.logaddexp(0.0, x) - logL)))
            if fam is Family.EXP_MINUS_POLY:
                return _log_exp_tail(t, p["n"] - 1 if density else p["n"])
            if fam is Family.EXP_NEG_INV_POWER:
                # the closed form up to the knot, the log of the quadratic
                # continuation past it (NaN reads 0), in log space where
                # that overflows: a0 (1 + d) and a0 (A0/a0 + d + d^2/2)
                al = p["alpha"]
                out = -np.power(np.maximum(t, 1e-300), -al)
                if density:
                    out = math.log(al) - (al + 1.0) * logt + out
                out = np.where(t <= self.knot, out, 0.0)
                hi = t > self.knot
                if np.any(hi):
                    tail = np.log((self._enip_a if density
                                   else self._enip_A)(t[hi]))
                    big = np.isinf(tail)
                    d = t[hi][big] - self.knot
                    tail[big] = math.log(self._a0) + np.log(
                        1.0 + d if density
                        else self._A0 / self._a0 + d + 0.5 * d * d)
                    out[hi] = tail
                return out
            if fam is Family.DOUBLE_EXP:
                # log A ~ e^t and log a ~ t + e^t past t = 6
                out = np.empty_like(t)
                big = t > 6.0
                tail = np.exp(np.minimum(t[big], 700.0))
                out[big] = t[big] + tail if density else tail
                out[~big] = np.log(np.maximum(exact(t[~big]), 1e-300))
                return out
            return np.log(np.maximum(exact(t), 1e-300))

    def _power_log_parts(self, t):
        """t^r, L = ln(1 + t^r) (r ln t where t^r overflows) and L^alpha
        (e^(alpha r ln t) where t^r, and so L, is subnormal)."""
        r = self.params["r"]
        rlogt = r * np.log(np.maximum(t, 1e-300))
        tr = np.where(rlogt > 700.0, np.inf, _ipow(t, r))
        L = np.where(np.isinf(tr), r * np.log(t), np.log1p(tr))
        return tr, L, np.where(np.abs(tr) < np.finfo(float).tiny,
                               np.exp(self.params["alpha"] * rlogt),
                               L ** self.params["alpha"])

    def _power_log_a(self, t):
        """A' = t^(p-1) L^alpha (1 + (alpha r/p) q), q = t^r / ((1 + t^r) L)
        (1 where L = 0, 1/L where t^r overflows), L = ln(1 + t^r)."""
        p, al, r = self.params["p"], self.params["alpha"], self.params["r"]
        tr, L, La = self._power_log_parts(t)
        q = np.where(L > 0.0, np.where(np.isinf(tr), 1.0 / L,
                                       tr / ((1.0 + tr) * L)), 1.0)
        return np.where(t > 0, _ipow(t, p - 1.0) * La
                        * (1.0 + al * r / p * q), 0.0)

    def _enip_A(self, t):
        al, t0, a0 = self.params["alpha"], self.knot, self._a0
        lowv = np.exp(-np.power(np.maximum(t, 1e-300), -al))
        d = t - t0
        return np.where(t <= t0, lowv, self._A0 + a0 * d + 0.5 * a0 * d * d)

    def _enip_a(self, t):
        al, t0 = self.params["alpha"], self.knot
        # in log space: t^(-al-1) * exp(-t^-al) is inf * 0 near t = 0
        logt = np.log(t)
        lowv = np.exp(math.log(al) - (al + 1.0) * logt - np.exp(-al * logt))
        lowv[t == 0.0] = 0.0
        return np.where(t <= t0, lowv, self._a0 * (1.0 + (t - t0)))

    def _custom_A_scalar(self, t):
        """Quadrature of the density from the nearest cached anchor."""
        if not 0.0 < t < math.inf:  # nor cached: the keys stay sorted, finite
            return 0.0 if t <= 0.0 else SATURATION if t > 0.0 else math.nan
        lower = self._keys[bisect.bisect_right(self._keys, t) - 1]
        base = self._anchors[lower]
        if lower == t:
            return base
        from scipy import integrate
        inc, _ = integrate.quad(self.custom_density, lower, t,
                                epsabs=1e-14, epsrel=1e-10, limit=200)
        val = base + inc
        if len(self._anchors) < 4096:
            self._anchors[t] = val
            bisect.insort(self._keys, t)
        return val

    # -- generalized inverse ----------------------------------------------

    def a_inv(self, s):
        """Right-continuous generalized inverse of the density,
        inf{x : a(x) >= s}, and 0 where s <= 0.

        At a jump of ``a`` the bisection collapses onto the left endpoint of
        the jump interval.  One bisection in log x runs on all elements at
        once: a bracket grows from x = 1 by the factors 2, 4, 16, ... until
        it holds the root, then shrinks to its geometric mean until its ends
        are adjacent floats; the upper end is returned.  A root outside
        [_MIN_RADIUS, _MAX_RADIUS] raises BracketRangeError.
        """
        s = np.asarray(s, dtype=float)
        target = s.ravel()
        lo = np.zeros_like(target)                   # a(lo) < s, or lo = 0
        hi = np.where(target > 0.0, math.inf, 0.0)  # a(hi) >= s, or hi = inf
        x = np.ones_like(target)
        grow = 2.0
        todo = np.flatnonzero(target > 0.0)
        for _ in range(_MAX_STEPS):
            if todo.size == 0:
                break
            xt = x[todo]
            below = self.a(xt) < target[todo]
            lo[todo] = lt = np.where(below, xt, lo[todo])
            hi[todo] = ht = np.where(below, hi[todo], xt)
            if np.any(lt >= _MAX_RADIUS) or np.any(ht <= _MIN_RADIUS):
                raise BracketRangeError(
                    "inverse density beyond the representable range")
            with np.errstate(over="ignore"):
                xt = np.where(ht == math.inf,
                              np.minimum(lt * grow, _MAX_RADIUS),
                              np.where(lt == 0.0,
                                       np.maximum(ht / grow, _MIN_RADIUS),
                                       np.sqrt(lt) * np.sqrt(ht)))
            grow *= grow
            x[todo] = xt
            todo = todo[(lt < xt) & (xt < ht)]
        return float(hi[0]) if s.ndim == 0 else hi.reshape(s.shape)

    def __repr__(self):
        return f"YoungFunction({self.family.value}, {self.params})"


# -- a' and G without a closed form ----------------------------------------

DIFF_STEP = 1e-5  # relative step of the central difference a'(t)


def _derivative(a, t):
    """a'(t) at t > 0 by the central difference of the density ``a`` over
    t (1 +- DIFF_STEP); an overflow in it gives an inf or a NaN, which the
    caller's checks catch, not a warning."""
    hi, lo = t * (1.0 + DIFF_STEP), t * (1.0 - DIFF_STEP)
    with np.errstate(all="ignore"):
        return (a(hi) - a(lo)) / (hi - lo)


def _tanh_sinh_rule():
    """Tanh-sinh nodes and weights on (0, 1), step 1/16 for |t| <= 3.5.
    They crowd both ends, which resolves the x^{p-1} endpoint at 0 and the
    boundary layer of exponential families at 1: within 1e-13 of quad for
    tau in [2e-3, 40], where a 64-node Gauss rule in x = y^m (m = 2..4)
    missed exp_neg_inv_power(1) by 3e-7 to 2e-3."""
    t = np.arange(-56, 57) / 16.0
    v = 0.5 * math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * v))
    w = math.pi / 64.0 * np.cosh(t) / np.cosh(v) ** 2
    return x, w


_RULE_X, _RULE_W = _tanh_sinh_rule()


def _primitive_by_rule(F, tau):
    """G(tau) = int_0^1 A(tau x)/x dx by the fixed rule, elementwise.
    Past the knot of F, where A'' jumps (exp_neg_inv_power's t0), the
    integral is taken apart, in log t."""
    tau = np.asarray(tau, dtype=float)
    knot = F.knot
    G = F.A(np.minimum(tau, knot)[..., None] * _RULE_X) @ (_RULE_W / _RULE_X)
    hi = tau > knot
    if np.any(hi):
        span = np.log(tau[hi] / knot)
        G[hi] += span * (F.A(knot * np.exp(span[:, None] * _RULE_X))
                         @ _RULE_W)
    return G


# -- report types ----------------------------------------------------------

@dataclass
class Delta2Report:
    endpoint: Endpoint
    holds: bool
    p_index: float              # math.inf when divergent
    threshold: float            # effective T_0 or T_inf used
    doubling_sup: float         # math.inf when divergent
    C_constant: float           # math.inf when the condition fails

    def as_dict(self):
        return asdict(self)


@dataclass
class MatuszewskaEstimate:
    endpoint: Endpoint
    samples: list               # list of (t, estimated value)
    regime: Regime
    exponent: float             # nan outside the power-like regime
    tau_grid: np.ndarray

    def as_dict(self):
        return {
            "endpoint": self.endpoint.value,
            "regime": self.regime.value,
            "exponent": self.exponent,
            "samples": [(t, v) for t, v in self.samples],
        }


# -- operations ------------------------------------------------------------

def complementary_eval(F, t):
    """Complementary (conjugate) value A*(t) = sup_s (s t - A(s)), by
    Young's equality A*(t) = t s - A(s) at s = a_inv(t), which is exact at
    jumps and flats of the density too.  Raises BracketRangeError when t is
    beyond the representable range of the inverse density."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    s = F.a_inv(t)
    return t * s - F.A(s)


def complementary_function(F, label=None):
    """The complementary function as a Young function in its own right
    (custom family with the inverse density)."""
    return YoungFunction.custom(F.a_inv,
                                label=label or f"conjugate of {F.label}")


def modular(F, u, m):
    """Quadrature approximation of the zero-order modular of |u| over m."""
    values = _conform(u, m, finite=True)
    return float(np.dot(m.node_weights, F.A(np.abs(values))))


def luxemburg_norm(F, u, m):
    """Infimal k > 0 with modular(F, u/k, m) <= 1: k = 1/r for the radius r
    with modular(F, r u, m) = 1 (see ``_normalize``)."""
    values = _conform(u, m, finite=True)
    if not np.any(values):
        return 0.0
    return 1.0 / _normalize(F, np.abs(values), m.node_weights, 1.0).r_alpha


# -- normalization ---------------------------------------------------------

_MIN_RADIUS = 1e-280  # representable range of the radius and of a_inv
_MAX_RADIUS = 1e280
_RTOL = 1e-13   # relative accuracy of the radius
_FTOL = 1e-12   # relative accuracy of the achieved modular
_MAX_STEPS = 200  # iteration cap of _normalize and of a_inv


@dataclass
class NormalizationResult:
    r_alpha: float
    phi_value: float
    iterations: int   # evaluations of phi, scalar or array (see _normalize)


def _check_alpha(alpha):
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ConfigError(f"alpha must be finite and positive, got {alpha}")
    if alpha > SATURATION / 1e6:
        raise BracketRangeError(
            f"alpha = {alpha} beyond representable modular range",
            bracket=None)


def _saturation_radius(terms):
    """rho_sat of a Young function A(t) = sum_k c_k t^p_k (``terms``): below
    it every rho^p_k stays under SATURATION and every c_k rho^p_k under
    SATURATION / len(terms), so A(rho) cannot saturate and nothing
    overflows."""
    k = len(terms)
    return min(math.exp((LOG_SATURATION - math.log(max(k * c, 1.0))) / p)
               for p, c in terms)


class _Modular:
    """phi(r) = sum w A(r absu) and its log slope r phi'(r) / phi(r).  For a
    Young function A(t) = sum_k c_k t^p_k (F._moment_terms), ``moments``
    holds c_k M_k with M_k = sum w (absu / tmax)^p_k, each between the
    weight at tmax = max absu and sum w, and phi = sum_k c_k rho^p_k M_k at
    rho = r tmax below F._rho_sat (see :func:`_saturation_radius`).  From
    there on, where A(rho) could saturate, or once ``moments`` is None, each
    call evaluates A on the array, and ``on_array`` says so."""

    def __init__(self, F, absu, w, tmax):
        self.F, self.absu, self.w, self.tmax = F, absu, w, tmax
        self.moments = None
        if F._moment_terms is not None:
            x = absu / tmax
            self.moments = [(p, c * float(np.dot(w, _ipow(x, p))))
                            for p, c in F._moment_terms]

    def __call__(self, r):
        rho = r * self.tmax
        self.on_array = self.moments is None or rho >= self.F._rho_sat
        if self.on_array:
            self.t = r * self.absu
            A = self.F.A(self.t)
            self.phi = float(np.dot(self.w, A))
            self.saturated = A.max() >= SATURATION
            return self.phi
        phi = dphi = 0.0
        for p, cm in self.moments:
            v = cm * rho ** p
            phi += v
            dphi += p * v
        self.phi, self.dphi = phi, dphi
        return phi

    def slope(self):
        """The log slope at the last r, or 0 (no Newton step) where phi is
        0 or A saturates."""
        if not self.on_array:
            return self.dphi / self.phi if self.phi > 0.0 else 0.0
        if not self.phi > 0.0 or self.saturated:
            return 0.0
        with np.errstate(over="ignore"):
            return float(np.dot(self.w, self.F.a(self.t) * self.t)) / self.phi


def _newton(phi_at, alpha, r0):
    """(r, phi(r), evaluations) for phi(r) = alpha, with phi and its log
    slope taken from the evaluator ``phi_at`` (see ``_normalize``); a last
    step below _RTOL is taken off the array, and phi is then that before
    it (the moment path checks the root by one array evaluation)."""
    lo, hi = 0.0, math.inf
    up = down = 2.0
    log_alpha = math.log(alpha)
    r_next = min(max(float(r0), _MIN_RADIUS), _MAX_RADIUS)
    for it in range(1, _MAX_STEPS + 1):
        r = r_next
        phi = phi_at(r)
        if phi < alpha:
            lo = r
        else:
            hi = r
        close = abs(phi - alpha) <= _FTOL * alpha
        # hi stays infinite until phi first reaches alpha
        if hi < math.inf and (hi - lo <= 4.0 * math.ulp(hi)
                              or (close and hi - lo <= _RTOL * hi)):
            break
        s = phi_at.slope()  # = r phi'(r) / phi(r)
        if s > 0.0 and math.isfinite(s):
            step = (log_alpha - math.log(phi)) / s
            if close and abs(step) <= _RTOL:
                r = r if phi_at.on_array else r * math.exp(step)
                break
            r_next = r * math.exp(max(min(step, 700.0), -700.0))
            if lo < r_next < hi and _MIN_RADIUS <= r_next <= _MAX_RADIUS:
                up = down = 2.0
                continue
        if lo > 0.0 and hi < math.inf:
            r_next = math.sqrt(lo) * math.sqrt(hi)
        elif hi < math.inf:
            if hi <= _MIN_RADIUS:
                raise BracketRangeError(
                    "normalization radius fell below the representable range",
                    bracket=(lo, hi))
            r_next, down = max(hi / down, _MIN_RADIUS), down * down
        else:
            if lo >= _MAX_RADIUS:
                raise BracketRangeError(
                    "normalization radius exceeded the representable range",
                    bracket=(lo, hi))
            r_next, up = min(lo * up, _MAX_RADIUS), up * up
    return r, phi, it


def _normalize(F, absu, w, alpha, r0=1.0):
    """Radius r with phi(r) = sum w A(r absu) = alpha, by Newton's method
    on log phi against log r, in a kept bracket of the root, falling back
    to bisection in log r, or to doubling/halving while one side is open.
    For the power families phi is a polynomial in r whose coefficients are
    moments of absu (:class:`_Modular`), checked at the root by one array
    evaluation, which is the ``phi_value`` returned; other families, and
    Newton on from there if that check misses _FTOL, take one F.A a step.
    ``iterations`` counts the evaluations of phi, scalar or array.
    """
    _check_alpha(alpha)
    tmax = float(absu.max(initial=0.0))  # NaN passes, as np.any lets it
    if tmax == 0.0:
        raise ZeroDenominatorError("phi is identically zero for u = 0")
    phi_at = _Modular(F, absu, w, tmax)
    r, phi, steps = _newton(phi_at, alpha, r0)
    if phi_at.moments is not None:
        phi_at.moments = None  # the array from here on
        if not phi_at.on_array:
            phi, steps = phi_at(r), steps + 1
        if abs(phi - alpha) > _FTOL * alpha:
            r, phi, more = _newton(phi_at, alpha, r)
            steps += more
    return NormalizationResult(r_alpha=r, phi_value=phi, iterations=steps)


# -- endpoint diagnostics --------------------------------------------------

# the 12 points t = 2^(k/2), 0 < |k| <= 6, of the Matuszewska-Orlicz limit
# function; the row of t = 2 is the doubling ratio's
_RATIOS = 2.0 ** (np.r_[-6:0, 1:7] / 2.0)
_DOUBLING_ROW = 7
_LOG_CLAMP = math.log(1e-300)  # _log's floor for an evaluated A or a


def _endpoint_table(F, endpoint):
    """The tau grid from 1 toward ``endpoint``, 8 points per decade, and
    the rows log A(tau t) at the 12 t of _RATIOS, log A(tau) and log a(tau),
    NaN where a log is non-finite or at _log's clamp.  The grid spans 100
    decades; 8 for the custom family's quadrature; [1, 250] for double_exp
    at infinity, where log A ~ e^tau stays finite; 299 toward zero for
    exp_neg_inv_power, past its knot to its floor of 1e-300."""
    decades = 100
    if F.family is Family.CUSTOM:
        decades = 8
    elif F.family is Family.EXP_NEG_INV_POWER and endpoint is Endpoint.ZERO:
        decades = 299
    if F.family is Family.DOUBLE_EXP and endpoint is Endpoint.INFINITY:
        tau = np.geomspace(1.0, 250.0, 81)
    else:
        far = decades if endpoint is Endpoint.INFINITY else -decades
        tau = np.geomspace(1.0, 10.0 ** far, 8 * decades + 1)
    rows = np.array([F.log_A(tau * t) for t in _RATIOS]
                    + [F.log_A(tau), F.log_a(tau)])
    rows[~np.isfinite(rows)
         | np.isclose(rows, _LOG_CLAMP, rtol=1e-12, atol=0.0)] = np.nan
    return tau, rows


def delta2_report(F, endpoint):
    """Doubling diagnostics of A toward one endpoint, from the rows t = 2,
    log A and log a of :func:`_endpoint_table` where all three have values
    (ConfigError if fewer than 8 points are left).

    p_index is the sup of tau a(tau)/A(tau) (Infinity past
    DIVERGENCE_THRESHOLD).  The condition holds when the doubling ratio
    A(2 tau)/A(tau) is below SATURATION/10, however large (2^p for t^p),
    and shows no unbounded growth across the last two decades: a rise at
    every step, the last at least half the first (a ratio rising to a
    finite limit, as exp_neg_inv_power's at infinity, rises by shrinking
    steps)."""
    endpoint = Endpoint(endpoint)
    tau, rows = _endpoint_table(F, endpoint)
    rows = rows[[_DOUBLING_ROW, -2, -1]]
    keep = ~np.isnan(rows).any(axis=0)
    if keep.sum() < 8:
        raise ConfigError(f"{F.label}: too few representable points of A "
                          f"toward {endpoint.value} for a Delta_2 verdict")
    ts, (log2A, logA, loga) = tau[keep], rows[:, keep]
    doubling = np.exp(np.minimum(log2A - logA, 700.0))
    doubling_sup = float(np.max(doubling))
    if doubling_sup > SATURATION / 10:
        doubling_sup = math.inf
    ratio = np.exp(np.minimum(np.log(ts) + loga - logA, 700.0))
    p_index = float(np.max(ratio))
    if p_index > DIVERGENCE_THRESHOLD:
        p_index = math.inf

    tail = doubling[np.abs(np.log10(ts)) >= abs(np.log10(ts[-1])) - 2]
    diffs = np.diff(tail)
    monotone_growth = bool(tail.size >= 3
                           and np.all(diffs > 1e-12 * tail[:-1])
                           and diffs[-1] >= 0.5 * diffs[0])
    holds = doubling_sup < math.inf and not monotone_growth
    C = max(2.0, doubling_sup) if holds else math.inf
    return Delta2Report(endpoint=endpoint, holds=holds, p_index=p_index,
                        threshold=float(ts[0]), doubling_sup=doubling_sup,
                        C_constant=C)


def _ratio_regime(t, log_ratio):
    """(value, regime) of the ratio A(tau t)/A(tau) from its logs over the
    last decade: power-like where positive, finite and within _FIT_TOL
    there, however large; else degenerate past DIVERGENCE_THRESHOLD (t > 1)
    or below VANISHING_THRESHOLD (t < 1); else oscillating."""
    vals = np.where(log_ratio > LOG_SATURATION, math.inf,
                    np.exp(np.minimum(log_ratio, LOG_SATURATION)))
    if vals.size >= 3 and np.all(np.isfinite(vals)) and vals.min() > 0.0:
        mid = _median(vals)
        if (vals.max() - vals.min()) / mid <= _FIT_TOL:
            return float(mid), Regime.POWER_LIKE
    if t > 1.0 and vals.max() > DIVERGENCE_THRESHOLD:
        return math.inf, Regime.TRIVIAL_DEGENERATE
    if t < 1.0 and vals.min() < VANISHING_THRESHOLD:
        return 0.0, Regime.TRIVIAL_DEGENERATE
    return math.nan, Regime.OSCILLATING


def _median(x):
    """np.median of a finite 1-D array, bit for bit, without the numpy.ma
    import that np.median makes on its first call."""
    s = np.sort(x)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def matuszewska_exponent(F, endpoint):
    """Fit the endpoint power exponent from the Matuszewska-Orlicz limit
    function, the ratios A(tau t)/A(tau) at the 12 t of _RATIOS, over the
    tau of :func:`_endpoint_table` where all 12 rows and log A(tau) have
    values: power-like with the fitted exponent, degenerate when the ratios
    blow up / vanish, or oscillating (no exponent, no verdict) when they
    neither stabilize nor degenerate, when fewer than 8 points are left,
    or when t times the grid's last decade toward zero passes the knot."""
    endpoint = Endpoint(endpoint)
    tau, rows = _endpoint_table(F, endpoint)
    keep = ~np.isnan(rows[:-1]).any(axis=0)
    ts = tau[keep]
    results = [(t, math.nan, Regime.OSCILLATING) for t in _RATIOS]
    if ts.size >= 8:
        last = np.abs(np.log10(ts)) >= abs(np.log10(ts[-1])) - 1
        log_ratios = rows[:-2, keep][:, last] - rows[-2, keep][last]
        results = [(t, *((math.nan, Regime.OSCILLATING)
                         if endpoint is Endpoint.ZERO
                         and 10 * max(t, 1) * tau[-1] > F.knot
                         else _ratio_regime(t, lr)))
                   for t, lr in zip(_RATIOS, log_ratios)]
    regimes = {r for _, _, r in results}
    regime, exponent = Regime.OSCILLATING, math.nan
    if Regime.TRIVIAL_DEGENERATE in regimes:
        # all blow up or vanish, but for small-|log t| power-like stragglers
        if Regime.OSCILLATING not in regimes:
            regime = Regime.TRIVIAL_DEGENERATE
    elif regimes == {Regime.POWER_LIKE}:
        logt = np.log(_RATIOS)
        values = np.array([v for _, v, _ in results])
        fit = float(np.dot(logt, np.log(values)) / np.dot(logt, logt))
        deviation = np.max(np.abs(values / _RATIOS ** fit - 1.0))
        # validity: samples track a power and respect M(t) <= t below 1
        if (deviation <= 10 * _FIT_TOL and fit >= 1.0 - 10 * _FIT_TOL
                and all(v <= t * (1.0 + 10 * _FIT_TOL)
                        for t, v, _ in results if t < 1.0)):
            regime, exponent = Regime.POWER_LIKE, max(fit, 1.0)
    samples = [(float(t), v) for t, v, _ in results]
    return MatuszewskaEstimate(endpoint, samples, regime, exponent, tau)
