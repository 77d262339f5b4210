"""Parameter sweeps over the normalization level alpha, with numerical
verification of the theory: two-sided bounds under the doubling condition,
the derivative identity dE/dalpha = lambda(alpha), the power-like endpoint
limits of E(alpha)/alpha, and the decay to zero in the non-doubling case.

Each sweep solves the constrained problem once per alpha, warm-starting from
the neighboring minimizers; verification is pure post-processing on the
resulting records.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, GeometryError
from .solver import SolveOptions, solve_E
from .young import (Endpoint, Regime, YoungFunction, delta2_report,
                    matuszewska_exponent)

__all__ = [
    "SweepRecord", "LimitEstimate", "geometric_grid", "run_sweep",
    "CHECKS", "prepare_checks", "check_bounds", "check_derivative",
    "estimate_limits", "check_limits", "check_decay",
    "require_alpha_one", "require_decay_geometry",
]

CHECKS = ("bounds", "derivative", "limits", "decay")


@dataclass
class SweepRecord:
    alpha: float
    energy: float
    quotient: float
    lam: float
    converged: bool
    residual: float
    iterations: int = 0  # of the solve's returned run
    dE_dalpha: float = math.nan
    bounds_ok: dict = None
    u: object = None  # the solve's minimizer, a field on the mesh

    def as_dict(self):
        out = {
            "alpha": self.alpha,
            "energy": self.energy,
            "quotient": self.quotient,
            "lambda": self.lam,
            "dE_dalpha": self.dE_dalpha,
            "converged": self.converged,
            "residual": self.residual,
            "iterations": self.iterations,
        }
        if self.bounds_ok is not None:
            out.update({f"ok_{k}": v for k, v in self.bounds_ok.items()})
        return out


@dataclass
class LimitEstimate:
    endpoint: str
    exponent: float
    extrapolated: float
    reference: float
    relative_gap: float

    def as_dict(self):
        return asdict(self)


def geometric_grid(alpha_min, alpha_max, per_decade):
    """Geometric alpha grid with per_decade points per decade, inclusive,
    and of at least 3 points, for the central differences."""
    if not (math.isfinite(alpha_min) and math.isfinite(alpha_max)
            and 0 < alpha_min < alpha_max):
        raise ConfigError("need finite 0 < alpha_min < alpha_max")
    if per_decade < 3:
        raise ConfigError(
            "need at least 3 points per decade for central differences")
    decades = math.log10(alpha_max / alpha_min)
    n = max(int(round(decades * per_decade)) + 1, 3)
    return np.geomspace(alpha_min, alpha_max, n)


def run_sweep(F, m, alpha_grid, opts=None):
    """One constrained solve per alpha, warm-started along the grid.

    The first alpha runs the default cold solve of ``opts``; each later
    alpha restarts once.  Once two consecutive alphas have converged, the
    start is a prediction along the branch: the shapes of the last two to
    four consecutive converged minimizers, normalized in the
    ``node_weights`` L2 norm, extrapolated by their Lagrange polynomial in
    log alpha (the minimizers form a smooth branch, since dE/dalpha =
    lambda; see :func:`_secant_start`).  Otherwise (fewer than two
    consecutive converged alphas, or a non-finite or all-zero prediction) it
    is the last converged minimizer.  The solver's own normalization
    projection rescales either onto the new constraint.
    dE/dalpha is the central difference over the neighboring samples when
    both converged, else NaN (endpoints included).  Unconverged alphas are
    flagged and the sweep continues.  Each record keeps the iteration count
    and the minimizer ``u`` of the solve's returned run.
    """
    opts = opts or SolveOptions()
    grid = np.sort(np.asarray(alpha_grid, dtype=float))
    records = []
    prev = None
    branch = []  # (log alpha, values): last consecutive converged
    warm_opts = replace(opts, restarts=1)
    for alpha in grid:
        x = math.log(alpha)
        start = _secant_start(branch, x, m) if len(branch) >= 2 else None
        result = solve_E(F, m, float(alpha),
                         opts if prev is None else warm_opts,
                         initial=prev if start is None else start)
        if result.converged:
            prev = result.u
            branch = branch[-3:] + [(x, prev.values)]  # up to four minimizers
        else:
            branch = []
        records.append(SweepRecord(
            alpha=float(alpha), energy=result.energy,
            quotient=result.energy / float(alpha), lam=result.lam,
            converged=result.converged, residual=result.residual,
            iterations=result.iterations, u=result.u))
    for k in range(1, len(records) - 1):
        lo, hi = records[k - 1], records[k + 1]
        if lo.converged and hi.converged:
            records[k].dE_dalpha = ((hi.energy - lo.energy)
                                    / (hi.alpha - lo.alpha))
    return records


def _secant_start(branch, x, m):
    """Extrapolation to log alpha = x of the shapes (unit ``node_weights``
    L2 norm) of the minimizers in ``branch`` by their Lagrange polynomial in
    log alpha, as a field on m; None when two share a log alpha or the
    prediction is not finite or all zero.  The prediction is written as
    y_n + sum_k t_k (y_n - y_k) about the newest shape y_n, with
    t_k = -L_k(x), so with two minimizers it is the linear secant
    y_1 + (x - x_1)/(x_1 - x_0) (y_1 - y_0)."""
    xs = [xk for xk, _ in branch]
    if len(set(xs)) < len(xs):
        return None
    *older, xn = xs
    with np.errstate(all="ignore"):
        *ys, yn = (u / np.sqrt(np.dot(m.node_weights, u * u))
                   for _, u in branch)
        pred = yn
        for k, (xk, yk) in enumerate(zip(older, ys)):
            t = (x - xn) / (xn - xk)
            for j, xj in enumerate(older):
                if j != k:
                    t *= (x - xj) / (xk - xj)
            pred = pred + t * (yn - yk)
    if not (np.all(np.isfinite(pred)) and np.any(pred)):
        return None
    return m.field(pred)


def require_alpha_one(alphas, check):
    """Raise ConfigError unless alpha = 1 is on the grid ``alphas`` (to
    1e-12 in log alpha) or strictly inside it: the ``check`` compares
    against E(1)."""
    logs = np.log(np.asarray(alphas, dtype=float))
    if not (np.abs(logs).min() < 1e-12 or logs.min() < 0.0 < logs.max()):
        raise ConfigError(
            f"{check} need alpha = 1 inside the sweep grid (or on it)")


def _energy_at_one(records, check):
    """E(1) from the converged records: the sample at alpha = 1, else
    log-log interpolation between those bracketing it, else None.  Raises
    ConfigError unless the grid holds alpha = 1 or brackets it."""
    require_alpha_one([r.alpha for r in records], check)
    done = [r for r in records if r.converged]
    logs = np.log([r.alpha for r in done])
    at_one = np.abs(logs) < 1e-12
    if at_one.any():
        return float(done[int(np.argmax(at_one))].energy)
    if not (done and logs.min() < 0.0 < logs.max()):
        return None
    energies = np.log([r.energy for r in done])
    return float(np.exp(np.interp(0.0, logs, energies)))


_SLACK = 1e-9  # relative slack of each bound of check_bounds


def check_bounds(records, p):
    """Per-record evaluation of the three two-sided doubling-condition
    bounds, each to _SLACK relative, against a converged E(1); the overall
    verdict requires one and every converged record to pass.

    The bounds, with E1 = E(1) and q = E(alpha)/alpha:
      energy:    min(a^p, a^(1/p)) E1 <= E(a) <= max(a^p, a^(1/p)) E1
      eigenvalue: (1/p) q <= lambda <= p q
      quotient:  min(a^(p-1), a^(1/p-1)) E1 <= q <= max(...) E1
    """
    if p <= 1.0 or not math.isfinite(p):
        raise ConfigError(f"doubling index p must be finite and > 1, got {p}")
    E1 = _energy_at_one(records, "bounds")
    for r in records if E1 is not None else ():
        a = r.alpha
        lo_E = min(a ** p, a ** (1.0 / p)) * E1
        hi_E = max(a ** p, a ** (1.0 / p)) * E1
        ok_E = lo_E * (1 - _SLACK) <= r.energy <= hi_E * (1 + _SLACK)
        ok_lam = (r.quotient / p * (1 - _SLACK) <= r.lam
                  <= p * r.quotient * (1 + _SLACK))
        lo_q = min(a ** (p - 1.0), a ** (1.0 / p - 1.0)) * E1
        hi_q = max(a ** (p - 1.0), a ** (1.0 / p - 1.0)) * E1
        ok_q = lo_q * (1 - _SLACK) <= r.quotient <= hi_q * (1 + _SLACK)
        r.bounds_ok = {"energy": ok_E, "eigenvalue": ok_lam, "quotient": ok_q}
    checked = [r for r in records if r.converged] if E1 is not None else []
    overall = bool(checked) and all(all(r.bounds_ok.values()) for r in checked)
    return {
        "p": p,
        "energy_at_one": E1,
        "records_checked": len(checked),
        "records_skipped": len(records) - len(checked),
        "overall_pass": overall,
        "failures": [r.alpha for r in checked
                     if not all(r.bounds_ok.values())],
    }


def check_derivative(records):
    """The identity dE/dalpha = lambda on the converged records with a
    central difference: passes when the median relative gap is at most
    2e-2 and every difference lies in [0, 1.05 lambda] (to -1e-12)."""
    mid = [r for r in records if r.converged and math.isfinite(r.dE_dalpha)]
    gaps = sorted(abs(r.dE_dalpha - r.lam) / r.lam for r in mid)
    median = gaps[len(gaps) // 2] if gaps else math.inf
    sandwich = all(-1e-12 <= r.dE_dalpha <= 1.05 * r.lam for r in mid)
    return {"median_relative_gap": median, "sandwich_ok": sandwich,
            "records_used": len(mid),
            "overall_pass": bool(gaps) and median <= 2e-2 and sandwich}


def _extrapolate(ys):
    """Richardson-style extrapolation of y(x) as x runs to its endpoint:
    Aitken's delta-squared on the last three samples, falling back to the
    last value when the sequence has effectively converged."""
    y0, y1, y2 = ys[-3], ys[-2], ys[-1]
    denom = (y2 - y1) - (y1 - y0)
    if abs(denom) < 1e-14 * max(abs(y2), 1.0):
        return y2
    acc = y2 - (y2 - y1) ** 2 / denom
    # reject wild extrapolations from non-geometric tails
    if not math.isfinite(acc) or abs(acc - y2) > abs(y2 - y0):
        return y2
    return acc


def estimate_limits(F, m, records, endpoint, opts=None, estimate=None):
    """Extrapolated endpoint limit of E(alpha)/alpha against the first
    eigenvalue of the pure power problem with the endpoint's
    Matuszewska-Orlicz exponent, solved on the same mesh.

    ``estimate`` is ``matuszewska_exponent(F, endpoint)`` when the caller
    has already fitted it.  With ``opts.restarts`` None (the default) the
    reference is solved once, from the minimizer ``u`` of the extreme
    converged record (the first default start when it has none), and kept
    when that run converged to a minimizer of one sign: for t^p the first
    eigenfunction is simple and is the only eigenfunction of one sign
    (Lindqvist 1990; Franzina and Palatucci 2014 for the fractional case),
    so such a critical point is the global minimizer and further starts
    could only confirm it.  Otherwise the reference is solved again with
    ``opts``, cold; an explicit ``opts.restarts`` is used as given.
    """
    opts = opts or SolveOptions()
    endpoint = Endpoint(endpoint)
    est = estimate or matuszewska_exponent(F, endpoint)
    if est.endpoint is not endpoint:
        raise ConfigError(f"estimate is for endpoint {est.endpoint.value}, "
                          f"not {endpoint.value}")
    if est.regime is not Regime.POWER_LIKE:
        raise ConfigError(
            f"endpoint {endpoint.value} is {est.regime.value}, not "
            "power-like; use check_decay for the non-doubling case")
    ordered = sorted(records, key=lambda r: r.alpha,
                     reverse=(endpoint is Endpoint.ZERO))
    tail = [r for r in ordered if r.converged][-3:]
    if len(tail) < 3:
        raise ConfigError("need at least 3 converged records to extrapolate")
    extrapolated = _extrapolate([r.quotient for r in tail])
    # quotient at alpha = 1; constant by homogeneity
    reference = _power_reference(est.exponent, m, opts, tail[-1].u).energy
    gap = abs(extrapolated - reference) / reference
    return LimitEstimate(
        endpoint=endpoint.value, exponent=est.exponent,
        extrapolated=extrapolated, reference=reference, relative_gap=gap)


def check_limits(F, m, records, opts=None):
    """:func:`estimate_limits` at each endpoint where F is power-like, each
    passing at a relative gap of at most 5e-2; an endpoint of another
    regime is reported as skipped."""
    out = {"overall_pass": True}
    for ep in (Endpoint.ZERO, Endpoint.INFINITY):
        est = matuszewska_exponent(F, ep)
        if est.regime is not Regime.POWER_LIKE:
            out[ep.value] = {"regime": est.regime.value, "skipped": True}
            continue
        le = estimate_limits(F, m, records, ep, opts, estimate=est)
        ok = le.relative_gap <= 5e-2
        out[ep.value] = dict(le.as_dict(), overall_pass=ok)
        out["overall_pass"] &= ok
    return out


def _power_reference(p, m, opts, initial=None):
    """Solve Power(p) at alpha = 1: one run from ``initial`` when
    ``opts.restarts`` is None, kept if it converged (the solver converges
    only at a field of one sign), else ``opts``."""
    F = YoungFunction.power(p)
    if opts.restarts is None:
        ref = solve_E(F, m, 1.0, replace(opts, restarts=1), initial)
        if ref.converged:
            return ref
    return solve_E(F, m, 1.0, opts)


def require_decay_geometry(m):
    """Raise GeometryError unless the mesh has inner radius > 1, the
    geometric hypothesis of the decay theorem."""
    if m.inner_radius <= 1.0:
        raise GeometryError(
            f"decay requires inner radius > 1 (got {m.inner_radius}); "
            "the hypothesis of the decay theorem is unmet")


def check_decay(F, m, records, endpoint, fraction=0.2):
    """Assert the quotient E(alpha)/alpha decays toward the non-doubling
    endpoint: strictly decreasing over the grid's last decade and finally
    below ``fraction`` of its value at alpha = 1 (a converged one, else
    the verdict fails).

    Requires inner radius > 1 (the theorem's geometric hypothesis) and a
    divergent doubling ratio at the endpoint.
    """
    endpoint = Endpoint(endpoint)
    require_decay_geometry(m)
    report = delta2_report(F, endpoint)
    if report.holds:
        raise ConfigError(
            f"doubling condition holds at {endpoint.value} "
            f"(sup ratio {report.doubling_sup:.3g}); the decay theorem "
            "does not apply")
    ordered = sorted((r for r in records if r.converged),
                     key=lambda r: r.alpha,
                     reverse=(endpoint is Endpoint.ZERO))
    if len(ordered) < 3:
        raise ConfigError("need at least 3 converged records")
    extreme = ordered[-1].alpha
    last_decade = [r for r in ordered
                   if min(extreme / r.alpha, r.alpha / extreme) >= 0.1]
    quotients = [r.quotient for r in last_decade]
    decreasing = all(b < a for a, b in zip(quotients, quotients[1:]))
    q_one = _energy_at_one(records, "decay checks")
    final = ordered[-1].quotient
    below = q_one is not None and final <= fraction * q_one
    return {
        "endpoint": endpoint.value,
        "strictly_decreasing_last_decade": decreasing,
        "final_quotient": final,
        "quotient_at_one": q_one,
        "fraction_required": fraction,
        "overall_pass": decreasing and below,
    }


def prepare_checks(names, F, m, alphas, opts=None):
    """{name: run} for the checks ``names`` (from CHECKS) of F on the mesh
    m over the grid ``alphas``: run(records) returns that check's report,
    with its ``overall_pass``.  Raises first (ConfigError, GeometryError)
    on what would fail only once every alpha is solved, in this order: an
    unknown name; for bounds, the doubling condition failing at an
    endpoint, or no alpha = 1 on or inside the grid; for decay, no
    non-doubling endpoint (infinity first), an inner radius <= 1, or no
    alpha = 1."""
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}; "
                              f"choose from {', '.join(CHECKS)}")
    runs = {"derivative": check_derivative,
            "limits": lambda records: check_limits(F, m, records, opts)}
    if "bounds" in names:
        reports = [delta2_report(F, ep) for ep in Endpoint]
        failing = [r.endpoint.value for r in reports if not r.holds]
        if failing:
            raise ConfigError(
                "bounds check needs the doubling condition; it fails at "
                f"{' and '.join(failing)} for this Young function")
        p = max(r.p_index for r in reports)
        require_alpha_one(alphas, "bounds")
        runs["bounds"] = lambda records: check_bounds(records, p)
    if "decay" in names:
        endpoint = next((ep for ep in (Endpoint.INFINITY, Endpoint.ZERO)
                         if not delta2_report(F, ep).holds), None)
        if endpoint is None:
            raise ConfigError(
                "decay check needs a non-doubling endpoint, but the "
                "doubling condition holds at both")
        require_decay_geometry(m)
        require_alpha_one(alphas, "decay checks")
        runs["decay"] = lambda records: check_decay(F, m, records, endpoint)
    return {name: runs[name] for name in names}
