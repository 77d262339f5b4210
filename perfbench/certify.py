"""Output certificates: every check here follows from the problem itself,
never from numbers recorded from one version of the solver, so a change of
discretization is not scored as a failure.

A solve is certified when it reports ``converged`` with its residual below
the stated tolerance, its achieved modular equals the requested alpha to
1e-10 relative, and, for a Young function with finite doubling index p,
its eigenvalue lies in the doubling sandwich E/(p alpha) <= lambda <=
p E/alpha.  A command is certified when it exits 0 and, for a sweep, every
alpha converged and every requested check reports ``overall_pass``.
"""

import json
import math

from workloads import flag

ALPHA_RTOL = 1e-10
SANDWICH_SLACK = 1e-9
DEFAULT_TOL = 1e-8


def doubling_index(family, params):
    """Closed-form doubling index sup t a(t)/A(t), or None when the family
    is not covered here (the sandwich check is then skipped)."""
    if family == "power":
        return float(params["p"])
    if family == "sum_of_powers":
        return float(max(params["p"], params["q"]))
    return None


def solve_failures(alpha, tol, result, p):
    """Reasons a solve result (a mapping with ``alpha``, ``energy``,
    ``lambda``, ``residual``, ``converged``) fails its certificates."""
    reasons = []
    try:
        achieved = float(result["alpha"])
        energy = float(result["energy"])
        lam = float(result["lambda"])
        residual = float(result["residual"])
        converged = result["converged"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result: {exc!r}"]
    if converged is not True:
        reasons.append("not converged")
    if not residual < tol:
        reasons.append(f"residual {residual:.3g} not below tol {tol:.3g}")
    if not abs(achieved - alpha) <= ALPHA_RTOL * alpha:
        reasons.append(f"achieved modular {achieved!r} != alpha {alpha!r}")
    if p is not None and math.isfinite(p):
        q = energy / alpha
        if not (q / p * (1 - SANDWICH_SLACK) <= lam
                <= p * q * (1 + SANDWICH_SLACK)):
            reasons.append(f"lambda {lam!r} outside [E/(p alpha), "
                           f"p E/alpha] with p={p}")
    return reasons


def command_ops(argv, rc, text):
    """Certified operations of one CLI command, as (label, reasons) pairs;
    an empty reason list is a pass."""
    cmd = argv[0]
    head = [f"exit code {rc}"] if rc != 0 else []
    try:
        out = json.loads(text)
        if not isinstance(out, dict):
            raise ValueError("output is not a JSON object")
    except ValueError as exc:
        return [(f"{cmd} output", head + [f"unparsable output: {exc}"])]
    if cmd in ("solve", "nonlocal"):
        young = json.loads(flag(argv, "--young"))
        p = doubling_index(young["family"], young.get("params", {}))
        reasons = solve_failures(float(flag(argv, "--alpha")),
                                 float(flag(argv, "--tol", DEFAULT_TOL)),
                                 out, p)
        return [(f"{cmd} output", head + reasons)]
    if cmd == "sweep":
        reasons = list(head)
        if out.get("converged") != out.get("records"):
            reasons.append(f"{out.get('converged')} of {out.get('records')} "
                           "alphas converged")
        ops = [("sweep output", reasons)]
        checks = out.get("checks", {})
        for name in filter(None, flag(argv, "--check", "").split(",")):
            ok = isinstance(checks.get(name), dict) \
                and checks[name].get("overall_pass") is True
            miss = [] if ok else ["overall_pass not true"]
            ops.append((f"check {name}", miss))
        return ops
    return [(f"{cmd} output", head)]
