"""Command-line entry point: ``inspect``, ``solve``, ``sweep``, ``nonlocal``.

Specs for Young functions and meshes are JSON (inline or a file path), plus
compact shorthands ``interval:L,N`` / ``rectangle:LX,LY,NX,NY`` for meshes.
Outputs are JSON summaries and deterministic CSV.

Exit codes: 0 success (all requested checks pass), 1 a verification check
failed, 2 usage or configuration error.
"""

import argparse
import json
import math
import sys

from . import __version__
from .errors import GeometryError, OrliczError, ConfigError
from .fractional import NonlocalMesh
from .mesh import Mesh, _write_csv
from .solver import MAX_STARTS, SolveOptions, solve_E
from .sweep import (check_bounds, check_decay, estimate_limits,
                    geometric_grid, require_alpha_one,
                    require_decay_geometry, run_sweep)
from .young import (Endpoint, Regime, YoungFunction, delta2_report,
                    matuszewska_exponent)

__all__ = ["main"]

_CHECKS = ("bounds", "derivative", "limits", "decay")


def _load_spec(text):
    """Inline JSON, or a path to a JSON file."""
    text = text.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(text) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read spec file {text!r}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON spec: {exc}")


def _young_from_arg(text):
    return YoungFunction.from_config(_load_spec(text))


def _shorthand(text, kinds, usage):
    """Comma-separated numbers converted by ``kinds``, one per field."""
    parts = text.split(",")
    if len(parts) != len(kinds):
        raise ConfigError(usage)
    try:
        return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError as exc:
        raise ConfigError(f"{usage}: {exc}") from exc


def _mesh_from_arg(text):
    text = text.strip()
    if text.startswith("interval:"):
        return Mesh.interval(*_shorthand(
            text[len("interval:"):], (float, int),
            "interval shorthand is interval:LENGTH,CELLS"))
    if text.startswith("rectangle:"):
        return Mesh.rectangle(*_shorthand(
            text[len("rectangle:"):], (float, float, int, int),
            "rectangle shorthand is rectangle:LX,LY,NX,NY"))
    return Mesh.from_config(_load_spec(text))


def _solve_options(args):
    return SolveOptions(tol=args.tol, max_iter=args.max_iter,
                        restarts=args.restarts, seed=args.seed)


def _emit_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True))


# -- subcommands ------------------------------------------------------------

def _cmd_inspect(args):
    F = _young_from_arg(args.young)
    delta2 = {ep.value: delta2_report(F, ep) for ep in Endpoint}
    payload = {"label": F.label, "family": F.family.value,
               "delta2": {k: r.as_dict() for k, r in delta2.items()},
               "matuszewska": {ep.value: matuszewska_exponent(F, ep).as_dict()
                               for ep in Endpoint},
               "p_index": max(r.p_index for r in delta2.values())}
    _emit_json(payload)
    return 0


def _cmd_solve(args):  # and ``nonlocal``, which has no --mesh
    F = _young_from_arg(args.young)
    m = (NonlocalMesh(args.interval, args.nodes, args.s) if args.mesh is None
         else _mesh_from_arg(args.mesh))
    result = solve_E(F, m, args.alpha, _solve_options(args))
    _emit_json(result.as_dict())
    if args.csv:
        result.u.to_csv(args.csv)
    return 0 if result.converged else 1


def _global_p_index(F):
    """The doubling index of F over (0, inf): the larger of its endpoints'
    Delta_2 indices, inf when either diverges."""
    return max(delta2_report(F, ep).p_index for ep in Endpoint)


def _check_derivative(records):
    mid = [r for r in records if r.converged and math.isfinite(r.dE_dalpha)]
    gaps = sorted(abs(r.dE_dalpha - r.lam) / r.lam for r in mid)
    median = gaps[len(gaps) // 2] if gaps else math.inf
    sandwich = all(-1e-12 <= r.dE_dalpha <= 1.05 * r.lam for r in mid)
    return {
        "median_relative_gap": median,
        "sandwich_ok": sandwich,
        "records_used": len(mid),
        "overall_pass": bool(gaps) and median <= 2e-2 and sandwich,
    }


def _check_limits(F, m, records, opts):
    out = {"overall_pass": True}
    for ep in (Endpoint.ZERO, Endpoint.INFINITY):
        est = matuszewska_exponent(F, ep)
        if est.regime is not Regime.POWER_LIKE:
            out[ep.value] = {"regime": est.regime.value, "skipped": True}
            continue
        le = estimate_limits(F, m, records, ep, opts, estimate=est)
        ok = le.relative_gap <= 5e-2
        out[ep.value] = dict(le.as_dict(), overall_pass=ok)
        out["overall_pass"] = out["overall_pass"] and ok
    return out


def _decay_endpoint(F):
    for ep in (Endpoint.INFINITY, Endpoint.ZERO):
        if not delta2_report(F, ep).holds:
            return ep
    raise ConfigError(
        "decay check needs a non-doubling endpoint, but the doubling "
        "condition holds at both")


def _sweep_checks(args, F, grid, m):
    """The requested check names, after rejecting (ConfigError or
    GeometryError) what would otherwise fail only once every alpha is
    solved: an unknown name, bounds without a finite doubling index,
    bounds or decay on a grid without alpha = 1 on it or inside it, decay
    without a non-doubling endpoint and decay on a mesh m of inner radius
    <= 1.  Returns the names with the doubling index and decay endpoint
    they need."""
    checks = [c for c in (args.check or "").split(",") if c]
    for name in checks:
        if name not in _CHECKS:
            raise ConfigError(f"unknown check {name!r}; "
                              f"choose from {', '.join(_CHECKS)}")
    p = endpoint = None
    if "bounds" in checks:
        p = _global_p_index(F)
        if not math.isfinite(p):
            raise ConfigError(
                "bounds check needs the doubling condition; the doubling "
                "index diverges for this Young function")
        require_alpha_one(grid, "bounds")
    if "decay" in checks:
        endpoint = _decay_endpoint(F)
        require_decay_geometry(m)
        require_alpha_one(grid, "decay checks")
    return checks, p, endpoint


def _cmd_sweep(args):
    F = _young_from_arg(args.young)
    m = _mesh_from_arg(args.mesh)
    opts = _solve_options(args)
    grid = geometric_grid(args.alpha_min, args.alpha_max, args.per_decade)
    if args.nonlocal_:
        if m.dim != 1:
            raise ConfigError("nonlocal sweeps are one-dimensional")
        m = NonlocalMesh(m.extents[0], m.interior_count, args.s)
    checks, p_index, decay_endpoint = _sweep_checks(args, F, grid, m)

    records = run_sweep(F, m, grid, opts)
    converged = [r for r in records if r.converged]

    report = {
        "alpha_min": args.alpha_min, "alpha_max": args.alpha_max,
        "records": len(records),
        "converged": len(converged),
        "sup_quotient": max((r.quotient for r in converged), default=None),
        "checks": {},
    }
    for name in checks if converged else ():
        if name == "bounds":
            report["checks"]["bounds"] = check_bounds(records, p_index)
        elif name == "derivative":
            report["checks"]["derivative"] = _check_derivative(records)
        elif name == "limits":
            report["checks"]["limits"] = _check_limits(F, m, records, opts)
        elif name == "decay":
            report["checks"]["decay"] = check_decay(F, m, records,
                                                    decay_endpoint)

    if args.csv:
        header = ["alpha", "energy", "quotient", "lambda", "dE_dalpha",
                  "converged", "residual", "iterations"]
        rows = [[r.alpha, r.energy, r.quotient, r.lam, r.dE_dalpha,
                 r.converged, r.residual, r.iterations] for r in records]
        _write_csv(args.csv, header, rows)
    _emit_json(report)
    if not converged:
        print(f"error: none of the {len(records)} alpha values converged; "
              "no checks were run", file=sys.stderr)
        return 1
    failed = [n for n, r in report["checks"].items()
              if not r.get("overall_pass", True)]
    return 1 if failed else 0


# -- argument parsing -------------------------------------------------------

def _add_solver_flags(p):
    opts = SolveOptions()
    p.add_argument("--tol", type=float, default=opts.tol)
    p.add_argument("--max-iter", type=int, default=opts.max_iter)
    p.add_argument("--restarts", type=int, default=opts.restarts,
                   help="force exactly N starts, checking none (default: "
                        "stop at the first start its second-order check "
                        "certifies, else once two converged starts agree, "
                        f"up to {MAX_STARTS})")
    p.add_argument("--seed", type=int, default=opts.seed)


def _inspect_parser(p):
    p.add_argument("--young", required=True)
    p.set_defaults(fn=_cmd_inspect)


def _solve_parser(p):
    p.add_argument("--young", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--csv", help="write the minimizer's nodal values here")
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_solve)


def _sweep_parser(p):
    p.add_argument("--young", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--per-decade", type=int, default=5)
    p.add_argument("--nonlocal", dest="nonlocal_", action="store_true")
    p.add_argument("--s", type=float, default=0.5,
                   help="fractional order for --nonlocal")
    p.add_argument("--check", default="",
                   help="comma list from: " + ", ".join(_CHECKS))
    p.add_argument("--csv", help="write SweepRecord rows here")
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_sweep)


def _nonlocal_parser(p):
    p.add_argument("--young", required=True)
    p.add_argument("--interval", type=float, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--csv", help="write the minimizer's nodal values here")
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_solve, mesh=None)


_SUBCOMMANDS = {  # name: (help, the function that fills its subparser)
    "inspect": ("Young-function diagnostics", _inspect_parser),
    "solve": ("minimize at one alpha", _solve_parser),
    "sweep": ("alpha sweep with verification checks", _sweep_parser),
    "nonlocal": ("fractional solve at one alpha", _nonlocal_parser),
}


def build_parser(command=None):
    """The CLI's parser; given the name of a subcommand, one with that
    subparser alone, which parses the same arguments to the same namespace
    for about a third of the set-up.  That one's metavar lists every name,
    so its messages are the full parser's; the full parser keeps the
    default, so its errors name the argument ``command``."""
    narrow = command in _SUBCOMMANDS
    parser = argparse.ArgumentParser(
        prog="orlicz-eigen",
        description="Constrained energy and first eigenvalue of the "
                    "generalized a-Laplacian.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_SUBCOMMANDS) + "}" if narrow else None)
    for name, (text, fill) in _SUBCOMMANDS.items():
        if not narrow or name == command:
            fill(sub.add_parser(name, help=text))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrliczError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
