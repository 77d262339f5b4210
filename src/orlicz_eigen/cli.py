"""Command-line entry point: ``inspect``, ``solve``, ``sweep``, ``nonlocal``.

Specs for Young functions and meshes are JSON (inline or a file path), plus
compact shorthands ``interval:L,N`` / ``rectangle:LX,LY,NX,NY`` for meshes.
Outputs are JSON summaries and deterministic CSV.

Exit codes: 0 success (all requested checks pass), 1 a verification check
failed, 2 usage or configuration error.
"""

import argparse
import json
import sys

from . import __version__
from .errors import GeometryError, OrliczError, ConfigError
from .fractional import NonlocalMesh
from .mesh import Mesh, _write_csv
from .solver import MAX_STARTS, SolveOptions, solve_E
from .sweep import CHECKS, geometric_grid, prepare_checks, run_sweep
from .young import (Endpoint, YoungFunction, delta2_report,
                    matuszewska_exponent)

__all__ = ["main"]


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


def _cmd_sweep(args):
    F = _young_from_arg(args.young)
    m = _mesh_from_arg(args.mesh)
    opts = _solve_options(args)
    grid = geometric_grid(args.alpha_min, args.alpha_max, args.per_decade)
    if args.nonlocal_:
        if m.dim != 1:
            raise ConfigError("nonlocal sweeps are one-dimensional")
        m = NonlocalMesh(m.extents[0], m.interior_count, args.s)
    checks = prepare_checks([c for c in args.check.split(",") if c],
                            F, m, grid, opts)

    records = run_sweep(F, m, grid, opts)
    converged = [r for r in records if r.converged]

    report = {
        "alpha_min": args.alpha_min, "alpha_max": args.alpha_max,
        "records": len(records),
        "converged": len(converged),
        "sup_quotient": max((r.quotient for r in converged), default=None),
        "checks": {name: run(records) for name, run in checks.items()}
        if converged else {},
    }

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
                        f"certifies, up to {MAX_STARTS})")
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
                   help="comma list from: " + ", ".join(CHECKS))
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
        if getattr(args, "csv", None):  # before any solve runs
            try:
                open(args.csv, "a").close()
            except OSError as exc:
                raise ConfigError(f"cannot write the CSV file: {exc}")
        return args.fn(args)
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrliczError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
