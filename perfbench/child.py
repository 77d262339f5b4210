"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--setup-only]
                               [--trace] [--spans FILE]

Times the set-up (import of ``orlicz_eigen`` from the checkout's ``src/``,
then building every Young function and mesh the workload uses), then runs
the workload's commands through ``orlicz_eigen.cli.main`` with the argv a
user types, certifies every output, and prints one JSON object.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import certify
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
REF_BLOCKS = 16       # blocks timed before each command and after the last
REF_FACTORS = 8       # Cholesky factorisations in one block


class Reference:
    """Times a fixed block of dense Cholesky factorisations in the pass's
    own process, before each command and after the last.

    A shared host's speed drifts by tens of percent within a minute, and
    the runner divides the workload's times by this block's time.  On a
    2-vCPU shared host, over 8 minutes in ~33-second windows, that cut the
    standard deviation of log wall time from 0.09-0.16 to 0.06-0.08 for a
    1D sweep, a 2D solve and a nonlocal solve; interpreter-bound
    small-array loops as the reference tracked the host less well.
    """

    def __init__(self):
        import numpy as np
        m = np.random.default_rng(0).random((256, 256))
        self.spd = m @ m.T + 256.0 * np.eye(256)
        self.cholesky = np.linalg.cholesky
        self.times = []

    def measure(self):
        for _ in range(REF_BLOCKS):
            t0 = time.perf_counter()
            for _ in range(REF_FACTORS):
                self.cholesky(self.spd)
            self.times.append(time.perf_counter() - t0)

    def seconds(self):
        """Median block time over every measurement of the pass."""
        times = sorted(self.times)
        return times[len(times) // 2]


def setup(workload):
    """Seconds to import the package and build the workload's inputs."""
    t0 = time.perf_counter()
    import orlicz_eigen
    from orlicz_eigen import Mesh, NonlocalMesh, YoungFunction
    for young, (kind, *nums) in workloads.setup_specs(workload):
        YoungFunction.from_config(young)
        if kind == "interval":
            Mesh.interval(nums[0], int(nums[1]))
        elif kind == "rectangle":
            Mesh.rectangle(nums[0], nums[1], int(nums[2]), int(nums[3]))
        else:
            NonlocalMesh(nums[0], int(nums[1]), nums[2])
    elapsed = time.perf_counter() - t0
    where = Path(orlicz_eigen.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"orlicz_eigen imported from {where}, "
                         f"not from {ROOT / 'src'}")
    return elapsed


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_pass(workload, seed, trace, spans_path):
    from orlicz_eigen import cli
    tracer = tracing.Tracer()
    tracer.install_solves()
    if trace:
        tracer.install_layers()
    ref = Reference()
    ops, wall, cpu = [], 0.0, 0.0
    for argv in workload.commands:
        argv = workloads.with_seed(argv, seed)
        ref.measure()
        out = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out):
                rc = tracer.run_cli(cli.main, argv)
        except Exception:  # a crash is a failed command, not a dead run
            traceback.print_exc()
            rc = -1
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        ops += certify.command_ops(argv, rc, out.getvalue())
    ref.measure()
    for rec in tracer.solves:
        label = f"solve {rec['family']} alpha={rec['alpha']:.6g}"
        if "result" not in rec:
            ops.append((label, [f"raised {rec.get('error')}"]))
            continue
        p = certify.doubling_index(rec["family"], rec["params"])
        ops.append((label, certify.solve_failures(
            rec["alpha"], rec["tol"] or certify.DEFAULT_TOL,
            rec["result"], p)))
    out = {"wall_s": wall, "cpu_s": cpu, "ref_s": ref.seconds(),
           "iterations": sum(r.get("iterations", 0) for r in tracer.solves),
           "solve_s": [r["seconds"] for r in tracer.solves],
           "ops": ops, "absent": tracer.absent}
    if trace:
        out["layers"] = tracing.layer_metrics(tracer, wall)
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    setup_s = setup(workload)
    result = {"setup_s": setup_s, "env": environment()}
    if not args.setup_only:
        result.update(run_pass(workload, args.seed, args.trace, args.spans))
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
