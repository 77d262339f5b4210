"""orlicz-eigen benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Each pass runs the whole workload in a
fresh interpreter (``perfbench/child.py``) with one BLAS/OpenMP thread.
With ``--trace 0`` the run makes as many passes as fit in ``--seconds``
at the workload's nominal pass time (at least two) and the end-to-end
metrics are medians over them, with every time but set-up divided by a
reference block timed in the same pass; with
``--trace 1`` one untraced and one traced pass give the per-layer metrics
and the tracing overhead.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
MIN_SETUPS = 5
DEADLINE_S = 170.0   # a pass still running then is killed and the run fails
TAIL_BEYOND = 10     # samples required above the tail percentile


class BenchError(Exception):
    pass


def child(workload, seed, *flags, deadline):
    """Run one pass in a fresh process; returns its parsed JSON record."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass of {workload} exceeded {timeout:.0f} s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"pass of {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def solve_tail(samples):
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n > TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
    return xs[-1], 100.0, n


def count_ops(passes):
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [(label, reasons) for p in passes
                for label, reasons in p["ops"] if reasons]
    return attempted, failures


def end_to_end(passes, setups):
    """End-to-end metrics of untraced passes, plus notes for the reader.
    Times other than set-up are in ``ref``: seconds divided by the
    reference block time measured in the same pass (``child.Reference``);
    the seconds as measured are in the notes."""
    attempted, failures = count_ops(passes)
    fail_frac = len(failures) / attempted
    solves = [s for p in passes for s in p["solve_s"]]
    rel = [s / p["ref_s"] for p in passes for s in p["solve_s"]]
    tail, pct, n = solve_tail(rel)
    metrics = {
        "wall_ref": (statistics.median(p["wall_s"] / p["ref_s"]
                                       for p in passes), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "solve_p50_ref": (statistics.median(rel), "ref"),
        "solve_tail_ref": (tail, "ref"),
        "ok_frac": (1.0 - fail_frac, "ratio"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    seconds = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "solve_p50_s": statistics.median(solves),
        "solve_tail_s": solve_tail(solves)[0],
        "ref_s": statistics.median(p["ref_s"] for p in passes),
    }
    notes = [f"passes={len(passes)} setups={len(setups)} "
             f"solve_tail is p{pct:.1f} of {n} solves",
             f"fail_frac = {len(failures)}/{attempted} = {fail_frac:g} ratio"]
    notes += [f"{name} = {value:.6g} s" for name, value in seconds.items()]
    notes += [f"pass {k}: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
              f"ref {p['ref_s'] * 1e3:.3f} ms, "
              f"{p['iterations']} iterations in returned runs"
              for k, p in enumerate(passes)]
    notes += [f"FAILED {label}: {'; '.join(r)}" for label, r in failures]
    return metrics, attempted, len(failures), notes


def pass_count(workload, seconds):
    """Passes that fill ``seconds`` at the workload's nominal pass time.
    The count depends on nothing measured, so two versions of the program
    always do the same work and pool the same number of solves."""
    nominal = workloads.WORKLOADS[workload].pass_s
    return max(MIN_PASSES, round(seconds / nominal))


def measure(workload, seed, seconds, deadline):
    passes = [child(workload, seed, deadline=deadline)
              for _ in range(pass_count(workload, seconds))]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(child(workload, seed, "--setup-only",
                            deadline=deadline)["setup_s"])
    metrics, attempted, failed, notes = end_to_end(passes, setups)
    return metrics, attempted, failed, notes, passes[0]["env"]


def measure_traced(workload, seed, deadline):
    base = child(workload, seed, deadline=deadline)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    traced = child(workload, seed, "--trace", "--spans", str(spans),
                   deadline=deadline)
    attempted, failures = count_ops([base, traced])
    metrics = {k: (v["value"], v["unit"])
               for k, v in traced["layers"].items()}
    overhead = traced["wall_s"] - base["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / base["wall_s"], "ratio")
    notes = [f"untraced wall_s={base['wall_s']:.4f} s, "
             f"traced wall_s={traced['wall_s']:.4f} s, spans in {spans}"]
    if traced["absent"]:
        notes.append("absent (not wrapped): " + ", ".join(traced["absent"]))
    notes += [f"FAILED {label}: {'; '.join(r)}" for label, r in failures]
    return metrics, attempted, len(failures), notes, base["env"]


def run_one(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        metrics, attempted, failed, notes, env = measure_traced(
            workload, seed, deadline)
    else:
        metrics, attempted, failed, notes, env = measure(
            workload, seed, seconds, deadline)
    print(f"# {workload} seed={seed} trace={int(trace)} env={json.dumps(env)}")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:16s} {name:34s} {value:14.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orlicz_eigen" / "__init__.py").is_file():
        print(f"error: no orlicz_eigen sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
