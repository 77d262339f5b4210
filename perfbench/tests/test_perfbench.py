"""Tests of the benchmark's own logic; they need neither numpy nor the
package.  Run with ``python3 -m pytest perfbench/tests -q``."""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import certify  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SOLVE_ARGV = workloads.with_seed(
    ("solve", "--young", workloads.SOP24, "--mesh", "rectangle:2,1,64,32",
     "--alpha", "10"), 1)
SWEEP_ARGV = workloads.with_seed(
    workloads.WORKLOADS["sweep_sop24_1d"].commands[0], 1)
SOLVE_OUT = {"alpha": 9.999999999999133, "converged": True,
             "energy": 402.74625958017367, "iterations": 35,
             "lambda": 43.02206606328093, "residual": 5.477989120649657e-09,
             "restarts_used": 5}
SWEEP_OUT = {"alpha_max": 1e4, "alpha_min": 1e-4, "converged": 41,
             "records": 41, "sup_quotient": 72.6,
             "checks": {"bounds": {"overall_pass": True},
                        "derivative": {"overall_pass": True},
                        "limits": {"overall_pass": True}}}


def _pass(ops):
    return {"ops": ops, "wall_s": 1.0, "cpu_s": 1.0, "iterations": 10,
            "solve_s": [0.5], "ref_s": 0.01, "peak_rss_mb": 80.0}


def _corrupt(out, path, value):
    out = copy.deepcopy(out)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(out)


def test_good_outputs_are_certified():
    ops = (certify.command_ops(SOLVE_ARGV, 0, json.dumps(SOLVE_OUT))
           + certify.command_ops(SWEEP_ARGV, 0, json.dumps(SWEEP_OUT)))
    assert len(ops) == 5  # solve, sweep, three requested checks
    assert all(not reasons for _, reasons in ops)
    metrics, attempted, failed, _ = run.end_to_end([_pass(ops)], [0.1])
    assert (attempted, failed) == (5, 0)
    assert metrics["ok_frac"][0] == 1.0


CORRUPTIONS = [
    ("not converged", SOLVE_ARGV, 0,
     _corrupt(SOLVE_OUT, ["converged"], False)),
    ("residual above tol", SOLVE_ARGV, 0,
     _corrupt(SOLVE_OUT, ["residual"], 2e-8)),
    ("modular off alpha", SOLVE_ARGV, 0,
     _corrupt(SOLVE_OUT, ["alpha"], 10.0 * (1 + 1e-8))),
    ("lambda above sandwich", SOLVE_ARGV, 0,
     _corrupt(SOLVE_OUT, ["lambda"], 4.01 * 402.74625958017367 / 10)),
    ("lambda below sandwich", SOLVE_ARGV, 0,
     _corrupt(SOLVE_OUT, ["lambda"], 0.99 * 402.74625958017367 / 40)),
    ("nonzero exit", SOLVE_ARGV, 1, json.dumps(SOLVE_OUT)),
    ("truncated output", SOLVE_ARGV, 0, json.dumps(SOLVE_OUT)[:40]),
    ("check failed", SWEEP_ARGV, 0,
     _corrupt(SWEEP_OUT, ["checks", "limits", "overall_pass"], False)),
    ("check missing", SWEEP_ARGV, 0,
     json.dumps(dict(SWEEP_OUT, checks={}))),
    ("alpha unconverged", SWEEP_ARGV, 0,
     _corrupt(SWEEP_OUT, ["converged"], 40)),
]


@pytest.mark.parametrize("case", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_corrupted_output_counts_in_fail_frac(case):
    _, argv, rc, text = case
    ops = certify.command_ops(argv, rc, text)
    metrics, attempted, failed, notes = run.end_to_end([_pass(ops)], [0.1])
    assert failed >= 1
    assert metrics["ok_frac"][0] == 1.0 - failed / attempted < 1.0
    assert any(n.startswith("FAILED") for n in notes)


def test_solve_certificate_skips_sandwich_without_doubling():
    bad_lambda = dict(SOLVE_OUT, alpha=10.0, **{"lambda": 1e9})
    assert certify.solve_failures(10.0, 1e-8, bad_lambda, None) == []
    assert certify.solve_failures(10.0, 1e-8, bad_lambda, 4.0)
    assert certify.doubling_index("exp_minus_poly", {"n": 2}) is None
    assert certify.doubling_index("sum_of_powers", {"p": 2, "q": 4}) == 4.0


def test_solve_tail_keeps_ten_samples_beyond():
    value, pct, n = run.solve_tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == 90.0
    assert run.solve_tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_absent_wrapped_name_is_reported_not_raised():
    class Owner:
        pass
    tracer = tracing.Tracer()
    tracer._patch(Owner, "gone", lambda f: f)
    assert tracer.absent == ["Owner.gone"]
    tracer.run_cli(lambda argv: 0, [])
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["cli.self_s"]["value"] > 0.0
    assert metrics["roots.bisect.calls"]["value"] == 0


def test_every_layer_metric_is_reported():
    metrics = tracing.layer_metrics(tracing.Tracer(), 1.0)
    assert [(n, m["unit"]) for n, m in metrics.items()] == \
        [(n, u) for n, u, _ in tracing.LAYER_METRICS]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["solver.project", 0.0, 1.0, -1, 1, 0],
                       ["roots.bisect", 0.1, 0.9, 0, 1, 40]]
    m = tracing.layer_metrics(tracer, 2.0)
    assert m["solver.project.self_s"]["value"] == pytest.approx(0.2)
    assert m["roots.bisect.self_s"]["value"] == pytest.approx(0.8)
    assert m["roots.bisect.evals"]["value"] == 40
    assert m["solver.project.wall_share"]["value"] == pytest.approx(0.5)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
    metrics, *_ = run.end_to_end([_pass([("x", [])])], [0.1])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, u) for n, u, _ in tracing.LAYER_METRICS] \
        + [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]
