"""Alpha sweeps and the theorem-verification checks."""

import json
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from orlicz_eigen import cli, solver, sweep
from orlicz_eigen.errors import ConfigError, GeometryError
from orlicz_eigen.fractional import NonlocalMesh
from orlicz_eigen.mesh import Mesh
from orlicz_eigen.solver import SolveOptions, solve_E
from orlicz_eigen.sweep import (SweepRecord, check_bounds, check_decay,
                                check_derivative, check_limits,
                                estimate_limits, geometric_grid,
                                prepare_checks, run_sweep)
from orlicz_eigen.young import (Endpoint, YoungFunction, delta2_report,
                                matuszewska_exponent)


SOP24 = '{"family": "sum_of_powers", "params": {"p": 2, "q": 4}}'


@pytest.fixture(scope="module")
def m200():
    return Mesh.interval(1.0, 200)


@pytest.fixture(scope="module")
def sweep24(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    return run_sweep(F, m200, geometric_grid(1e-2, 1e2, 5))


@pytest.fixture(scope="module")
def cli_sweep24(m200):
    """The records of the CLI's `sweep --young sop24 --mesh interval:1.0,200
    --alpha-min 1e-4 --alpha-max 1e4 --per-decade 5 --seed 1`."""
    return run_sweep(YoungFunction.sum_of_powers(2, 4), m200,
                     geometric_grid(1e-4, 1e4, 5), SolveOptions(seed=1))


def test_grid_validation():
    with pytest.raises(ConfigError):
        geometric_grid(1.0, 0.1, 5)
    with pytest.raises(ConfigError):
        geometric_grid(0.1, 1.0, 2)
    for lo, hi in ((math.nan, 1.0), (0.1, math.nan), (0.1, math.inf),
                   (-math.inf, 1.0)):
        with pytest.raises(ConfigError):
            geometric_grid(lo, hi, 5)
    g = geometric_grid(1e-2, 1e2, 5)
    assert len(g) == 21
    assert g[0] == pytest.approx(1e-2) and g[-1] == pytest.approx(1e2)


@pytest.mark.parametrize("hi", [1.2, 1.01])
def test_short_grid_keeps_both_ends_and_three_points(hi):
    # a range short of half a step still gives the derivative check its
    # central difference: both ends and one point between
    g = geometric_grid(1.0, hi, 5)
    assert len(g) == 3 and g[0] == 1.0 and g[-1] == hi
    assert g[0] < g[1] < g[2]


def test_power_sweep_exactly_linear(m200):
    F = YoungFunction.power(2)
    recs = run_sweep(F, m200, geometric_grid(0.1, 10.0, 5))
    qs = [r.quotient for r in recs]
    assert max(qs) - min(qs) <= 1e-10 * min(qs)
    mid = [r for r in recs if math.isfinite(r.dE_dalpha)]
    assert all(abs(r.dE_dalpha - r.lam) / r.lam <= 1e-6 for r in mid)


def test_sweep_energy_monotone(sweep24):
    energies = [r.energy for r in sweep24 if r.converged]
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_sweep_lipschitz_proxy(sweep24):
    for lo, hi in zip(sweep24, sweep24[1:]):
        if not (lo.converged and hi.converged):
            continue
        bound = max(lo.lam, hi.lam) * (hi.alpha - lo.alpha) * 1.05
        assert hi.energy - lo.energy <= bound


def test_sweep_derivative_sandwich(sweep24):
    mid = [r for r in sweep24 if r.converged and math.isfinite(r.dE_dalpha)]
    assert all(-1e-12 <= r.dE_dalpha <= 1.05 * r.lam for r in mid)


def test_sweep_quotient_monotone_between_powers(sweep24):
    qs = [r.quotient for r in sweep24 if r.converged]
    assert all(b >= a * (1 - 1e-10) for a, b in zip(qs, qs[1:]))


def test_quotient_derivative_identity(sweep24):
    # d/dalpha (E/alpha) = (lambda - E/alpha)/alpha, via finite differences
    for k in range(1, len(sweep24) - 1):
        lo, r, hi = sweep24[k - 1], sweep24[k], sweep24[k + 1]
        fd = (hi.quotient - lo.quotient) / (hi.alpha - lo.alpha)
        ref = (r.lam - r.quotient) / r.alpha
        if abs(ref) > 1e-8:
            assert fd == pytest.approx(ref, rel=5e-2)


def test_check_bounds_pass_and_negative_control(sweep24):
    p = delta2_report(YoungFunction.sum_of_powers(2, 4),
                      Endpoint.INFINITY).p_index
    report = check_bounds(sweep24, p)
    assert report["overall_pass"]
    assert report["failures"] == []
    # negative control: inflating the energies beyond the admissible band
    # must break the upper bound
    import copy
    perturbed = copy.deepcopy(sweep24)
    for r in perturbed:
        factor = max(r.alpha ** p, r.alpha ** (1.0 / p)) * 1.01
        r.energy *= factor
        r.quotient = r.energy / r.alpha
    bad = check_bounds(perturbed, p)
    assert not bad["overall_pass"]


def test_check_bounds_needs_alpha_one(m200):
    F = YoungFunction.power(2)
    recs = run_sweep(F, m200, geometric_grid(10.0, 100.0, 5))
    with pytest.raises(ConfigError):
        check_bounds(recs, 2.0)


def test_energy_at_one_interpolates_log_log_off_the_grid():
    # a grid that brackets alpha = 1 without holding it: E = 3 alpha^2 is a
    # line in log-log, so E(1) = 3 up to rounding, and the records the
    # bounds check has seen carry its verdicts in their dicts
    keys = ("ok_energy", "ok_eigenvalue", "ok_quotient")
    records = [SweepRecord(alpha=a, energy=3.0 * a * a, quotient=3.0 * a,
                           lam=6.0 * a, converged=True, residual=0.0)
               for a in (0.25, 0.5, 2.0, 4.0)]
    assert not any(k in records[1].as_dict() for k in keys)
    report = check_bounds(records, 2.0)
    assert report["energy_at_one"] == pytest.approx(3.0, rel=1e-14)
    assert report["overall_pass"] and report["records_checked"] == 4
    row = records[1].as_dict()
    assert [row[k] for k in keys] == [True, True, True]
    assert row["alpha"] == 0.5 and row["energy"] == 0.75


def _exact_branch(energy, grid, unconverged_energy):
    """Converged records of E(alpha) = energy(alpha) on ``grid``, except
    alpha = 1, flagged unconverged with energy ``unconverged_energy``."""
    records = [SweepRecord(alpha=float(a), energy=energy(a),
                           quotient=energy(a) / a, lam=energy(a) / a,
                           converged=True, residual=0.0) for a in grid]
    one = next(r for r in records if abs(math.log(r.alpha)) < 1e-12)
    one.converged, one.energy = False, unconverged_energy
    one.quotient = one.lam = unconverged_energy
    return records


def test_bounds_anchor_on_a_converged_energy_at_one():
    # E = 2 alpha: the converged neighbours of an unconverged E(1) = 20
    # interpolate to 2; anchored on the unconverged 20, the check failed
    records = _exact_branch(lambda a: 2.0 * a, geometric_grid(0.1, 10, 3),
                            20.0)
    report = check_bounds(records, 2.0)
    assert report["energy_at_one"] == pytest.approx(2.0, rel=1e-14)
    assert report["overall_pass"] and report["failures"] == []
    assert (report["records_checked"], report["records_skipped"]) == (6, 1)
    # no converged record above alpha = 1: no E(1), a failed verdict
    for r in records[3:]:
        r.converged = False
    report = check_bounds(records, 2.0)
    assert report["energy_at_one"] is None and not report["overall_pass"]
    json.dumps(report)


def test_decay_anchors_on_a_converged_quotient_at_one():
    # E = 2 sqrt(alpha) decays to a tenth of its quotient at alpha = 1 over
    # two decades; anchored on an unconverged E(1) = 0.5, it looked too slow
    F, m = YoungFunction.exp_minus_poly(2), Mesh.interval(4.0, 100)
    records = _exact_branch(lambda a: 2.0 * math.sqrt(a),
                            geometric_grid(0.1, 100, 3), 0.5)
    report = check_decay(F, m, records, Endpoint.INFINITY)
    assert report["quotient_at_one"] == pytest.approx(2.0, rel=1e-14)
    assert report["overall_pass"]
    for r in records[:3]:
        r.converged = False
    report = check_decay(F, m, records, Endpoint.INFINITY)
    assert report["quotient_at_one"] is None and not report["overall_pass"]


def test_estimate_limits_power_gap_zero(m200):
    F = YoungFunction.power(2)
    recs = run_sweep(F, m200, geometric_grid(0.1, 10.0, 5))
    for ep in (Endpoint.ZERO, Endpoint.INFINITY):
        le = estimate_limits(F, m200, recs, ep)
        assert le.relative_gap <= 1e-8


def test_estimate_limits_rejects_degenerate(m200):
    F = YoungFunction.exp_minus_poly(2)
    recs = []  # never reached; the regime check fires first
    with pytest.raises(ConfigError):
        estimate_limits(F, m200, recs, Endpoint.INFINITY)


def test_check_decay_requires_inner_radius(m200):
    F = YoungFunction.exp_minus_poly(2)
    with pytest.raises(GeometryError):
        check_decay(F, m200, [], Endpoint.INFINITY)


def test_check_decay_rejects_doubling_function():
    F = YoungFunction.power(2)
    m = Mesh.interval(4.0, 100)
    with pytest.raises(ConfigError):
        check_decay(F, m, [], Endpoint.INFINITY)


def test_unconverged_records_flagged_not_fatal(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    recs = run_sweep(F, m200, geometric_grid(0.1, 10.0, 5),
                     SolveOptions(max_iter=2, restarts=1))
    assert len(recs) == 11
    assert not any(r.converged for r in recs)


def test_secant_start_matches_previous_minimizer_start(m200, monkeypatch):
    F = YoungFunction.sum_of_powers(2, 4)
    grid = geometric_grid(0.1, 10.0, 5)
    runs = {"secant": [], "previous": []}

    def secant(F_, m, alpha, opts, initial=None):
        res = solve_E(F_, m, alpha, opts, initial)
        runs["secant"].append((initial, res))
        return res

    def previous(F_, m, alpha, opts, initial=None):
        # the start before the secant predictor: the last minimizer itself
        done = runs["previous"]
        res = solve_E(F_, m, alpha, opts, done[-1][1].u if done else None)
        done.append((initial, res))
        return res
    monkeypatch.setattr(sweep, "solve_E", secant)
    predicted = run_sweep(F, m200, grid)
    monkeypatch.setattr(sweep, "solve_E", previous)
    plain = run_sweep(F, m200, grid)
    # from the third alpha on, the start is a prediction, not a minimizer
    starts = [init for init, _ in runs["secant"]]
    minimizers = [res.u for _, res in runs["secant"]]
    assert starts[0] is None and starts[1] is minimizers[0]
    assert all(not any(s is u for u in minimizers) for s in starts[2:])
    for a, b in zip(predicted, plain):
        assert a.converged and b.converged
        assert a.energy == pytest.approx(b.energy, rel=1e-12, abs=0)
        assert a.lam == pytest.approx(b.lam, rel=1e-9, abs=0)
    iterations = {k: sum(res.iterations for _, res in v)
                  for k, v in runs.items()}
    assert iterations["secant"] < iterations["previous"]


def _stub_solve(unconverged, calls, shape=None):
    """Stand-in for solve_E on the power-2 branch E = 2 alpha, flagged
    unconverged at the alphas in ``unconverged``; records each call's
    (start, result).  The minimizer is sqrt(alpha) times ``shape`` (by
    default a sine, which the secant extrapolates to itself)."""
    def solve(F, m, alpha, opts, initial=None):
        base = (np.sin(np.pi * m.interior_coords[:, 0]) if shape is None
                else shape)
        res = SimpleNamespace(
            u=m.field(base * alpha ** 0.5), energy=2.0 * alpha, lam=2.0,
            converged=alpha not in unconverged, residual=0.0, iterations=1)
        calls.append((initial, res))
        return res
    return solve


def test_derivative_needs_both_neighbours_converged(m200, monkeypatch):
    grid = geometric_grid(0.1, 10.0, 5)
    calls = []
    monkeypatch.setattr(sweep, "solve_E",
                        _stub_solve({float(grid[4])}, calls))
    recs = run_sweep(YoungFunction.power(2), m200, grid)
    for k, r in enumerate(recs):
        if k in (0, 3, 5, len(recs) - 1):
            assert math.isnan(r.dE_dalpha)
        else:
            assert r.dE_dalpha == pytest.approx(2.0, rel=1e-12)
    # the derivative check uses the converged records with both neighbours
    # converged: 1, 2, 6, 7, 8 and 9
    report = check_derivative(recs)
    assert report["records_used"] == 6
    assert report["overall_pass"]
    # starts: cold, the last minimizer, then predictions; the unconverged
    # alpha resets the branch, so the two alphas after it start from the
    # last converged minimizer
    starts = [init for init, _ in calls]
    u = [res.u for _, res in calls]
    assert starts[0] is None and starts[1] is u[0]
    assert starts[5] is u[3] and starts[6] is u[5]
    for k in (2, 3, 4, 7, 8, 9, 10):
        assert not any(starts[k] is v for v in u)
        # the sine shape is on every minimizer, so the secant keeps it
        assert np.allclose(starts[k].values / u[k].values,
                           starts[k].values[0] / u[k].values[0], rtol=1e-12)


def test_secant_start_falls_back_on_a_degenerate_prediction(m200,
                                                            monkeypatch):
    # zero minimizers have no shape: the prediction is not finite and each
    # alpha starts from the previous minimizer
    grid = geometric_grid(0.1, 1.0, 3)
    calls = []
    monkeypatch.setattr(sweep, "solve_E", _stub_solve(
        set(), calls, np.zeros(m200.interior_count)))
    run_sweep(YoungFunction.power(2), m200, grid)
    assert all(calls[k][0] is calls[k - 1][1].u for k in range(1, 4))


def test_warm_options_differ_only_in_restarts(m200, monkeypatch):
    opts = SolveOptions(tol=1e-9, max_iter=321, restarts=3, seed=7)
    calls = []
    monkeypatch.setattr(sweep, "solve_E", _counting(
        _stub_reference(np.ones(m200.interior_count)), calls))
    run_sweep(YoungFunction.power(2), m200, geometric_grid(0.1, 1.0, 3), opts)
    assert calls[0] is opts
    assert calls[1:] == [replace(opts, restarts=1)] * 3


# -- the Power(p) reference of the endpoint limits ---------------------------

def _flat_records(alphas, quotient=1.0):
    """Converged records with a constant quotient, enough for the limits'
    extrapolation to run without a sweep."""
    return [SweepRecord(alpha=float(a), energy=quotient * a,
                        quotient=quotient, lam=quotient, converged=True,
                        residual=0.0) for a in alphas]


def _counting(solve, calls, starts=None):
    """``solve`` that appends each call's options to ``calls``, and its
    ``initial`` to ``starts`` when given."""
    def counted(F, m, alpha, opts, initial=None):
        calls.append(opts)
        if starts is not None:
            starts.append(initial)
        return solve(F, m, alpha, opts, initial)
    return counted


def _stub_reference(values, converged=True):
    """Stand-in for solve_E returning the field ``values`` on every call."""
    def solve(F, m, alpha, opts, initial=None):
        return SimpleNamespace(u=m.field(np.asarray(values, dtype=float)),
                               energy=1.0, lam=1.0, residual=0.0,
                               converged=converged, iterations=1)
    return solve


def test_limits_reference_is_one_run_per_endpoint(m200, monkeypatch):
    F = YoungFunction.sum_of_powers(2, 4)
    recs = _flat_records(geometric_grid(1e-2, 1e2, 5))
    calls = []
    monkeypatch.setattr(sweep, "solve_E", _counting(solve_E, calls))
    for ep in (Endpoint.ZERO, Endpoint.INFINITY):
        estimate_limits(F, m200, recs, ep)
    assert [o.restarts for o in calls] == [1, 1]
    # only the start count differs from the caller's (default) options
    assert all(o.tol == SolveOptions().tol and o.seed == SolveOptions().seed
               for o in calls)


def _nonlocal_case(N=64):
    return NonlocalMesh(1.0, N, 0.5), solve_E


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("case", ["interval", "rectangle", "nonlocal"])
def test_limits_reference_matches_multistart(case, p, monkeypatch):
    if case == "interval":
        m, solve = Mesh.interval(1.0, 200), solve_E
    elif case == "rectangle":
        m, solve = Mesh.rectangle(1.0, 1.0, 24, 24), solve_E
    else:
        m, solve = _nonlocal_case()
    F = YoungFunction.power(p)
    calls = []
    monkeypatch.setattr(sweep, "solve_E", _counting(solve, calls))
    le = estimate_limits(F, m, _flat_records(geometric_grid(1.0, 10.0, 3)),
                         Endpoint.INFINITY)
    assert [o.restarts for o in calls] == [1]  # the single run was kept
    multi = solve(YoungFunction.power(le.exponent), m, 1.0,
                  SolveOptions(restarts=5))
    assert multi.converged
    assert le.reference == pytest.approx(multi.energy, rel=1e-12, abs=0)


@pytest.mark.parametrize("values,converged", [(np.ones(199), False)],
                         ids=["unconverged"])
def test_limits_reference_falls_back_to_callers_options(m200, values,
                                                        converged,
                                                        monkeypatch):
    recs = _flat_records(geometric_grid(1.0, 10.0, 3))
    opts = SolveOptions(tol=1e-9, seed=7)
    calls = []
    monkeypatch.setattr(sweep, "solve_E", _counting(
        _stub_reference(values, converged), calls))
    estimate_limits(YoungFunction.power(2), m200, recs, Endpoint.INFINITY,
                    opts)
    assert len(calls) == 2
    assert calls[0].restarts == 1 and calls[0].tol == 1e-9
    assert calls[1] is opts


def test_limits_reference_keeps_a_one_signed_run(m200, monkeypatch):
    # a converged run of one sign, negative included, is kept as it is
    recs = _flat_records(geometric_grid(1.0, 10.0, 3))
    for values in (np.ones(199), -np.ones(199)):
        calls = []
        monkeypatch.setattr(sweep, "solve_E",
                            _counting(_stub_reference(values), calls))
        estimate_limits(YoungFunction.power(2), m200, recs,
                        Endpoint.INFINITY)
        assert [o.restarts for o in calls] == [1]


@pytest.mark.parametrize("case", ["interval", "nonlocal"])
def test_limits_reference_starts_from_the_extreme_minimizer(case,
                                                            monkeypatch):
    # the one-start run starts at the minimizer of the extreme converged
    # record and ends at the minimizer the cold one-start run finds
    m = (Mesh.interval(1.0, 200) if case == "interval"
         else NonlocalMesh(1.0, 64, 0.5))
    F = YoungFunction.sum_of_powers(2, 4)
    recs = run_sweep(F, m, geometric_grid(1e-2, 1e2, 3), SolveOptions(seed=1))
    assert all(r.converged for r in recs)
    for ep, extreme in ((Endpoint.ZERO, recs[0]),
                        (Endpoint.INFINITY, recs[-1])):
        calls, starts = [], []
        monkeypatch.setattr(sweep, "solve_E",
                            _counting(solve_E, calls, starts))
        le = estimate_limits(F, m, recs, ep)
        assert [o.restarts for o in calls] == [1]
        assert starts[0] is extreme.u
        cold = solve_E(YoungFunction.power(le.exponent), m, 1.0,
                       SolveOptions(restarts=1))
        assert cold.converged
        assert le.reference == pytest.approx(cold.energy, rel=1e-12, abs=0)


def test_limits_reference_from_a_sign_changing_minimizer_is_one_run(
        m200, monkeypatch):
    # a warm start at a sign-changing record gives one run, which the
    # solver takes on from |u| to the minimizer of one sign: the cold
    # one-start reference
    recs = _flat_records(geometric_grid(1.0, 10.0, 3))
    recs[-1].u = m200.field(np.sin(2 * np.pi * m200.interior_coords[:, 0]))
    calls, refs = [], []

    def solve(F, m, alpha, opts, initial=None):
        refs.append(solve_E(F, m, alpha, opts, initial))
        return refs[-1]
    monkeypatch.setattr(sweep, "solve_E", _counting(solve, calls))
    le = estimate_limits(YoungFunction.power(2), m200, recs,
                         Endpoint.INFINITY)
    assert [o.restarts for o in calls] == [1]
    [ref] = refs
    assert ref.converged and np.all(ref.u.values >= 0.0)
    cold = solve_E(YoungFunction.power(2), m200, 1.0,
                   SolveOptions(restarts=1))
    assert cold.converged
    assert le.reference == ref.energy
    assert le.reference == pytest.approx(cold.energy, rel=1e-12, abs=0)


def test_sweep_records_keep_their_keys_and_columns(capsys, tmp_path):
    # the kept minimizer is neither in as_dict nor in the sweep's CSV
    keys = ["alpha", "energy", "quotient", "lambda", "dE_dalpha",
            "converged", "residual", "iterations"]
    m = Mesh.interval(1.0, 20)
    recs = run_sweep(YoungFunction.power(2), m, geometric_grid(0.1, 1.0, 3))
    assert all(r.u is not None for r in recs)
    assert all(list(r.as_dict()) == keys for r in recs)
    csv = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--young", SOP24, "--mesh", "interval:1.0,20",
                     "--alpha-min", "0.1", "--alpha-max", "1",
                     "--per-decade", "3", "--csv", str(csv)]) == 0
    capsys.readouterr()
    assert csv.read_text().splitlines()[0] == ",".join(keys)


def test_limits_reference_keeps_explicit_restarts(m200, monkeypatch):
    recs = _flat_records(geometric_grid(1.0, 10.0, 3))
    opts = SolveOptions(restarts=3)
    calls = []
    monkeypatch.setattr(sweep, "solve_E", _counting(solve_E, calls))
    le = estimate_limits(YoungFunction.power(2), m200, recs,
                         Endpoint.INFINITY, opts)
    assert len(calls) == 1 and calls[0] is opts
    assert le.reference == solve_E(YoungFunction.power(le.exponent), m200,
                                   1.0, opts).energy


def test_limits_fit_each_endpoint_exponent_once(m200, monkeypatch):
    fitted = []

    def counted(F, endpoint, *args, **kwargs):
        fitted.append(Endpoint(endpoint))
        return matuszewska_exponent(F, endpoint, *args, **kwargs)
    monkeypatch.setattr(sweep, "matuszewska_exponent", counted)
    F = YoungFunction.sum_of_powers(2, 4)
    recs = _flat_records(geometric_grid(1e-2, 1e2, 5))
    monkeypatch.setattr(sweep, "solve_E", _stub_reference(np.ones(199)))
    report = check_limits(F, m200, recs, SolveOptions())
    assert set(report) == {"overall_pass", "zero", "infinity"}
    assert sorted(e.value for e in fitted) == ["infinity", "zero"]


# -- the checks' gates and their validation, in sweep ------------------------

def test_derivative_gate_fails_a_lambda_scaled_by_1_05(sweep24):
    report = check_derivative(sweep24)
    assert report["overall_pass"] and report["median_relative_gap"] < 2e-2
    # negative control: every lambda 5% high, so every gap is about 4.8%
    scaled = check_derivative([replace(r, lam=1.05 * r.lam)
                               for r in sweep24])
    assert scaled["records_used"] == report["records_used"]
    assert scaled["sandwich_ok"] and scaled["median_relative_gap"] > 2e-2
    assert not scaled["overall_pass"]


def test_limits_gate_fails_a_reference_perturbed_by_6_percent(m200,
                                                              monkeypatch):
    F = YoungFunction.power(2)
    recs = run_sweep(F, m200, geometric_grid(0.1, 10.0, 5))
    assert check_limits(F, m200, recs)["overall_pass"]
    for ep, other, extreme in ((Endpoint.ZERO, "infinity", recs[0].u),
                               (Endpoint.INFINITY, "zero", recs[-1].u)):
        # negative control: the reference of one endpoint (the one started
        # at that endpoint's minimizer) 6% high, a gap of 0.06/1.06
        def perturbed(F, m, alpha, opts, initial=None, extreme=extreme):
            ref = solve_E(F, m, alpha, opts, initial)
            return (replace(ref, energy=1.06 * ref.energy)
                    if initial is extreme else ref)
        monkeypatch.setattr(sweep, "solve_E", perturbed)
        report = check_limits(F, m200, recs)
        assert report[ep.value]["relative_gap"] == pytest.approx(
            0.06 / 1.06, rel=1e-6)
        assert not report[ep.value]["overall_pass"]
        assert report[other]["overall_pass"] and not report["overall_pass"]


@pytest.mark.parametrize("check,young,cells,error,message", [
    ("bogus", '{"family": "power", "params": {"p": 2}}', 100, ConfigError,
     "unknown check 'bogus'; choose from bounds, derivative, limits, decay"),
    ("bounds", '{"family": "double_exp"}', 100, ConfigError,
     "bounds check needs the doubling condition"),
    ("decay", '{"family": "exp_minus_poly", "params": {"n": 2}}', 50,
     GeometryError, "decay requires inner radius > 1 (got 0.5)"),
], ids=["bogus", "bounds-double-exp", "decay-small-domain"])
def test_checks_are_rejected_before_any_solve(capsys, monkeypatch, check,
                                              young, cells, error, message):
    solves = []
    monkeypatch.setattr(sweep, "solve_E",
                        lambda *args, **kwargs: solves.append(args))
    F = YoungFunction.from_config(json.loads(young))
    with pytest.raises(error, match=re.escape(message)):
        prepare_checks([check], F, Mesh.interval(1.0, cells),
                       geometric_grid(0.1, 10.0, 5))
    # the CLI raises the same error from the same call, before any solve
    assert cli.main(["sweep", "--young", young,
                     "--mesh", f"interval:1.0,{cells}", "--alpha-min", "0.1",
                     "--alpha-max", "10", "--check", check]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert solves == []


@pytest.mark.parametrize("alpha", [0.01, 1.0])
def test_bounds_check_needs_delta2_at_both_endpoints(alpha):
    # exp_neg_inv_power fails Delta_2 at zero, though its index there is
    # finite at alpha = 0.01 (10.0): no band of [1/p, p] holds there
    F = YoungFunction.exp_neg_inv_power(alpha)
    assert not delta2_report(F, Endpoint.ZERO).holds
    with pytest.raises(ConfigError, match=re.escape(
            "bounds check needs the doubling condition; it fails at zero")):
        prepare_checks(["bounds"], F, Mesh.interval(1.0, 100),
                       geometric_grid(0.1, 10.0, 5))


@pytest.mark.parametrize("F", [YoungFunction.sum_of_powers(2, 4),
                               YoungFunction.power_log(2, 1, 1)],
                         ids=lambda F: F.label)
def test_bounds_check_runs_where_delta2_holds(F):
    checks = prepare_checks(["bounds"], F, Mesh.interval(1.0, 100),
                            geometric_grid(0.1, 10.0, 5))
    assert list(checks) == ["bounds"]


def test_prepared_checks_run_in_the_order_named(sweep24, m200, monkeypatch):
    F = YoungFunction.sum_of_powers(2, 4)
    monkeypatch.setattr(sweep, "solve_E", _stub_reference(np.ones(199)))
    checks = prepare_checks(["limits", "derivative", "bounds"], F, m200,
                            geometric_grid(1e-2, 1e2, 5))
    assert list(checks) == ["limits", "derivative", "bounds"]
    reports = {name: run(sweep24) for name, run in checks.items()}
    assert all("overall_pass" in r for r in reports.values())
    assert reports["derivative"] == check_derivative(sweep24)
    p = max(delta2_report(F, ep).p_index for ep in Endpoint)
    assert reports["bounds"] == check_bounds(sweep24, p)
    # decay, at the non-doubling endpoint of exp_minus_poly(2)
    F, m = YoungFunction.exp_minus_poly(2), Mesh.interval(4.0, 100)
    records = _exact_branch(lambda a: 2.0 * math.sqrt(a),
                            geometric_grid(0.1, 100, 3), 0.5)
    run = prepare_checks(["decay"], F, m, geometric_grid(0.1, 100, 3))
    assert run["decay"](records) == check_decay(F, m, records,
                                                Endpoint.INFINITY)


def test_limits_estimate_for_another_endpoint_rejected(m200):
    F = YoungFunction.sum_of_powers(2, 4)
    est = matuszewska_exponent(F, Endpoint.ZERO)
    with pytest.raises(ConfigError, match="endpoint"):
        estimate_limits(F, m200, [], Endpoint.INFINITY, estimate=est)


def test_sweep_pins_the_cli_answer(cli_sweep24):
    """A determinism pin for refactors of the 1D path, not an accuracy
    check: E and lambda of the CLI's `sweep --young sop24 --mesh
    interval:1.0,200 --alpha-min 1e-4 --alpha-max 1e4 --per-decade 5
    --seed 1` at alpha = 1e-4, 1 and 1e4 (one BLAS thread), kept to 1e-12
    relative, which pins the arithmetic of the projection, the descent,
    the polish and the warm starts, not the discrete eigenvalue."""
    pinned = {1e-4: (0.0009882492040670882, 9.895591621475281),
              1.0: (40.21394790521244, 50.829169386803066),
              1e4: (725785.1313915467, 72.8141422569319)}
    got = {r.alpha: (r.energy, r.lam) for r in cli_sweep24
           if r.alpha in pinned}
    assert sorted(got) == sorted(pinned)
    for alpha, (E, lam) in pinned.items():
        assert got[alpha][0] == pytest.approx(E, rel=1e-12)
        assert got[alpha][1] == pytest.approx(lam, rel=1e-12)


def test_every_polish_of_the_benchmark_sweep_takes_at_most_4_newton_steps(
        monkeypatch, capsys):
    # handed over at residual 1e-1, the Newton steps, their CG forcing
    # tied to the residual, make the tail quadratic: in each of the 43 runs
    # of the benchmark's sweep (41 alphas, the first's certified by its
    # check, and the two limits references)
    # at seed 1 they end the run within 3 steps, 86 in all (108 with a
    # fixed forcing of 1e-2; each limits reference, started at its
    # endpoint's minimizer, takes 2, where the cold Power(4) reference took
    # 4 after 6 descent steps), and the 43 runs make 3 descent steps in all
    # (each warm alpha none; 98 when the descent went on to 1e-4).  A
    # linear tail takes more steps, or stalls and hands the iterate back to
    # the descent steps
    descend, runs = solver._descend, []

    def counted_run(*args):
        run = descend(*args)
        runs.append(run)
        return run
    monkeypatch.setattr(solver, "_descend", counted_run)
    assert cli.main(["sweep", "--young", SOP24, "--mesh", "interval:1.0,200",
                     "--alpha-min", "1e-4", "--alpha-max", "1e4",
                     "--per-decade", "5", "--check",
                     "bounds,derivative,limits", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] == 41
    steps = [run.newton_steps for run in runs]
    assert len(runs) == 43 and sum(n > 0 for n in steps) == 43
    assert max(steps) <= 3 and sum(steps) <= 86
    assert sum(run.iterations for run in runs) - sum(steps) <= 3


def test_every_minimizer_of_the_benchmark_sweep_meets_alpha_to_1e_14(
        monkeypatch, capsys):
    # the projection of a Newton iterate, which lies on the constraint's
    # tangent, starts within 1e-12 of alpha; the moment path takes its last
    # scalar step there instead of keeping the start's modular error (up
    # to 2.4e-13 relative over this sweep when it broke without the step)
    misses = []

    def recorded(F, m, alpha, *args, **kwargs):
        res = solve_E(F, m, alpha, *args, **kwargs)
        misses.append(abs(res.alpha - alpha) / alpha)
        return res
    monkeypatch.setattr(sweep, "solve_E", recorded)
    assert cli.main(["sweep", "--young", SOP24, "--mesh", "interval:1.0,200",
                     "--alpha-min", "1e-4", "--alpha-max", "1e4",
                     "--per-decade", "5", "--check",
                     "bounds,derivative,limits", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] == 41
    assert len(misses) == 43 and max(misses) <= 1e-14


def test_every_polish_of_the_benchmark_sweep_factors_the_stiffness_once(
        monkeypatch, capsys):
    # the Newton steps keep their factor across full steps, and every
    # Newton step of the benchmark's sweep at seed 1 is one: each of the
    # 43 runs makes Newton steps and builds one factor for them (86 steps;
    # 120 factorizations in the whole sweep when each Newton step
    # refactored, 55 with cold limits references, 48 now)
    descend, newton = solver._descend, solver._newton
    preconditioner = solver.Problem.preconditioner
    runs, inside = [], [0]

    def counted_run(*args):
        runs.append(0)
        run = descend(*args)
        runs[-1] = (runs[-1], run.newton_steps)
        return run

    def counted_newton(*args):
        inside[0] += 1
        try:
            return newton(*args)
        finally:
            inside[0] -= 1

    def counted_build(self, values):
        if inside[0]:
            runs[-1] += 1
        return preconditioner(self, values)
    monkeypatch.setattr(solver, "_descend", counted_run)
    monkeypatch.setattr(solver, "_newton", counted_newton)
    monkeypatch.setattr(solver.Problem, "preconditioner", counted_build)
    assert cli.main(["sweep", "--young", SOP24, "--mesh", "interval:1.0,200",
                     "--alpha-min", "1e-4", "--alpha-max", "1e4",
                     "--per-decade", "5", "--check",
                     "bounds,derivative,limits", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] == 41
    assert [builds for builds, steps in runs if steps] == [1] * 43
    assert [builds for builds, steps in runs if not steps] == []


def test_warm_alphas_of_the_cli_sweep_take_at_most_16_iterations(
        cli_sweep24):
    # the descent's stall rule ends the unit step's two-cycle over the
    # minimizer (23 and 27 iterations at alpha = 0.0251 and 0.0398 without
    # it), and the predicted starts keep every warm alpha short
    assert len(cli_sweep24) == 41
    assert all(r.converged for r in cli_sweep24)
    assert all(isinstance(r.iterations, int) for r in cli_sweep24)
    assert max(r.iterations for r in cli_sweep24[1:]) <= 16


def _two_mode_fields(m, xs, scales):
    """Fields r_k (a + b T3(x_k)) on m, with a and b orthogonal in the
    ``node_weights`` inner product and T3(x) = 4x^3 - 3x, which is +-1 at
    x = -1, -1/2, 1/2 and 1: there every shape is (a + b T3(x_k))/c with
    c^2 = |a|^2 + |b|^2, a cubic in x.  Returns the branch and that cubic
    shape as a function of x."""
    w, t = m.node_weights, m.interior_coords[:, 0]
    a, b = np.sin(np.pi * t), np.sin(2.0 * np.pi * t)
    b = b - np.dot(w, a * b) / np.dot(w, a * a) * a
    c = math.sqrt(np.dot(w, a * a) + np.dot(w, b * b))

    def shape(x):
        return (a + (4.0 * x ** 3 - 3.0 * x) * b) / c
    return [(x, r * c * shape(x)) for x, r in zip(xs, scales)], shape


def test_secant_start_is_the_cubic_through_four_shapes():
    m = Mesh.interval(1.0, 40)
    branch, shape = _two_mode_fields(m, (-1.0, -0.5, 0.5, 1.0),
                                     (0.3, 2.0, 7.0, 0.05))
    for x in (1.5, 2.0, 0.0):
        pred = sweep._secant_start(branch, x, m).values
        np.testing.assert_allclose(pred, shape(x), rtol=0.0,
                                   atol=1e-12 * np.abs(shape(x)).max())
    # three shapes give their parabola, which is not the cubic
    pred = sweep._secant_start(branch[1:], 1.5, m).values
    assert np.abs(pred - shape(1.5)).max() > 1.0


def test_secant_start_of_two_shapes_is_the_linear_secant():
    m = Mesh.interval(1.0, 40)
    rng = np.random.default_rng(5)
    u0, u1 = (np.abs(rng.standard_normal(m.interior_count)) + 0.1
              for _ in range(2))
    x0, x1, x = math.log(0.1), math.log(0.1585), math.log(0.2512)
    pred = sweep._secant_start([(x0, u0), (x1, u1)], x, m).values
    y0, y1 = (u / np.sqrt(np.dot(m.node_weights, u * u)) for u in (u0, u1))
    assert np.array_equal(pred, y1 + (x - x1) / (x1 - x0) * (y1 - y0))


def test_secant_start_rejects_a_repeated_alpha():
    m = Mesh.interval(1.0, 40)
    branch, _ = _two_mode_fields(m, (-1.0, -0.5, -0.5, 1.0), (1, 1, 1, 1))
    assert sweep._secant_start(branch, 1.5, m) is None
