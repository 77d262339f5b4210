"""CLI surface: subcommands, outputs, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import orlicz_eigen
from orlicz_eigen import cli
from orlicz_eigen.cli import main
from orlicz_eigen.errors import OrliczError
from orlicz_eigen.fractional import NonlocalMesh
from orlicz_eigen.solver import SolveOptions, solve_E
from orlicz_eigen.sweep import geometric_grid, run_sweep
from orlicz_eigen.young import YoungFunction

POWER2 = '{"family": "power", "params": {"p": 2}}'
SUM24 = '{"family": "sum_of_powers", "params": {"p": 2, "q": 4}}'
EXP2 = '{"family": "exp_minus_poly", "params": {"n": 2}}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_interpreter(probe):
    """Standard output of ``probe`` run by a new interpreter on these sources."""
    src = str(Path(orlicz_eigen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}).stdout


def test_import_leaves_scipy_integrate_unloaded():
    # a fresh interpreter, since these tests load scipy.integrate; the
    # custom family loads it on its first A, with the values it had when
    # the module imported it
    probe = """if True:
        import math, sys
        import numpy as np
        import orlicz_eigen.cli
        from orlicz_eigen.young import YoungFunction
        before = "scipy.integrate" in sys.modules
        F = YoungFunction.custom(lambda t: t * math.log1p(t))
        A = list(F.A(np.array([0.5, 3.0, 1.0, 10.0]))) + [F.A(2.5)]
        print(before, "scipy.integrate" in sys.modules,
              *(float(v).hex() for v in A))
    """
    assert fresh_interpreter(probe).split() == [
        "False", "True", "0x1.2269439c1371cp-5", "0x1.32e42fefa39f0p+2",
        "0x1.0000000000000p-2", "0x1.8ac883fd8c98ap+6",
        "0x1.7ceda8d4de08dp+1"]


def test_import_leaves_scipy_linalg_unloaded():
    # the solver loads scipy's LAPACK wrappers from their extension file;
    # the custom family's quad, which imports scipy.linalg, still evaluates
    # after that, and scipy.linalg hands out the very same wrappers
    probe = """if True:
        import math, sys
        import numpy as np
        import orlicz_eigen.cli
        from orlicz_eigen import solver
        from orlicz_eigen.young import YoungFunction
        print(*(name in sys.modules
                for name in ("scipy.linalg", "scipy.integrate")))
        F = YoungFunction.custom(lambda t: t * math.log1p(t))
        print(float(F.A(2.5)).hex(), "scipy.linalg" in sys.modules)
        from scipy.linalg import get_lapack_funcs
        pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (np.empty(0),))
        print(pbtrf is solver._PBTRF, pbtrs is solver._PBTRS)
    """
    assert fresh_interpreter(probe).split() == [
        "False", "False", "0x1.7ceda8d4de08ep+1", "True", "True", "True"]


def test_first_command_loads_no_numpy_or_scipy_module():
    # set-up stays in set-up: after the import, a sweep with every check
    # but decay and a nonlocal solve load no further numpy or scipy module
    # (argparse's messages may load locale)
    probe = f"""if True:
        import contextlib, io, sys
        from orlicz_eigen import cli
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["sweep", "--young", {SUM24!r},
                               "--mesh", "interval:1.0,40",
                               "--alpha-min", "1e-2", "--alpha-max", "1e2",
                               "--per-decade", "3", "--seed", "1",
                               "--check", "bounds,derivative,limits"]),
                     cli.main(["nonlocal", "--young", {SUM24!r},
                               "--interval", "1.0", "--s", "0.5",
                               "--nodes", "16", "--alpha", "1.0"])]
        print(*codes, *sorted(name for name in set(sys.modules) - before
                              if name.startswith(("numpy", "scipy"))))
    """
    out = fresh_interpreter(probe).split()
    # exit 1: the derivative check fails on so coarse a grid
    assert out[:2] == ["1", "0"] and out[2:] == []


def test_numpy_random_loads_only_for_a_random_start():
    # numpy.random (about 10 ms per process) loads when the start pool draws
    # its first random field: not on import, not for a default solve whose
    # first start is certified, and for an explicit second start
    probe = f"""if True:
        import contextlib, io, sys
        from orlicz_eigen import cli
        loaded = ["numpy.random" in sys.modules]
        for extra in ([], ["--restarts", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["nonlocal", "--young", {SUM24!r},
                                 "--interval", "1.0", "--s", "0.5",
                                 "--nodes", "128", "--alpha", "1.0",
                                 "--seed", "1"] + extra)
            loaded.append((code, "numpy.random" in sys.modules))
        print(*loaded)
    """
    assert fresh_interpreter(probe).split() == [
        "False", "(0,", "False)", "(0,", "True)"]


def test_import_compiles_young_before_numpy_loads():
    # the package imports young first, so numpy's import reuses the memory
    # that compiling young freed (see orlicz_eigen/__init__.py)
    probe = """if True:
        import sys
        order = []
        class Watch:
            def find_spec(self, name, path=None, target=None):
                if name in ("numpy", "orlicz_eigen.young"):
                    order.append(name)
        sys.meta_path.insert(0, Watch())
        import orlicz_eigen
        print(*order)
    """
    assert fresh_interpreter(probe).split() == ["orlicz_eigen.young", "numpy"]


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


def test_version_matches_pyproject(capsys):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(),
                      re.MULTILINE)
    assert match and orlicz_eigen.__version__ == match.group(1)
    _, out, _ = run(capsys, "--version")
    assert out.split() == ["orlicz-eigen", match.group(1)]


def test_inspect_sum_of_powers(capsys):
    code, out, _ = run(capsys, "inspect", "--young", SUM24)
    assert code == 0
    payload = json.loads(out)
    assert payload["p_index"] == pytest.approx(4.0, abs=1e-6)
    assert payload["matuszewska"]["zero"]["exponent"] == \
        pytest.approx(2.0, abs=1e-2)
    assert payload["matuszewska"]["infinity"]["exponent"] == \
        pytest.approx(4.0, abs=1e-2)


def test_inspect_reports_a_divergent_index_for_a_non_doubling_function(
        capsys):
    # Delta_2 fails at infinity for e^t - 1 - t, so the global index is
    # infinite although the index at zero is finite; `sweep --check bounds`
    # rejects this function through the same index
    code, out, _ = run(capsys, "inspect", "--young", EXP2)
    assert code == 0
    payload = json.loads(out)
    assert math.isfinite(payload["delta2"]["zero"]["p_index"])
    assert payload["delta2"]["infinity"]["p_index"] == math.inf
    assert payload["p_index"] == math.inf


def test_solve_json_and_csv(capsys, tmp_path):
    csv = tmp_path / "u.csv"
    code, out, _ = run(capsys, "solve", "--young", POWER2,
                       "--mesh", "interval:1.0,100", "--alpha", "1.0",
                       "--csv", str(csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"]
    assert payload["lambda"] == pytest.approx(9.8696, rel=1e-3)
    header = csv.read_text().splitlines()[0]
    assert header == "x0,value"


def test_solver_flags_default_to_solve_options():
    args = cli.build_parser().parse_args(
        ["solve", "--young", "{}", "--mesh", "interval:1.0,10",
         "--alpha", "1"])
    assert cli._solve_options(args) == SolveOptions()


def test_solve_bad_config_exit_2(capsys):
    code, _, err = run(capsys, "solve", "--young",
                       '{"family": "power", "params": {"p": 2, "zzz": 1}}',
                       "--mesh", "interval:1.0,100", "--alpha", "1.0")
    assert code == 2
    assert "zzz" in err


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
def test_bad_alpha_exit_2(capsys, alpha):
    code, out, err = run(capsys, "solve", "--young", POWER2,
                         "--mesh", "interval:1.0,100", "--alpha", alpha)
    assert code == 2 and out == ""
    assert "alpha" in err
    code, out, err = run(capsys, "nonlocal", "--young", POWER2,
                         "--interval", "1.0", "--nodes", "16",
                         "--s", "0.5", "--alpha", alpha)
    assert code == 2 and out == ""
    assert "alpha" in err


@pytest.mark.parametrize("flag,value,message", [
    ("--interval", "nan", "finite and positive"),
    ("--interval", "inf", "finite and positive"),
    # the halo cutoff is gone: the exterior is integrated exactly
    ("--rcut", "nan", "unrecognized arguments: --rcut nan"),
    ("--rcut", "inf", "unrecognized arguments: --rcut inf")],
    ids=["--interval-nan", "--interval-inf", "--rcut-nan", "--rcut-inf"])
def test_bad_nonlocal_geometry_exit_2(capsys, flag, value, message):
    argv = {"--interval": "1.0", flag: value}
    code, out, err = run(capsys, "nonlocal", "--young", POWER2,
                         "--nodes", "16", "--s", "0.5", "--alpha", "1.0",
                         *[x for kv in argv.items() for x in kv])
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("command", [
    ("nonlocal", "--interval", "1.0", "--nodes", "16", "--s", "0.5",
     "--alpha", "1.0"),
    ("sweep", "--nonlocal", "--mesh", "interval:1.0,16", "--alpha-min",
     "0.1", "--alpha-max", "1")], ids=["nonlocal", "sweep"])
def test_removed_rcut_flag_exit_2(capsys, command):
    code, out, err = run(capsys, *command, "--young", POWER2,
                         "--rcut", "4.0")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --rcut 4.0" in err


@pytest.mark.parametrize("young,mesh,word", [
    (POWER2, "interval:1.0,abc", "interval"),
    (POWER2, "rectangle:1.0,1.0,x,8", "rectangle"),
    ('{"family": "power", "params": {"p": "x"}}', "interval:1.0,100",
     "non-numeric"),
], ids=["interval", "rectangle", "young-param"])
def test_non_numeric_spec_exit_2(capsys, young, mesh, word):
    code, out, err = run(capsys, "solve", "--young", young, "--mesh", mesh,
                         "--alpha", "1.0")
    assert code == 2 and out == ""
    assert word in err and "Traceback" not in err


@pytest.mark.parametrize("restarts", ["0", "-1"])
def test_restarts_below_one_exit_2(capsys, restarts):
    code, out, err = run(capsys, "solve", "--young", POWER2,
                         "--mesh", "interval:1.0,100", "--alpha", "1.0",
                         "--restarts", restarts)
    assert code == 2 and out == ""
    assert "restarts" in err


@pytest.mark.parametrize("mesh,word", [
    ("interval:nan,10", "finite"),
    ("interval:inf,10", "finite"),
    ("rectangle:1,nan,4,4", "finite"),
    ('{"dim": "x", "extents": [1], "counts": [10]}', "dim must be 1 or 2"),
    ('{"dim": 1.5, "extents": [1], "counts": [10]}', "dim must be 1 or 2"),
    ('{"dim": 1, "extents": 1, "counts": [10]}', "non-numeric"),
    ('{"dim": 1, "extents": ["a"], "counts": [10]}',
     "non-numeric mesh config: could not convert string to float: 'a'"),
    ('{"dim": 1, "extents": [1], "counts": ["x"]}',
     "non-numeric mesh config: could not convert string to float: 'x'"),
    ('{"dim": 1, "extents": [1], "counts": [10.5]}', "whole numbers"),
], ids=["interval-nan", "interval-inf", "rectangle-nan", "json-dim",
        "json-dim-half", "json-extents-scalar", "json-extents-string",
        "json-counts-string", "json-counts-half"])
def test_bad_mesh_exit_2(capsys, mesh, word):
    code, out, err = run(capsys, "solve", "--young", POWER2, "--mesh", mesh,
                         "--alpha", "1.0")
    assert code == 2 and out == ""
    # a bad item is quoted as given, not through numpy's repr (np.str_)
    assert word in err and "Traceback" not in err and "np." not in err


@pytest.mark.parametrize("flag,value", [
    ("--tol", "inf"), ("--tol", "nan"), ("--tol", "0"), ("--tol", "-1"),
    ("--max-iter", "0"), ("--seed", "-1")])
def test_bad_solver_options_exit_2(capsys, flag, value):
    code, out, err = run(capsys, "solve", "--young", POWER2,
                         "--mesh", "interval:1.0,100", "--alpha", "1.0",
                         flag, value)
    assert code == 2 and out == ""
    assert flag[2:].replace("-", "_") in err and "Traceback" not in err


def test_sweep_nan_alpha_exit_2(capsys):
    code, out, err = run(capsys, "sweep", "--young", POWER2,
                         "--mesh", "interval:1.0,100",
                         "--alpha-min", "nan", "--alpha-max", "10")
    assert code == 2 and out == ""
    assert "alpha" in err


def test_sweep_derivative_check_passes(capsys, tmp_path):
    csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--young", POWER2,
                       "--mesh", "interval:1.0,100",
                       "--alpha-min", "0.1", "--alpha-max", "10",
                       "--check", "derivative", "--csv", str(csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["derivative"]["overall_pass"]
    assert csv.read_text().startswith("alpha,energy,quotient,lambda")


def test_sweep_derivative_check_of_power_log_below_alpha_one(capsys):
    # power_log's density raised ln(1 + t^r) to max(alpha - 1, 0): for
    # alpha = 1/2 the solver's gradient read another problem than its
    # energy, and dE/dalpha = lambda failed at a median gap of 3.7e-2
    code, out, _ = run(capsys, "sweep", "--young", json.dumps(
        {"family": "power_log", "params": {"p": 2, "alpha": 0.5, "r": 1}}),
        "--mesh", "interval:1.0,100", "--alpha-min", "1e-1",
        "--alpha-max", "1e1", "--check", "derivative", "--seed", "1")
    derivative = json.loads(out)["checks"]["derivative"]
    assert derivative["overall_pass"] and code == 0
    assert derivative["median_relative_gap"] < 1e-2


def test_sweep_limits_check_of_a_steep_power_checks_infinity(capsys):
    # 8^7 passes DIVERGENCE_THRESHOLD, yet SumOfPowers(2,7) is power-like
    # of exponent 7 at infinity: checked, not skipped as degenerate
    code, out, _ = run(capsys, "sweep", "--young", json.dumps(
        {"family": "sum_of_powers", "params": {"p": 2, "q": 7}}),
        "--mesh", "interval:1.0,50", "--alpha-min", "1e-2",
        "--alpha-max", "1e2", "--per-decade", "3", "--check", "limits",
        "--seed", "1")
    limits = json.loads(out)["checks"]["limits"]
    assert limits["infinity"]["exponent"] == pytest.approx(7.0, rel=1e-6)
    assert limits["infinity"]["relative_gap"] <= 5e-2
    assert limits["overall_pass"] and code == 0


def test_sweep_limits_check_skips_a_non_power_like_endpoint(capsys):
    # exp_minus_poly(2) is power-like (index 2) at zero but grows faster
    # than any power at infinity: that endpoint is reported, not checked
    code, out, _ = run(capsys, "sweep", "--young", EXP2,
                       "--mesh", "interval:1.0,50",
                       "--alpha-min", "1e-3", "--alpha-max", "1",
                       "--per-decade", "3", "--check", "limits",
                       "--seed", "1")
    limits = json.loads(out)["checks"]["limits"]
    assert limits["infinity"] == {"regime": "trivial_degenerate",
                                  "skipped": True}
    assert limits["zero"]["overall_pass"] and limits["overall_pass"]
    assert code == 0


def test_sweep_decay_small_domain_exit_2(capsys):
    code, _, err = run(capsys, "sweep", "--young", EXP2,
                       "--mesh", "interval:1.0,100",
                       "--alpha-min", "1", "--alpha-max", "10",
                       "--check", "decay")
    assert code == 2
    assert "inner radius" in err


def test_sweep_unknown_check_exit_2(capsys):
    code, _, _ = run(capsys, "sweep", "--young", POWER2,
                     "--mesh", "interval:1.0,100",
                     "--alpha-min", "0.1", "--alpha-max", "1",
                     "--check", "nonsense")
    assert code == 2


@pytest.mark.parametrize("young,flags,message", [
    (POWER2, ("--check", "derivative,nonsense"), "unknown check 'nonsense'"),
    (EXP2, ("--check", "bounds"), "bounds check needs the doubling"),
    (POWER2, ("--check", "decay"), "decay check needs a non-doubling"),
    # doubling at both endpoints: its ratio rises to 8 at zero
    ('{"family": "power_log", "params": {"p": 2, "alpha": 1, "r": 1}}',
     ("--check", "decay"), "decay check needs a non-doubling"),
], ids=["unknown-check", "bounds-non-doubling", "decay-doubling",
        "decay-doubling-power-log"])
def test_sweep_rejects_bad_arguments_before_solving(capsys, monkeypatch,
                                                    young, flags, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the arguments were "
                             "checked")
    monkeypatch.setattr("orlicz_eigen.cli.run_sweep", no_sweep)
    code, out, err = run(capsys, "sweep", "--young", young,
                         "--mesh", "interval:1.0,100",
                         "--alpha-min", "0.1", "--alpha-max", "10", *flags)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("young,mesh,grid,check,message", [
    (POWER2, "interval:1.0,100", ("2", "10"), "bounds",
     "bounds need alpha = 1 inside the sweep grid"),
    (EXP2, "interval:1.0,100", ("0.1", "10"), "decay",
     "decay requires inner radius > 1"),
    (EXP2, "interval:4.0,100", ("2", "10"), "decay",
     "decay checks need alpha = 1 inside the sweep grid"),
], ids=["bounds-grid-without-one", "decay-small-domain",
        "decay-grid-without-one"])
def test_sweep_rejects_grid_and_mesh_before_solving(
        capsys, monkeypatch, young, mesh, grid, check, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the arguments were "
                             "checked")
    monkeypatch.setattr("orlicz_eigen.cli.run_sweep", no_sweep)
    code, out, err = run(capsys, "sweep", "--young", young, "--mesh", mesh,
                         "--alpha-min", grid[0], "--alpha-max", grid[1],
                         "--check", check)
    assert code == 2 and out == ""
    assert message in err


def test_sweep_without_converged_alpha_exit_1(capsys, tmp_path):
    csv = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--young", SUM24,
                         "--mesh", "interval:1.0,50",
                         "--alpha-min", "0.1", "--alpha-max", "10",
                         "--per-decade", "3", "--max-iter", "1",
                         "--check", "bounds,derivative,limits",
                         "--csv", str(csv))
    assert code == 1
    payload = json.loads(out)
    assert payload["records"] == 7 and payload["converged"] == 0
    assert payload["sup_quotient"] is None and payload["checks"] == {}
    assert "none of the 7 alpha values converged" in err
    assert "Traceback" not in err
    assert len(csv.read_text().splitlines()) == 8


@pytest.mark.parametrize("nodes, alpha", [("256", "1"), ("128", "100")])
def test_nonlocal_solve_with_a_stiffness_not_definite_exits_0(capsys, nodes,
                                                              alpha):
    # exp_minus_poly(2) at s = 0.9, seed 1, three starts: the second, whose
    # descent stiffness is not positive definite, ends unconverged, and the
    # third converges; the command raised LinAlgError with a traceback
    # before.  (The default stops after the first, certified, start.)
    code, out, err = run(capsys, "nonlocal", "--young", EXP2,
                         "--interval", "1.0", "--s", "0.9", "--alpha", alpha,
                         "--nodes", nodes, "--seed", "1", "--restarts", "3")
    payload = json.loads(out)
    assert code == 0 and err == ""
    assert payload["converged"] and payload["restarts_used"] == 3


def test_young_spec_read_from_a_file(capsys, tmp_path):
    spec = tmp_path / "young.json"
    spec.write_text(SUM24)
    inline = run(capsys, "inspect", "--young", SUM24)
    assert run(capsys, "inspect", "--young", str(spec)) == inline
    assert inline[0] == 0


@pytest.mark.parametrize("young, message", [
    ('{"family": "power", "params": {"p": 2}', "malformed JSON spec"),
    ("no-such-spec.json", "cannot read spec file")], ids=["json", "file"])
def test_unreadable_young_spec_exit_2(capsys, young, message):
    code, out, err = run(capsys, "inspect", "--young", young)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_orlicz_error_exits_1(capsys, monkeypatch):
    # an OrliczError that is not a configuration error, here a minimizer
    # that misses its constraint, is exit 1 with its message
    def missed(*args):
        raise OrliczError("minimizer misses the constraint")
    monkeypatch.setattr(cli, "solve_E", missed)
    code, out, err = run(capsys, "solve", "--young", POWER2,
                         "--mesh", "interval:1.0,20", "--alpha", "1.0")
    assert code == 1 and out == ""
    assert err == "error: minimizer misses the constraint\n"


@pytest.mark.parametrize("alpha_max, code", [("1e4", 0), ("1e3", 1)])
def test_sweep_decay_check(capsys, alpha_max, code):
    # exp_minus_poly(2) on (0, 4): E(alpha)/alpha falls over the last
    # decade, to 0.059 of 0.576 at alpha = 1e4 (below the 20% required)
    # but only to 0.149 at 1e3, which fails the check with exit 1
    got, out, _ = run(capsys, "sweep", "--young", EXP2,
                      "--mesh", "interval:4.0,100", "--alpha-min", "1",
                      "--alpha-max", alpha_max, "--per-decade", "3",
                      "--check", "decay", "--seed", "1")
    decay = json.loads(out)["checks"]["decay"]
    assert got == code and decay["strictly_decreasing_last_decade"]
    assert decay["overall_pass"] == (code == 0)


ENIP1 = '{"family": "exp_neg_inv_power", "params": {"alpha": 1}}'


def test_sweep_decay_check_of_exp_neg_inv_power_is_at_zero(capsys):
    # exp_neg_inv_power(1) is doubling at infinity (its ratio rises to 4)
    # and not at zero, so the decay check runs at zero: 0.0151 against
    # 0.625 at alpha = 1
    code, out, err = run(capsys, "sweep", "--young", ENIP1,
                         "--mesh", "interval:4.0,100", "--alpha-min", "1e-3",
                         "--alpha-max", "1e3", "--per-decade", "3",
                         "--check", "decay", "--seed", "1")
    decay = json.loads(out)["checks"]["decay"]
    assert code == 0 and err == ""
    assert decay["endpoint"] == "zero" and decay["overall_pass"]
    assert decay["final_quotient"] < 0.2 * decay["quotient_at_one"]


@pytest.mark.parametrize("argv", [
    ("solve", "--mesh", "interval:1.0,2", "--alpha", "1"),
    ("solve", "--mesh", "rectangle:1,1,2,2", "--alpha", "1"),
    ("sweep", "--mesh", "interval:1.0,2", "--alpha-min", "0.1",
     "--alpha-max", "10")], ids=["interval", "rectangle", "sweep"])
def test_one_interior_node_is_certified(capsys, argv):
    # with one interior node the constraint's tangent is {0}, over which
    # the second-order check's lowest eigenvalue is +inf
    code, out, err = run(capsys, *argv[:1], "--young", SUM24, *argv[1:])
    payload = json.loads(out)
    assert code == 0 and err == ""
    if argv[0] == "solve":
        assert payload["converged"] and payload["restarts_used"] == 1
        assert payload["hessian_min"] == math.inf
    else:
        assert payload["converged"] == payload["records"] == 11


@pytest.mark.parametrize("mesh, want", [
    ("interval:1.0,3", (24.33436854000505, 32.53374741600202,
                        65.06749483200409)),
    ("rectangle:1,1,3,2", (22.4731711616713, 29.989268464668513,
                           84.31083505599871))])
def test_two_interior_nodes_keep_their_answers(capsys, mesh, want):
    # the smallest meshes whose tangent is not {0}, bit for bit
    code, out, _ = run(capsys, "solve", "--young", SUM24, "--mesh", mesh,
                       "--alpha", "1", "--seed", "1")
    payload = json.loads(out)
    assert code == 0
    assert (payload["energy"], payload["lambda"],
            payload["hessian_min"]) == want


def test_nonlocal_solve(capsys):
    code, out, _ = run(capsys, "nonlocal", "--young", POWER2,
                       "--interval", "1.0", "--nodes", "32",
                       "--s", "0.5", "--alpha", "1.0", "--restarts", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"]
    assert set(payload) == {"alpha", "energy", "lambda", "residual",
                            "iterations", "newton_steps", "cg_iterations",
                            "converged", "restarts_used", "restart_spread",
                            "hessian_min"}
    assert payload["hessian_min"] is None  # an explicit --restarts checks none


@pytest.mark.parametrize("nodes", ["128", "256"])
def test_nonlocal_benchmark_commands_make_at_most_3_newton_steps(capsys,
                                                                 nodes):
    # the benchmark's nonlocal commands at seed 1: the returned run's last
    # steps are at most 3 Newton steps, after its descent steps
    code, out, _ = run(capsys, "nonlocal", "--young", SUM24,
                       "--interval", "1.0", "--s", "0.5", "--alpha", "1.0",
                       "--nodes", nodes, "--seed", "1")
    payload = json.loads(out)
    assert code == 0 and payload["converged"]
    assert 0 < payload["newton_steps"] <= 3 < payload["iterations"]


def test_solve_json_carries_deterministic_cg_iterations(capsys):
    # the CG iterations of the returned run's Newton steps, the same on a
    # rerun of the command
    argv = ("nonlocal", "--young", SUM24, "--interval", "1.0", "--s", "0.5",
            "--alpha", "1.0", "--nodes", "64", "--seed", "1")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0
    payload = json.loads(first[1])
    assert payload["cg_iterations"] > payload["newton_steps"] > 0


def test_nonlocal_sweep_matches_run_sweep(capsys, tmp_path):
    # sweep --nonlocal passes its NonlocalMesh to run_sweep and to the
    # limits reference like any mesh
    csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--young", SUM24, "--nonlocal",
                       "--s", "0.5", "--mesh", "interval:1.0,40",
                       "--alpha-min", "1e-2", "--alpha-max", "1e2",
                       "--per-decade", "3", "--seed", "1",
                       "--check", "bounds,derivative,limits",
                       "--csv", str(csv))
    assert code == 0
    checks = json.loads(out)["checks"]
    assert all(checks[name]["overall_pass"]
               for name in ("bounds", "derivative", "limits"))
    F, nm = YoungFunction.sum_of_powers(2, 4), NonlocalMesh(1.0, 39, 0.5)
    opts = SolveOptions(seed=1)
    records = run_sweep(F, nm, geometric_grid(1e-2, 1e2, 3), opts)
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    assert len(lines) == len(records) + 1
    for line, record in zip(lines[1:], records):
        row = dict(zip(header, line.split(",")))
        expected = record.as_dict()
        assert row["converged"] == str(expected.pop("converged"))
        # the returned run's iteration count, deterministic at one thread
        assert row["iterations"] == str(expected.pop("iterations")) != "0"
        assert {k: float(row[k]) for k in expected} == pytest.approx(
            expected, rel=0.0, abs=0.0, nan_ok=True)
    # the reference is the one-start solve that sweep._power_reference
    # makes from the endpoint's minimizer, bit for bit; the multistart
    # minimum differs from it at rounding
    for endpoint, extreme in (("zero", records[0]),
                              ("infinity", records[-1])):
        limits = checks["limits"][endpoint]
        power = YoungFunction.power(limits["exponent"])
        one = solve_E(power, nm, 1.0, replace(opts, restarts=1), extreme.u)
        assert limits["reference"] == one.energy
        assert limits["reference"] == pytest.approx(
            solve_E(power, nm, 1.0, opts).energy, rel=1e-13)


def test_sweep_csv_deterministic(capsys, tmp_path):
    paths = []
    for k in range(2):
        csv = tmp_path / f"s{k}.csv"
        code, _, _ = run(capsys, "sweep", "--young", SUM24,
                         "--mesh", "interval:1.0,50",
                         "--alpha-min", "0.1", "--alpha-max", "10",
                         "--seed", "3", "--csv", str(csv))
        assert code == 0
        paths.append(csv.read_bytes())
    assert paths[0] == paths[1]


def test_no_warm_sweep_matches_warm(capsys, tmp_path):
    # the CLI sweep warm-starts every alpha after the first; a cold solve
    # per alpha gives the same answers
    csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--young", POWER2,
                     "--mesh", "interval:1.0,50",
                     "--alpha-min", "0.1", "--alpha-max", "10",
                     "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    warm = [dict(zip(lines[0].split(","), row.split(",")))
            for row in lines[1:]]
    F, m = YoungFunction.power(2), cli._mesh_from_arg("interval:1.0,50")
    cold = [solve_E(F, m, float(w["alpha"])) for w in warm]
    assert len(warm) == 11
    for w, c in zip(warm, cold):
        assert w["converged"] == "True" and c.converged
        assert float(w["residual"]) < 1e-8 and c.residual < 1e-8
        for key, value in (("energy", c.energy),
                           ("quotient", c.energy / float(w["alpha"])),
                           ("lambda", c.lam)):
            assert value == pytest.approx(float(w[key]), rel=1e-10)
    dE = [float(w["dE_dalpha"]) for w in warm]
    assert np.isnan(dE[0]) and np.isnan(dE[-1])
    for k in range(1, len(warm) - 1):
        lo, hi = cold[k - 1], cold[k + 1]
        slope = (hi.energy - lo.energy) / (float(warm[k + 1]["alpha"])
                                           - float(warm[k - 1]["alpha"]))
        assert slope == pytest.approx(dE[k], rel=1e-8)


@pytest.mark.parametrize("command, flag", [
    ("inspect", "--out"), ("solve", "--out"), ("sweep", "--out"),
    ("nonlocal", "--out"), ("sweep", "--warm"), ("sweep", "--no-warm"),
    ("sweep", "--plot-script")])
def test_removed_options_are_unrecognized(capsys, command, flag):
    # --out (the shell's > does its job), --warm/--no-warm (every sweep
    # warm-starts) and --plot-script are gone: no help lists them, and
    # each is an unrecognized argument
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and flag not in out
    args = {"inspect": ("--young", POWER2),
            "solve": ("--young", POWER2, "--mesh", "interval:1.0,20",
                      "--alpha", "1"),
            "sweep": ("--young", POWER2, "--mesh", "interval:1.0,20",
                      "--alpha-min", "0.1", "--alpha-max", "10"),
            "nonlocal": ("--young", POWER2, "--interval", "1", "--nodes",
                         "8", "--s", "0.5", "--alpha", "1")}[command]
    value = () if flag in ("--warm", "--no-warm") else ("x.out",)
    code, out, err = run(capsys, command, *args, flag, *value)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("flags,used", [((), 1), (("--restarts", "5"), 5),
                                        (("--restarts", "1"), 1)],
                         ids=["default", "five", "one"])
def test_restarts_flag(capsys, flags, used):
    # the default stops at its first start, which its second-order check
    # certifies; an explicit --restarts runs no check
    code, out, _ = run(capsys, "solve", "--young", SUM24,
                       "--mesh", "interval:1.0,100", "--alpha", "1.0",
                       *flags)
    assert code == 0
    payload = json.loads(out)
    assert payload["restarts_used"] == used
    if used == 1:
        assert payload["restart_spread"] is None
    else:
        assert 0.0 <= payload["restart_spread"] <= 1e-8
    if flags:
        assert payload["hessian_min"] is None
    else:
        assert payload["hessian_min"] > 0.0


TINY = {  # one cheap run of each subcommand
    "inspect": ("inspect", "--young", POWER2),
    "solve": ("solve", "--young", SUM24, "--mesh", "interval:1.0,8",
              "--alpha", "1.0", "--seed", "1"),
    "sweep": ("sweep", "--young", SUM24, "--mesh", "interval:1.0,8",
              "--alpha-min", "0.1", "--alpha-max", "10", "--per-decade", "3",
              "--check", "derivative", "--seed", "1"),
    "nonlocal": ("nonlocal", "--young", SUM24, "--interval", "1.0",
                 "--nodes", "8", "--s", "0.5", "--alpha", "1.0", "--seed",
                 "1"),
}


@pytest.mark.parametrize("argv", [
    *TINY.values(),
    ("--help",), ("--version",), (), ("bogus",), ("--version", "solve"),
    *((name, "--help") for name in TINY),
    ("solve", "--young", POWER2),  # a missing required argument
    ("nonlocal", "--young", POWER2, "--nodes", "8", "--s", "0.5",
     "--alpha", "x", "--interval", "1"),  # a value of the wrong type
    TINY["nonlocal"] + ("extra",),  # an unrecognized trailing argument
    TINY["sweep"][:-1] + ("--seed",),  # a flag without its value
], ids=[*TINY, "help", "version", "none", "unknown", "option-first",
        *(f"{name}-help" for name in TINY), "missing", "type", "trailing",
        "flag-value"])
def test_narrowed_parser_prints_what_the_full_parser_prints(capsys,
                                                            monkeypatch,
                                                            argv):
    # main builds only the subparser argv names; every run gives the
    # stdout, stderr and exit code of a build of all four.  The trailing
    # argument is reported by the top-level parser after the subcommand
    # parsed, with a usage line that must list all four subcommands
    narrowed = run(capsys, *argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: full_parser())
    assert narrowed == run(capsys, *argv)
    if argv[-1:] == ("extra",):
        assert narrowed[0] == 2 and narrowed[2].startswith(
            "usage: orlicz-eigen [-h] [--version] "
            "{inspect,solve,sweep,nonlocal} ...")


@pytest.mark.parametrize("argv,line", [
    ((), "the following arguments are required: command"),
    (("bogus",), "argument command: invalid choice: 'bogus' (choose from "
                 "'inspect', 'solve', 'sweep', 'nonlocal')"),
], ids=["none", "unknown"])
def test_parser_errors_name_the_command_argument(capsys, argv, line):
    # the metavar that lists every subcommand is the narrowed parser's
    # alone: set on the full parser too, it would name the argument
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "orlicz-eigen: error: " + line


@pytest.mark.parametrize("name", sorted(TINY))
def test_narrowed_parser_parses_to_the_full_parsers_namespace(name):
    narrowed = cli.build_parser(name)
    assert list(narrowed._subparsers._group_actions[0].choices) == [name]
    assert (vars(narrowed.parse_args(TINY[name]))
            == vars(cli.build_parser().parse_args(TINY[name])))
