"""The benchmark's workloads: each is a list of ``orlicz-eigen`` command
lines, exactly as a user types them after the program name.

The seed is appended to every command by the runner, so the random restart
fields follow the benchmark's ``--seed``; nothing else depends on it.
"""

import json
from dataclasses import dataclass

SOP24 = '{"family":"sum_of_powers","params":{"p":2,"q":4}}'


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pass_s: float   # nominal seconds of one pass, process start included
    commands: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep_sop24_1d",
        "headline warm-started alpha sweep with bounds, derivative and "
        "limits checks; cheap power-law Young function, so solver "
        "machinery dominates",
        4.5,
        (("sweep", "--young", SOP24, "--mesh", "interval:1.0,200",
          "--alpha-min", "1e-4", "--alpha-max", "1e4", "--per-decade", "5",
          "--check", "bounds,derivative,limits"),)),
    Workload(
        "nonlocal_sop24",
        "fractional solves at N=128 and N=256: O(N^2) pair sums and dense "
        "Cholesky dominate, projection is a few percent (bypass case)",
        10.5,
        (("nonlocal", "--young", SOP24, "--interval", "1.0", "--s", "0.5",
          "--alpha", "1.0", "--nodes", "128"),
         ("nonlocal", "--young", SOP24, "--interval", "1.0", "--s", "0.5",
          "--alpha", "1.0", "--nodes", "256"))),
)}


def flag(argv, name, default=None):
    """Value following ``name`` in an argv list, or ``default``."""
    argv = list(argv)
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def with_seed(argv, seed):
    return list(argv) + ["--seed", str(seed)]


def setup_specs(workload):
    """(young spec, mesh description) pairs the workload's commands build
    before their first solve; the runner times building them."""
    specs = []
    for argv in workload.commands:
        young = json.loads(flag(argv, "--young"))
        if argv[0] == "nonlocal":
            mesh = ("nonlocal", float(flag(argv, "--interval")),
                    int(flag(argv, "--nodes")), float(flag(argv, "--s")))
        else:
            kind, _, nums = flag(argv, "--mesh").partition(":")
            mesh = (kind,) + tuple(float(x) for x in nums.split(","))
        specs.append((young, mesh))
    return specs
