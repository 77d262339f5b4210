"""Shared fixtures: meshes and the expensive sweeps reused across the
acceptance criteria.

BLAS runs on one thread, as in the benchmark: the factorizations here are
small, and a second BLAS thread competing with another process for a core
makes them orders of magnitude slower.  The variables are set before
anything imports numpy; values already in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from orlicz_eigen.mesh import Mesh
from orlicz_eigen.sweep import geometric_grid, run_sweep
from orlicz_eigen.young import YoungFunction


@pytest.fixture(scope="session")
def mesh200():
    return Mesh.interval(1.0, 200)


@pytest.fixture(scope="session")
def sum24():
    return YoungFunction.sum_of_powers(2, 4)


@pytest.fixture(scope="session")
def sweep24_narrow(sum24, mesh200):
    """SumOfPowers(2,4) over 1e-2..1e2, 5 points per decade."""
    return run_sweep(sum24, mesh200, geometric_grid(1e-2, 1e2, 5))


@pytest.fixture(scope="session")
def sweep24_wide(sum24, mesh200):
    """Same family extended to 1e-4..1e4 for the endpoint limits."""
    return run_sweep(sum24, mesh200, geometric_grid(1e-4, 1e4, 5))
