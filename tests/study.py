"""Named study grids: the solves that claims about the solver's default
path are measured on, as one list each, so a claim can be re-run.

``broad``: SumOfPowers(2,4), Power(1.5), Power(3), exp_minus_poly(2),
power_log(2,1,1) and exp_neg_inv_power(1), on ``interval:1.0,200``, the
24x24 unit square, the 32x16 rectangle (2.0 x 1.0) and NonlocalMesh(1, 128,
s) for s in {0.3, 0.7}, at alpha in {1e-2, 1, 1e2}: 90 cold solves per seed,
``max_iter`` 2000.

``saddles``: SumOfPowers(2,4) started from sin(2 pi x), one start, at the
three (mesh, alpha) where that run converges to a critical point that
changes sign once, a saddle of E on the constraint: ``interval:1.0,100``
at alpha 1e-2 and 1, and NonlocalMesh(1, 63, 0.5) at alpha 1e-2.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from orlicz_eigen.fractional import NonlocalMesh
from orlicz_eigen.mesh import Mesh
from orlicz_eigen.solver import SolveOptions, solve_E
from orlicz_eigen.young import YoungFunction

ALPHAS = (1e-2, 1.0, 1e2)


@dataclass(frozen=True)
class Case:
    """One solve of a grid: ``young`` and ``mesh`` build fresh objects,
    ``initial`` (if any) builds the start from the mesh."""
    name: str
    young: object
    mesh: object
    alpha: float
    max_iter: int = 2000
    initial: object = None

    def solve(self, **options):
        """solve_E on fresh objects, with ``max_iter`` and ``options``."""
        m = self.mesh()
        start = None if self.initial is None else self.initial(m)
        return solve_E(self.young(), m, self.alpha,
                       SolveOptions(max_iter=self.max_iter, **options),
                       initial=start)


BROAD_YOUNG = {
    "sop24": lambda: YoungFunction.sum_of_powers(2, 4),
    "power1.5": lambda: YoungFunction.power(1.5),
    "power3": lambda: YoungFunction.power(3),
    "exp2": lambda: YoungFunction.exp_minus_poly(2),
    "powerlog": lambda: YoungFunction.power_log(2, 1, 1),
    "expinv1": lambda: YoungFunction.exp_neg_inv_power(1),
}
BROAD_MESH = {
    "interval200": lambda: Mesh.interval(1.0, 200),
    "square24": lambda: Mesh.rectangle(1.0, 1.0, 24, 24),
    "rect32x16": lambda: Mesh.rectangle(2.0, 1.0, 32, 16),
    "nonlocal128-0.3": lambda: NonlocalMesh(1.0, 128, 0.3),
    "nonlocal128-0.7": lambda: NonlocalMesh(1.0, 128, 0.7),
}


def _wave(m):
    return np.sin(2 * np.pi * m.interior_coords[:, 0])


GRIDS = {
    "broad": [Case(f"{f}-{mesh}-{alpha:g}", young, make, alpha)
              for (f, young), (mesh, make), alpha in itertools.product(
                  BROAD_YOUNG.items(), BROAD_MESH.items(), ALPHAS)],
    "saddles": [
        Case("interval100-0.01", BROAD_YOUNG["sop24"],
             lambda: Mesh.interval(1.0, 100), 1e-2, initial=_wave),
        Case("interval100-1", BROAD_YOUNG["sop24"],
             lambda: Mesh.interval(1.0, 100), 1.0, initial=_wave),
        Case("nonlocal63-0.01", BROAD_YOUNG["sop24"],
             lambda: NonlocalMesh(1.0, 63, 0.5), 1e-2, initial=_wave),
    ],
}
