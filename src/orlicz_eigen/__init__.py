"""Constrained minimal energy and first eigenvalue of the generalized
(Orlicz) a-Laplacian on discretized domains, with a Young-function calculus,
a nonlocal fractional variant, and theorem-verification sweeps.
"""

__version__ = "0.1.0"

from .errors import (BracketRangeError, ConfigError, ConformanceError,
                     GeometryError, OrliczError, ZeroDenominatorError)
# young first: without a bytecode cache, numpy's import then reuses the
# memory compiling young frees instead of leaving a hole of varying size
from .young import (Delta2Report, Endpoint, Family, MatuszewskaEstimate,
                    Regime, YoungFunction, complementary_eval,
                    complementary_function, delta2_report, luxemburg_norm,
                    matuszewska, matuszewska_exponent, modular)
from .fractional import NonlocalMesh
from .mesh import Mesh, ScalarField, bump_field, cell_gradient_magnitudes
from .solver import (MinimizerResult, SolveOptions, energy,
                     lagrange_quotient, phi_root, solve_E, weak_residual)
from .sweep import (LimitEstimate, SweepRecord, check_bounds, check_decay,
                    estimate_limits, geometric_grid, run_sweep)

__all__ = [
    "__version__",
    "OrliczError", "ConformanceError", "GeometryError", "BracketRangeError",
    "ZeroDenominatorError", "ConfigError",
    "YoungFunction", "Family", "Endpoint", "Regime", "Delta2Report",
    "MatuszewskaEstimate", "complementary_eval", "complementary_function",
    "modular", "luxemburg_norm", "delta2_report", "matuszewska",
    "matuszewska_exponent",
    "Mesh", "ScalarField", "cell_gradient_magnitudes", "bump_field",
    "SolveOptions", "MinimizerResult", "phi_root", "energy",
    "lagrange_quotient", "weak_residual", "solve_E",
    "NonlocalMesh",
    "SweepRecord", "LimitEstimate", "geometric_grid", "run_sweep",
    "check_bounds", "estimate_limits", "check_decay",
]
