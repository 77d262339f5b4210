"""Nonlocal (fractional) energy in 1D: pair sums of the Hölder quotient
D^s u(x, y) = (u(x) - u(y)) / |x - y|^s against the measure |x - y|^{-1} dxdy.

The field vanishes outside (0, L), so each node's pairs with the exterior
integrate in closed form: E_ext = (2h/s) sum_i [G(|u_i| d_L^{-s}) +
G(|u_i| d_R^{-s})] (pairs in both orders), G(tau) = int_0^tau A(t)/t dt.
The distances d_L = x_i - h/2, d_R = L - x_i - h/2 start where the midpoint
rule of the interior pairs ends, so E_ext is the limit of a discrete zero
halo of growing width up to O(h).  Minimization reuses the engine of
:mod:`orlicz_eigen.solver` with a dense lagged preconditioner — pair sums
are O(N^2), sized for verification, not production.

Cost model: each iterate takes one assembly of a(t)/t over the N x N
interior pairs, in blocks of ``ROW_BLOCK`` rows (cache-sized temporaries),
shared by the gradient and the preconditioner.  The exterior costs 2N values
of A per assembly and 2N of G per energy; G is closed-form for Power and
SumOfPowers, otherwise a fixed 113-node rule (113 values of A each).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .errors import ConfigError
from .mesh import Mesh, ScalarField
from .solver import (EPS_GRAD, Problem, SolveOptions, _stationarity,
                     mass_gradient, minimize_with_restarts)
from .young import SATURATION, Family, _ipow

__all__ = [
    "NonlocalMesh", "energy_s", "energy_s_gradient", "lagrange_quotient_s",
    "weak_residual_s", "solve_Es",
]

ROW_BLOCK = 16  # rows per assembly block: keeps every temporary cache-sized


def _tanh_sinh_rule():
    """Tanh-sinh nodes and weights on (0, 1), step 1/16 for |t| <= 3.5.
    They crowd both ends, which resolves the x^{p-1} endpoint at 0 and the
    boundary layer of exponential families at 1: within 1e-13 of quad for
    tau in [2e-3, 40], where a 64-node Gauss rule in x = y^m (m = 2..4)
    missed exp_neg_inv_power(1) by 3e-7 to 2e-3."""
    t = np.arange(-56, 57) / 16.0
    v = 0.5 * math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * v))
    w = math.pi / 64.0 * np.cosh(t) / np.cosh(v) ** 2
    return x, w


_RULE_X, _RULE_W = _tanh_sinh_rule()


def _primitive_by_rule(F, tau):
    """G(tau) = int_0^1 A(tau x)/x dx by the fixed rule, elementwise.
    Past its knot t0, where A'' jumps, exp_neg_inv_power is integrated
    apart, in log t."""
    tau = np.asarray(tau, dtype=float)
    knot = (F._enip_t0() if F.family is Family.EXP_NEG_INV_POWER
            else math.inf)
    G = F.A(np.minimum(tau, knot)[..., None] * _RULE_X) @ (_RULE_W / _RULE_X)
    hi = tau > knot
    if np.any(hi):
        span = np.log(tau[hi] / knot)
        G[hi] += span * (F.A(knot * np.exp(span[:, None] * _RULE_X))
                         @ _RULE_W)
    return G


def _primitive(F, tau):
    """G(tau) = int_0^tau A(sigma)/sigma dsigma, saturating like A."""
    p = F.params
    with np.errstate(over="ignore"):
        if F.family is Family.POWER:
            G = _ipow(tau, p["p"]) / p["p"]
        elif F.family is Family.SUM_OF_POWERS:
            G = (_ipow(tau, p["p"]) / p["p"] ** 2
                 + _ipow(tau, p["q"]) / p["q"] ** 2)
        else:
            G = _primitive_by_rule(F, tau)
    return np.minimum(G, SATURATION)


@dataclass
class NonlocalMesh:
    """Interval (0, L) with ``nodes`` interior nodes; the field vanishes
    outside.  Pair weights w_ij = h^2 / |x_i - x_j| discretize the measure
    |x - y|^{-1} dxdy by the midpoint rule; the exterior is integrated
    exactly from d_L = x_i - h/2 and d_R = L - x_i - h/2."""

    length: float
    nodes: int
    s: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ConfigError(f"s must lie strictly in (0, 1), got {self.s}")
        if self.nodes < 2:
            raise ConfigError("need at least 2 interior nodes")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ConfigError(
                f"length must be finite and positive, got {self.length}")
        self.mesh = Mesh.interval(self.length, self.nodes + 1)
        h = self.mesh.spacing[0]
        self.h = h
        x = self.mesh.interior_coords[:, 0]
        self.x = x
        # interior-interior pair geometry (diagonal masked out)
        D = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(D, 1.0)
        self._q = D ** (-self.s)       # Hölder scaling |x-y|^{-s}
        self._w = h * h / D            # measure weight h^2/|x-y|
        np.fill_diagonal(self._q, 0.0)
        np.fill_diagonal(self._w, 0.0)
        # Hölder scaling d^{-s} of the distances to the exterior, per side
        d = np.stack([x - h / 2, self.length - x - h / 2], axis=1)
        self._qx = d ** (-self.s)

    @property
    def interior_count(self):
        return self.mesh.interior_count

    @classmethod
    def from_config(cls, cfg):
        if not isinstance(cfg, dict):
            raise ConfigError("nonlocal mesh config must be a mapping")
        extra = set(cfg) - {"length", "nodes", "s"}
        if extra:
            raise ConfigError(
                f"unknown key in nonlocal mesh config: {sorted(extra)[0]!r}")
        try:
            return cls(float(cfg["length"]), int(cfg["nodes"]),
                       float(cfg["s"]))
        except KeyError as exc:
            raise ConfigError(f"missing nonlocal config key {exc}") from exc

    def __repr__(self):
        return (f"NonlocalMesh(length={self.length}, nodes={self.nodes}, "
                f"s={self.s})")


def _values(u, nm):
    v = np.asarray(getattr(u, "values", u), dtype=float)
    if v.shape != (nm.interior_count,):
        raise ConfigError(
            f"field has shape {v.shape}, nonlocal mesh expects "
            f"({nm.interior_count},)")
    return v


def _row_blocks(n):
    for i0 in range(0, n, ROW_BLOCK):
        yield slice(i0, min(i0 + ROW_BLOCK, n))


def _block_quotients(values, nm, rows):
    """Differences u_i - u_j and Hölder quotients |D^s u| of the interior
    pairs of the nodes in ``rows``."""
    diff = values[rows, None] - values[None, :]
    t = np.abs(diff)
    t *= nm._q[rows]
    return diff, t


def energy_s(F, u, nm):
    """Ordered-pair sum of w_ij A(|D^s u|) plus the exterior term."""
    values = _values(u, nm)
    interior = 0.0
    for rows in _row_blocks(values.size):
        _, t = _block_quotients(values, nm, rows)
        interior += float(np.sum(nm._w[rows] * F.A(t)))
    tau = np.abs(values)[:, None] * nm._qx
    return interior + 2.0 * nm.h / nm.s * float(np.sum(_primitive(F, tau)))


class _PairSums:
    """Pair-coefficient assembly for one solve.

    At a field u it forms the interior coefficients
    C_ij = w_ij q_ij^2 a(t_ij)/t_ij (t regularized below by EPS_GRAD), the
    exterior coefficients dz_i = (h/s) sum_sides d^{-2s} A(tau)/tau^2 (tau
    floored alike) and r_i = sum_j C_ij (u_i - u_j).  Since G'(tau) =
    A(tau)/tau, the gradient is exactly 2 (r + dz u), and the lagged
    stiffness is K = 2 (diag(C 1 + dz) - C).  A one-entry memo,
    keyed on the Young function and the field's contents, lets the
    preconditioner built at an iterate reuse the gradient's assembly.
    It lives per solve (not on the mesh, which several solves share).
    """

    def __init__(self, nm):
        self.nm = nm
        self._wq2 = nm._w * nm._q ** 2   # the constant interior w q^2
        self._memo = None

    def assemble(self, F, values):
        """(C, dz, r) at ``values``."""
        memo = self._memo
        if memo is not None and memo[0] is F and np.array_equal(memo[1],
                                                                values):
            return memo[2]
        nm = self.nm
        n = values.size
        C = np.empty((n, n))
        r = np.empty(n)
        for rows in _row_blocks(n):
            diff, t = _block_quotients(values, nm, rows)
            np.maximum(t, EPS_GRAD, out=t)
            c = F.a(t)
            c /= t
            c *= self._wq2[rows]
            C[rows] = c
            r[rows] = np.sum(c * diff, axis=1)
        tau = np.maximum(np.abs(values)[:, None] * nm._qx, EPS_GRAD)
        dz = nm.h / nm.s * np.sum(nm._qx ** 2 * F.A(tau) / tau ** 2, axis=1)
        self._memo = (F, values.copy(), (C, dz, r))
        return C, dz, r

    def gradient(self, F, values):
        _, dz, r = self.assemble(F, values)
        return 2.0 * (r + dz * values)

    def stiffness(self, F, values):
        """Lagged dense stiffness; only a zero or non-finite diagonal
        entry is replaced, by 1e-10 of the largest positive finite one."""
        C, dz, _ = self.assemble(F, values)
        K = -2.0 * C
        diag = 2.0 * (np.sum(C, axis=1) + dz)
        ok = np.isfinite(diag) & (diag > 0.0)
        floor = 1e-10 * max(float(np.max(diag[ok], initial=0.0)), 1e-280)
        K[np.diag_indices_from(K)] = np.where(ok, diag, floor)
        return K

    def build(self, F, values):
        """Cholesky solve with the lagged stiffness at ``values``."""
        cho = sla.cho_factor(self.stiffness(F, values), overwrite_a=True)

        def solve(rhs):
            return sla.cho_solve(cho, rhs)
        return solve


def energy_s_gradient(F, u, nm, *, pairs=None):
    """Nodal gradient of the pair-sum energy with the a(t)/t factor
    regularized exactly as in the local assembly.  ``pairs`` is the
    assembly of the running solve, whose memo the preconditioner reuses."""
    values = _values(u, nm)
    return (pairs if pairs is not None else _PairSums(nm)).gradient(F, values)


def lagrange_quotient_s(F, u, nm):
    """lambda^s = pair sum of a(|D^s u|)|D^s u| w_ij over the zero-order
    modular pairing on the interval; the numerator is the gradient paired
    with u, as in the local quotient."""
    values = _values(u, nm)
    return _stationarity(energy_s_gradient(F, values, nm),
                         mass_gradient(F, values, nm.mesh), values,
                         nm.mesh.node_weights)[0]


def weak_residual_s(F, u, lam, nm):
    """Normalized weighted defect of the nonlocal weak form at (u, lam)."""
    values = _values(u, nm)
    return _stationarity(energy_s_gradient(F, u, nm),
                         mass_gradient(F, values, nm.mesh), values,
                         nm.mesh.node_weights, lam)[1]


def solve_Es(F, nm, alpha, opts=None, initial=None):
    """Minimize the pair-sum energy, exterior term included, at zero-order
    modular alpha.  Identical contract to :func:`orlicz_eigen.solver.solve_E`.
    """
    opts = opts or SolveOptions()
    pairs = _PairSums(nm)
    problem = Problem(
        F, nm.mesh,
        energy_fn=lambda v: energy_s(F, v, nm),
        gradient_fn=lambda v: energy_s_gradient(F, v, nm, pairs=pairs),
        precond_factory=pairs)
    result = minimize_with_restarts(problem, alpha, opts, initial)
    result.u = ScalarField(result.u.values, nm.mesh)
    return result
