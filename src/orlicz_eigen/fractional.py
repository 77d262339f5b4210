"""Nonlocal (fractional) energy in 1D: pair sums of the Hölder quotient
D^s u(x, y) = (u(x) - u(y)) / |x - y|^s against the measure |x - y|^{-1} dxdy.

The interval is extended by a zero-valued halo out to ``r_cut`` on each side;
the neglected tail beyond the halo is bounded in closed form (monotonicity of
A(t)/t) and reported, never silently dropped.  Minimization reuses the
projected-descent engine of :mod:`orlicz_eigen.solver` with a dense lagged
preconditioner — pair sums are O(N^2), sized for verification, not production.

Cost model: each iterate takes one assembly of the coefficients a(t)/t over
the N x N interior pairs plus the zero partners, shared by the gradient and
the preconditioner built at that iterate.  The 2(k+1) zero partners of a
row (k = ceil(r_cut/h)) lie at only N + k distinct distances n h, so the
halo is stored as one column per distance, and a row meets at most N + k of
them; energies and assemblies run in blocks of ``ROW_BLOCK`` rows whose halo
columns are trimmed to the distances those rows meet (about k + N/2 per row
on average), so every temporary stays cache-sized.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from .errors import ConfigError, ZeroDenominatorError
from .mesh import Mesh, ScalarField
from .solver import (EPS_GRAD, MinimizerResult, Problem, SolveOptions,
                     _residual_norm, mass_gradient, minimize_with_restarts)

__all__ = [
    "NonlocalMesh", "energy_s", "energy_s_gradient", "lagrange_quotient_s",
    "weak_residual_s", "tail_bound", "solve_Es",
]

ROW_BLOCK = 16  # rows per assembly block: keeps every temporary cache-sized


@dataclass
class NonlocalMesh:
    """Interval (0, L) with ``nodes`` interior nodes plus a zero halo.

    Pair weights w_ij = h^2 / |x_i - x_j| discretize the measure
    |x - y|^{-1} dxdy by the midpoint rule; the field vanishes on the
    boundary and on every halo node out to ``r_cut`` past each endpoint.
    """

    length: float
    nodes: int
    s: float
    r_cut: float = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ConfigError(f"s must lie strictly in (0, 1), got {self.s}")
        if self.nodes < 2:
            raise ConfigError("need at least 2 interior nodes")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ConfigError(
                f"length must be finite and positive, got {self.length}")
        if self.r_cut is None:
            self.r_cut = 4.0 * self.length
        if not (math.isfinite(self.r_cut) and self.r_cut > 0):
            raise ConfigError(
                f"r_cut must be finite and positive, got {self.r_cut}")
        self.mesh = Mesh.interval(self.length, self.nodes + 1)
        h = self.mesh.spacing[0]
        self.h = h
        x = self.mesh.interior_coords[:, 0]
        self.x = x
        # zero-valued partners: the two boundary nodes plus halo nodes out
        # to r_cut on each side
        k = int(math.ceil(self.r_cut / h))
        left = -np.arange(0, k + 1) * h
        right = self.length + np.arange(0, k + 1) * h
        self.zero_x = np.concatenate([left, right])
        # interior-interior pair geometry (diagonal masked out)
        D = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(D, 1.0)
        self._q = D ** (-self.s)       # Hölder scaling |x-y|^{-s}
        self._w = h * h / D            # measure weight h^2/|x-y|
        np.fill_diagonal(self._q, 0.0)
        np.fill_diagonal(self._w, 0.0)
        # interior-zero pair geometry, one column per distance n h with
        # n = 1..N+k: row i meets n in [i+1, i+1+k] on the left and in
        # [N-i, N-i+k] on the right, so its weight is mult_in h/n with
        # mult_in in {0, 1, 2}
        n = np.arange(1, self.nodes + k + 1)
        i = np.arange(self.nodes)[:, None]
        mult = ((n >= i + 1) & (n <= i + 1 + k)).astype(float)
        mult += (n >= self.nodes - i) & (n <= self.nodes - i + k)
        self._qn = (n * h) ** (-self.s)
        self._wn = mult * (h / n)
        self._k = k

    @property
    def interior_count(self):
        return self.mesh.interior_count

    @classmethod
    def from_config(cls, cfg):
        if not isinstance(cfg, dict):
            raise ConfigError("nonlocal mesh config must be a mapping")
        extra = set(cfg) - {"length", "nodes", "s", "r_cut"}
        if extra:
            raise ConfigError(
                f"unknown key in nonlocal mesh config: {sorted(extra)[0]!r}")
        try:
            return cls(float(cfg["length"]), int(cfg["nodes"]),
                       float(cfg["s"]), cfg.get("r_cut"))
        except KeyError as exc:
            raise ConfigError(f"missing nonlocal config key {exc}") from exc

    def __repr__(self):
        return (f"NonlocalMesh(length={self.length}, nodes={self.nodes}, "
                f"s={self.s}, r_cut={self.r_cut})")


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


def _zero_columns(rows, nm):
    """Distance columns of ``nm._qn``/``nm._wn`` met by the rows in
    ``rows``: n from the smallest partner distance of those rows, min(i+1,
    N-i), to the largest, max(i+1, N-i) + k."""
    n = nm.nodes
    lo = min(rows.start + 1, n - (rows.stop - 1))
    hi = max(rows.stop, n - rows.start) + nm._k
    return slice(lo - 1, hi)


def _block_quotients(values, nm, rows):
    """Differences u_i - u_j and Hölder quotients |D^s u| for the pairs of
    the nodes in ``rows``: interior partners in the first N columns of the
    quotients, then one column per zero-partner distance in ``cols``."""
    n = values.size
    vb = values[rows]
    cols = _zero_columns(rows, nm)
    qn = nm._qn[cols]
    diff = vb[:, None] - values[None, :]
    t = np.empty((vb.size, n + qn.size))
    np.multiply(np.abs(diff), nm._q[rows], out=t[:, :n])
    np.multiply(np.abs(vb)[:, None], qn, out=t[:, n:])
    return diff, t, cols


def energy_s(F, u, nm):
    """Ordered-pair sum of w_ij A(|D^s u|); zero-zero pairs vanish."""
    values = _values(u, nm)
    n = values.size
    interior = halo = 0.0
    for rows in _row_blocks(n):
        _, t, cols = _block_quotients(values, nm, rows)
        A = F.A(t)
        interior += float(np.sum(nm._w[rows] * A[:, :n]))
        halo += float(np.sum(nm._wn[rows, cols] * A[:, n:]))
    return interior + 2.0 * halo


class _PairSums:
    """Pair-coefficient assembly for one solve.

    At a field u it forms the interior coefficients
    C_ij = w_ij q_ij^2 a(t_ij)/t_ij (t regularized below by EPS_GRAD), the
    halo row sums dz_i of the same coefficient over the zero partners, and
    r_i = sum_j C_ij (u_i - u_j); the gradient is 2 (r + dz u) and the
    lagged stiffness is K = 2 (diag(C 1 + dz) - C).  A one-entry memo,
    keyed on the Young function and the field's contents, lets the
    preconditioner built at an iterate reuse the gradient's assembly.
    It lives per solve (not on the mesh, which several solves share).
    """

    def __init__(self, nm):
        self.nm = nm
        # the constant products w q^2, interior and per zero distance
        self._wq2 = nm._w * nm._q ** 2
        self._wq2n = nm._wn * nm._qn ** 2
        self._memo = None

    def assemble(self, F, values):
        """(C, dz, r) at ``values``."""
        memo = self._memo
        if memo is not None and memo[0] is F and np.array_equal(memo[1],
                                                                values):
            return memo[2]
        n = values.size
        C = np.empty((n, n))
        dz = np.empty(n)
        r = np.empty(n)
        for rows in _row_blocks(n):
            diff, t, cols = _block_quotients(values, self.nm, rows)
            np.maximum(t, EPS_GRAD, out=t)
            c = F.a(t)
            c /= t
            c[:, :n] *= self._wq2[rows]
            c[:, n:] *= self._wq2n[rows, cols]
            C[rows] = c[:, :n]
            r[rows] = np.sum(c[:, :n] * diff, axis=1)
            dz[rows] = np.sum(c[:, n:], axis=1)
        self._memo = (F, values.copy(), (C, dz, r))
        return C, dz, r

    def gradient(self, F, values):
        _, dz, r = self.assemble(F, values)
        return 2.0 * (r + dz * values)

    def stiffness(self, F, values):
        """Lagged dense stiffness, its diagonal floored at 1e-10 of the
        largest entry."""
        C, dz, _ = self.assemble(F, values)
        K = -2.0 * C
        diag = 2.0 * (np.sum(C, axis=1) + dz)
        floor = 1e-10 * max(float(diag.max()), 1e-280)
        K[np.diag_indices_from(K)] = np.maximum(diag, floor)
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
    num = float(np.dot(energy_s_gradient(F, values, nm), values))
    den = float(np.dot(mass_gradient(F, values, nm.mesh), values))
    if den <= 0.0 or not math.isfinite(den):
        raise ZeroDenominatorError(
            "zero-order pairing underflowed; cannot form the quotient")
    return num / den


def weak_residual_s(F, u, lam, nm):
    """Normalized weighted defect of the nonlocal weak form at (u, lam)."""
    values = _values(u, nm)
    g = energy_s_gradient(F, u, nm)
    mg = mass_gradient(F, values, nm.mesh)
    return _residual_norm(g, mg, lam, nm.mesh.node_weights)


def tail_bound(F, u, nm):
    """Closed-form bound on the energy neglected beyond the halo.

    For fixed x_i each side beyond r_cut contributes
    (1/s) * integral_0^{tau_R} A(tau)/tau dtau with tau_R = |u_i| r_cut^{-s},
    which monotonicity of A(t)/t bounds by (1/s) A(tau_R).  The energy counts
    those pairs in both orders, so the two sides give (4h/s) sum_i A(tau_R).
    Returned per run so truncation error is always visible.
    """
    values = np.abs(_values(u, nm))
    tau = values * nm.r_cut ** (-nm.s)
    return float(4.0 * nm.h / nm.s * np.sum(F.A(tau)))


def solve_Es(F, nm, alpha, opts=None, initial=None):
    """Minimize the pair-sum energy at zero-order modular alpha.

    Identical contract to :func:`orlicz_eigen.solver.solve_E`, with the
    truncation tail bound of the returned minimizer attached to the result
    as ``tail_bound``.
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
    tail = tail_bound(F, result.u.values, nm)
    result.tail_bound = tail
    return result
