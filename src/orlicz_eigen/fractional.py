"""Nonlocal (fractional) energy in 1D: the Hölder quotient
D^s u(x, y) = (u(x) - u(y)) / |x - y|^s against the measure |x - y|^{-1} dxdy.

A :class:`NonlocalMesh` is the interval (0, L) as a
:class:`orlicz_eigen.mesh.Mesh`, whose nodes and quadrature it keeps, with
two row blocks of the core as its energy ``blocks``; so
:func:`orlicz_eigen.solver.solve_E` and the sweeps take it like any mesh.
The first block has one difference row per unordered interior pair, with
spacing |x_i - x_j|^s and weight 2h^2/|x_i - x_j| (the midpoint rule, both
orders), and bandwidth N - 1.  The pairs sit in a wrap-around layout of
N // 2 rows of N: row d, column i is the pair (i, (i + d) mod N).  That
lists the N(N - 1)/2 pairs once for odd N; for even N row N/2 lists each of
its pairs twice, and the second half has weight 0 (N/2 extra entries).  The
block's ``differences``, ``transpose`` and ``band`` are then slices,
reshapes and windows of the rows, with no index arrays.  Pair sums are
O(N^2), sized for verification, not production.

The field vanishes outside (0, L), so each node's pairs with the exterior
integrate in closed form: E_ext = (2h/s) sum_i [G(|u_i| d_L^{-s}) +
G(|u_i| d_R^{-s})] (pairs in both orders), G(tau) = int_0^tau A(t)/t dt.
The distances d_L = x_i - h/2, d_R = L - x_i - h/2 start where the midpoint
rule of the interior pairs ends, so E_ext is the limit of a discrete zero
halo of growing width up to O(h).  E_ext is sum_e w_e G(|B_e u|) over a
second row block of the mesh: two rows per node, B_e u = u_i d^{-s},
weight 2h/s and the Young function G, whose density G'(tau) = A(tau)/tau
is nondecreasing for a convex A with A(0) = 0.  The core sums it with the
pair rows in the energy, the gradient and the stiffness, where it adds
only to the diagonal.  It costs 2N values of A per iterate (its a(g)/g),
which the gradient and the stiffness share through the core's row memo,
and 2N of G per energy; G is closed-form for Power and SumOfPowers,
otherwise a fixed 113-node rule (113 values of A each).
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .mesh import Mesh, row_factors
from .young import SATURATION

__all__ = ["NonlocalMesh"]


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
    Past the knot of F, where A'' jumps (exp_neg_inv_power's t0), the
    integral is taken apart, in log t."""
    tau = np.asarray(tau, dtype=float)
    knot = F.knot
    G = F.A(np.minimum(tau, knot)[..., None] * _RULE_X) @ (_RULE_W / _RULE_X)
    hi = tau > knot
    if np.any(hi):
        span = np.log(tau[hi] / knot)
        G[hi] += span * (F.A(knot * np.exp(span[:, None] * _RULE_X))
                         @ _RULE_W)
    return G


def _primitive(F, tau):
    """G(tau) = int_0^tau A(sigma)/sigma dsigma, saturating like A: F's
    closed form where it has one, else the fixed rule."""
    with np.errstate(over="ignore"):
        G = F.closed_primitive(tau)
        if G is None:
            G = _primitive_by_rule(F, tau)
    return np.minimum(G, SATURATION)


class _Primitive:
    """The Young function G of the exterior rows, G(tau) =
    int_0^tau A(sigma)/sigma dsigma with density a(tau) = A(tau)/tau: the
    two methods the core reads.  It is not a YoungFunction, so evaluations
    of G are not counted (by perfbench) as evaluations of A; its density
    is, since it evaluates A."""

    def __init__(self, F):
        self.F = F

    def A(self, tau):
        return _primitive(self.F, tau)

    def a(self, tau):
        return self.F.A(tau) / tau


class _Exterior:
    """The pairs of each interior node with the exterior as a row block:
    raveled side-major (left, then right), row (side, i) is u_i d^{-s} for
    the distance d to that side's exterior, with weight 2h/s and the Young
    function G of :class:`_Primitive`.  Its rows share no node, so
    ``transpose`` adds the two sides and ``band`` is the diagonal alone."""

    def __init__(self, nm):
        n = self.interior_count = nm.interior_count
        # Hölder scaling d^{-s} of the distances to the exterior, per side
        self._q = np.stack([nm.x - nm.h / 2, nm.length - nm.x - nm.h / 2]
                           ) ** (-nm.s)
        self.cell_weights = np.full(2 * n, 2.0 * nm.h / nm.s)
        self.flux_weights = self.cell_weights * self._q.ravel()
        self.band_weights = self.flux_weights * self._q.ravel()

    def young(self, F):
        return _Primitive(F)

    def differences(self, values):
        return (values * self._q).reshape(1, -1)

    def pad(self):
        return None

    def transpose(self, flux, pad=None):
        n = self.interior_count
        return flux[:n] + flux[n:]

    def band(self, c):
        n = self.interior_count
        return (c[:n] + c[n:]).reshape(1, n)


class _Pairs:
    """The interior pairs of a :class:`NonlocalMesh` as a row block: row
    d = 1..M = N // 2, column i is the pair (i, (i + d) mod N), at distance
    d h when i < N - d and (N - d) h otherwise.  ``plus`` = i and ``minus``
    = (i + d) mod N, (1, M N) arrays row-major over (d, i), describe the
    layout (the operators below do not read them); ``row_spacing`` =
    |x_i - x_j|^s and ``cell_weights`` = 2h^2/|x_i - x_j|, with the row
    factors and ``bandwidth`` (N - 1) of a ``Mesh``'s rows."""

    def __init__(self, nm):
        h, x = nm.h, nm.x
        n = self.interior_count = nm.interior_count
        i = np.arange(n)
        self.plus = np.tile(i, n // 2).reshape(1, -1)
        self.minus = ((i + np.arange(1, n // 2 + 1)[:, None]) % n
                      ).reshape(1, -1)
        d = (x[np.maximum(self.plus, self.minus)]
             - x[np.minimum(self.plus, self.minus)])
        self.row_spacing = d ** nm.s
        self.cell_weights = 2.0 * h * h / d[0]
        if n % 2 == 0:
            self.cell_weights[-(n // 2):] = 0.0
        self.flux_weights, self.band_weights = row_factors(
            self.row_spacing, self.cell_weights)
        self.bandwidth = n - 1

    young = Mesh.young  # the pair rows' Young function is F itself

    def differences(self, values):
        """B u, shape (1, M N): row d of u - u[(i + d) mod N], read as a
        window of [u, u], over the pair spacings."""
        n = self.interior_count
        shifted = sliding_window_view(np.concatenate((values, values)),
                                      n)[1:n // 2 + 1]
        out = np.subtract(values, shifted).reshape(1, -1)
        out /= self.row_spacing
        return out

    def pad(self):
        """A scratch for :meth:`transpose`, which a caller may keep."""
        n = self.interior_count
        return np.empty((n // 2 + 1) * n)

    def _ends(self, x, pad):
        """Per node, the sums of x (one entry per pair, raveled) over the
        pairs whose plus end it is and over those whose minus end it is.
        The rows go into ``pad``, a flat scratch of (N // 2 + 1) N entries,
        with row stride N + 1 behind a zero, and zeros after them; read
        back with row stride N, column k of that view holds exactly the
        entries of the pairs whose minus end is node k (row d at column
        (k - d) mod N), each once, and zeros."""
        n, half = self.interior_count, self.interior_count // 2
        rows = pad[:half * (n + 1)].reshape(half, n + 1)
        rows[:, 1:] = x.reshape(half, n)
        rows[:, 0] = 0.0
        pad[half * (n + 1):] = 0.0
        return (rows[:, 1:].sum(axis=0),
                pad.reshape(half + 1, n).sum(axis=0))

    def transpose(self, flux, pad=None):
        """D^T flux at the nodes for the unscaled pair differences D:
        plus-end sums minus minus-end sums, summed in ``pad`` (a
        :meth:`pad`, else a new one)."""
        plus, minus = self._ends(flux, self.pad() if pad is None else pad)
        return plus - minus

    def band(self, c, out=None):
        """Upper banded storage, N x N in LAPACK's (Fortran) layout, of
        D^T diag(c) D for one coefficient per pair, raveled, which vanishes
        on the zero-weight repeats of an even N (as the band factors
        w/|x_i - x_j|^{2s} do), written into ``out`` (a kept buffer) or a
        new array.  Its memory first serves as the pad of :meth:`_ends` for
        the diagonal; then column j of the band is written as node j's row
        of ``nodes``, so each write runs along memory.  Band row d - 1
        holds the offset N - d, so the wrapped pairs of row d (columns
        i >= N - d) land at column i of it: the last N // 2 nodes' rows,
        transposed.  The pairs (i, i + d) land at column i + d of band row
        N - 1 - d; read along d from node i + d they step by N - 1 through
        the rows: a reshaped view, transposed.  Entries LAPACK never reads
        hold what the pad left there or finite copies.  A warm nonlocal
        solve at N = 256 takes 544 minor page faults, 1,506 with a new
        band and its Fortran-order copy at each build."""
        n, half = self.interior_count, self.interior_count // 2
        nodes = np.empty((n, n)) if out is None else out.T
        plus, minus = self._ends(c, nodes.ravel()[:(half + 1) * n])
        diag = plus + minus
        np.negative(c.reshape(half, n)[:, n - half:].T,
                    out=nodes[n - half:, :half])
        np.negative(c[:half * (n - 1)].reshape(half, n - 1)[::-1].T,
                    out=nodes[1:, n - 1 - half:-1])
        nodes[:, -1] = diag
        return nodes.T


class NonlocalMesh(Mesh):
    """The interval (0, L) with ``nodes`` interior nodes as a ``Mesh`` of
    nodes + 1 cells, whose nodes and local rows it keeps; the field
    vanishes outside.  Its energy ``blocks`` are the rows ``pairs``
    (:class:`_Pairs`) and ``exterior`` (:class:`_Exterior`).  Two nonlocal
    meshes are equal when their length, nodes and s are."""

    def __init__(self, length, nodes, s):
        if not 0.0 < s < 1.0:
            raise ConfigError(f"s must lie strictly in (0, 1), got {s}")
        if nodes < 2:
            raise ConfigError("need at least 2 interior nodes")
        if not (math.isfinite(length) and length > 0):
            raise ConfigError(
                f"length must be finite and positive, got {length}")
        self.length, self.nodes, self.s = length, nodes, s
        super().__init__(1, (length,), (nodes + 1,))
        self.h = self.spacing[0]
        self.x = self.interior_coords[:, 0]
        self.pairs = _Pairs(self)
        self.exterior = _Exterior(self)

    @property
    def blocks(self):
        return (self.pairs, self.exterior)

    def __eq__(self, other):
        return type(other) is type(self) and (
            (self.length, self.nodes, self.s)
            == (other.length, other.nodes, other.s))

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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"non-numeric nonlocal config: {exc}") from exc

    def __repr__(self):
        return (f"NonlocalMesh(length={self.length}, nodes={self.nodes}, "
                f"s={self.s})")

