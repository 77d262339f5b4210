"""Discretized Dirichlet domains: intervals and rectangles.

A field is its values at the interior nodes; it is zero on the boundary.
Every element gradient is a set of differences of two nodal values over a
spacing, (u[plus] - u[minus]) / h, one per axis: a 1D cell has one such
row, and each rectangle cell is split along its (0,0)-(1,1) diagonal into
two right P1 triangles, whose x and y slopes are differences along their
legs.  The gradient is constant on every element, so element weights
times A(|B_e u|) integrate A(|grad u|) exactly.  Zero-order terms use nodal
quadrature whose weights sum exactly to the domain measure.
Each mesh owns its difference operator: ``differences`` (B u),
``transpose`` (the gradient's sums of row fluxes, in a ``pad`` the caller
may keep) and ``band`` (the banded stiffness in LAPACK's layout, into an
array the caller may keep), which the solver's core calls.  A local mesh's
rows come in groups of one difference per cell along one axis, so each
group is a pair of slices of its cell array: the cells whose plus corner,
and those whose minus corner, is an interior node, in node order; a
boundary corner reads zero.  B u writes the interior values into them, and
D^T and the band sum the rows out of them.  The core sums over a mesh's
``blocks``, each a set of such rows whose ``young(F)`` is the Young
function of its energy; a local mesh is one block with F itself.
:class:`orlicz_eigen.fractional.NonlocalMesh` is an interval whose blocks
are its pair rows and its exterior rows instead.
"""

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConfigError, ConformanceError, GeometryError

__all__ = ["Mesh", "ScalarField", "cell_gradient_magnitudes", "bump_field"]


@dataclass
class Mesh:
    """Tensor-product mesh over (0, extents[0]) x ... with Dirichlet boundary.

    counts are cells per axis.  Built once per mesh:

    - ``interior_count`` interior nodes, numbered with the last axis
      fastest, at ``interior_coords`` with quadrature ``node_weights``;
    - ``row_spacing``, the spacing of each axis as a (dim, 1) column;
    - ``cell_weights``, the measure of each element (cell or triangle),
      in the row order of the difference groups: in 2D, all cells'
      triangles (00, 10, 11), then their triangles (00, 01, 11);
    - the row factors of :func:`row_factors`, shape (dim, elements):
      ``flux_weights`` w/h and ``band_weights`` w/h^2, which scale the
      gradient's fluxes and the stiffness entries;
    - ``bandwidth``, the upper bandwidth of the stiffness B^T diag(c) B:
      the node-number step of the first axis that has two interior nodes
      in a row, or 0.
    """

    dim: int
    extents: tuple
    counts: tuple

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim!r}")
        self.dim = int(self.dim)
        self.extents = tuple(_floats(self.extents))
        counts = _floats(self.counts)
        if len(self.extents) != self.dim or len(counts) != self.dim:
            raise ConfigError("extents/counts must match dim")
        if not (all(math.isfinite(e) and e > 0 for e in self.extents)
                and all(c.is_integer() and c >= 2 for c in counts)):
            raise ConfigError("extents must be finite and positive, counts "
                              "whole numbers of at least 2")
        self.counts = tuple(int(c) for c in counts)
        self.spacing = tuple(e / c for e, c in zip(self.extents, self.counts))
        self._build()

    def _build(self):
        inner = tuple(c - 1 for c in self.counts)
        self.interior_count = math.prod(inner)
        axes = [np.arange(1, c) * h for c, h in zip(self.counts, self.spacing)]
        self.interior_coords = np.stack(
            [X.ravel() for X in np.meshgrid(*axes, indexing="ij")], axis=1)
        weights = []
        for c, h in zip(inner, self.spacing):
            w = np.full(c, h)
            w[0] += 0.5 * h
            w[-1] += 0.5 * h
            weights.append(w)
        self.node_weights = reduce(np.multiply.outer, weights).ravel()

        # the rows come in groups of one difference per cell along one axis,
        # from a minus to a plus corner: x then y rows of the triangles
        # (00, 10, 11) and (00, 01, 11).  The operators read one slice per
        # group and side: the cells whose plus (side 0) or minus (side 1)
        # corner is an interior node, one cell per node.
        corners = ([((1,), (0,))] if self.dim == 1 else
                   [((1, 0), (0, 0)), ((1, 1), (0, 1)),
                    ((1, 1), (1, 0)), ((0, 1), (0, 0))])
        per_axis = len(corners) // self.dim
        self._inner, self._cells = inner, (len(corners),) + self.counts
        self._ends = [(side, (g,) + tuple(slice(1 - o, c - o) for o, c in
                                          zip(end, self.counts)))
                      for side, ends in enumerate(zip(*corners))
                      for g, end in enumerate(ends)]
        self.cell_weights = np.full(per_axis * math.prod(self.counts),
                                    math.prod(self.spacing)
                                    / math.factorial(self.dim))
        self.row_spacing = np.array(self.spacing).reshape(-1, 1)
        self.flux_weights, self.band_weights = row_factors(
            self.row_spacing, self.cell_weights)
        # interior node numbers step by the product of the later axes'
        # interior counts.  An axis's differences between two interior
        # nodes are the stiffness's edges, in band row bandwidth - stride
        # at their plus end: the nodes whose minus neighbour is interior.
        strides = [math.prod(inner[k + 1:]) for k in range(self.dim)]
        edge_axes = [k for k in range(self.dim) if inner[k] > 1]
        self.bandwidth = max((strides[k] for k in edge_axes), default=0)
        self._edges = [
            (self.bandwidth - strides[k],
             tuple(slice(int(j == k), None) for j in range(self.dim)),
             self._ends[k * per_axis:(k + 1) * per_axis]) for k in edge_axes]

    def differences(self, values):
        """B u, shape (dim, elements), at the interior values: row k holds
        each element's slope along axis k."""
        u, out = values.reshape(self._inner), np.zeros(self._cells)
        for side, end in self._ends:
            out[end] = out[end] - u if side else u
        out = out.reshape(self.dim, -1)
        out /= self.row_spacing
        return out

    def pad(self):
        """A scratch for :meth:`transpose`, which a caller may keep."""
        return np.empty((2,) + self._inner)

    def transpose(self, flux, pad=None):
        """D^T flux at the interior nodes for the unscaled differences
        D = h B and one flux per row entry, raveled: the rows' plus ends
        minus their minus ends, each side summed from zero in row order, in
        ``pad`` (a :meth:`pad`, else a new one)."""
        rows = flux.reshape(self._cells)
        sums = self.pad() if pad is None else pad
        sums.fill(0.0)
        for side, end in self._ends:
            sums[side] += rows[end]
        return (sums[0] - sums[1]).ravel()

    def band(self, c, out=None):
        """Upper banded storage, (bandwidth + 1) x n in LAPACK's (Fortran)
        layout, of D^T diag(c) D for one coefficient per row entry,
        raveled, written into ``out`` when given, else into a new array:
        on the diagonal the rows' plus ends, then their minus ends, summed
        from zero in row order, and each edge's rows subtracted from zero.
        It is written through ``nodes``, whose row j is column j of the
        band."""
        rows = c.reshape(self._cells)
        n, width = self.interior_count, self.bandwidth + 1
        nodes = np.empty((n, width)) if out is None else out.T
        nodes.fill(0.0)
        ab = nodes.reshape(self._inner + (width,))
        diag = ab[..., -1]
        for _, end in self._ends:
            diag += rows[end]
        for row, cut, ends in self._edges:
            edge = ab[..., row][cut]
            for _, end in ends:
                edge -= rows[end][cut]
        return nodes.T

    @property
    def blocks(self):
        """The row blocks of the energy: the mesh's own rows alone."""
        return (self,)

    def young(self, F):
        """The Young function of the rows' energy: F itself."""
        return F

    @property
    def measure(self):
        return math.prod(self.extents)

    @property
    def inner_radius(self):
        """Largest inscribed-ball radius (exact for intervals and
        rectangles)."""
        return 0.5 * min(self.extents)

    def zeros(self):
        return ScalarField(np.zeros(self.interior_count), self)

    def field(self, values):
        return ScalarField(np.asarray(values, dtype=float), self)

    @classmethod
    def interval(cls, length, cells):
        return cls(1, (length,), (cells,))

    @classmethod
    def rectangle(cls, lx, ly, nx, ny):
        return cls(2, (lx, ly), (nx, ny))

    @classmethod
    def from_config(cls, cfg):
        if not isinstance(cfg, dict):
            raise ConfigError("mesh config must be a mapping")
        extra = set(cfg) - {"dim", "extents", "counts"}
        if extra:
            raise ConfigError(
                f"unknown key in mesh config: {sorted(extra)[0]!r}")
        try:
            return cls(cfg["dim"], tuple(cfg["extents"]),
                       tuple(cfg["counts"]))
        except KeyError as exc:
            raise ConfigError(f"missing mesh config key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"non-numeric mesh config: {exc}") from exc

    def __repr__(self):
        return f"Mesh(dim={self.dim}, extents={self.extents}, counts={self.counts})"


def _floats(items):
    """float() of each item, or of ``items`` itself when it is a scalar, so
    that a non-numeric item is named as given rather than by numpy's repr."""
    return [float(x) for x in (items if np.iterable(items) else (items,))]


def row_factors(row_spacing, cell_weights):
    """w/h and w/h^2 of difference rows with spacings h and element
    weights w, computed once per mesh: the gradient's fluxes are w/h times
    a(g)/g B u, and the stiffness entries are w/h^2 times a(g)/g.  B u
    itself still divides by h: a product with 1/h differs in the last bit,
    which moves the line search's Armijo decisions (and the SumOfPowers(2,4)
    sweep on interval:1.0,200 by up to 3.5e-12 in lambda)."""
    flux = cell_weights / row_spacing
    return flux, flux / row_spacing


@dataclass
class ScalarField:
    """Interior nodal values of a trial function, zero on the boundary."""

    values: np.ndarray
    mesh: Mesh = field(repr=False)

    def __post_init__(self):
        self.values = _conform(self.values, self.mesh, finite=True)

    def copy(self):
        return ScalarField(self.values.copy(), self.mesh)

    def __mul__(self, c):
        return ScalarField(self.values * float(c), self.mesh)

    __rmul__ = __mul__

    def to_csv(self, path):
        """Node coordinates + value, one row per interior node."""
        coords = self.mesh.interior_coords
        header = ",".join([f"x{i}" for i in range(self.mesh.dim)] + ["value"])
        rows = np.hstack([coords, self.values.reshape(-1, 1)])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _conform(u, m, finite=False):
    """The values of the field u (a ScalarField or an array) as a float
    array, one per interior node of m, else ConformanceError.  ``finite``
    also rejects an inf or a NaN: that is checked where a field enters
    (ScalarField, a solve's initial field, phi_root, modular and
    luxemburg_norm), not on every iterate."""
    values = np.asarray(getattr(u, "values", u), dtype=float)
    if values.shape != (m.interior_count,):
        raise ConformanceError(
            f"field has shape {values.shape}, mesh expects "
            f"({m.interior_count},)")
    if finite and not np.isfinite(values).all():
        raise ConformanceError("field values must be finite")
    return values


def cell_gradients(u, m):
    """Element gradients B u of the mesh's difference rows, shape
    (dim, elements): row k holds each element's slope along axis k."""
    return m.differences(_conform(u, m))


def gradient_magnitudes(slopes):
    """|B_e u| per element from the rows of :func:`cell_gradients`."""
    # a one-row norm is |x|, which is exact and cheaper than a reduction
    return np.abs(slopes[0]) if len(slopes) == 1 else np.hypot(*slopes)


def cell_gradient_magnitudes(u, m):
    """Gradient magnitude on each element of the piecewise-linear
    interpolant."""
    return gradient_magnitudes(cell_gradients(u, m))


def bump_field(m, r):
    """Plateau-1 field on the ball of radius r about the domain's center with
    a ramp of width > 1 whose discrete gradient magnitudes stay strictly
    below 1.

    Raises GeometryError when the geometry cannot host such a transition
    (theorem hypothesis on the inner radius unmet).
    """
    if r <= 0:
        raise GeometryError("plateau radius must be positive")
    if r >= m.inner_radius:
        raise GeometryError(
            f"plateau radius {r} must be below the inner radius "
            f"{m.inner_radius}")
    center = np.array([0.5 * e for e in m.extents])
    boundary_dist = min(min(c, e - c) for c, e in zip(center, m.extents))
    h = max(m.spacing)
    width = boundary_dist - r - h
    if width <= 1.0:
        raise GeometryError(
            f"no transition of width > 1 with slope < 1 fits: available "
            f"width {boundary_dist - r:.4g} around plateau radius {r}")
    d = np.linalg.norm(m.interior_coords - center, axis=1)
    profile = np.clip((r + width - d) / width, 0.0, 1.0)
    out = m.field(profile)
    gmax = float(cell_gradient_magnitudes(out, m).max())
    if gmax >= 1.0:
        raise GeometryError(
            f"discrete gradient bound violated: max magnitude {gmax:.4g}")
    return out
