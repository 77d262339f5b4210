"""Discretized Dirichlet domains: intervals, rectangles, rectangles with
masked holes.

Zero-order terms use nodal quadrature whose interior weights sum exactly to
the domain measure; gradient terms use one-point quadrature at cell centers
on piecewise-linear (1D) / bilinear (2D) elements.  Fields carry values at
interior nodes only and are extended by zero on and outside the boundary.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConformanceError, GeometryError

__all__ = ["Mesh", "ScalarField", "cell_gradient_magnitudes", "bump_field"]


@dataclass
class Mesh:
    """Tensor-product mesh over (0, extents[0]) x ... with Dirichlet boundary.

    counts are cells per axis; interior nodes exclude the boundary layer and
    any nodes removed by ``mask`` (a boolean node array, True = in domain).
    ``interior_count``, their number, is fixed when the mesh is built.
    """

    dim: int
    extents: tuple
    counts: tuple
    mask: np.ndarray = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")
        self.extents = tuple(float(e) for e in np.atleast_1d(self.extents))
        self.counts = tuple(int(c) for c in np.atleast_1d(self.counts))
        if len(self.extents) != self.dim or len(self.counts) != self.dim:
            raise ConfigError("extents/counts must match dim")
        if any(e <= 0 for e in self.extents) or any(c < 2 for c in self.counts):
            raise ConfigError("extents must be positive, counts at least 2")
        self.spacing = tuple(e / c for e, c in zip(self.extents, self.counts))
        self._build()

    def _build(self):
        if self.dim == 1:
            n = self.counts[0]
            h = self.spacing[0]
            self.interior_count = n - 1
            self.interior_coords = (np.arange(1, n) * h).reshape(-1, 1)
            w = np.full(n - 1, h)
            w[0] += 0.5 * h
            w[-1] += 0.5 * h
            self.node_weights = w
            self.cell_weights = np.full(n, h)
            self._domain_nodes = None
        else:
            nx, ny = self.counts
            hx, hy = self.spacing
            if self.mask is not None:
                self.mask = np.asarray(self.mask, dtype=bool)
                if self.mask.shape != (nx + 1, ny + 1):
                    raise ConfigError(
                        f"mask must have node shape {(nx + 1, ny + 1)}")
            inside = np.ones((nx + 1, ny + 1), dtype=bool)
            inside[0, :] = inside[-1, :] = False
            inside[:, 0] = inside[:, -1] = False
            if self.mask is not None:
                inside &= self.mask
            self._domain_nodes = inside
            self._interior_index = np.flatnonzero(inside.ravel())
            self.interior_count = int(self._interior_index.size)
            xs = np.arange(nx + 1) * hx
            ys = np.arange(ny + 1) * hy
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            self.interior_coords = np.stack(
                [X.ravel()[self._interior_index],
                 Y.ravel()[self._interior_index]], axis=1)
            wx = np.full(nx + 1, hx)
            wx[1] += 0.5 * hx
            wx[-2] += 0.5 * hx
            wx[0] = wx[-1] = 0.0
            wy = np.full(ny + 1, hy)
            wy[1] += 0.5 * hy
            wy[-2] += 0.5 * hy
            wy[0] = wy[-1] = 0.0
            W = np.outer(wx, wy)
            self.node_weights = W.ravel()[self._interior_index]
            # cells with every corner outside the domain carry no weight
            corners = (inside[:-1, :-1] | inside[1:, :-1]
                       | inside[:-1, 1:] | inside[1:, 1:])
            self.cell_weights = np.where(corners, hx * hy, 0.0)

    @property
    def measure(self):
        if self.mask is None:
            return float(np.prod(self.extents))
        return float(np.sum(self.cell_weights))

    @property
    def inner_radius(self):
        """Largest inscribed-ball radius; exact for intervals and
        rectangles, grid-based estimate for masked domains."""
        if self.dim == 1:
            return 0.5 * self.extents[0]
        if self.mask is None:
            return 0.5 * min(self.extents)
        from scipy import ndimage
        dist = ndimage.distance_transform_edt(
            self._domain_nodes, sampling=self.spacing)
        return float(dist.max())

    def zeros(self):
        return ScalarField(np.zeros(self.interior_count), self)

    def field(self, values):
        return ScalarField(np.asarray(values, dtype=float), self)

    def field_from_callable(self, fn):
        """Sample fn at interior node coordinates."""
        pts = self.interior_coords
        if self.dim == 1:
            return self.field(np.asarray([fn(x) for x in pts[:, 0]]))
        return self.field(np.asarray([fn(x, y) for x, y in pts]))

    def full_values(self, u):
        """Nodal array over all nodes, boundary and masked nodes at zero."""
        values = _conform(u, self)
        if self.dim == 1:
            full = np.zeros(self.counts[0] + 1)
            full[1:-1] = values
            return full
        full = np.zeros((self.counts[0] + 1) * (self.counts[1] + 1))
        full[self._interior_index] = values
        return full.reshape(self.counts[0] + 1, self.counts[1] + 1)

    @classmethod
    def interval(cls, length, cells):
        return cls(1, (length,), (cells,))

    @classmethod
    def rectangle(cls, lx, ly, nx, ny, mask=None):
        return cls(2, (lx, ly), (nx, ny), mask=mask)

    @classmethod
    def from_config(cls, cfg):
        if not isinstance(cfg, dict):
            raise ConfigError("mesh config must be a mapping")
        extra = set(cfg) - {"dim", "extents", "counts"}
        if extra:
            raise ConfigError(
                f"unknown key in mesh config: {sorted(extra)[0]!r}")
        try:
            return cls(int(cfg["dim"]), tuple(cfg["extents"]),
                       tuple(cfg["counts"]))
        except KeyError as exc:
            raise ConfigError(f"missing mesh config key {exc}") from exc

    def __repr__(self):
        return f"Mesh(dim={self.dim}, extents={self.extents}, counts={self.counts})"


@dataclass
class ScalarField:
    """Interior nodal values of a trial function, zero on the boundary."""

    values: np.ndarray
    mesh: Mesh = field(repr=False, default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.mesh is not None and \
                self.values.shape != (self.mesh.interior_count,):
            raise ConformanceError(
                f"{self.values.shape[0] if self.values.ndim else 0} values "
                f"for a mesh with {self.mesh.interior_count} interior nodes")
        if not np.all(np.isfinite(self.values)):
            raise ConformanceError("field values must be finite")

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


def _conform(u, m):
    values = getattr(u, "values", u)
    values = np.asarray(values, dtype=float)
    if values.shape != (m.interior_count,):
        raise ConformanceError(
            f"field has shape {values.shape}, mesh expects "
            f"({m.interior_count},)")
    return values


def cell_gradient_magnitudes(u, m):
    """Per-cell gradient magnitude of the piecewise-(bi)linear interpolant.

    1D: forward difference per cell.  2D: cell magnitude from the
    bilinear-element average of the axis differences.
    """
    if m.dim == 1:
        full = m.full_values(u)
        return np.abs(np.diff(full)) / m.spacing[0]
    full = m.full_values(u)
    hx, hy = m.spacing
    gx = (full[1:, :-1] - full[:-1, :-1] + full[1:, 1:] - full[:-1, 1:]) \
        / (2.0 * hx)
    gy = (full[:-1, 1:] - full[:-1, :-1] + full[1:, 1:] - full[1:, :-1]) \
        / (2.0 * hy)
    return np.hypot(gx, gy)


def cell_gradients(u, m):
    """Signed cell slope(s): 1D signed slope array, 2D (gx, gy) pair."""
    if m.dim == 1:
        full = m.full_values(u)
        return np.diff(full) / m.spacing[0]
    full = m.full_values(u)
    hx, hy = m.spacing
    gx = (full[1:, :-1] - full[:-1, :-1] + full[1:, 1:] - full[:-1, 1:]) \
        / (2.0 * hx)
    gy = (full[:-1, 1:] - full[:-1, :-1] + full[1:, 1:] - full[1:, :-1]) \
        / (2.0 * hy)
    return gx, gy


def bump_field(m, r, center=None):
    """Plateau-1 field on the ball of radius r with a ramp of width > 1 whose
    discrete gradient magnitudes stay strictly below 1.

    Raises GeometryError when the geometry cannot host such a transition
    (theorem hypothesis on the inner radius unmet).
    """
    if r <= 0:
        raise GeometryError("plateau radius must be positive")
    if r >= m.inner_radius:
        raise GeometryError(
            f"plateau radius {r} must be below the inner radius "
            f"{m.inner_radius}")
    if center is None:
        center = tuple(0.5 * e for e in m.extents)
    center = np.atleast_1d(np.asarray(center, dtype=float))
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
