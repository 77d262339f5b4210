"""Independent reference computations used by the test suite.

These are deliberately written against the mathematical problem, not against
the package's internals: a tridiagonal generalized eigensolver assembled from
the same quadrature rules (piecewise-linear stiffness with one-point cell
quadrature, trapezoidal mass), its 2D counterpart on the 5-point stencil,
a shooting-method eigenvalue for the 1D p-Laplacian ODE with a
closed-form cross-check, and the dense difference rows of the P1 elements
from their vertex coordinates.
"""

import itertools
import math

import numpy as np
from scipy import integrate, sparse
from scipy import linalg as sla
from scipy.sparse import linalg as spla


def tridiagonal_forms(length, cells):
    """Stiffness (tridiagonal bands) and diagonal mass for the discrete
    quadratic problem on (0, length) with ``cells`` cells.

    Stiffness: one-point quadrature of |u'|^2 over cells of the
    piecewise-linear interpolant.  Mass: trapezoidal nodal weights
    (interior weight h, plus h/2 at the two near-boundary nodes).
    """
    h = length / cells
    n = cells - 1
    main = np.full(n, 2.0 / h)
    off = np.full(n - 1, -1.0 / h)
    mass = np.full(n, h)
    mass[0] += 0.5 * h
    mass[-1] += 0.5 * h
    return main, off, mass


def tridiagonal_ground_pair(length, cells, iterations=200, tol=1e-14):
    """Smallest generalized eigenpair (lambda, v) of K v = lambda M v by
    inverse power iteration with a banded Cholesky factorization."""
    main, off, mass = tridiagonal_forms(length, cells)
    n = main.size
    ab = np.zeros((2, n))
    ab[1] = main
    ab[0, 1:] = off
    cho = sla.cholesky_banded(ab, lower=False)

    def apply_K(x):
        y = main * x
        y[:-1] += off * x[1:]
        y[1:] += off * x[:-1]
        return y

    v = np.ones(n)
    v /= math.sqrt(float(np.dot(mass, v * v)))
    lam = math.nan
    for _ in range(iterations):
        v = sla.cho_solve_banded((cho, False), mass * v)
        nrm = math.sqrt(float(np.dot(mass, v * v)))
        v /= nrm
        Kv = apply_K(v)
        lam = float(np.dot(v, Kv))
        defect = Kv - lam * mass * v
        # iterate until the eigen-residual (not just lambda) has converged
        if np.linalg.norm(defect) <= tol * np.linalg.norm(Kv):
            break
    return lam, v


def closed_form_discrete_eigenvalue(length, cells):
    """2(1 - cos(pi h / L)) / h^2 for the uniform-mass tridiagonal problem."""
    h = length / cells
    return 2.0 * (1.0 - math.cos(math.pi * h / length)) / h ** 2


def five_point_ground_eigenvalue(lx, ly, nx, ny):
    """Smallest generalized eigenvalue of K v = lambda M v on the
    (0, lx) x (0, ly) rectangle with nx x ny cells and zero boundary values.

    K = (hy/hx) kron(T_x, I) + (hx/hy) kron(I, T_y) is the 5-point stencil
    with T = tridiag(-1, 2, -1) per axis and the last axis fastest; M is
    the product of the two axes' trapezoidal weights.
    """
    hx, hy = lx / nx, ly / ny

    def axis(cells, h):
        n = cells - 1
        T = sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                         [-1, 0, 1])
        w = np.full(n, h)
        w[0] += 0.5 * h
        w[-1] += 0.5 * h
        return T, sparse.identity(n), w

    Tx, Ix, wx = axis(nx, hx)
    Ty, Iy, wy = axis(ny, hy)
    K = (hy / hx) * sparse.kron(Tx, Iy) + (hx / hy) * sparse.kron(Ix, Ty)
    M = sparse.diags(np.outer(wx, wy).ravel())
    vals = spla.eigsh(K.tocsc(), k=1, M=M.tocsc(), sigma=0.0,
                      which="LM", return_eigenvectors=False)
    return float(vals[0])


def dense_differences(extents, counts):
    """Dense difference rows of the P1 elements on the (0, extents) grid
    with ``counts`` cells per axis and zero boundary values, built from the
    elements' vertex coordinates alone: D, one row per (axis, element) and
    one column per interior node, and the spacing of each row, so that
    B = D / spacing row by row.

    Elements are the 1D cells, or in 2D the triangles (00, 10, 11) of every
    cell and then the triangles (00, 01, 11), cells with the last axis
    fastest; rows run axis by axis over the elements in that order.  The
    slope of the interpolant along axis k is the difference quotient along
    the element's leg parallel to that axis: +1 at its far vertex, -1 at
    its near one, nothing at a boundary vertex.  Interior nodes are
    numbered with the last axis fastest.
    """
    h = [e / c for e, c in zip(extents, counts)]
    inner = [c - 1 for c in counts]

    def column(node):
        if not all(0 < i < c for i, c in zip(node, counts)):
            return None
        col = 0
        for i, n in zip(node, inner):
            col = col * n + i - 1
        return col

    cells = itertools.product(*(range(c) for c in counts))
    if len(counts) == 1:
        elements = [[(i,), (i + 1,)] for (i,) in cells]
    else:
        cells = list(cells)
        elements = ([[(i, j), (i + 1, j), (i + 1, j + 1)] for i, j in cells]
                    + [[(i, j), (i, j + 1), (i + 1, j + 1)] for i, j in cells])
    rows, spacing = [], []
    for k in range(len(counts)):
        for vertices in elements:
            x = {v: [i * hk for i, hk in zip(v, h)] for v in vertices}
            (near, far), = [
                (a, b) for a in vertices for b in vertices
                if x[b][k] > x[a][k] and all(
                    x[b][j] == x[a][j] for j in range(len(counts)) if j != k)]
            row = np.zeros(math.prod(inner))
            for node, sign in ((far, 1.0), (near, -1.0)):
                if column(node) is not None:
                    row[column(node)] += sign
            rows.append(row)
            spacing.append(x[far][k] - x[near][k])
    return np.array(rows), np.array(spacing)


def pi_p(p):
    """Generalized half-period: pi_p = 2 pi (p-1)^(1/p) / (p sin(pi/p))."""
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def p_laplacian_lambda(p):
    """Closed-form first eigenvalue (p-1) pi_p^p of the 1D p-Laplacian on
    (0, 1) in the (p-1)-weighted convention."""
    return (p - 1.0) * pi_p(p) ** p


def p_laplacian_quotient(p):
    """First-eigenfunction Rayleigh quotient int|u'|^p / int|u|^p = pi_p^p."""
    return pi_p(p) ** p


def _first_zero(mu, p, span=10.0):
    """Location of the first zero of the shooting solution of
    -(|u'|^(p-2) u')' = mu |u|^(p-2) u, u(0)=0, u'(0)=1.

    Integrates the first-order system in (u, w) with w = |u'|^(p-2) u'.
    """
    expo = (2.0 - p) / (p - 1.0)

    def rhs(_x, y):
        u, w = y
        up = np.sign(w) * np.abs(w) ** (1.0 / (p - 1.0)) if w != 0 else 0.0
        return [up, -mu * np.sign(u) * np.abs(u) ** (p - 1.0)]

    def crossing(_x, y):
        return y[0]
    crossing.terminal = True
    crossing.direction = -1.0

    sol = integrate.solve_ivp(rhs, (0.0, span), [0.0, 1.0], events=crossing,
                              rtol=1e-11, atol=1e-13, max_step=span / 200)
    if sol.t_events[0].size == 0:
        return math.inf
    return float(sol.t_events[0][0])


def p_laplacian_shooting(p, tol=1e-10):
    """First eigenvalue of -(|u'|^(p-2) u')' = mu |u|^(p-2) u on (0, 1) by
    bisection on mu so the shooting solution's first zero lands at x = 1.

    The returned mu equals the Rayleigh quotient pi_p^p; multiply by (p-1)
    for the (p-1)-weighted convention.
    """
    lo, hi = 1.0, 1.0
    while _first_zero(hi, p) > 1.0:
        hi *= 2.0
    while _first_zero(lo, p) < 1.0:
        lo *= 0.5
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if _first_zero(mid, p) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def discrete_legendre(x, fx, slopes):
    """max over i of (s x_i - fx_i) at each s of ``slopes``, for ascending
    x, by Lucet's linear-time transform (Numer. Algorithms 1997): only the
    vertices of the lower convex hull of the points (x_i, fx_i) attain a
    maximum, and at slope s the vertex where the hull's ascending edge
    slopes pass s does (found here by np.searchsorted)."""
    xs, fs, hull = x.tolist(), fx.tolist(), []
    for i, (xi, fi) in enumerate(zip(xs, fs)):  # monotone chain, lower hull
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            if (fs[k] - fs[j]) * (xi - xs[j]) < (fi - fs[j]) * (xs[k] - xs[j]):
                break
            hull.pop()
        hull.append(i)
    hx, hf = x[hull], fx[hull]
    vertex = np.searchsorted(np.diff(hf) / np.diff(hx), slopes)
    return slopes * hx[vertex] - hf[vertex]


def directional_derivative(f, x, v, h=1e-6):
    """Central finite-difference derivative of f at x along direction v."""
    return (f(x + h * v) - f(x - h * v)) / (2.0 * h)


def pair_ends(n):
    """The wrap-around layout of the nonlocal pair rows as index arrays:
    (plus, minus) = (i, (i + d) mod n) for row d = 1..n // 2 and column i,
    raveled row-major over (d, i)."""
    i = np.arange(n)
    return (np.tile(i, n // 2),
            ((i + np.arange(1, n // 2 + 1)[:, None]) % n).ravel())
