"""Constrained minimization of the gradient modular at fixed zero-order
modular, with the eigenvalue extracted as the Lagrange quotient.

Every iterate is projected onto the constraint by
:func:`orlicz_eigen.young._normalize`; a run from one start is descent steps
preconditioned by the lagged stiffness down to residual 1e-1, then damped
inexact Newton steps (see the README's numerical notes).  Each solve is one
:class:`Problem`, which serves every mesh, nonlocal ones included, as sums
over its row blocks.  The stiffness is factored by LAPACK's banded
Cholesky and the Hessian applied by BLAS ``dsbmv``, through scipy's f2py
wrappers loaded from their extension files (:func:`_flapack`), since
importing ``scipy.linalg`` costs each process about 0.23 s and 29 MB.
"""

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConfigError, GeometryError, OrliczError,
                     ZeroDenominatorError)
from .mesh import (ScalarField, _conform, bump_field, cell_gradients,
                   gradient_magnitudes)
from .young import (NormalizationResult, YoungFunction, _check_alpha,
                    _normalize, modular)

__all__ = [
    "SolveOptions", "NormalizationResult", "MinimizerResult",
    "phi_root", "energy", "lagrange_quotient", "weak_residual", "solve_E",
]

EPS_GRAD = 1e-12  # regularization of a(g)/g at vanishing gradient
MAX_STARTS = 5    # start pool when restarts is None (see solve_E)


def _flapack(name="_flapack"):
    """scipy's f2py extension module ``scipy.linalg.<name>``, loaded from
    its file without running the ``scipy`` or ``scipy.linalg`` initializers,
    and registered so that a later ``import scipy.linalg`` reuses it."""
    full = "scipy.linalg." + name
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec("scipy")  # does not import scipy
    if spec is None:
        raise ImportError("scipy is not installed", name=full)
    base = os.path.join(spec.submodule_search_locations[0], "linalg", name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base + suffix
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(full, path)
            spec = importlib.util.spec_from_loader(full, loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            sys.modules[full] = module
            return module
    raise ImportError(f"no extension module {base}*", name=full, path=base)


# the very wrappers that scipy.linalg.get_lapack_funcs/get_blas_funcs return
_LAPACK = _flapack()
_PBTRF, _PBTRS = _LAPACK.dpbtrf, _LAPACK.dpbtrs
_SBMV = _flapack("_fblas").dsbmv


@dataclass
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 50_000
    restarts: int = None  # None: up to MAX_STARTS; an integer forces that many
    seed: int = 0


@dataclass
class MinimizerResult:
    u: ScalarField
    alpha: float
    energy: float
    lam: float
    residual: float
    iterations: int  # steps of the returned run, descent and Newton
    converged: bool
    restarts_used: int
    restart_energies: list = field(default_factory=list)  # converged runs
    newton_steps: int = 0  # of the iterations, the Newton steps
    cg_iterations: int = 0  # Hessian matvecs of the run's Newton steps
    hessian_min: float = None  # of the run's certificate; None if unchecked

    @property
    def restart_spread(self):
        """(max - min)/|min| over the converged runs' energies, or None
        when fewer than two runs converged."""
        if len(self.restart_energies) < 2:
            return None
        lo = min(self.restart_energies)
        return (max(self.restart_energies) - lo) / abs(lo)

    def as_dict(self):
        return {
            "alpha": self.alpha,
            "energy": self.energy,
            "lambda": self.lam,
            "residual": self.residual,
            "iterations": self.iterations,
            "newton_steps": self.newton_steps,
            "cg_iterations": self.cg_iterations,
            "converged": self.converged,
            "restarts_used": self.restarts_used,
            "restart_spread": self.restart_spread,
            "hessian_min": self.hessian_min,
        }


# -- local quadratures and assembly ----------------------------------------

def energy(F, u, m, *, cells=None):
    """Quadrature sum_e w_e A(|B_e u|) over the rows of each block of m,
    with the block's Young function.  ``cells`` is the :class:`Problem` of
    the running solve, whose row memo keeps B u for the gradient and the
    band at the same field; without it, u must be finite."""
    values = _conform(u, m, finite=cells is None)
    g = (cells or Problem(F, m)).at(values).g
    return sum(float(np.dot(b.cell_weights, b.young(F).A(gk)))
               for b, gk in zip(m.blocks, g))


def energy_gradient(F, u, m, *, cells=None):
    """Nodal gradient sum over the blocks of B^T (w a(g)/g B u) of the
    discrete energy.  ``cells`` is the :class:`Problem` of the running
    solve, whose memo of B u and a(g)/g the energy and the preconditioner
    at the same field share; without it, u must be finite."""
    values = _conform(u, m, finite=cells is None)
    cells = (cells or Problem(F, m)).at(values)
    return sum(b.transpose((c * slopes * b.flux_weights).ravel(), pad)
               for b, c, slopes, pad in zip(m.blocks, cells.coefficients(),
                                            cells.slopes, cells.pads()))


def mass_gradient(F, u, m):
    """Nodal gradient of the zero-order modular (the eigenvalue's
    right-hand side tested against nodal basis functions)."""
    values = _conform(u, m)
    return m.node_weights * F.a(np.abs(values)) * np.sign(values)


def lagrange_quotient(F, u, m):
    """lambda = int a(|grad u|)|grad u| / int a(|u|)|u| by quadrature."""
    return _check(Problem(F, m), _conform(u, m, finite=True)).lam


def weak_residual(F, u, lam, m):
    """Normalized quadrature-weighted norm of the nodal weak-form defect."""
    return _check(Problem(F, m), _conform(u, m, finite=True), lam).res


@dataclass
class _Check:
    """The stationarity check at the nodal values of an iterate: the energy
    gradient g, the mass gradient mg, the Lagrange quotient lam (or the
    multiplier given) and the residual res of :func:`_stationarity`."""
    values: np.ndarray
    g: np.ndarray
    mg: np.ndarray
    lam: float
    res: float
    cg_iterations: int = 0  # by _newton_step, over the steps made from it

    @property
    def defect(self):
        """The weak-form defect g - lam mg."""
        return self.g - self.lam * self.mg


def _check(problem, values, lam=None):
    """The :class:`_Check` of ``problem`` at ``values``: the one place
    where the solver evaluates both gradients and the residual."""
    g = problem.gradient(values)
    mg = problem.mass_gradient(values)
    return _Check(values, g, mg,
                  *_stationarity(g, mg, values, problem.m.node_weights, lam))


def _stationarity(g, mg, values, weights, lam=None):
    """(lam, residual) at the nodal values u, from the energy gradient g and
    the mass gradient mg: the Lagrange quotient lam = <g, u>/<mg, u> (or the
    given ``lam``) and the norm of the weak-form defect g - lam mg relative
    to that of g, both weighted by 1/weights.  A pairing <mg, u> that is not
    positive and finite raises ZeroDenominatorError."""
    if lam is None:
        den = float(np.dot(mg, values))
        if den <= 0.0 or not math.isfinite(den):
            raise ZeroDenominatorError(
                "zero-order pairing underflowed; cannot form the quotient")
        lam = float(np.dot(g, values)) / den
    inv_w = 1.0 / weights
    # g and the defect are scaled by a power of two just above max|g| (at
    # most 2^1000, which a subnormal g would exceed) before squaring:
    # exact, and g g cannot overflow
    gmax = float(np.abs(g).max())
    scale = math.ldexp(1.0, -max(math.frexp(gmax)[1], -1000))
    gs = g * scale
    denom = float(np.dot(gs * gs, inv_w))
    if denom == 0.0:
        return lam, math.inf
    defect = gs - (lam * scale) * mg
    res = math.sqrt(float(np.dot(defect * defect, inv_w))) / math.sqrt(denom)
    return lam, res if math.isfinite(res) else math.inf


# -- normalization ---------------------------------------------------------

def phi_root(F, u, m, alpha, r0=1.0):
    """Radius r with modular(F, r u, m) = alpha, by
    :func:`orlicz_eigen.young._normalize`."""
    values = _conform(u, m, finite=True)
    return _normalize(F, np.abs(values), m.node_weights, alpha, r0)


# -- one solve: row memo, stiffness and projection -------------------------

def _lifted(x, keep=0.0, least=0.0):
    """x, or a copy in which each entry that is not finite or not above
    ``keep`` times the largest positive finite entry M is lifted to
    1e-10 max(M, least)."""
    top = x.max()
    if top < math.inf and x.min() > keep * top:  # NaN fails both tests
        return x
    ok = np.isfinite(x) & (x > 0.0)
    top = max(float(np.max(x, where=ok, initial=0.0)), least)
    return np.where(ok & (x > keep * top), x, 1e-10 * top)


class Problem:
    """One solve as the descent engine reads it, of the Young function F
    on the mesh m: the energy over the row blocks of m and its gradient,
    looked up in this module at each call (so a wrapper on ``energy`` or
    ``energy_gradient`` sees them), the mass gradient, the projection and
    the lagged-coefficient stiffness sum_b B^T diag(w a(g)/g) B, written
    by each block's ``band`` in LAPACK's layout (a block of smaller
    bandwidth adds into the last rows of the first block's band).

    A one-entry row memo, keyed on the field's contents, keeps per block
    B u (``slopes``), g = |B u|, g floored at EPS_GRAD (``floored``) and
    a(g)/g, for the energy, gradient, band and Hessian at one field.
    Arrays of a band's size are ``kept`` for the whole solve (``kept`` may
    be another Problem's on m, as for the p = 2 start): two bands, the
    last factor's and the one the next build writes, and each block's
    ``pad`` for ``transpose``.
    """

    def __init__(self, F, m, kept=None):
        self.F = F
        self.m = m
        self.kept = {} if kept is None else kept
        self._values = self.slopes = self.g = self._coefs = self.floored = None

    def at(self, values):
        """The memo at ``values``, a conforming float array: B u and |B u|
        are recomputed only when its contents differ from the last field's.
        """
        if self._values is None or not (self._values == values).all():
            self._values = values.copy()
            self.slopes = [cell_gradients(values, b) for b in self.m.blocks]
            self.g = [gradient_magnitudes(x) for x in self.slopes]
            self._coefs = self.floored = None
        return self

    def coefficients(self):
        """a(g)/g of each block at the memo's field, with the block's Young
        function, regularized at vanishing g: taken at max(g, EPS_GRAD),
        which the memo keeps as ``floored``."""
        if self._coefs is None:
            self.floored = [np.maximum(g, EPS_GRAD) for g in self.g]
            ys = [b.young(self.F).a(x) for b, x in zip(self.m.blocks,
                                                       self.floored)]
            self._coefs = [np.divide(y, x, out=None if y is x else y)
                           for y, x in zip(ys, self.floored)]
        return self._coefs

    def pads(self):
        """Each block's kept ``pad``."""
        if "pads" not in self.kept:
            self.kept["pads"] = [b.pad() for b in self.m.blocks]
        return self.kept["pads"]

    def energy(self, values):
        return energy(self.F, values, self.m, cells=self)

    def gradient(self, values):
        return energy_gradient(self.F, values, self.m, cells=self)

    def mass_gradient(self, values):
        return mass_gradient(self.F, values, self.m)

    def project(self, values, alpha, r0=1.0):
        norm = _normalize(self.F, np.abs(values), self.m.node_weights,
                          alpha, r0)
        return values * norm.r_alpha

    def _assemble(self, parts):
        """The sum of the bands of the (block, coefficients) ``parts`` in
        the kept band: the first block's band, with each smaller one added
        into its last rows."""
        (first, c), *rest = parts
        if self.kept.get("band") is None:
            self.kept["band"] = np.empty(
                (self.m.interior_count, first.bandwidth + 1)).T
        ab = first.band(c, self.kept["band"])
        for b, c in rest:
            part = b.band(c)
            ab[-len(part):] += part
        return ab

    def band(self, values, keep=0.0):
        """Upper banded storage, (bandwidth + 1) x n in LAPACK's layout, of
        the stiffness at ``values``, in the kept band (so it holds until
        the next build).  Zero (underflowed) or non-finite coefficients
        a(g)/g, and those not above ``keep`` times the largest of their
        block, are lifted by :func:`_lifted`; then so are zero or
        non-finite diagonal entries."""
        self.at(values)
        ab = self._assemble([(b, (_lifted(c, keep) * b.band_weights).ravel())
                             for b, c in zip(self.m.blocks,
                                             self.coefficients())])
        ab[-1] = _lifted(ab[-1], least=1e-280)
        return ab

    def preconditioner(self, values):
        # the band is factored in place and the kept bands swap.
        # Coefficients spread past the working precision cancel a pivot of a
        # weakly dominant band (1D cells, steep exp_minus_poly): retry
        # within 1e10 of the max
        for keep in (0.0, 1e-10):
            cho, info = _PBTRF(self.band(values, keep), overwrite_ab=True)
            _finite(cho, info)
            if info == 0:
                break
        else:
            raise np.linalg.LinAlgError(
                f"minor {info} is not positive definite")
        kept = self.kept
        kept["band"], kept["factor"] = kept.get("factor"), cho

        def solve(rhs):
            if len(rhs) != cho.shape[1]:
                raise ValueError("right-hand side and band differ in length")
            x, info = _PBTRS(cho, _finite(rhs))
            return _finite(x, info) if info else x  # only info < 0 raises
        return solve

    def tangent(self, values, lam):
        """The Hessian of the Lagrangian E - lam M at ``values`` as a
        matvec, v -> sum_b B_b^T (w_b H_b B_b v) - lam w a'(|u|) v, w the
        node weights, each a' the ``da`` of the block's own Young function.
        H_b is a'(g) on one-component rows, assembled with the mass term
        into the free kept band for BLAS ``dsbmv``, and c I + (a'(g) - c)
        n n^T (c = a(g)/g, n = s/g) on 2D triangles, applied through their
        rows.  An overflow gives an inf or a NaN, which CG catches; its
        callers apply the matvec with over and invalid ignored."""
        coefs = self.at(values).coefficients()
        rows, bands = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for b, c, s, gr, pad in zip(self.m.blocks, coefs, self.slopes,
                                        self.floored, self.pads()):
                da = b.young(self.F).da(gr)
                if len(s) == 1:
                    da *= b.band_weights.ravel()
                    bands.append((b, da))
                else:
                    n = s / gr
                    rows.append((b, c * b.flux_weights, n,
                                 (da - c) * n * b.flux_weights, pad))
            mass = lam * self.m.node_weights * self.F.da(
                np.maximum(np.abs(values), EPS_GRAD))
            if bands:
                ab = self._assemble(bands)
                ab[-1] -= mass
            else:
                ab = -mass.reshape(1, -1)

        def apply(v):
            out = _SBMV(len(ab) - 1, 1.0, ab, v)
            for b, k, n, kn, pad in rows:
                x = b.differences(v)
                out += b.transpose(
                    (k * x + kn * (n * x).sum(axis=0)).ravel(), pad)
            return out
        return apply


def _finite(x, info=0):
    """``x``; ValueError on an inf or NaN in it, or a negative LAPACK info."""
    if info < 0 or not np.isfinite(x).all():
        raise ValueError(f"LAPACK info {info}" if info < 0
                         else "an inf or a NaN")
    return x


# -- descent engine --------------------------------------------------------

@dataclass
class _RunResult:
    values: np.ndarray
    energy: float
    lam: float
    residual: float
    iterations: int  # steps made, descent and Newton steps alike
    converged: bool
    newton_steps: int  # of the iterations, the Newton steps
    cg_iterations: int = 0  # of all its Newton steps, failed ones too
    hessian_min: float = None  # by _hessian_min, when the solve checks it


_HANDOVER = 1e-1        # residual below which the steps are Newton steps
_HANDBACK = 1e-4        # the same, after the one hand-back
_ARMIJO = 1e-4          # sufficient-decrease constant of the line search
_STALL = 0.5            # a residual not below this fraction of the last stalls
_SHRINK = 0.5           # backtracking cap, as a fraction of the failed step
_STEP_MIN = 0.1         # backtracking floor, as a fraction of the failed step
_THETA_MIN = 1e-3       # damping floor of the Newton step
_FORCING = 1e-2         # CG's forcing far out (see _newton)
_CG_MAX = 50            # CG iterations per Newton step


def _newton_step(problem, check, solve, pc, forcing=_FORCING):
    """Inexact Newton step v at the iterate of ``check``: projected
    preconditioned CG for J v = -defect on the constraint tangent
    T = {v : <mg, v> = 0}, J the Hessian of :meth:`Problem.tangent`.  The
    preconditioner is the lagged stiffness K (``solve``) projected onto T
    along pc = K^-1 mg, as in the descent: z = K^-1 r - (<mg, K^-1 r>/<mg,
    pc>) pc, so every z, and so v, lies in T.  CG stops when sqrt(<r, z>)
    has fallen by ``forcing``, at a direction of non-positive curvature,
    or after _CG_MAX iterations; v is zero if the first direction fails."""
    mg, v, r = check.mg, np.zeros_like(check.values), -check.defect
    denom = float(np.dot(mg, pc))
    if not (denom > 0.0 and np.isfinite(r).all()):
        return v

    def precondition(x):
        z = solve(x)
        return z - (float(np.dot(mg, z)) / denom) * pc
    apply = problem.tangent(check.values, check.lam)
    # as in the matvec, an overflow is an inf or a NaN, which ends CG
    with np.errstate(over="ignore", invalid="ignore"):
        p = z = precondition(r)
        rz = float(np.dot(r, z))
        stop = forcing ** 2 * rz
        for _ in range(_CG_MAX):
            if not rz > stop:  # also a zero or NaN first residual
                break
            jp = apply(p)
            check.cg_iterations += 1
            curv = float(np.dot(p, jp))
            if not (math.isfinite(curv) and curv > 0.0):
                break
            v += (rz / curv) * p
            r -= (rz / curv) * jp
            z = precondition(r)
            rz, last = float(np.dot(r, z)), rz
            p = z + (rz / last) * p
    return v


def _newton(problem, alpha, check, factor, tol):
    """Damped Newton step from the iterate u of ``check``, at residual res:
    the step v of :func:`_newton_step` to the forcing min(_FORCING,
    max(res, 0.01 tol/res)) (a quadratic tail that does not over-solve
    past tol; Dembo, Eisenstat & Steihaug 1982), then the first
    u + theta v, theta = 1, 1/2, ... down to _THETA_MIN, whose residual is
    below (1 - theta/2) res (Eisenstat & Walker 1994).  Where A(|s|) ~ |s|^q
    on a row whose slope vanishes at the minimizer, theta v maps s to
    s (1 - theta/(q - 1)), so theta = q - 1 is exact.  On a kept ``factor``
    of the stiffness (CG's preconditioner) only theta = 1 is tried, and
    the step is redone on a fresh factor if it fails.  Returns the new
    iterate's :class:`_Check` and the factor to keep (None after a damped
    step), or (None, None) if v is zero or no theta passes on a fresh one."""
    solve = factor or problem.preconditioner(check.values)
    forcing = min(_FORCING, max(check.res, 0.01 * tol / check.res))
    step = _newton_step(problem, check, solve, solve(check.mg), forcing)
    theta = 1.0
    while np.any(step) and theta > (0.5 if factor else _THETA_MIN):
        trial = _check(problem, problem.project(
            check.values + theta * step, alpha))
        if trial.res < (1.0 - 0.5 * theta) * check.res:
            return trial, solve if theta == 1.0 else None
        theta *= 0.5
    if factor:  # redo the step on a fresh factor
        return _newton(problem, alpha, check, None, tol)
    return None, None


def _model_step(E0, gd, s, Es, lo, hi, fallback):
    """The minimizer of the quadratic through E(0) = E0 with slope -gd and
    E(s) = Es, clamped to [lo, hi]; ``fallback`` when Es is not finite or
    the quadratic is not convex."""
    curv = Es - E0 + gd * s  # s^2 times the quadratic's curvature
    if not (math.isfinite(curv) and curv > 0.0):
        return fallback
    return min(max(0.5 * gd * s * s / curv, lo), hi)


def _descend(problem, alpha, start_values, opts):
    """One run from one start: one step per pass, at the iterate of the
    last stationarity check, until its residual is below opts.tol or
    opts.max_iter steps are made (``iterations``).  At residual ``near`` or
    more the step is a projected preconditioned descent step, below it a
    damped Newton step of :func:`_newton`.  ``near`` is _HANDOVER at first;
    a failed line search sets it to infinity.  A Newton step that fails on
    a fresh factor ends the run, except once while ``near`` is _HANDOVER
    and the residual _HANDBACK or more: ``near`` falls to _HANDBACK, and
    descent steps take the iterate back.  A stiffness that is not positive
    definite even lifted ends the run unconverged at its last check.

    Each line search tries the unit step first and, after an Armijo test
    that failed at step s, the quadratic model's minimizer clamped to
    [_STEP_MIN s, _SHRINK s] (:func:`_model_step`).  A descent step whose
    residual is not below _STALL times the last one's starts its line
    search at the last model's minimizer clamped to [_STEP_MIN, 1] instead
    (the unit step can overshoot twofold along a stiff mode).  The energy
    is evaluated where a descent step needs it, and at the end."""
    check = _check(problem, problem.project(start_values, alpha))
    E, near, last, model_step = None, _HANDOVER, math.inf, 1.0
    factor, it, newton, cg = None, 0, 0, 0
    while check.res >= opts.tol and it < opts.max_iter:
        if check.res >= near:
            u, g, mg = check.values, check.g, check.mg
            E = problem.energy(u) if E is None else E
            try:
                solve = problem.preconditioner(u)
            except np.linalg.LinAlgError:
                break  # no definite stiffness here: unconverged at its check
            pg = solve(g)
            pc = solve(mg)
            denom = float(np.dot(mg, pc))
            mu = float(np.dot(mg, pg)) / denom if denom > 0 else 0.0
            d = pg - mu * pc
            gd = float(np.dot(g, d))
            if gd <= 0.0:
                d, gd = pg, float(np.dot(g, pg))
                if gd <= 0.0:
                    break
            # unit trial step: with the lagged stiffness solve the projected
            # direction is Newton-like, so s = 1 recovers inverse-iteration
            # progress on the quadratic problem and backtracking handles the
            # rest; after a stall, the model step
            s = model_step if check.res >= _STALL * last else 1.0
            last = check.res
            while s > 1e-18:
                trial_raw = u - s * d
                Et = math.nan
                if np.any(trial_raw):
                    trial = problem.project(trial_raw, alpha)
                    Et = problem.energy(trial)
                    if Et <= E - _ARMIJO * s * gd:
                        break
                s = _model_step(E, gd, s, Et, _STEP_MIN * s, _SHRINK * s,
                                _SHRINK * s)
            if s > 1e-18:  # the Armijo test held
                assert Et <= E * (1.0 + 1e-14) + 1e-300, \
                    "descent must be monotone"
                model_step = _model_step(E, gd, s, Et, _STEP_MIN, 1.0, 1.0)
                check, E, it = _check(problem, trial), Et, it + 1
                continue
            near = math.inf  # flat at this resolution: Newton from here
        spent = check.cg_iterations
        moved, factor = _newton(problem, alpha, check, factor, opts.tol)
        cg += check.cg_iterations - spent
        if moved is None:
            if near != _HANDOVER or check.res < _HANDBACK:
                break
            near, model_step = _HANDBACK, 1.0  # the one hand-back, as a start
            continue
        check, E, it, newton = moved, None, it + 1, newton + 1
    return _RunResult(
        values=check.values, lam=check.lam, residual=check.res,
        energy=problem.energy(check.values) if E is None else E,
        iterations=it, converged=check.res < opts.tol, newton_steps=newton,
        cg_iterations=cg)


def _one_signed(values):
    """Whether the values are all >= 0 or all <= 0."""
    return bool(np.all(values >= 0.0) or np.all(values <= 0.0))


def _run(problem, alpha, start, opts):
    """One run of :func:`_descend` from ``start``, converged only at a
    field of one sign.  A field that changes sign is no minimizer (a
    converged one is a higher eigenfunction, a stalled one may be near
    one), so a run that ends there converged, or with steps left, goes on
    once from its |u|, within the same opts.max_iter steps, and its counts
    are those of both parts.  |u| is no worse: E(|u|) <= E(u) at the same
    modular on every mesh here, since ||a| - |b|| <= |a - b|."""
    run = _descend(problem, alpha, start, opts)
    if _one_signed(run.values) or not (
            run.converged or run.iterations < opts.max_iter):
        return run
    again = _descend(problem, alpha, np.abs(run.values),
                     replace(opts, max_iter=opts.max_iter - run.iterations))
    again.iterations += run.iterations
    again.newton_steps += run.newton_steps
    again.cg_iterations += run.cg_iterations
    again.converged = again.converged and _one_signed(again.values)
    return again


_RITZ_ITERS = 40    # LOBPCG iterations of the second-order check, at most
_RITZ_TOL = 1e-3    # Ritz residual, relative to the Ritz value, it accepts


def _ritz_starts(m):
    """The second-order check's two starts: the coordinates of the interior
    nodes, and in 1D their squares.  No mirror symmetry of the mesh maps
    them to themselves (from symmetric starts LOBPCG stays among the
    symmetric modes, and the lowest tangent mode at a symmetric minimizer
    is antisymmetric), and on a square they hold both of its nearly equal
    lowest tangent modes."""
    c = m.interior_coords.T
    return c if m.dim == 2 else np.concatenate([c, c * c])


def _eigh(a):
    """Ascending eigenvalues and eigenvectors of the small symmetric matrix
    a, by LAPACK dsbev on its full band, through the wrappers loaded above:
    numpy's eigh maps about 0.4 MB more LAPACK code into the process on
    its first call.  A failure to converge raises LinAlgError."""
    k = len(a)
    band = np.zeros((k, k))
    for d in range(k):
        band[k - 1 - d, d:] = np.diagonal(a, d)
    vals, vecs, info = _LAPACK.dsbev(band)
    if info:
        raise np.linalg.LinAlgError(f"dsbev info {info}")
    return vals, vecs


def _hessian_min(problem, run):
    """The lowest eigenvalue mu of J v = mu W v on the constraint tangent
    T = {v : <mg, v> = 0} at the end of ``run``: J the Hessian of
    :meth:`Problem.tangent` at its field and multiplier, W the diagonal of
    node weights.  LOBPCG (Knyazev 2001) with a block of two (one crawls
    where the lowest two modes nearly coincide, as on a square), from the
    projected preconditioned :func:`_ritz_starts`, for at most _RITZ_ITERS
    iterations.  The preconditioner is the run's kept stiffness factor K
    (built only if none is kept), projected onto T along K^-1 mg as in
    :func:`_newton_step`.  A Ritz value only bounds mu from above, so the
    lowest is returned only once the W^-1 norm of its residual, less its
    part along mg, is below _RITZ_TOL times its size; otherwise, and where
    anything is not finite, NaN; +inf where T = {0} (one interior node)."""
    values, w = run.values, problem.m.node_weights
    if len(values) == 1:
        return math.inf
    mg = problem.mass_gradient(values)
    if problem.kept.get("factor") is None:
        try:
            problem.preconditioner(values)
        except np.linalg.LinAlgError:
            return math.nan
    cho = problem.kept["factor"]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pc = _PBTRS(cho, mg)[0]
        pc /= float(np.dot(mg, pc))
        mg_w = mg / (w * float(np.dot(mg, mg / w)))
        apply = problem.tangent(values, run.lam)

        def unit(rows, before, images=None):
            """The rows of finite W norm above 1e-10 ``before`` (their norms
            before a projection or combination that cancelled them to
            rounding, which leaves T), scaled to norm 1, and their images
            under J (applied here if not given)."""
            norms = np.sqrt((rows * w * rows).sum(axis=1))
            keep = (norms > 1e-10 * before) & (norms < math.inf)
            rows = rows[keep] / norms[keep, None]
            if images is None:
                return rows, np.array([apply(v) for v in rows])
            return rows, images[keep] / norms[keep, None]

        def search(rows):  # preconditioned and projected onto T
            z = _PBTRS(cho, rows.T)[0].T
            return unit(z - np.outer(z @ mg, pc),
                        np.sqrt((z * w * z).sum(axis=1)))
        s, js = search(w * _ritz_starts(problem.m))
        lead = len(s)  # the leading rows of s: the last Ritz block
        for k in range(_RITZ_ITERS + 1):
            a, b = s @ js.T, (s * w) @ s.T
            if not (len(s) and np.isfinite(a).all() and np.isfinite(b).all()):
                return math.nan
            # Rayleigh-Ritz on a span that may be nearly dependent: keep
            # the well-conditioned directions of b
            try:
                b_vals, b_vecs = _eigh(b)
                ok = b_vals > 1e-12 * b_vals[-1]
                t = b_vecs[:, ok] / np.sqrt(b_vals[ok])
                mus, vecs = _eigh(t.T @ (0.5 * (a + a.T)) @ t)
            except np.linalg.LinAlgError:
                return math.nan
            c = (t @ vecs[:, :2]).T
            x, jx = c @ s, c @ js
            r = jx - mus[:len(x), None] * w * x
            r0 = r[0] - float(np.dot(r[0], mg_w)) * mg
            if math.sqrt(float(np.dot(r0, r0 / w))) <= _RITZ_TOL * abs(mus[0]):
                return float(mus[0])
            if k == _RITZ_ITERS:
                return math.nan
            # the next span: the Ritz block, its preconditioned residuals
            # and the Ritz block's part off the last one (s has unit rows)
            z, jz = search(r)
            tail = c[:, lead:]
            p, jp = unit(tail @ s[lead:], np.abs(tail).sum(axis=1),
                         tail @ js[lead:])
            s, js = np.concatenate([x, z, p]), np.concatenate([jx, jz, jp])
            lead = len(x)


def _smooth(values):
    """Ten sweeps of the stencil (1/4, 1/2, 1/4) with zero ends, in a
    buffer that keeps the two zeros."""
    padded = np.zeros(len(values) + 2)
    padded[1:-1] = values
    for _ in range(10):
        padded[1:-1] = 0.5 * padded[1:-1] + 0.25 * (padded[:-2] + padded[2:])
    return padded[1:-1]


def _start_pool(m, opts, initial, kept=None):
    """Multistart pool, without end: the warm start if given, else the
    quadratic-case first eigenvector (built in the arrays ``kept`` of the
    solve's :class:`Problem`) and a plateau profile where the
    geometry admits one, then smoothed positive random fields.  Each start
    is made when the iterator reaches it, so a solve that stops early
    builds no more; the random fields come from one generator seeded with
    opts.seed, in a fixed order."""
    if initial is not None:
        yield _conform(initial, m, finite=True)
    else:
        yield np.abs(quadratic_eigenvector(m, kept=kept))
        r_plateau = m.inner_radius - 1.0 - 3.0 * max(m.spacing)
        if r_plateau > max(m.spacing):
            try:
                bump = bump_field(m, 0.8 * r_plateau).values
            except GeometryError:
                pass
            else:
                yield bump
    from numpy.random import default_rng  # about 10 ms, so only when drawn
    rng = default_rng(opts.seed)
    while True:
        raw = np.abs(rng.standard_normal(m.interior_count))
        if m.dim == 1:
            raw = _smooth(raw)
        yield raw + 1e-3


def quadratic_eigenvector(m, kept=None):
    """First eigenvector of the p=2 discretization of m by at most 100
    inverse power steps with the stiffness solve of a p=2 :class:`Problem`,
    built in the arrays ``kept`` of another Problem on m when given."""
    solve = Problem(YoungFunction.power(2), m, kept).preconditioner(
        np.ones(m.interior_count))
    v = np.ones(m.interior_count)
    v /= math.sqrt(float(np.dot(m.node_weights, v * v)))
    lam_old = math.inf
    for _ in range(100):
        v = solve(m.node_weights * v)
        nrm = math.sqrt(float(np.dot(m.node_weights, v * v)))
        v /= nrm
        lam = 1.0 / nrm
        if abs(lam - lam_old) <= 1e-13 * lam:
            break
        lam_old = lam
    return v


def _pick_best(runs):
    converged = [r for r in runs if r.converged]
    pool = converged or runs
    return min(pool, key=lambda r: (r.energy, r.residual))


def solve_E(F, m, alpha, opts=None, initial=None):
    """Minimize the gradient modular at zero-order modular alpha.

    Runs the starts of :func:`_start_pool` one at a time (:func:`_run`).
    With ``opts.restarts`` None the pool holds MAX_STARTS starts, and the
    solve stops after the first certified run: converged, and with a
    :func:`_hessian_min` at or above -opts.tol times its multiplier (each
    converged run is checked and keeps it); failing that, after the first
    converged run whose energy agrees with an earlier converged run's within
    opts.tol relative.  ``restarts=N`` runs exactly N and checks none.
    ``initial``, one finite value per interior node of m, warm-starts the
    first run.  Returns the lowest-energy converged run
    (else all runs flagged unconverged).  Bad options raise ConfigError; a
    minimizer whose modular misses alpha by 1e-10 relative, OrliczError.
    """
    opts = opts or SolveOptions()
    _check_alpha(alpha)
    if opts.restarts is not None and not opts.restarts >= 1:
        raise ConfigError(f"restarts must be at least 1, got {opts.restarts}")
    if not (math.isfinite(opts.tol) and opts.tol > 0):
        raise ConfigError(f"tol must be finite and positive, got {opts.tol}")
    if not opts.max_iter >= 1:
        raise ConfigError(f"max_iter must be at least 1, got {opts.max_iter}")
    if not opts.seed >= 0:
        raise ConfigError(f"seed must be at least 0, got {opts.seed}")
    problem = Problem(F, m)
    runs, energies = [], []
    n = MAX_STARTS if opts.restarts is None else opts.restarts
    for start in itertools.islice(
            _start_pool(m, opts, initial, problem.kept), n):
        run = _run(problem, alpha, start, opts)
        runs.append(run)
        if not run.converged:
            continue
        E = run.energy
        agreed = any(abs(E - Ej) <= opts.tol * max(abs(E), abs(Ej))
                     for Ej in energies)
        energies.append(E)
        if opts.restarts is None:
            # certified: converged, so of one sign (_run), and second-order
            run.hessian_min = _hessian_min(problem, run)
            if run.hessian_min >= -opts.tol * abs(run.lam) or agreed:
                break
    best = _pick_best(runs)
    achieved = modular(F, best.values, m)
    if not abs(achieved - alpha) <= 1e-10 * alpha:
        raise OrliczError(
            f"minimizer misses the constraint: modular {achieved!r} "
            f"for alpha = {alpha!r}")
    return MinimizerResult(
        u=ScalarField(best.values, m), alpha=achieved, energy=best.energy,
        lam=best.lam, residual=best.residual, iterations=best.iterations,
        converged=best.converged, restarts_used=len(runs),
        restart_energies=energies, newton_steps=best.newton_steps,
        cg_iterations=best.cg_iterations, hessian_min=best.hessian_min)
