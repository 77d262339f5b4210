"""Monotone scalar root finding by bracketed bisection.

Luxemburg scalings and generalized inverses of densities are roots of
nondecreasing scalar maps with no usable derivative, so a single
bracket-grow + bisect helper covers them.  The normalization radius, whose
map has a closed-form derivative, is found by safeguarded Newton iteration
in :mod:`orlicz_eigen.solver` instead.
"""

import math

from .errors import BracketRangeError

_MAX_BRACKET = 1e280
_MIN_BRACKET = 1e-280


def bracket_monotone(f, target, x0=1.0):
    """Grow a bracket [lo, hi] with f(lo) <= target <= f(hi) for nondecreasing f.

    Starts at x0 and expands geometrically in the needed direction.
    Raises BracketRangeError if the representable range is exhausted.
    """
    lo = hi = x0
    flo = fhi = f(x0)
    while fhi < target:
        lo, flo = hi, fhi
        hi *= 2.0
        if hi > _MAX_BRACKET:
            raise BracketRangeError(
                "bracket exceeded representable range while growing upward",
                bracket=(lo, hi))
        fhi = f(hi)
    while flo > target:
        hi, fhi = lo, flo
        lo *= 0.5
        if lo < _MIN_BRACKET:
            raise BracketRangeError(
                "bracket exceeded representable range while shrinking downward",
                bracket=(lo, hi))
        flo = f(lo)
    return lo, hi


def bisect_monotone(f, target, x0=1.0, rtol=1e-12, ftol_rel=None, max_iter=300):
    """Root of f(x) = target for nondecreasing f, to relative tolerance on x.

    If ftol_rel is given, iteration additionally continues until
    |f(x) - target| <= ftol_rel * |target| (or the interval collapses).

    Returns (x, iterations).
    """
    lo, hi = bracket_monotone(f, target, x0)
    it = 0
    mid = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * max(abs(lo), abs(hi)):
            if ftol_rel is None:
                break
            if abs(fmid - target) <= ftol_rel * abs(target):
                break
            if hi - lo <= math.ulp(hi):
                break
    return 0.5 * (lo + hi), it
