"""Root extraction: bracketed Newton on many brackets at once ("rtsafe").

Each bracket is one lane of an array.  Every iteration shrinks each live
bracket on the sign of its residual and moves the lane to its Newton point
when that lies strictly inside the bracket, else to the midpoint; with NaN
steps this is bisection.  A scalar bracket is the one-lane case.
Callers supply analytic brackets, so a missing sign change signals an
internal bug and raises :class:`BracketError` rather than being retried.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError

__all__ = ["bisect_newton"]

# Iterations; the ~4-ulp width rule ends plain bisection far sooner.
_MAX_ITER = 200

# A lane stops at |residual| <= _FTOL, at a bracket ~4 ulp wide, or after a
# Newton step of at most ~4 ulp.  High spectral modes end on the last two
# with a residual near ulp(u) * |slope| (about 2e-10 at K = 240), not 1e-12.
_FTOL = 1e-12
_ULP4 = 4.0 * 2.2e-16


def bisect_newton(func: Callable, lo: float | np.ndarray, hi: float | np.ndarray, *,
                  x0: float | np.ndarray | None = None) -> float | np.ndarray:
    """Roots of ``func`` in [lo, hi], one per lane, refined until |residual| <= 1e-12.

    ``lo`` and ``hi`` are scalars or arrays of one shape; ``func`` maps an
    array of that shape to the pair (residuals, Newton steps), where a NaN
    step bisects.  Iteration starts at ``x0``, by default the midpoints.  A
    lane whose endpoint is an exact zero returns that endpoint; the others
    stop on the rules above.  Scalar brackets return a float.  Raises
    :class:`ConvergenceError` when a lane meets no stop rule within 200
    iterations.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    flo = np.asarray(func(lo)[0], dtype=float)
    fhi = np.asarray(func(hi)[0], dtype=float)
    bad = np.sign(flo) * np.sign(fhi) > 0.0  # signs: a product of residuals may under- or overflow
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise BracketError(
            f"no sign change in {np.count_nonzero(bad)} of {bad.size} brackets; first "
            f"[{lo.flat[i]!r}, {hi.flat[i]!r}]: f(lo)={flo.flat[i]!r}, f(hi)={fhi.flat[i]!r}"
        )
    a, b, fa = lo, hi, flo
    x = 0.5 * (a + b) if x0 is None else np.asarray(x0, dtype=float)
    live = (flo != 0.0) & (fhi != 0.0)
    for _ in range(_MAX_ITER):
        fx, dx = func(x)
        tol = np.abs(x) * _ULP4  # |x| scaled last: 4 |x| may overflow
        live &= ~((np.abs(fx) <= _FTOL) | ((b - a) <= tol))
        if not live.any():
            break
        left = live & ((fa < 0.0) != (fx < 0.0))  # live lanes have fa != 0 and fx != 0
        right = live & ~left
        b = np.where(left, x, b)
        a = np.where(right, x, a)
        fa = np.where(right, fx, fa)
        x_new = x + dx
        small = np.abs(dx) <= tol
        x_new = np.where((a < x_new) & (x_new < b), x_new, np.where(small, x, 0.5 * (a + b)))
        x = np.where(live, x_new, x)  # a stopped lane keeps its x
        live &= ~small
        if not live.any():
            break
    else:
        n = np.count_nonzero(live)
        raise ConvergenceError(f"{n} of {live.size} brackets open after {_MAX_ITER} iterations")
    x = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, x))
    return float(x) if x.ndim == 0 else x
