"""Root extraction: bisection of many brackets at once, with a safeguarded
Newton polish.

Each bracket is one lane of an array; every iteration halves all live
lanes, and each lane stops on its own rule.  A scalar bracket is the
one-lane case.  The spectral and honeymoon modules supply analytic
brackets, so a missing sign change signals an internal bug and raises
:class:`BracketError` rather than being retried.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BracketError

__all__ = ["bisect_newton"]

# Bisection steps; the ~4-ulp width rule stops far sooner.
_MAX_ITER = 200

# A lane stops at |func| <= _FTOL or at a bracket ~4 ulp wide, whichever
# comes first.  High spectral modes end on the width rule with a residual
# near ulp(u) * |slope| (about 2e-10 at K = 240), not 1e-12.
_FTOL = 1e-12


def bisect_newton(
    func: Callable,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    *,
    dfunc: Callable | None = None,
) -> float | np.ndarray:
    """Roots of ``func`` in [lo, hi], one per lane, refined until |func| <= 1e-12.

    ``lo`` and ``hi`` are scalars or arrays of one shape; ``func`` and
    ``dfunc`` map an array of that shape to one of the same shape.  A lane
    whose endpoint is an exact zero returns that endpoint.  Bisection
    carries each bracket to near machine width; when ``dfunc`` is supplied
    up to 8 Newton steps polish each root, and a lane stops polishing when
    a step would leave its own bracket.  Scalar brackets return a float.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    flo = np.asarray(func(lo), dtype=float)
    fhi = np.asarray(func(hi), dtype=float)
    bad = np.sign(flo) * np.sign(fhi) > 0.0  # signs: a product of residuals may under- or overflow
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise BracketError(
            f"no sign change in {np.count_nonzero(bad)} of {bad.size} brackets; first "
            f"[{lo.flat[i]!r}, {hi.flat[i]!r}]: f(lo)={flo.flat[i]!r}, f(hi)={fhi.flat[i]!r}"
        )
    ends = (flo == 0.0) | (fhi == 0.0)
    a, b, fa = lo, hi, flo
    live = ~ends
    for _ in range(_MAX_ITER):
        x = 0.5 * (a + b)  # a stopped lane keeps its a and b, hence its x
        fx = np.asarray(func(x), dtype=float)
        # the width rule scales |x| last: 4 |x| may overflow
        live &= ~((np.abs(fx) <= _FTOL) | ((b - a) <= np.abs(x) * (4.0 * 2.2e-16)))
        if not live.any():
            break
        left = live & ((fa < 0.0) != (fx < 0.0))  # live lanes have fa != 0 and fx != 0
        right = live & ~left
        b = np.where(left, x, b)
        a = np.where(right, x, a)
        fa = np.where(right, fx, fa)
    if dfunc is not None:
        live = ~ends
        for _ in range(8):
            fx = np.asarray(func(x), dtype=float)
            dfx = np.asarray(dfunc(x), dtype=float)
            live &= ~(np.abs(fx) <= _FTOL) & (dfx != 0.0)
            if not live.any():
                break
            x_new = x - fx / np.where(live, dfx, 1.0)
            live &= (a < x_new) & (x_new < b)
            x = np.where(live, x_new, x)
    x = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, x))
    return float(x) if x.ndim == 0 else x
