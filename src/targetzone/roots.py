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

__all__ = ["bisect_newton", "expand_bracket"]

# Bisection steps (the ~4-ulp width rule stops far sooner) and the
# geometric growth of expand_bracket.
_MAX_ITER = 200
_EXPAND_FACTOR = 2.0
_MAX_EXPANSIONS = 60


def bisect_newton(
    func: Callable,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    *,
    dfunc: Callable | None = None,
    ftol: float = 1e-13,
) -> float | np.ndarray:
    """Roots of ``func`` in [lo, hi], one per lane, refined until |func| <= ftol.

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
    bad = flo * fhi > 0.0
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
        live &= ~((np.abs(fx) <= ftol) | ((b - a) <= 4.0 * np.abs(x) * 2.2e-16))
        if not live.any():
            break
        left = live & (fa * fx <= 0.0)
        right = live & ~left
        b = np.where(left, x, b)
        a = np.where(right, x, a)
        fa = np.where(right, fx, fa)
    if dfunc is not None:
        live = ~ends
        for _ in range(8):
            fx = np.asarray(func(x), dtype=float)
            dfx = np.asarray(dfunc(x), dtype=float)
            live &= ~(np.abs(fx) <= ftol) & (dfx != 0.0)
            if not live.any():
                break
            x_new = x - fx / np.where(live, dfx, 1.0)
            live &= (a < x_new) & (x_new < b)
            x = np.where(live, x_new, x)
    x = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, x))
    return float(x) if x.ndim == 0 else x


def expand_bracket(
    func: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Grow ``hi`` geometrically until [lo, hi] brackets a sign change."""
    flo = func(lo)
    fhi = func(hi)
    n = 0
    while flo * fhi > 0.0:
        n += 1
        if n > _MAX_EXPANSIONS:
            raise BracketError("bracket expansion exhausted without sign change")
        hi = lo + (hi - lo) * _EXPAND_FACTOR
        fhi = func(hi)
    return lo, hi
