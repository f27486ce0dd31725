"""Scalar root extraction: bisection with a safeguarded Newton polish.

Used by the spectral and honeymoon modules.  Both callers supply analytic
brackets, so a missing sign change signals an internal bug and raises
:class:`BracketError` rather than being retried.
"""

from __future__ import annotations

from typing import Callable

from .errors import BracketError

__all__ = ["bisect_newton", "expand_bracket"]

# Bisection steps (the ~4-ulp width rule stops far sooner) and the
# geometric growth of expand_bracket.
_MAX_ITER = 200
_EXPAND_FACTOR = 2.0
_MAX_EXPANSIONS = 60


def bisect_newton(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    dfunc: Callable[[float], float] | None = None,
    ftol: float = 1e-13,
) -> float:
    """Root of ``func`` in [lo, hi], refined until |func| <= ftol.

    Bisection carries the bracket to near machine width; when ``dfunc``
    is supplied a few Newton steps polish the root, rejected whenever
    they would leave the bracket.
    """
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    a, b, fa = lo, hi, flo
    x = 0.5 * (a + b)
    for _ in range(_MAX_ITER):
        x = 0.5 * (a + b)
        fx = func(x)
        if abs(fx) <= ftol or (b - a) <= 4.0 * abs(x) * 2.2e-16:
            break
        if fa * fx <= 0.0:
            b = x
        else:
            a, fa = x, fx
    if dfunc is not None:
        for _ in range(8):
            fx = func(x)
            if abs(fx) <= ftol:
                break
            dfx = dfunc(x)
            if dfx == 0.0:
                break
            step = fx / dfx
            x_new = x - step
            if not (a < x_new < b):
                break
            x = x_new
    return x


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
