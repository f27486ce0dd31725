"""Numerically robust special functions needed by the solvers.

Only what the mean-reverting closed form requires: the confluent
hypergeometric function 1F1 (Kummer's M).  All functions are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["kummer_1f1"]

_MAX_TERMS = 10_000
_REL_STOP = 1e-16


def _is_nonpositive_integer(b: float) -> bool:
    return b <= 0.0 and b == math.floor(b)


def _taylor_sum(a: float, b: float, x: float, dtype=float) -> tuple[float, float]:
    """Series sum and its cancellation amplification max_n |t_n| / |sum|."""
    one = dtype(1.0)
    term = one
    total = one
    peak = one
    a_, b_, x_ = dtype(a), dtype(b), dtype(x)
    prev_small = False
    for n in range(_MAX_TERMS):
        term = term * (a_ + n) / (b_ + n) * x_ / (n + 1)
        total = total + term
        if not np.isfinite(total):
            raise ConvergenceError(f"kummer_1f1 series overflowed (a={a}, b={b}, x={x})")
        peak = max(peak, abs(term))
        small = abs(term) <= _REL_STOP * abs(total)
        if small and prev_small:
            amp = float(peak / abs(total)) if total != 0 else math.inf
            return float(total), amp
        prev_small = small
    raise ConvergenceError(
        f"kummer_1f1 did not converge in {_MAX_TERMS} terms (a={a}, b={b}, x={x})"
    )


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric function 1F1(a, b; x) by Taylor series.

    The term recurrence t_{n+1} = t_n * (a+n)/(b+n) * x/(n+1) is summed
    until two consecutive terms fall below 1e-16 of the running sum; for
    x < 0 the Kummer transformation 1F1(a,b,x) = e^x 1F1(b-a, b, -x) makes
    the summed argument nonnegative first.

    Nonnegative (a, b) give a positive-term series accurate to ~1e-13
    relative.  A negative first parameter makes the leading terms
    alternate; the resulting cancellation is detected from the peak-term
    to sum ratio and the series is then re-summed in extended precision,
    which holds the error near eps_80bit * amplification.
    """
    if _is_nonpositive_integer(b):
        raise DomainError(f"kummer_1f1: b={b} is a non-positive integer")
    if x == 0.0:
        return 1.0
    if x < 0.0:
        return math.exp(x) * kummer_1f1(b - a, b, -x)

    total, amp = _taylor_sum(a, b, x)
    if amp * 2.3e-16 > 1e-12:
        total, _ = _taylor_sum(a, b, x, dtype=np.longdouble)
    return total
