"""Numerically robust special functions needed by the solvers.

Only what the mean-reverting closed form requires: the confluent
hypergeometric function 1F1 (Kummer's M).  All functions are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError

__all__ = ["kummer_1f1"]

_MAX_TERMS = 10_000
_REL_STOP = 1e-16


def _taylor_sum(a: np.ndarray, b, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lane-wise series sums and their amplification max_n |t_n| / |sum|.

    One lane per element of ``a`` and ``x``, summed in their dtype.  Each
    lane stops on its own rule and keeps its sum and peak from then on.
    """
    term = np.ones_like(x)
    total = np.ones_like(x)
    peak = np.ones_like(x)
    active = np.ones(x.shape, dtype=bool)
    prev_small = np.zeros(x.shape, dtype=bool)
    # stopped lanes may keep stepping into inf or nan; only active ones count
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(_MAX_TERMS):
            term = term * (a + n) / (b + n) * x / (n + 1)
            total = np.where(active, total + term, total)
            if not np.isfinite(total).all():
                i = np.argmin(np.isfinite(total))
                raise NumericalError(
                    f"kummer_1f1 series overflowed (a={a[i]}, b={b}, x={x[i]})"
                )
            peak = np.where(active, np.maximum(peak, np.abs(term)), peak)
            small = np.abs(term) <= _REL_STOP * np.abs(total)
            active &= ~(small & prev_small)
            if not active.any():
                return total, peak / np.abs(total)
            prev_small = small
    raise NumericalError(f"kummer_1f1 did not converge in {_MAX_TERMS} terms (b={b})")


def kummer_1f1(a: float, b: float, x):
    """Confluent hypergeometric function 1F1(a, b; x) by Taylor series.

    ``x`` may be a scalar, which returns a float, or an array, which
    returns an array of its shape: each element is one lane of a single
    sum.  The term recurrence t_{n+1} = t_n * (a+n)/(b+n) * x/(n+1) is
    summed per lane until two consecutive terms fall below 1e-16 of the
    running sum; for x < 0 the Kummer transformation 1F1(a,b,x) =
    e^x 1F1(b-a, b, -x) makes the summed argument nonnegative first.

    Nonnegative (a, b) give a positive-term series accurate to ~1e-13
    relative.  A negative first parameter makes the leading terms
    alternate; the resulting cancellation is detected from the peak-term
    to sum ratio and those lanes are then re-summed in extended precision,
    which holds the error near eps_80bit * amplification.
    """
    if b <= 0.0 and b == math.floor(b):
        raise DomainError(f"kummer_1f1: b={b} is a non-positive integer")
    xs = np.asarray(x, dtype=float).reshape(-1)
    a_sum = np.where(xs < 0.0, b - a, a)
    x_sum = np.abs(xs)
    total, amp = _taylor_sum(a_sum, float(b), x_sum)
    redo = amp * 2.3e-16 > 1e-12
    if redo.any():
        ld = np.longdouble
        total[redo] = _taylor_sum(a_sum[redo].astype(ld), ld(b), x_sum[redo].astype(ld))[0]
    out = np.exp(np.minimum(xs, 0.0)) * total
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))
