"""Contact-point analysis: where the rate pastes onto the band edge.

The trial solution

    X(f) = f + a sinh(rho f) / cosh(beta f) + omega tanh(beta f)

fits smoothly at a contact W, with rho^2 = beta^2 + k^2: k^2 = 4 alpha in
the printed system and 2 alpha / sigma^2 in the Gaussian limit beta = 0,
so W jumps at beta = 0.  Eliminating the amplitude a leaves g(W) = 0 with
tb = tanh(beta W), tr = tanh(rho W) and

    g(W) = W - F + omega tb - (1 + omega beta sech^2(beta W)) tr / D,
    D = rho - beta tb tr = (rho - beta) + beta ((1 - tb) + tb (1 - tr)).

At beta = 0 this is W - F = tanh(k W) / k.  For W >= 0 every term of D is
non-negative, so D >= rho - beta > 0 and 2 D >= 2 beta (1 - tb) >=
beta sech^2(beta W).  Hence g(W) >= W - F - 3 |omega| - 1 / (rho - beta),
and as g(0) = -F < 0 the root lies in [0, hi] with

    hi = 2 (F + 3 |omega| + 1 / (rho - beta)),

where g(hi) >= hi / 2 > 0, a margin far above rounding: the bracket is
proven, never guessed or grown.  No term of D cancels: rho - beta is
k^2 / (rho + beta), 1 - tanh x is 2 e^{-2x} / (1 + e^{-2x}) and sech^2 is
(1 - tb)(1 + tb).  g itself still cancels where k W << 1 at the root
(W - tanh(k W) / k is about k^2 W^3 / 3), so W loses digits once F k falls
below about 1e-10 (1.4e-9 relative at beta = 0, F = 1, k = 1.4e-12).

The amplitude's denominator Delta(W) = rho tanh(rho W) - beta tanh(beta W)
has no zero W_c > 0 that could rule the smooth fit out: x -> x tanh(x W)
is strictly increasing for W > 0, and rho > beta.  The applicability
verdict is therefore decided by the spectral regime alone: a shifted
regime (beta * f_bar * tanh(beta * f_bar) > 1) rules the smooth fit out.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, NumericalError
from .params import ModelParams
from .roots import bisect_newton
from .spectral import spread_coefficient

__all__ = ["ContactReport", "classify_honeymoon"]


@dataclass(frozen=True)
class ContactReport:
    """Smooth-fit contact point and honeymoon applicability verdict."""

    W: float | None
    applicable: bool
    status: str  # "ok" | "inconclusive"


def _one_minus_tanh(x: float) -> float:
    """1 - tanh(x) for x >= 0, accurate where tanh(x) rounds to 1."""
    e = math.exp(-2.0 * x)
    return 2.0 * e / (1.0 + e)


def _contact_problem(
    params: ModelParams, F: float, omega: float
) -> tuple[Callable[[float], float], float]:
    """The residual g of the module docstring and its bracket end hi."""
    beta = params.beta
    # k^2 = rho^2 - beta^2: 4 alpha as printed, 2 alpha / sigma^2 at beta = 0
    root_alpha = math.sqrt(params.alpha)
    k = 2.0 * root_alpha if beta > 0.0 else math.sqrt(2.0) * root_alpha / params.sigma
    k = min(max(k, math.ulp(0.0)), sys.float_info.max)  # past either end the result is the same
    rho = math.hypot(beta, k)
    gap = k / (rho + beta) * k  # rho - beta = k^2 / (rho + beta); k^2 itself may overflow

    def g(W: float) -> float:
        W = float(W)  # float arithmetic overflows to inf without a numpy warning
        tb = math.tanh(beta * W)
        tr = math.tanh(rho * W)
        ub = _one_minus_tanh(beta * W)
        denom = gap + beta * (ub + tb * _one_minus_tanh(rho * W))
        # beta sech^2(beta W) / D lies in [0, 2]; omega * beta alone may overflow
        weight = beta * ub * (1.0 + tb) / denom
        return W - F + omega * tb - tr / denom - omega * weight * tr

    hi = 2.0 * (F + 3.0 * abs(omega) + 1.0 / gap) if gap > 0.0 else math.inf
    return g, hi


def classify_honeymoon(
    params: ModelParams, F: float, omega: float = 0.0
) -> ContactReport:
    """Contact point and whether smooth fitting applies.

    W is the root of g on the proven bracket [0, hi] of the module
    docstring.  Raises :class:`NumericalError` when hi, an upper bound of
    W, is not a finite double.  The verdict is False when the spectral
    regime has shifted (the first eigenvalue bracket is empty, so pasting
    at the band has no solution).  A root-search failure yields an
    explicit "inconclusive" report, never a silent classification.
    """
    if not (math.isfinite(F) and F > 0.0):
        raise DomainError("target level F must be positive and finite")
    if not math.isfinite(omega):
        raise DomainError("omega must be finite")

    g, hi = _contact_problem(params, F, omega)
    if not math.isfinite(hi):
        raise NumericalError("contact point exceeds the floating range")

    status = "ok"
    W: float | None
    try:
        W = bisect_newton(lambda W: (g(W), math.nan), 0.0, hi)
    except NumericalError:
        W = None
        status = "inconclusive"

    applicable = status == "ok" and spread_coefficient(params) <= 1.0
    return ContactReport(W=W, applicable=applicable, status=status)
