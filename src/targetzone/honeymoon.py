"""Contact-point analysis: where the rate pastes onto the band edge.

For the Gaussian limit the contact point W > 0 solves the fixed-point
equation W - F = tanh(rho0 W) / rho0 and always exists.  For the
mean-preserving-spread model the trial solution

    X(f) = f + a sinh(rho f) / cosh(beta f) + omega tanh(beta f),
    rho = sqrt(beta^2 + 4 alpha),

fits smoothly at a contact W solving a two-equation system in (a, W); the
amplitude denominator involves

    Delta(W) = rho tanh(rho W) - beta tanh(beta W).

A zero W_c of Delta below W would rule the smooth fit out, but none
exists: x -> x tanh(x W) is strictly increasing in x for W > 0, and
alpha > 0 makes rho > beta, so Delta(W) > 0 for every W > 0.  The
applicability verdict is therefore decided by the spectral regime alone:
a shifted regime (beta * f_bar * tanh(beta * f_bar) > 1) rules the smooth
fit out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError
from .params import ModelParams
from .roots import bisect_newton, expand_bracket
from .spectral import spread_coefficient

__all__ = ["ContactReport", "gaussian_contact", "classify_honeymoon"]


@dataclass(frozen=True)
class ContactReport:
    """Smooth-fit contact point and honeymoon applicability verdict."""

    W: float | None
    applicable: bool
    status: str  # "ok" | "inconclusive"


def gaussian_contact(F: float, params: ModelParams) -> float:
    """Contact point W > 0 of the Gaussian-limit smooth fit.

    Solves W - F = tanh(rho0 W) / rho0 with rho0 = sqrt(2 alpha / sigma^2)
    by bisection on [F, F + 1/rho0] (which always brackets the unique
    root) followed by a Newton polish to 1e-12.
    """
    if params.beta != 0.0:
        raise DomainError("gaussian_contact requires beta = 0")
    if not (math.isfinite(F) and F > 0.0):
        raise DomainError("target level F must be positive and finite")
    rho0 = math.sqrt(2.0 * params.alpha) / params.sigma
    g = lambda w: w - F - math.tanh(rho0 * w) / rho0
    dg = lambda w: 1.0 - 1.0 / math.cosh(min(rho0 * w, 350.0)) ** 2
    return bisect_newton(g, F, F + 1.0 / rho0, dfunc=dg, ftol=1e-12)


def _rho_beta(params: ModelParams) -> float:
    return math.sqrt(params.beta**2 + 4.0 * params.alpha)


def _contact_residual(W: float, F: float, omega: float, params: ModelParams) -> float:
    """Residual of the smooth-fit system after eliminating the amplitude.

    All hyperbolics reduced to tanh/sech so large arguments never
    overflow.
    """
    b = params.beta
    rho = _rho_beta(params)
    tb = math.tanh(b * W)
    tr = math.tanh(rho * W)
    sech2 = 1.0 - tb * tb
    denom = rho - b * tb * tr
    return W - F + omega * tb - (1.0 + omega * b * sech2) * tr / denom


def classify_honeymoon(
    params: ModelParams, F: float, omega: float = 0.0
) -> ContactReport:
    """Contact point and whether smooth fitting applies.

    The verdict is False when the spectral regime has shifted (the first
    eigenvalue bracket is empty, so pasting at the band has no solution).
    Root-search failures yield an explicit "inconclusive" report, never a
    silent classification.
    """
    if not (math.isfinite(F) and F > 0.0):
        raise DomainError("target level F must be positive and finite")
    if not math.isfinite(omega):
        raise DomainError("omega must be finite")

    status = "ok"
    W: float | None
    try:
        if params.beta == 0.0:
            W = gaussian_contact(F, params)
        else:
            lo = 1e-12
            hi = F + 1.0 / max(_rho_beta(params) - params.beta, 1e-12)
            g = lambda w: _contact_residual(w, F, omega, params)
            lo, hi = expand_bracket(g, lo, hi)
            W = bisect_newton(g, lo, hi, ftol=1e-12)
    except NumericalError:
        W = None
        status = "inconclusive"

    applicable = status == "ok" and spread_coefficient(params) <= 1.0
    return ContactReport(W=W, applicable=applicable, status=status)
