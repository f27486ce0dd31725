"""Contact-point analysis: where the rate pastes onto the band edge.

For the Gaussian limit the contact point W > 0 solves the fixed-point
equation W - F = tanh(rho0 W) / rho0 and always exists.  For the
mean-preserving-spread model the trial solution

    X(f) = f + a sinh(rho f) / cosh(beta f) + omega tanh(beta f),
    rho = sqrt(beta^2 + 4 alpha),

fits smoothly at a contact W solving a two-equation system in (a, W); the
amplitude denominator involves

    Delta(W) = rho tanh(rho W) - beta tanh(beta W),

whose smallest positive zero W_c (when one exists) bounds the region
where smooth fitting is usable: case (a) W_c < W rules it out, case (b)
W_c >= W permits it.  Under the hyperbolic-tangent reading Delta > 0 for
all W > 0 whenever rho > beta, so no W_c exists and the case split is
decided by treating W_c as +infinity -- except that a shifted spectral
regime (beta * f_bar * tanh(beta * f_bar) > 1) independently rules the
smooth fit out, which is what the applicability verdict gates on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .params import ModelParams, validate
from .roots import bisect_newton, expand_bracket
from .spectral import spread_coefficient

__all__ = ["ContactReport", "gaussian_contact", "delta_profile", "classify_honeymoon"]


@dataclass(frozen=True)
class ContactReport:
    """Smooth-fit contact point and honeymoon applicability verdict."""

    W: float | None
    Wc: float | None
    applicable: bool
    status: str  # "ok" | "inconclusive"


def gaussian_contact(F: float, params: ModelParams) -> float:
    """Contact point W > 0 of the Gaussian-limit smooth fit.

    Solves W - F = tanh(rho0 W) / rho0 with rho0 = sqrt(2 alpha / sigma^2)
    by bisection on [F, F + 1/rho0] (which always brackets the unique
    root) followed by a Newton polish to 1e-12.
    """
    validate(params)
    if params.beta != 0.0:
        raise DomainError("gaussian_contact requires beta = 0")
    if F <= 0.0:
        raise DomainError("target level F must be positive")
    rho0 = math.sqrt(2.0 * params.alpha) / params.sigma
    g = lambda w: w - F - math.tanh(rho0 * w) / rho0
    dg = lambda w: 1.0 - 1.0 / math.cosh(min(rho0 * w, 350.0)) ** 2
    return bisect_newton(g, F, F + 1.0 / rho0, dfunc=dg, ftol=1e-12)


def _rho_beta(params: ModelParams) -> float:
    return math.sqrt(params.beta**2 + 4.0 * params.alpha)


def delta_profile(params: ModelParams, W_grid) -> np.ndarray:
    """Delta(W) = rho tanh(rho W) - beta tanh(beta W) on the given grid."""
    validate(params)
    rho = _rho_beta(params)
    w = np.asarray(W_grid, dtype=float)
    return rho * np.tanh(rho * w) - params.beta * np.tanh(params.beta * w)


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
    """Contact point, critical point, and whether smooth fitting applies.

    The verdict is False when the spectral regime has shifted (the first
    eigenvalue bracket is empty, so pasting at the band has no solution)
    or when a critical point W_c exists below the contact point W.  A
    missing W_c counts as W_c = +infinity.  Root-search failures yield an
    explicit "inconclusive" report, never a silent classification.
    """
    validate(params)
    if F <= 0.0:
        raise DomainError("target level F must be positive")

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

    Wc: float | None = None
    if params.beta > 0.0:
        grid = np.linspace(0.0, 10.0 * (F + 1.0), 2001)
        signs = np.sign(delta_profile(params, grid)[1:])
        flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        if flips.size:
            i = int(flips[0]) + 1
            Wc = bisect_newton(
                lambda w: float(delta_profile(params, w)),
                float(grid[i]),
                float(grid[i + 1]),
                ftol=1e-12,
            )

    if status == "inconclusive":
        applicable = False
    else:
        shifted = spread_coefficient(params) > 1.0
        below_critical = Wc is not None and W is not None and Wc < W
        applicable = not shifted and not below_critical

    return ContactReport(W=W, Wc=Wc, applicable=applicable, status=status)
