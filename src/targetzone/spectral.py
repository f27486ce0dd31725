"""Eigenvalue spectra, relaxation times, and regime-shift detection.

The transient solution decays on modes whose frequencies solve the
transcendental equation

    (sqrt(2) * Omega / sigma) * cot(sqrt(2) * Omega * f_bar / sigma)
        = beta * tanh(beta * f_bar).

In the scaled variable u = sqrt(2) * Omega * f_bar / sigma this reads
u * cot(u) = c with c = beta * f_bar * tanh(beta * f_bar) >= 0, which puts
every root inside an analytically known interval:

* c <= 1: the first root lies in (0, pi/2]; the k-th root (k >= 2) is the
  single root in ((k-1)*pi, (k-1)*pi + pi/2).
* c > 1:  no root remains in (0, pi/2]; the k-th root is the single root
  in (k*pi, k*pi + pi/2).

The migration of the first root out of its fundamental bracket -- c
crossing 1 -- is the regime shift: the smallest eigenvalue jumps upward
and smooth pasting at the band edges stops being attainable.  Detection
is therefore analytic (c > 1), never a heuristic jump search.

The softly-attractive and mean-reverting (Ornstein-Uhlenbeck, large-k
asymptotic) spectra from the appendix variants are provided alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleError
from .params import ModelParams, validate
from .roots import bisect_newton

__all__ = [
    "Spectrum",
    "FeasibilityReport",
    "eigen_residual",
    "build_spectrum",
    "relaxation_time",
    "regime_threshold",
    "regime_scan",
    "soft_attractive_spectrum",
    "ou_asymptotic_spectrum",
]

# Root search stops at |u*cot(u) - c| <= _U_TOL or at a bracket ~4 ulp
# wide, whichever comes first.  High modes end on the width rule with a
# residual near ulp(u) * |slope| (about 2e-10 at K = 240), not 1e-12.
_U_TOL = 1e-12


def spread_coefficient(params: ModelParams) -> float:
    """c = beta * f_bar * tanh(beta * f_bar), the bracket selector."""
    return params.beta * params.f_bar * math.tanh(params.beta * params.f_bar)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ordered eigenvalues Omega_1 < Omega_2 < ... with regime metadata.

    ``brackets`` stores the u-interval each root was extracted from
    (``None`` for the closed-form appendix families).  ``decay_rates``
    and ``admissible`` are populated only by the softly-attractive
    family, ``asymptotic`` marks the large-k Ornstein-Uhlenbeck formula.
    """

    params: ModelParams
    eigenvalues: np.ndarray
    brackets: tuple[tuple[float, float], ...] | None
    regime: str  # "diffusive" | "shifted"
    family: str = "dmps"  # "dmps" | "soft_attractive" | "ou_asymptotic"
    decay_rates: np.ndarray | None = None
    admissible: np.ndarray | None = None
    asymptotic: bool = False

    def __len__(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class FeasibilityReport:
    """Relaxation time of the first mode against the policy horizon.

    ``lower_bound``/``upper_bound`` are the parameter-only expressions
    [ (pi/f_bar)^2 + rho ]^-1 and [ (pi/(2 f_bar))^2 + rho ]^-1.  They are
    asymptotic in character; ``sandwich_ok`` flags whether the computed
    relaxation time actually falls between them (violations are reported,
    never raised).
    """

    omega1: float
    t_relax: float
    lower_bound: float
    upper_bound: float
    feasible: bool
    regime: str
    sandwich_ok: bool = field(default=True)


def _u_cot_u(u: float) -> float:
    return u * math.cos(u) / math.sin(u)


def eigen_residual(omega: float, params: ModelParams) -> float:
    """Residual of the transcendental eigenvalue equation at ``omega``.

    Returns (sqrt(2) Omega / sigma) cot(sqrt(2) Omega f_bar / sigma)
    - beta tanh(beta f_bar).  Raises :class:`PoleError` when the cot
    argument sits on a multiple of pi.
    """
    if omega <= 0.0:
        raise DomainError("eigen_residual requires omega > 0")
    w = math.sqrt(2.0) * omega / params.sigma
    u = w * params.f_bar
    m = round(u / math.pi)
    if m >= 1 and abs(u - m * math.pi) < 1e-12 * max(1.0, u):
        raise PoleError(f"cot pole: sqrt(2)*omega*f_bar/sigma = {u} ~ {m}*pi")
    return w / math.tan(u) - params.beta * math.tanh(params.beta * params.f_bar)


def _bracket_for_root(k: int, c: float) -> tuple[float, float]:
    """u-interval containing the k-th root of u*cot(u) = c (k >= 1)."""
    if c <= 1.0:
        m = k - 1
    else:
        m = k
    if m == 0:
        lo = 1e-12
    else:
        # just inside the pole at m*pi, where u*cot(u) -> +inf
        lo = m * math.pi * (1.0 + 1e-13) + 1e-300
    hi = m * math.pi + 0.5 * math.pi * (1.0 + 1e-9)
    return lo, hi


def build_spectrum(params: ModelParams, K: int) -> Spectrum:
    """First ``K`` eigenvalues with their extraction brackets."""
    validate(params)
    if K < 1:
        raise DomainError("spectrum size K must be >= 1")
    c = spread_coefficient(params)
    regime = "shifted" if c > 1.0 else "diffusive"
    scale = params.sigma / (math.sqrt(2.0) * params.f_bar)
    g = lambda u: _u_cot_u(u) - c
    dg = lambda u: math.cos(u) / math.sin(u) - u / math.sin(u) ** 2
    eigenvalues = np.empty(K)
    brackets = []
    for k in range(1, K + 1):
        lo, hi = _bracket_for_root(k, c)
        u = bisect_newton(g, lo, hi, dfunc=dg, ftol=_U_TOL)
        eigenvalues[k - 1] = scale * u
        brackets.append((lo, hi))
    return Spectrum(
        params=params,
        eigenvalues=eigenvalues,
        brackets=tuple(brackets),
        regime=regime,
    )


def relaxation_time(spectrum: Spectrum) -> FeasibilityReport:
    """Relaxation time 1/(Omega_1^2 + rho) and its feasibility verdict.

    The reported bounds are the parameter-only expressions documented on
    :class:`FeasibilityReport`; they bracket the computed relaxation time
    only asymptotically, so a violation is flagged in ``sandwich_ok``
    rather than raised.
    """
    if len(spectrum) < 1:
        raise DomainError("relaxation_time needs a nonempty spectrum")
    p = spectrum.params
    omega1 = float(spectrum.eigenvalues[0])
    rho = p.rho()
    t_relax = 1.0 / (omega1**2 + rho)
    lower = 1.0 / ((math.pi / p.f_bar) ** 2 + rho)
    upper = 1.0 / ((math.pi / (2.0 * p.f_bar)) ** 2 + rho)
    return FeasibilityReport(
        omega1=omega1,
        t_relax=t_relax,
        lower_bound=lower,
        upper_bound=upper,
        feasible=p.horizon_T >= t_relax,
        regime=spectrum.regime,
        sandwich_ok=lower <= t_relax <= upper,
    )


def regime_threshold(params: ModelParams) -> float:
    """Risk intensity beta^e at which the first bracket empties.

    Solves beta * f_bar * tanh(beta * f_bar) = 1, i.e. beta^e = x*/f_bar
    with x* the unique positive root of x tanh(x) = 1 (~1.19968); always
    exceeds 1/f_bar because tanh < 1.
    """
    if params.f_bar <= 0.0:
        raise DomainError("f_bar must be positive")
    g = lambda x: x * math.tanh(x) - 1.0
    dg = lambda x: math.tanh(x) + x / math.cosh(x) ** 2
    x_star = bisect_newton(g, 1.0, 1.5, dfunc=dg, ftol=1e-15)
    return x_star / params.f_bar


def regime_scan(
    params: ModelParams, beta_grid
) -> list[tuple[float, float, float, str]]:
    """Per-beta rows (beta, Omega_1, t_relax, regime) along a risk sweep."""
    betas = np.asarray(beta_grid, dtype=float)
    if betas.size == 0:
        raise DomainError("beta_grid must be nonempty")
    if np.any(np.diff(betas) <= 0.0):
        raise DomainError("beta_grid must be strictly ascending")
    rows = []
    for b in betas:
        p = ModelParams(
            alpha=params.alpha,
            beta=float(b),
            sigma=params.sigma,
            f_bar=params.f_bar,
            horizon_T=params.horizon_T,
            r_share=params.r_share,
        )
        spec = build_spectrum(p, 1)
        rep = relaxation_time(spec)
        rows.append((float(b), rep.omega1, rep.t_relax, spec.regime))
    return rows


def soft_attractive_spectrum(params: ModelParams, K: int) -> Spectrum:
    """Exact spectrum of the softly-attractive (negated drift) variant.

    Omega_k = (2k+1) * pi / (2 sqrt(2) f_bar) for k = 0..K-1, with decay
    rates lambda_k = (2k+1)^2 pi^2 / (8 f_bar^2) - beta^2/2 - alpha and an
    admissibility flag lambda_k >= 0.  There is no spectral gap and hence
    no regime shift in this family.
    """
    validate(params)
    if K < 1:
        raise DomainError("spectrum size K must be >= 1")
    k = np.arange(K)
    odd = 2 * k + 1
    eigenvalues = odd * math.pi / (2.0 * math.sqrt(2.0) * params.f_bar)
    decay = odd.astype(float) ** 2 * math.pi**2 / (8.0 * params.f_bar**2) - params.rho()
    return Spectrum(
        params=params,
        eigenvalues=eigenvalues,
        brackets=None,
        regime="diffusive",
        family="soft_attractive",
        decay_rates=decay,
        admissible=decay >= 0.0,
    )


def ou_asymptotic_spectrum(
    lambda_speed: float, mu: float, params: ModelParams, K: int
) -> Spectrum:
    """Large-k asymptotic spectrum of the mean-reverting variant.

    Omega_k = k^2 pi sigma^2 / (8 f_bar^2) + lambda/2 + c0 with
    c0 = lambda^2 (4 f_bar^2 - 6 f_bar mu + 3 mu^2) / (6 sigma^2),
    k = 1..K; error O(1/k^2), so the values are tagged asymptotic.
    """
    validate(params)
    if K < 1:
        raise DomainError("spectrum size K must be >= 1")
    if lambda_speed <= 0.0:
        raise DomainError("lambda_speed must be positive")
    fb, sg = params.f_bar, params.sigma
    c0 = lambda_speed**2 * (4.0 * fb**2 - 6.0 * fb * mu + 3.0 * mu**2) / (6.0 * sg**2)
    k = np.arange(1, K + 1, dtype=float)
    eigenvalues = k**2 * math.pi * sg**2 / (8.0 * fb**2) + 0.5 * lambda_speed + c0
    return Spectrum(
        params=params,
        eigenvalues=eigenvalues,
        brackets=None,
        regime="diffusive",
        family="ou_asymptotic",
        asymptotic=True,
    )
