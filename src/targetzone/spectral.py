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

The mean-reverting (Ornstein-Uhlenbeck, large-k asymptotic) spectrum
from the appendix variant is provided alongside as a plain array.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import ModelParams, _check_count
from .roots import bisect_newton

__all__ = [
    "Spectrum",
    "FeasibilityReport",
    "eigen_residual",
    "build_spectrum",
    "relaxation_time",
    "regime_threshold",
    "regime_scan",
    "ou_asymptotic_spectrum",
    "spread_coefficient",
]

# x* with x* tanh(x*) = 1, as bisection plus Newton stopped at
# |x tanh(x) - 1| <= 1e-15 returns it.  1.1996786402577337 has the
# smaller residual, but this value keeps every regime_threshold result
# bit-identical to that solve.
_X_STAR = 1.1996786402577335

# Largest accepted spread coefficient c.  At each lower end m pi (1 + 1e-13)
# u cot u is about 1e13 (within ~0.3%, as fl(m pi) is off by up to half an
# ulp), so past that no bracket holds a root.
_C_MAX = 9e12


def spread_coefficient(params: ModelParams) -> float:
    """c = beta * f_bar * tanh(beta * f_bar), the bracket selector."""
    return params.beta * params.f_bar * math.tanh(params.beta * params.f_bar)


def _omega_scale(params: ModelParams) -> float:
    """sigma / (sqrt(2) f_bar), which takes a root u_k to Omega_k."""
    return params.sigma / (math.sqrt(2.0) * params.f_bar)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ordered roots u_1 < u_2 < ... of u*cot(u) = c as solved, with regime metadata.

    ``brackets`` stores the u-interval each root was extracted from.
    """

    params: ModelParams
    u: np.ndarray
    brackets: tuple[tuple[float, float], ...]
    regime: str  # "diffusive" | "shifted"

    @property
    def eigenvalues(self) -> np.ndarray:
        """Omega_k = sigma u_k / (sqrt(2) f_bar), recomputed on each access."""
        return _omega_scale(self.params) * self.u

    def __len__(self) -> int:
        return len(self.u)


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
    sandwich_ok: bool


def eigen_residual(omega: float, params: ModelParams) -> float:
    """Residual of the transcendental eigenvalue equation at ``omega``.

    Returns (sqrt(2) Omega / sigma) cot(sqrt(2) Omega f_bar / sigma)
    - beta tanh(beta f_bar).  Raises :class:`DomainError` ("cot pole: ...")
    when the cot argument sits on a multiple of pi.
    """
    if omega <= 0.0:
        raise DomainError("eigen_residual requires omega > 0")
    w = math.sqrt(2.0) * omega / params.sigma
    u = w * params.f_bar
    m = round(u / math.pi)
    if m >= 1 and abs(u - m * math.pi) < 1e-12 * max(1.0, u):
        raise DomainError(f"cot pole: sqrt(2)*omega*f_bar/sigma = {u} ~ {m}*pi")
    return w / math.tan(u) - params.beta * math.tanh(params.beta * params.f_bar)


def _u_roots(c: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k-th root u of u*cot(u) = c for each lane (c, k), with its bracket.

    The k-th root lies in (m*pi, m*pi + pi/2) with m = k - 1 while c <= 1
    and m = k once c > 1; the lower end sits just inside the pole at m*pi,
    where u*cot(u) -> +inf, or at 1e-12 for m = 0.  Newton steps on the
    pole-free h = u*cos(u) - c*sin(u), which shares the root, take one
    sin/cos pair per iteration from z - c/z, z = m*pi + pi/2 (for m = 0 at
    most sqrt(3 (1 - c)), as u*cot(u) ~ 1 - u^2/3), clipped into the
    bracket.  Raises :class:`DomainError` for c above ``_C_MAX``, where no
    bracket holds one.
    """
    if np.any(c > _C_MAX):
        raise DomainError(f"spread coefficient beta f_bar tanh(beta f_bar) exceeds {_C_MAX:g}")
    m = np.where(c <= 1.0, k - 1, k)
    lo = np.where(m == 0, 1e-12, m * math.pi * (1.0 + 1e-13) + 1e-300)
    hi = m * math.pi + 0.5 * math.pi * (1.0 + 1e-9)
    z = (m + 0.5) * math.pi
    u0 = np.where(m == 0, np.minimum(z - c / z, np.sqrt(3.0 * np.maximum(1.0 - c, 0.0))), z - c / z)

    def g_step(u):  # g = u*cot(u) - c and the Newton step -h/h'
        s, co = np.sin(u), np.cos(u)
        return u * co / s - c, (c * s - u * co) / ((1.0 - c) * co - u * s)

    with np.errstate(divide="ignore", invalid="ignore"):  # h' = 0 gives no Newton step
        return bisect_newton(g_step, lo, hi, x0=np.clip(u0, lo, hi)), lo, hi


def build_spectrum(params: ModelParams, K: int) -> Spectrum:
    """First ``K`` eigenvalues with their extraction brackets; c above 9e12 is refused."""
    _check_count(K, "spectrum size K", 1)
    c = spread_coefficient(params)
    u, lo, hi = _u_roots(np.full(K, c), np.arange(1, K + 1))
    return Spectrum(
        params=params,
        u=u,
        brackets=tuple(zip(lo.tolist(), hi.tolist())),
        regime="shifted" if c > 1.0 else "diffusive",
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

    beta^e solves beta * f_bar * tanh(beta * f_bar) = 1, so beta^e =
    x*/f_bar with x* the unique positive root of x tanh(x) = 1 (~1.19968),
    a constant; always exceeds 1/f_bar because tanh < 1.
    """
    return _X_STAR / params.f_bar


def regime_scan(
    params: ModelParams, beta_grid
) -> list[tuple[float, float, float, str]]:
    """Per-beta rows (beta, Omega_1, t_relax, regime) along a risk sweep."""
    betas = np.asarray(beta_grid, dtype=float)
    if betas.size == 0:
        raise DomainError("beta_grid must be nonempty")
    if not np.all(np.diff(betas) > 0.0):  # a NaN fails this too
        raise DomainError("beta_grid must be strictly ascending")
    # An ascending grid is valid when its ends are: the first is the least
    # beta and the last gives the largest rho.  ModelParams refuses a bad end.
    for b in (betas[0], betas[-1]):
        dataclasses.replace(params, beta=float(b))
    # c, t_relax and the regime in the same float operations as
    # spread_coefficient, relaxation_time and build_spectrum for one beta.
    fb = params.f_bar
    betas = betas.tolist()
    c = [b * fb * math.tanh(b * fb) for b in betas]
    u, _, _ = _u_roots(np.array(c), np.ones(len(c), dtype=int))
    rows = []
    for b, omega1, cb in zip(betas, (_omega_scale(params) * u).tolist(), c):
        t_relax = 1.0 / (omega1**2 + (0.5 * b**2 + params.alpha))
        rows.append((b, omega1, t_relax, "shifted" if cb > 1.0 else "diffusive"))
    return rows


def ou_asymptotic_spectrum(
    lambda_speed: float, mu: float, params: ModelParams, K: int
) -> np.ndarray:
    """Large-k asymptotic eigenvalues of the mean-reverting variant.

    Omega_k = k^2 pi sigma^2 / (8 f_bar^2) + lambda/2 + c0 with
    c0 = lambda^2 (4 f_bar^2 - 6 f_bar mu + 3 mu^2) / (6 sigma^2),
    k = 1..K; error O(1/k^2).  1/Omega_1 estimates the relaxation time.
    Raises :class:`DomainError` when sigma^2 underflows to 0.
    """
    _check_count(K, "spectrum size K", 1)
    if not (math.isfinite(lambda_speed) and lambda_speed > 0.0):
        raise DomainError("lambda_speed must be positive and finite")
    if not math.isfinite(mu):
        raise DomainError("mu must be finite")
    fb, sg = params.f_bar, params.sigma
    if sg**2 == 0.0:
        raise DomainError("sigma too small: sigma^2 underflows to 0")
    c0 = lambda_speed**2 * (4.0 * fb**2 - 6.0 * fb * mu + 3.0 * mu**2) / (6.0 * sg**2)
    k = np.arange(1, K + 1, dtype=float)
    return k**2 * math.pi * sg**2 / (8.0 * fb**2) + 0.5 * lambda_speed + c0
