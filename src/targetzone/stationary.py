"""Closed-form stationary exchange-rate solutions with smooth pasting.

The stationary rate under the mean-preserving-spread drift is

    X_S(f) = [ A * e^{r f} + B * e^{-r f} + Y_P(f) ] / cosh(beta * f),

with r = sqrt(beta^2 + 2 alpha / sigma^2) and the particular part

    Y_P(f) = 2 alpha [ f (2 alpha + beta^2 (1 - sigma^2)) cosh(beta f)
                       + 2 beta sigma^2 sinh(beta f) ]
             / (2 alpha + beta^2 (1 - sigma^2))^2.

A and B are fixed by zero-slope (smooth-pasting) conditions at the band
edges.  The band is symmetric and both the drift beta tanh(beta f) and
the forcing alpha f are odd, so X_S is odd and B = -A: the slope
condition at +f_bar fixes the one amplitude in closed form (see
:func:`solve_smooth_pasting`), and X_S(0) is exactly 0 on any band
width.  The Gaussian limit is the beta = 0 case of the same solution:
there r = rho0 = sqrt(2 alpha) / sigma and the particular part reduces
to f, so X_S is f + a sinh(rho0 f).  The mean-reverting stationary
solution built on the confluent hypergeometric function lives here as
well, as its own type (:class:`OUStationary`).  Both families have
analytic X' and X'', which :func:`stationary_ode_residual` checks.

Internally the homogeneous terms are carried in boundary-anchored form,
A~ e^{r (f - f_bar)} and B~ e^{-r (f + f_bar)}, whose exponents never
exceed zero on the band [-f_bar, f_bar]; combined with exp-difference
hyperbolic ratios this makes evaluation overflow-free at any stiffness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .params import ModelParams, _check_ou
from .specfun import kummer_1f1

__all__ = [
    "StationarySolution",
    "OUStationary",
    "solve_smooth_pasting",
    "eval_stationary",
    "eval_stationary_derivatives",
    "ou_stationary",
    "stationary_ode_residual",
]


@dataclass(frozen=True)
class StationarySolution:
    """Smooth-pasted DMPS stationary solution on the band [-f_bar, f_bar].

    ``a_anchor`` multiplies the boundary-anchored term e^{r (f - f_bar)}
    and ``-a_anchor`` its mirror image e^{-r (f + f_bar)}, so X_S is odd.
    """

    params: ModelParams
    a_anchor: float


@dataclass(frozen=True)
class OUStationary:
    """Mean-reverting solution: A and B multiply the two 1F1 basis terms."""

    params: ModelParams
    lambda_speed: float
    mu: float
    A: float
    B: float


_Stationary = StationarySolution | OUStationary


def _growth_rate(p: ModelParams) -> float:
    return math.sqrt(p.beta**2 + 2.0 * p.alpha / p.sigma**2)


def _forcing_scale(p: ModelParams) -> float:
    """D = 2 alpha + beta^2 (1 - sigma^2); squared in the particular part."""
    d = 2.0 * p.alpha + p.beta**2 * (1.0 - p.sigma**2)
    if abs(d) < 1e-12 * max(1.0, p.alpha, p.beta**2):
        raise DomainError(
            "degenerate parameters: 2*alpha + beta^2*(1 - sigma^2) ~ 0, "
            "the closed-form particular solution is resonant"
        )
    return d


def _sech2(beta: float, f):
    f = np.asarray(f, dtype=float)
    e = np.exp(-np.abs(beta * f))
    return (2.0 * e / (1.0 + e * e)) ** 2


def _particular(p: ModelParams, f):
    """Particular part of X_S (already divided by cosh(beta f))."""
    d = _forcing_scale(p)
    arr = np.asarray(f, dtype=float)
    return (2.0 * p.alpha / d**2) * (arr * d + 2.0 * p.beta * p.sigma**2 * np.tanh(p.beta * arr))


def _particular_d1(p: ModelParams, f):
    d = _forcing_scale(p)
    return (2.0 * p.alpha / d**2) * (d + 2.0 * p.beta**2 * p.sigma**2 * _sech2(p.beta, f))


def _particular_d2(p: ModelParams, f):
    d = _forcing_scale(p)
    t = np.tanh(p.beta * np.asarray(f, dtype=float))
    return -(8.0 * p.alpha * p.beta**3 * p.sigma**2 / d**2) * _sech2(p.beta, f) * t


def _anchored_terms(sol: StationarySolution, arr: np.ndarray):
    """The two homogeneous basis terms over cosh, anchor-scaled, and r.

    Exponents are <= 0 everywhere on the band, so these never overflow.
    In-place ufuncs keep at most four arrays the size of ``arr`` alive.
    """
    p = sol.params
    r = _growth_rate(p)
    bf = np.abs(p.beta * arr)
    sech_gain = 2.0 / (1.0 + np.exp(-2.0 * bf))

    def term(amp, rate, shift):  # amp e^{rate (f + shift) - |beta f|} sech_gain, in one buffer
        e = np.add(arr, shift, out=np.empty_like(arr))
        np.exp(np.subtract(np.multiply(e, rate, out=e), bf, out=e), out=e)
        return np.multiply(np.multiply(e, amp, out=e), sech_gain, out=e)

    return term(sol.a_anchor, r, -p.f_bar), term(-sol.a_anchor, -r, p.f_bar), r


def _sine_moments(sol: StationarySolution, u: np.ndarray) -> np.ndarray:
    """Integrals of X_S(f) cosh(beta f) sin(u f / f_bar) over the band.

    X_S cosh(beta f) is a sum of exponentials, so each moment is
    elementary.  With k = u / f_bar the homogeneous pair integrates in
    anchored form with E = e^{-2 r f_bar} <= 1; the particular part uses
    J_s = int sinh(beta f) sin(k f) df and its beta-derivative
    J_c = int f cosh(beta f) sin(k f) df.
    """
    p = sol.params
    fb, b = p.f_bar, p.beta
    r = _growth_rate(p)
    d = _forcing_scale(p)
    k = u / fb
    s, c = np.sin(u), np.cos(u)
    e = math.exp(-2.0 * r * fb)
    homog = 2.0 * sol.a_anchor * (
        (r * s * (1.0 + e) - k * c * (1.0 - e)) / (r * r + k * k)
    )
    ch, sh = math.cosh(b * fb), math.sinh(b * fb)
    q = b * b + k * k
    n = 2.0 * (b * s * ch - k * c * sh)
    dn = 2.0 * (s * ch + b * fb * s * sh - k * fb * c * ch)
    j_s = n / q
    j_c = dn / q - 2.0 * b * n / (q * q)
    return homog + (2.0 * p.alpha / d**2) * (d * j_c + 2.0 * b * p.sigma**2 * j_s)


def solve_smooth_pasting(params: ModelParams) -> StationarySolution:
    """Stationary solution with zero slope at both band edges +-f_bar.

    X_S is odd, so the anchored constants are a and -a and the slope at
    -f_bar vanishes with the slope at +f_bar.  With X_P = Y_P / cosh(beta
    f) and t = tanh(beta f_bar), that one condition gives

        a = -cosh(beta f_bar) X_P'(f_bar)
            / [(r - beta t) + (r + beta t) e^{-2 r f_bar}],

    whose denominator is positive because r > beta.  Raises
    :class:`DomainError` when sigma is so small that sigma^2 underflows to
    0 or r overflows.
    """
    fb, b = params.f_bar, params.beta
    if b * fb > 700.0:
        raise NumericalError("smooth-pasting amplitudes exceed the floating range")
    r = _growth_rate(params) if params.sigma**2 > 0.0 else math.inf
    if not math.isfinite(r):
        raise DomainError("sigma too small: r = sqrt(beta^2 + 2 alpha / sigma^2) is not finite")
    t = math.tanh(b * fb)
    slope = (r - b * t) + (r + b * t) * math.exp(-2.0 * r * fb)
    a = -math.cosh(b * fb) * float(_particular_d1(params, fb)) / slope
    return StationarySolution(params=params, a_anchor=a)


def ou_stationary(lambda_speed: float, mu: float, params: ModelParams) -> OUStationary:
    """Mean-reverting stationary solution via confluent hypergeometrics.

    X_S(f) = A 1F1[q, 1/2; z] + B (sqrt(lambda)/sigma)(f-mu)
             1F1[q + 1/2, 3/2; z] + (alpha f + lambda mu) / (lambda + alpha),

    with z = lambda (f-mu)^2 / sigma^2 and q = alpha / (2 lambda), solves
    sigma^2/2 X'' - lambda (f - mu) X' - alpha X + alpha f = 0.  A and B
    come from smooth pasting at the band edges.  If mu = 0 the equation
    is odd in f, so A = 0 and X_S is odd.
    """
    _check_ou(lambda_speed, mu, params)
    fb = params.f_bar
    _, (d1, d2) = _ou_basis(lambda_speed, mu, params, np.array([fb, -fb]), 1)
    (m11, m21), (m12, m22) = d1.tolist(), d2.tolist()
    rhs = -params.alpha / (lambda_speed + params.alpha)  # minus the particular part's slope
    det = m11 * m22 - m12 * m21
    scale = max(abs(m11), abs(m12), abs(m21), abs(m22), 1.0)
    if abs(det) < 1e-14 * scale * scale:
        raise NumericalError("mean-reverting pasting system is singular")
    A = (rhs * m22 - m12 * rhs) / det
    B = (m11 * rhs - rhs * m21) / det
    return OUStationary(params, lambda_speed, mu, A, B)


def _ou_basis(lambda_speed, mu, params, f, order):
    """(M1, M2) and their first ``order`` f-derivatives (0 to 2), one pair per order.

    M1 = M(q, 1/2; z) and M2 = (sqrt(lambda)/sigma)(f - mu) M(q + 1/2, 3/2; z)
    with q = alpha / (2 lambda) and z = lambda (f - mu)^2 / sigma^2.  The
    derivatives follow from dM(a, b; z)/dz = (a/b) M(a + 1, b + 1; z) with
    dz/df = 2 lambda (f - mu) / sigma^2 and d^2z/df^2 = 2 lambda / sigma^2;
    each order sums two more kummer_1f1 series.
    """
    q = params.alpha / (2.0 * lambda_speed)
    z = lambda_speed * (f - mu) ** 2 / params.sigma**2
    root = math.sqrt(lambda_speed) / params.sigma
    k2 = kummer_1f1(q + 0.5, 1.5, z)
    rows = [(kummer_1f1(q, 0.5, z), root * (f - mu) * k2)]
    if order >= 1:
        dz = 2.0 * lambda_speed * (f - mu) / params.sigma**2
        k3, k4 = kummer_1f1(q + 1.0, 1.5, z), kummer_1f1(q + 1.5, 2.5, z)
        rows.append(((q / 0.5) * k3 * dz, root * (k2 + (f - mu) * ((q + 0.5) / 1.5) * k4 * dz)))
    if order >= 2:  # k1_zz, k2_z and k2_zz are z-derivatives of the two series
        d2z = 2.0 * lambda_speed / params.sigma**2
        k1_zz = (q / 0.5) * ((q + 1.0) / 1.5) * kummer_1f1(q + 2.0, 2.5, z)
        k2_z = ((q + 0.5) / 1.5) * k4
        k2_zz = ((q + 0.5) / 1.5) * ((q + 1.5) / 2.5) * kummer_1f1(q + 2.5, 3.5, z)
        rows.append((k1_zz * dz**2 + (q / 0.5) * k3 * d2z,
                     root * (2.0 * k2_z * dz + (f - mu) * (k2_zz * dz**2 + k2_z * d2z))))
    return rows


def _check_band(sol: _Stationary, f) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    fb = sol.params.f_bar
    if not np.all(np.abs(arr) <= fb + 1e-12 * max(1.0, fb)):  # NaN fails too
        raise DomainError("fundamental outside the band")
    return arr


def _ou_x(sol: OUStationary, arr: np.ndarray, order: int = 0) -> list:
    """X_S of the mean-reverting solution and its first ``order`` f-derivatives at ``arr``."""
    lam, mu, p = sol.lambda_speed, sol.mu, sol.params
    particular = ((p.alpha * arr + lam * mu) / (lam + p.alpha), p.alpha / (lam + p.alpha), 0.0)
    rows = _ou_basis(lam, mu, p, arr, order)
    return [sol.A * m1 + sol.B * m2 + c for (m1, m2), c in zip(rows, particular)]


def eval_stationary(sol: _Stationary, f):
    """X_S(f); accepts scalars or arrays, domain-checked against the band."""
    arr = _check_band(sol, f)
    if isinstance(sol, OUStationary):
        out = _ou_x(sol, arr)[0]
    else:
        out, e_minus, _ = _anchored_terms(sol, arr)
        out += e_minus
        del e_minus  # before the particular part's temporaries
        out += _particular(sol.params, arr)
    return float(out) if np.ndim(f) == 0 else out


def _eval_error_bound(sol: StationarySolution) -> float:
    """Bound on |eval_stationary(sol, f) - X_S(f)| over the band.

    X_S here is the closed form evaluated exactly at the floating-point f,
    with r, D and a_anchor as stored.  With u = eps / 2 the unit roundoff
    and g = (r + |beta|) f_bar:

    - each anchored term is |a| e^{r (f -+ f_bar) - |beta f|} times a gain
      of at most 2, so at most 2|a|.  Its exponent takes four roundings of
      quantities at most 2 r f_bar and |beta| f_bar, 6 u g of absolute
      error, which exp turns into relative error; the gain's exponent adds
      2 u |beta| f_bar and two products, a sum and a division 4 u, so the
      term is within (8 g + 4) u of relative error plus the libm error of
      its two exps.
    - the particular part is at most P = |2 alpha / D^2| (f_bar |D| + 2
      |beta| sigma^2).  Its constants take four roundings and its two
      products, sum and final scaling four; tanh's argument adds u |beta|
      f_bar of absolute error.  It is within (g + 8) u P plus tanh's libm
      error.
    - the two sums that join the parts add 2 u of their size.

    So the error is at most (9 g + 13) u (4|a| + P) plus the libm terms,
    under 8 eps (1 + g) (4|a| + P) when exp and tanh are within a few
    ulps.  The bound takes 64 eps, eight times that; tests measure the
    error against 40-digit mpmath at under 0.3 eps (1 + g) (4|a| + P).
    """
    p = sol.params
    d = _forcing_scale(p)
    size = 4.0 * abs(sol.a_anchor) + abs(2.0 * p.alpha / d**2) * (
        p.f_bar * abs(d) + 2.0 * abs(p.beta) * p.sigma**2
    )
    growth = 1.0 + (_growth_rate(p) + abs(p.beta)) * p.f_bar
    return 64.0 * np.finfo(float).eps * growth * size


def eval_stationary_derivatives(sol: _Stationary, f):
    """(X_S, X_S', X_S'') from the analytic closed forms."""
    arr = _check_band(sol, f)
    p = sol.params
    if isinstance(sol, OUStationary):
        out = _ou_x(sol, arr, 2)
        return tuple(map(float, out)) if np.ndim(f) == 0 else tuple(out)
    b = p.beta
    t = np.tanh(b * arr)
    s2 = _sech2(b, arr)
    e_plus, e_minus, r = _anchored_terms(sol, arr)
    x = e_plus + e_minus + _particular(p, arr)
    d1 = (r - b * t) * e_plus + (-r - b * t) * e_minus + _particular_d1(p, arr)
    d2 = (
        ((r - b * t) ** 2 - b**2 * s2) * e_plus
        + ((r + b * t) ** 2 - b**2 * s2) * e_minus
        + _particular_d2(p, arr)
    )
    return x, d1, d2


def stationary_ode_residual(sol: _Stationary, f):
    """Residual sigma^2/2 X'' + drift X' - alpha X + alpha f, drift beta tanh(beta f) or -lambda (f - mu).

    Zero (to roundoff) for any correctly constructed DMPS solution, the
    beta = 0 Gaussian limit included, or mean-reverting one; the main
    correctness gate of this module.
    """
    p = sol.params
    arr = np.asarray(f, dtype=float)
    x, d1, d2 = eval_stationary_derivatives(sol, arr)
    if isinstance(sol, OUStationary):
        drift = -sol.lambda_speed * (arr - sol.mu)
    else:
        drift = p.beta * np.tanh(p.beta * arr)
    res = 0.5 * p.sigma**2 * d2 + drift * d1 - p.alpha * x + p.alpha * arr
    return float(res) if np.ndim(f) == 0 else res
