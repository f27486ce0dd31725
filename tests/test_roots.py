"""Lane-wise root extraction against one-bracket references in plain Python.

``scalar_rtsafe`` is the bracketed Newton loop of ``roots.bisect_newton``
on one bracket per call; each lane must stop on its own rule and step
inside its own bracket, so every root equals the scalar result bit for
bit.  ``scalar_bisect_newton`` is the bisection plus Newton polish the
solver used before: without a Newton step the lanes still equal its
bisection, and with its polish it defines ``_X_STAR``.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from targetzone import (
    BracketError,
    ConvergenceError,
    DomainError,
    ModelParams,
    build_spectrum,
    regime_scan,
    regime_threshold,
    relaxation_time,
    spread_coefficient,
)
from targetzone.roots import bisect_newton
from targetzone.spectral import _u_roots

REF = ModelParams(alpha=0.8, beta=1.0, sigma=1.0, f_bar=0.1, horizon_T=3.0)


def scalar_bisect_newton(func, lo, hi, *, dfunc=None, ftol=1e-12):
    """Reference: one bracket per call, in plain Python floats."""
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError("no sign change")
    a, b, fa = lo, hi, flo
    x = 0.5 * (a + b)
    for _ in range(200):
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
            x_new = x - fx / dfx
            if not (a < x_new < b):
                break
            x = x_new
    return x


def scalar_rtsafe(func, lo, hi, x0=None):
    """Reference: the bracketed Newton loop on one bracket, in plain Python floats.

    ``func`` returns (residual, Newton step)."""
    ulp4 = 4.0 * 2.2e-16
    flo, fhi = func(lo)[0], func(hi)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError("no sign change")
    a, b, fa = lo, hi, flo
    x = 0.5 * (a + b) if x0 is None else x0
    for _ in range(200):
        fx, dx = func(x)
        if abs(fx) <= 1e-12 or (b - a) <= abs(x) * ulp4:
            return x
        if (fa < 0.0) != (fx < 0.0):
            b = x
        else:
            a, fa = x, fx
        small = abs(dx) <= abs(x) * ulp4
        if a < x + dx < b:
            x = x + dx
        elif not small:
            x = 0.5 * (a + b)
        if small:
            return x
    raise ConvergenceError("open after 200 iterations")


def scalar_roots(c, K):
    """Reference roots of u*cot(u) = c and their brackets, one call per root."""

    def g_step(u):
        s, co = math.sin(u), math.cos(u)
        d = (1.0 - c) * co - u * s
        return u * co / s - c, (c * s - u * co) / d if d else math.nan

    roots, brackets = [], []
    for k in range(1, K + 1):
        m = k - 1 if c <= 1.0 else k
        lo = 1e-12 if m == 0 else m * math.pi * (1.0 + 1e-13) + 1e-300
        hi = m * math.pi + 0.5 * math.pi * (1.0 + 1e-9)
        z = (m + 0.5) * math.pi
        u0 = z - c / z
        if m == 0:
            u0 = min(u0, math.sqrt(3.0 * max(1.0 - c, 0.0)))
        roots.append(scalar_rtsafe(g_step, lo, hi, min(max(u0, lo), hi)))
        brackets.append((lo, hi))
    return np.array(roots), tuple(brackets)


def _beta_e_and_next(p):
    """beta_e, where c rounds to just below 1, and the least double beyond it with c > 1."""
    be = after = regime_threshold(p)
    while spread_coefficient(dataclasses.replace(p, beta=after)) <= 1.0:
        after = math.nextafter(after, math.inf)
    return [be, after]


SPECTRUM_CASES = [
    dataclasses.replace(REF, sigma=s, beta=frac * regime_threshold(REF))
    for s in (0.1, 0.5, 1.0, 2.0)
    for frac in (0.5, 2.0)
] + [dataclasses.replace(REF, beta=b) for b in _beta_e_and_next(REF)] + [
    ModelParams(alpha=200.0, beta=2000.0, sigma=0.1, f_bar=0.1)
]


@pytest.mark.parametrize("p", SPECTRUM_CASES, ids=lambda p: f"s{p.sigma}-b{p.beta:.17g}")
def test_spectrum_equals_scalar_reference(p):
    # the spectrum keeps the roots as solved and derives Omega from them
    spec = build_spectrum(p, 240)
    c = spread_coefficient(p)
    u, brackets = scalar_roots(c, 240)
    assert np.array_equal(spec.u, u)
    assert np.array_equal(spec.u, _u_roots(np.full(240, c), np.arange(1, 241))[0])
    assert np.array_equal(spec.eigenvalues, p.sigma / (math.sqrt(2.0) * p.f_bar) * spec.u)
    assert spec.brackets == brackets


def _outside_contract(u, c, lo, hi):
    """Indices of roots u of u*cot(u) = c farther than the residual contract allows.

    The contract |g| <= 1e-12 + floor, with g = u*cot(u) - c and floor
    = 8 eps u |g'(u)|, allows u to sit (1e-12 + floor) / |g'(u*)| + 2 ulp
    from the 50-digit root u*, which Newton reaches from u and which must
    lie in the lane's bracket.
    """
    eps = np.finfo(float).eps
    bad = []
    with mpmath.workdps(50):
        for i, (ui, ci, li, hi_) in enumerate(zip(u, c, lo, hi)):
            g = lambda x: x * mpmath.cot(x) - ci
            dg = lambda x: mpmath.cot(x) - x / mpmath.sin(x) ** 2
            root = mpmath.findroot(g, mpmath.mpf(ui), solver="newton", df=dg)
            slope = abs(dg(root))
            delta = (1e-12 + 8.0 * eps * root * slope) / slope + 2.0 * np.spacing(float(root))
            if not (li < root < hi_ and abs(ui - root) <= delta):
                bad.append(i)
    return bad


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("shifted", [False, True])
def test_spectrum_within_the_residual_contract_of_mpmath(sigma, shifted):
    # each sigma and regime gets its own c; u is mapped back from Omega as
    # the eigen-residual checks do, which the 8 eps u of the floor covers
    i = [0.1, 0.5, 1.0, 2.0].index(sigma)
    frac = (1.05, 1.4, 2.0, 2.5)[i] if shifted else (0.3, 0.6, 0.8, 0.95)[i]
    p = dataclasses.replace(REF, sigma=sigma, beta=frac * regime_threshold(REF))
    spec = build_spectrum(p, 200)
    u = math.sqrt(2.0) * spec.eigenvalues * p.f_bar / p.sigma
    lo, hi = np.array(spec.brackets).T
    assert _outside_contract(u, np.full(200, spread_coefficient(p)), lo, hi) == []


def test_regime_scan_roots_within_the_residual_contract_of_mpmath():
    be = regime_threshold(REF)
    grid = np.concatenate([np.linspace(0.0, 0.98 * be, 60), _beta_e_and_next(REF),
                           np.linspace(1.02 * be, 2.5 * be, 60)])
    fb = REF.f_bar
    u = math.sqrt(2.0) * np.array([row[1] for row in regime_scan(REF, grid)]) * fb / REF.sigma
    c = np.array([b * fb * math.tanh(b * fb) for b in grid])
    _, lo, hi = _u_roots(c, np.ones(len(c), dtype=int))
    assert _outside_contract(u, c, lo, hi) == []


def test_threshold_straddles_c_one():
    c = [spread_coefficient(dataclasses.replace(REF, beta=b)) for b in _beta_e_and_next(REF)]
    assert c[0] < 1.0 < c[1]
    assert [build_spectrum(dataclasses.replace(REF, beta=b), 1).regime
            for b in _beta_e_and_next(REF)] == ["diffusive", "shifted"]


def test_lanes_equal_scalar_reference_at_c_exactly_one():
    # No double beta gives c == 1 through spread_coefficient, so the lanes
    # are solved directly; the first lane's lower end is an exact zero.
    u_ref, brackets = scalar_roots(1.0, 240)
    u, lo, hi = _u_roots(np.ones(240), np.arange(1, 241))
    assert u[0] == 1e-12
    assert np.array_equal(u, u_ref)
    assert tuple(zip(lo.tolist(), hi.tolist())) == brackets


def test_threshold_equals_scalar_reference():
    g = lambda x: x * math.tanh(x) - 1.0
    dg = lambda x: math.tanh(x) + x / math.cosh(x) ** 2
    x_star = scalar_bisect_newton(g, 1.0, 1.5, dfunc=dg, ftol=1e-15)
    assert regime_threshold(REF) == x_star / REF.f_bar


@pytest.mark.parametrize("sigma", [0.1, 1.0])
def test_regime_scan_rows_equal_per_beta_spectrum(sigma):
    p = dataclasses.replace(REF, sigma=sigma)
    be = regime_threshold(p)
    grid = np.concatenate([np.linspace(0.0, 0.98 * be, 40), _beta_e_and_next(p),
                           np.linspace(1.02 * be, 2.5 * be, 40)])
    rows = regime_scan(p, grid)
    assert {r[3] for r in rows} == {"diffusive", "shifted"}
    for row, b in zip(rows, grid):
        spec = build_spectrum(dataclasses.replace(p, beta=float(b)), 1)
        rep = relaxation_time(spec)
        assert row == (b, rep.omega1, rep.t_relax, spec.regime)


@pytest.mark.parametrize(
    "grid",
    [[-0.5, 1.0], [1.0, float("nan"), 3.0], [float("nan")], [1.0, 1e200], [1.0, float("inf")], []],
    ids=["negative", "nan-inside", "nan-alone", "rho-overflow", "inf", "empty"],
)
def test_regime_scan_refuses_what_validate_refuses(grid):
    with pytest.raises(DomainError):
        regime_scan(REF, grid)


def test_bracket_error_when_any_lane_lacks_sign_change():
    target = np.array([0.5, 5.0, 1.5])
    with pytest.raises(BracketError, match="1 of 3"):
        bisect_newton(lambda x: (x - target, math.nan), np.zeros(3), np.full(3, 2.0))


def test_scalar_call_returns_python_float():
    f = lambda x: (x * x - 2.0, (2.0 - x * x) / (2.0 * x))
    x = bisect_newton(f, 1.0, 2.0)
    assert type(x) is float
    assert x == scalar_rtsafe(f, 1.0, 2.0)
    assert type(bisect_newton(lambda x: (x * x - 2.0, math.nan), 1.0, 2.0)) is float


def test_lanes_equal_their_one_lane_calls_and_zero_endpoints_return():
    # lane 0 has an exact zero at lo, lane 3 at hi; the others must not notice.
    t = np.array([0.0, 0.3, 2.0, 8.0, 5.5])
    lo = np.array([0.0, 0.0, 1.0, 1.0, -1.0])
    hi = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
    u0 = np.array([0.5, 0.9, 1.1, 1.9, 2.9])

    def cube(x, t):  # x^3 - t and its Newton step, np.float64 scalars or arrays
        with np.errstate(divide="ignore", invalid="ignore"):
            return x * x * x - t, (t - x * x * x) / (3.0 * x * x)

    u = bisect_newton(lambda x: cube(x, t), lo, hi, x0=u0)
    assert u[0] == 0.0 and u[3] == 2.0
    for i in range(len(t)):
        one = bisect_newton(lambda x: cube(x, t[i]), lo[i], hi[i], x0=u0[i])
        assert u[i] == one
        assert u[i] == scalar_rtsafe(lambda x: cube(x, t[i]), lo[i], hi[i], u0[i])


def test_newton_steps_that_leave_the_bracket_bisect_instead():
    # Newton on atan from 1.5 overshoots to -1.69 and then diverges; every
    # step outside the bracket must give way to the midpoint
    f = lambda x: (np.arctan(x), -np.arctan(x) * (1.0 + x * x))
    x = bisect_newton(f, -1.0, 2.0, x0=1.5)
    assert abs(x) <= 1e-12
    assert x == scalar_rtsafe(f, np.float64(-1.0), np.float64(2.0), np.float64(1.5))


def test_plain_bisection_equals_scalar_reference():
    # without a Newton step every lane is the bisection of the solver it
    # replaced, so the honeymoon contact point keeps its bits
    t = np.array([0.0, 0.3, 2.0, 8.0, 5.5, 1e-300])
    lo = np.array([0.0, 0.0, 1.0, 1.0, -1.0, 0.0])
    hi = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 1.0])
    u = bisect_newton(lambda x: (x * x * x - t, math.nan), lo, hi)
    for i in range(len(t)):
        assert u[i] == scalar_bisect_newton(lambda x: x * x * x - t[i], lo[i], hi[i])


def test_sign_test_survives_residuals_that_under_or_overflow():
    # f(lo) * f(x) rounds to 0 when f(lo) is the least subnormal, and to inf
    # when both are huge; the bisection compares signs, never the product.
    tiny_lo = lambda x: np.where(x == 0.0, -5e-324, x - 1.5)
    assert bisect_newton(lambda x: (tiny_lo(x), math.nan), 0.0, 2.0) == pytest.approx(1.5, rel=0.0, abs=1e-12)
    huge = lambda x: (x - 1.5) * 1e300
    assert bisect_newton(lambda x: (huge(x), math.nan), 0.0, 2.0) == 1.5


def test_lane_still_open_after_the_bisection_budget_raises():
    # 200 halvings of [0, 1e70] leave a bracket ~1e10 wide around the root 1,
    # where neither |f| <= 1e-12 nor the 4-ulp width rule holds
    with pytest.raises(ConvergenceError, match="1 of 1"):
        bisect_newton(lambda x: (x - 1.0, math.nan), 0.0, 1e70)
