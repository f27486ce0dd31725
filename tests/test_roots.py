"""Lane-wise bisection against the scalar algorithm it replaced.

``scalar_bisect_newton`` is the one-root-per-call bisection plus Newton
polish that ``roots.bisect_newton`` generalises to many brackets at once;
each lane must stop on its own rule and polish inside its own bracket, so
every root equals the scalar result bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from targetzone import (
    BracketError,
    DomainError,
    ModelParams,
    build_spectrum,
    regime_scan,
    regime_threshold,
    relaxation_time,
    spread_coefficient,
)
from targetzone.roots import bisect_newton

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


def scalar_roots(c, K):
    """Reference roots of u*cot(u) = c and their brackets, one call per root."""
    g = lambda u: u * math.cos(u) / math.sin(u) - c
    dg = lambda u: math.cos(u) / math.sin(u) - u / math.sin(u) ** 2
    roots, brackets = [], []
    for k in range(1, K + 1):
        m = k - 1 if c <= 1.0 else k
        lo = 1e-12 if m == 0 else m * math.pi * (1.0 + 1e-13) + 1e-300
        hi = m * math.pi + 0.5 * math.pi * (1.0 + 1e-9)
        roots.append(scalar_bisect_newton(g, lo, hi, dfunc=dg))
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
    spec = build_spectrum(p, 240)
    u, brackets = scalar_roots(spread_coefficient(p), 240)
    assert np.array_equal(spec.eigenvalues, p.sigma / (math.sqrt(2.0) * p.f_bar) * u)
    assert spec.brackets == brackets


def test_threshold_straddles_c_one():
    c = [spread_coefficient(dataclasses.replace(REF, beta=b)) for b in _beta_e_and_next(REF)]
    assert c[0] < 1.0 < c[1]
    assert [build_spectrum(dataclasses.replace(REF, beta=b), 1).regime
            for b in _beta_e_and_next(REF)] == ["diffusive", "shifted"]


def test_lanes_equal_scalar_reference_at_c_exactly_one():
    # No double beta gives c == 1 through spread_coefficient, so the lanes
    # are solved directly; the first lane's lower end is an exact zero.
    u_ref, brackets = scalar_roots(1.0, 240)
    lo, hi = np.array(brackets).T
    g = lambda u: u * np.cos(u) / np.sin(u) - 1.0
    dg = lambda u: np.cos(u) / np.sin(u) - u / np.float_power(np.sin(u), 2.0)
    u = bisect_newton(g, lo, hi, dfunc=dg)
    assert u[0] == 1e-12
    assert np.array_equal(u, u_ref)


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
    [[-0.5, 1.0], [1.0, float("nan"), 3.0], [float("nan")], [1.0, 1e200], [1.0, float("inf")]],
    ids=["negative", "nan-inside", "nan-alone", "rho-overflow", "inf"],
)
def test_regime_scan_refuses_what_validate_refuses(grid):
    with pytest.raises(DomainError):
        regime_scan(REF, grid)


def test_bracket_error_when_any_lane_lacks_sign_change():
    target = np.array([0.5, 5.0, 1.5])
    with pytest.raises(BracketError, match="1 of 3"):
        bisect_newton(lambda x: x - target, np.zeros(3), np.full(3, 2.0))


def test_scalar_call_returns_python_float():
    x = bisect_newton(lambda x: x * x - 2.0, 1.0, 2.0, dfunc=lambda x: 2.0 * x)
    assert type(x) is float
    assert x == scalar_bisect_newton(lambda x: x * x - 2.0, 1.0, 2.0, dfunc=lambda x: 2.0 * x)


def test_lanes_equal_their_one_lane_calls_and_zero_endpoints_return():
    # lane 0 has an exact zero at lo, lane 3 at hi; the others must not notice.
    t = np.array([0.0, 0.3, 2.0, 8.0, 5.5])
    lo = np.array([0.0, 0.0, 1.0, 1.0, -1.0])
    hi = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
    cube = lambda x: x * x * x
    u = bisect_newton(lambda x: cube(x) - t, lo, hi, dfunc=lambda x: 3.0 * x * x)
    assert u[0] == 0.0 and u[3] == 2.0
    for i in range(len(t)):
        one = bisect_newton(lambda x: cube(x) - t[i], lo[i], hi[i], dfunc=lambda x: 3.0 * x * x)
        assert u[i] == one
        assert u[i] == scalar_bisect_newton(lambda x: cube(x) - t[i], lo[i], hi[i],
                                            dfunc=lambda x: 3.0 * x * x)


def test_sign_test_survives_residuals_that_under_or_overflow():
    # f(lo) * f(x) rounds to 0 when f(lo) is the least subnormal, and to inf
    # when both are huge; the bisection compares signs, never the product.
    tiny_lo = lambda x: np.where(x == 0.0, -5e-324, x - 1.5)
    assert bisect_newton(tiny_lo, 0.0, 2.0) == pytest.approx(1.5, rel=0.0, abs=1e-12)
    huge = lambda x: (x - 1.5) * 1e300
    assert bisect_newton(huge, 0.0, 2.0) == 1.5
