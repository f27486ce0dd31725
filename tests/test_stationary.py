import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from targetzone import (
    DomainError,
    ModelParams,
    NumericalError,
    eval_stationary,
    eval_stationary_derivatives,
    ou_asymptotic_spectrum,
    ou_stationary,
    solve_smooth_pasting,
    stationary_ode_residual,
    uniform_grid,
)
from targetzone.stationary import _eval_error_bound, _forcing_scale, _growth_rate

FIG_PARAMS = {b: ModelParams(alpha=0.8, beta=b, sigma=1.0, f_bar=0.1, horizon_T=3.0) for b in (0.0, 1.0, 5.0)}


def closed_form_gaussian(p, f):
    """Independent beta=0 closed form: f - sinh(rho0 f)/(rho0 cosh(rho0 f_bar))."""
    rho0 = math.sqrt(2.0 * p.alpha / p.sigma**2)
    return f - np.sinh(rho0 * f) / (rho0 * math.cosh(rho0 * p.f_bar))


def reference_stationary(p, f):
    """X_S at each f in 50-digit mpmath, from the general 2x2 pasting system.

    Both edge slopes are imposed on e^{r f} and e^{-r f} separately, so
    the oddness the library builds in is checked here, not assumed.
    """
    with mpmath.workdps(50):
        alpha, beta, sigma, fb = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.sigma, p.f_bar))
        r = mpmath.sqrt(beta**2 + 2 * alpha / sigma**2)
        d = 2 * alpha + beta**2 * (1 - sigma**2)

        def particular(f):  # X_P
            return 2 * alpha / d**2 * (f * d + 2 * beta * sigma**2 * mpmath.tanh(beta * f))

        def basis(f):
            return mpmath.exp(r * f) / mpmath.cosh(beta * f), mpmath.exp(-r * f) / mpmath.cosh(beta * f)

        def slope_row(f):
            return [mpmath.diff(lambda g: basis(g)[i], f) for i in (0, 1)], -mpmath.diff(particular, f)

        def x_s(f):
            e_plus, e_minus = basis(mpmath.mpf(f))
            return c[0] * e_plus + c[1] * e_minus + particular(mpmath.mpf(f))

        rows, rhs = zip(slope_row(fb), slope_row(-fb))
        c = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
        return np.array([float(x_s(v)) for v in np.atleast_1d(f)])


# alpha 0.8, beta 1, sigma 1 on bands narrow enough that an elimination of
# the 2x2 system loses the oddness (f_bar = 1e-16 made it singular)
NARROW_BANDS = [dataclasses.replace(FIG_PARAMS[1.0], f_bar=fb) for fb in (1e-2, 1e-4, 1e-8, 1e-12, 1e-16)]

# beta = 0 sets: sigma in {0.1, 0.5, 1, 2} at the fig-2 band, plus fig6
GAUSSIAN_PARAMS = [dataclasses.replace(FIG_PARAMS[0.0], sigma=s) for s in (0.1, 0.5, 1.0, 2.0)] + [
    ModelParams(alpha=200.0, beta=0.0, sigma=0.1, f_bar=0.1, horizon_T=3.0)
]


@pytest.mark.parametrize("beta", [0.0, 1.0, 5.0])
def test_ode_residual_on_grid(beta):
    p = FIG_PARAMS[beta]
    sol = solve_smooth_pasting(p)
    grid = uniform_grid(p, 200)
    assert np.abs(stationary_ode_residual(sol, grid)).max() < 1e-7


@pytest.mark.parametrize("beta", [0.0, 1.0, 5.0])
def test_smooth_pasting_by_finite_differences(beta):
    p = FIG_PARAMS[beta]
    sol = solve_smooth_pasting(p)
    h = 1e-6
    for sign in (-1.0, 1.0):
        edge = sign * p.f_bar
        # one-sided second-order stencil pointing into the band
        x0 = eval_stationary(sol, edge)
        x1 = eval_stationary(sol, edge - sign * h)
        x2 = eval_stationary(sol, edge - sign * 2 * h)
        deriv = sign * (3 * x0 - 4 * x1 + x2) / (2 * h)
        assert abs(deriv) < 1e-6


def test_constants_antisymmetric_on_symmetric_band():
    # the anchored constants are a_anchor and -a_anchor by construction
    for p in FIG_PARAMS.values():
        assert eval_stationary(solve_smooth_pasting(p), 0.0) == 0.0, p
    # the O(1) anchored terms cancel to O(f_bar): 1e-15 is a few of their ulps
    for p in NARROW_BANDS:
        sol = solve_smooth_pasting(p)
        assert eval_stationary(sol, 0.0) == 0.0, p
        f = np.linspace(-p.f_bar, p.f_bar, 41)
        assert np.abs(eval_stationary(sol, f) - reference_stationary(p, f)).max() <= 1e-15, p


def closed_form_at_stored_constants(sol, f):
    """X_S at each float f in 40-digit mpmath, from r, D and a_anchor as stored.

    This is the quantity _eval_error_bound bounds the distance to: only the
    evaluation's rounding separates it from eval_stationary.
    """
    p = sol.params
    with mpmath.workdps(40):
        a, r, d = (mpmath.mpf(v) for v in (sol.a_anchor, _growth_rate(p), _forcing_scale(p)))
        alpha, beta, sigma, fb = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.sigma, p.f_bar))
        out = []
        for v in map(mpmath.mpf, np.asarray(f, dtype=float).tolist()):
            homog = a * (mpmath.exp(r * (v - fb)) - mpmath.exp(-r * (v + fb))) / mpmath.cosh(beta * v)
            out.append(homog + 2 * alpha / d**2 * (v * d + 2 * beta * sigma**2 * mpmath.tanh(beta * v)))
        return out


def assert_eval_error_within_bound(p):
    sol = solve_smooth_pasting(p)
    rng = np.random.default_rng(39)
    f = np.concatenate((np.linspace(-p.f_bar, p.f_bar, 33), rng.uniform(-p.f_bar, p.f_bar, 32)))
    ref = closed_form_at_stored_constants(sol, f)
    err = max(abs(mpmath.mpf(x) - y) for x, y in zip(eval_stationary(sol, f).tolist(), ref))
    # the measured error sits two orders of magnitude inside the bound
    assert float(err) <= _eval_error_bound(sol), p


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    alpha=st.floats(20.0, 400.0),
    beta=st.floats(0.0, 60.0),
    sigma=st.floats(0.05, 1.0),
    f_bar=st.floats(0.02, 0.5),
)
def test_eval_error_within_its_bound_over_the_box(alpha, beta, sigma, f_bar):
    assert_eval_error_within_bound(ModelParams(alpha=alpha, beta=beta, sigma=sigma, f_bar=f_bar))


def closed_form_xs(p, f, dps=50):
    """X_S at each f in ``dps``-digit mpmath where the closed form is exact (sigma = 1 or beta = 0).

    X_S = f + (beta/alpha) tanh(beta f) + a sinh(r f) / cosh(beta f), with
    r^2 = beta^2 + 2 alpha / sigma^2 and a set by X_S'(f_bar) = 0, both at
    ``dps`` digits.
    """
    with mpmath.workdps(dps):
        alpha, beta, sigma, fb = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.sigma, p.f_bar))
        r = mpmath.sqrt(beta**2 + 2 * alpha / sigma**2)
        ch, sh = mpmath.cosh(beta * fb), mpmath.sinh(beta * fb)
        a = -(ch**2 + beta**2 / alpha) / (r * mpmath.cosh(r * fb) * ch - beta * mpmath.sinh(r * fb) * sh)
        xs = (v + beta / alpha * mpmath.tanh(beta * v) + a * mpmath.sinh(r * v) / mpmath.cosh(beta * v)
              for v in map(mpmath.mpf, np.asarray(f, dtype=float).tolist()))
        return np.array([float(x) for x in xs])


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    alpha=log_uniform(1e3, 1e5),
    beta=st.floats(0.0, 60.0),
    sigma=log_uniform(0.05, 2.0),
    f_bar=log_uniform(0.02, 0.5),
    plane=st.sampled_from(["sigma = 1", "beta = 0"]),
)
def test_eval_matches_the_50_digit_closed_form_where_it_is_exact(alpha, beta, sigma, f_bar, plane):
    """eval_stationary against the closed form at 50 digits, on the sigma = 1 and beta = 0 planes.

    The tolerance is _eval_error_bound's 64 eps (1 + (r + |beta|) f_bar) with
    max |X_S| in place of the size 4|a| + P of the parts, which is what an
    evaluation free of cancellation meets.  Sub-box: alpha in [1e3, 1e5],
    with beta in [0, 60] (sigma = 1) or sigma in [0.05, 2] (beta = 0), and
    f_bar in [0.02, 0.5].  Below alpha ~ 1e3 today's X_S, a particular part
    minus a homogeneous part that nearly cancels it, falls out of the
    tolerance on narrow bands: the worst case measured 14 units at alpha
    1e3, 44 at 500 and 93 at 350.  ROADMAP item 9's cancellation-free form
    widens the box down to alpha 1e-12.
    """
    p = ModelParams(alpha=alpha, beta=beta, sigma=1.0, f_bar=f_bar) if plane == "sigma = 1" else (
        ModelParams(alpha=alpha, beta=0.0, sigma=sigma, f_bar=f_bar))
    f = uniform_grid(p, 41)
    ref = closed_form_xs(p, f)
    err = np.abs(eval_stationary(solve_smooth_pasting(p), f) - ref).max()
    growth = 1.0 + (_growth_rate(p) + p.beta) * p.f_bar
    assert err <= 64.0 * np.finfo(float).eps * growth * np.abs(ref).max(), (p, err / np.abs(ref).max())


@pytest.mark.parametrize("p", [
    ModelParams(alpha=0.8, beta=1400.0, sigma=1.0, f_bar=0.5),  # beta f_bar 700, the largest solved
    ModelParams(alpha=200.0, beta=400.0, sigma=0.1, f_bar=0.5),
    ModelParams(alpha=20.0, beta=60.0, sigma=2.0, f_bar=0.5),  # sigma > 1: D < 0
    ModelParams(alpha=20.0, beta=3.65, sigma=2.0, f_bar=0.5),  # D = 0.0325, near resonance
    *FIG_PARAMS.values(),
    *NARROW_BANDS,
], ids=lambda p: f"a{p.alpha:g}-b{p.beta:g}-s{p.sigma:g}-f{p.f_bar:g}")
def test_eval_error_within_its_bound_at_the_corners(p):
    assert_eval_error_within_bound(p)


def test_refusals_of_the_closed_form():
    # D = 2 alpha + beta^2 (1 - sigma^2) = 3 - 3, exactly resonant
    with pytest.raises(DomainError, match="resonant"):
        solve_smooth_pasting(ModelParams(alpha=1.5, beta=1.0, sigma=2.0, f_bar=0.1))
    # beta f_bar = 701, one past the largest solved
    with pytest.raises(NumericalError, match="floating range"):
        solve_smooth_pasting(ModelParams(alpha=0.8, beta=1402.0, sigma=1.0, f_bar=0.5))
    # sigma^2 underflows to 0 (1e-300), or 2 alpha / sigma^2 overflows (1e-155)
    for sigma in (1e-300, 1e-155):
        p = ModelParams(alpha=0.8, beta=1.0, sigma=sigma, f_bar=0.1)
        with pytest.raises(DomainError, match="sigma too small"):
            solve_smooth_pasting(p)
    with pytest.raises(DomainError, match="sigma too small"):
        ou_asymptotic_spectrum(1.0, 0.0, ModelParams(alpha=0.8, sigma=1e-300), 3)
    # lambda / sigma^2 overflows: z = lambda (f - mu)^2 / sigma^2 has no scale
    with pytest.raises(DomainError, match="sigma too small"):
        ou_stationary(1.0, 0.0, ModelParams(alpha=0.8, beta=1.0, sigma=1e-155, f_bar=0.1))


def test_solution_is_odd():
    for p in [FIG_PARAMS[5.0], *NARROW_BANDS]:
        sol = solve_smooth_pasting(p)
        f = np.linspace(0.0, p.f_bar, 80)
        assert np.array_equal(eval_stationary(sol, -f), -eval_stationary(sol, f)), p


def test_gaussian_limit_matches_closed_form():
    p = FIG_PARAMS[0.0]
    sol = solve_smooth_pasting(p)
    grid = np.linspace(-p.f_bar, p.f_bar, 50)
    assert np.abs(eval_stationary(sol, grid) - closed_form_gaussian(p, grid)).max() < 1e-9


def test_value_at_band_edge_gaussian():
    p = FIG_PARAMS[0.0]
    sol = solve_smooth_pasting(p)
    rho0 = math.sqrt(2.0 * p.alpha)
    expected = p.f_bar - math.tanh(rho0 * p.f_bar) / rho0
    assert eval_stationary(sol, p.f_bar) == pytest.approx(expected, rel=1e-10)


def test_central_slope_steepens_with_risk():
    slopes = {}
    for beta in (1.0, 5.0):
        sol = solve_smooth_pasting(FIG_PARAMS[beta])
        _, d1, _ = eval_stationary_derivatives(sol, 0.0)
        slopes[beta] = d1
    assert slopes[5.0] > slopes[1.0] > 0.0


def test_rate_detaches_from_fundamental_near_band_at_high_risk():
    # zero-slope region widens: the edge-adjacent slope falls with beta
    edge = 0.095
    slopes = {}
    for beta in (1.0, 50.0):
        p = ModelParams(alpha=0.8, beta=beta, sigma=1.0, f_bar=0.1)
        sol = solve_smooth_pasting(p)
        _, d1, _ = eval_stationary_derivatives(sol, edge)
        slopes[beta] = abs(d1)
    assert slopes[50.0] < slopes[1.0]


def test_eval_outside_band_rejected():
    sol = solve_smooth_pasting(FIG_PARAMS[1.0])
    with pytest.raises(DomainError):
        eval_stationary(sol, 0.11)
    with pytest.raises(DomainError):
        eval_stationary(sol, np.array([0.0, -0.2]))


def test_gaussian_constructor_properties():
    for p in GAUSSIAN_PARAMS:
        sol = solve_smooth_pasting(p)
        assert abs(eval_stationary(sol, 0.0)) <= 1e-15, p
        _, d1, _ = eval_stationary_derivatives(sol, np.array([-p.f_bar, p.f_bar]))
        assert np.abs(d1).max() <= 1e-12, p
        grid = np.linspace(-p.f_bar, p.f_bar, 401)
        assert np.abs(eval_stationary(sol, grid) - closed_form_gaussian(p, grid)).max() <= 1e-14, p
        assert np.abs(stationary_ode_residual(sol, grid)).max() < 1e-7, p


def test_small_beta_continuity_with_gaussian_limit():
    for p in GAUSSIAN_PARAMS:
        sol_small = solve_smooth_pasting(dataclasses.replace(p, beta=1e-4))
        grid = np.linspace(-p.f_bar, p.f_bar, 101)
        gap = np.abs(eval_stationary(sol_small, grid) - closed_form_gaussian(p, grid)).max()
        assert gap < 1e-6, p


def test_degenerate_band_is_singular():
    # the mean-reverting solver still solves a 2x2 system; the DMPS solve
    # has a closed form that is exact on this band (see NARROW_BANDS)
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=1e-16)
    for mu in (0.0, 0.02):
        with pytest.raises(NumericalError, match="singular"):
            ou_stationary(1.0, mu, p)


def test_ou_mu_zero_forces_amplitude_zero():
    # at mu = 0 the equation is odd in f: the even term's amplitude A is 0
    # and X is odd, but the forcing alpha f keeps X away from 0
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    sol = ou_stationary(1.0, 0.0, p)
    assert sol.A == 0.0
    assert sol.B == pytest.approx(-0.4365, abs=1e-4)
    grid = np.linspace(0.0, 0.1, 51)
    x = eval_stationary(sol, grid)
    assert np.array_equal(eval_stationary(sol, -grid), -x)
    assert np.abs(x).max() > 1e-4


@pytest.mark.parametrize("lam", [1e-3, 1.0, 10.0])
@pytest.mark.parametrize("mu", [0.0, 0.02])
def test_ou_satisfies_its_equation_by_finite_differences(lam, mu):
    # sigma^2/2 X'' - lambda (f - mu) X' - alpha X + alpha f = 0, with X' and
    # X'' from central differences of eval_stationary (h = 1e-4, |f| <= 0.09)
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    sol = ou_stationary(lam, mu, p)
    h = 1e-4
    f = np.linspace(-0.09, 0.09, 181)
    x, xp, xm = (eval_stationary(sol, f + d) for d in (0.0, h, -h))
    res = (0.5 * p.sigma**2 * (xp - 2.0 * x + xm) / h**2
           - lam * (f - mu) * (xp - xm) / (2.0 * h) + p.alpha * (f - x))
    assert np.abs(res).max() <= 1e-7


@pytest.mark.parametrize("alpha, sigma", [(0.8, 1.0), (200.0, 0.1)])
@pytest.mark.parametrize("lam", [1e-3, 1.0, 10.0])
@pytest.mark.parametrize("mu", [0.0, 0.02])
def test_ou_ode_residual_on_grid(alpha, sigma, lam, mu):
    # X' and X'' from dM(a, b; z)/dz = (a/b) M(a + 1, b + 1; z), not from the equation
    p = ModelParams(alpha=alpha, beta=0.0, sigma=sigma, f_bar=0.1)
    sol = ou_stationary(lam, mu, p)
    grid = uniform_grid(p, 401)
    res = stationary_ode_residual(sol, grid)
    assert np.abs(res).max() <= 1e-9 * max(1.0, np.abs(eval_stationary(sol, grid)).max())


def test_derivatives_return_floats_for_a_scalar_f_in_both_families():
    # a scalar f gets three Python floats and an array f three arrays, whichever the family
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    for sol in (solve_smooth_pasting(dataclasses.replace(p, beta=1.0)), ou_stationary(1.0, 0.02, p)):
        assert [type(v) for v in eval_stationary_derivatives(sol, 0.05)] == [float] * 3
        for v in eval_stationary_derivatives(sol, np.array([-0.05, 0.05])):
            assert isinstance(v, np.ndarray) and v.shape == (2,)


def test_ou_smooth_pasting_residual():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    sol = ou_stationary(1.0, 0.02, p)
    _, d1, _ = eval_stationary_derivatives(sol, np.array([-0.1, 0.1]))
    assert np.abs(d1).max() < 1e-8


@pytest.mark.parametrize("lam", [1e-3, 1.0, 10.0])
def test_ou_interior_slope_matches_central_difference(lam):
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    sol = ou_stationary(lam, 0.02, p)
    h = 1e-5
    grid = np.linspace(-0.1 + h, 0.1 - h, 201)
    d1 = eval_stationary_derivatives(sol, grid)[1]
    fd = (eval_stationary(sol, grid + h) - eval_stationary(sol, grid - h)) / (2.0 * h)
    assert np.abs(d1 - fd).max() <= 1e-7 * np.abs(d1).max()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ou_refuses_non_finite_speed_or_centre(bad):
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    for lam, mu in ((bad, 0.0), (1.0, bad)):
        with pytest.raises(DomainError):
            ou_stationary(lam, mu, p)
        with pytest.raises(DomainError):
            ou_asymptotic_spectrum(lam, mu, p, 3)


def test_ou_small_reversion_close_to_gaussian_shape():
    # as lambda -> 0 the mean reversion vanishes and X tends to the beta = 0
    # closed form; the gap shrinks like lambda relative to the curve's size
    for sigma, alpha in ((1.0, 0.8), (0.1, 200.0)):
        p = ModelParams(alpha=alpha, beta=0.0, sigma=sigma, f_bar=0.1)
        grid = np.linspace(-0.1, 0.1, 60)
        gauss = closed_form_gaussian(p, grid)
        size = np.abs(gauss).max()
        for lam in (1e-2, 1e-3):
            for mu in (0.0, 0.02):
                gap = np.abs(eval_stationary(ou_stationary(lam, mu, p), grid) - gauss).max()
                assert gap <= 0.5 * lam * size, (sigma, alpha, lam, mu)
