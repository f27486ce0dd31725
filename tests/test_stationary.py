import dataclasses
import math

import numpy as np
import pytest

from targetzone import (
    DomainError,
    ModelParams,
    SingularSystemError,
    eval_stationary,
    eval_stationary_derivatives,
    ou_asymptotic_spectrum,
    ou_stationary,
    solve_smooth_pasting,
    stationary_ode_residual,
    uniform_grid,
)

FIG_PARAMS = {b: ModelParams(alpha=0.8, beta=b, sigma=1.0, f_bar=0.1, horizon_T=3.0) for b in (0.0, 1.0, 5.0)}


def closed_form_gaussian(p, f):
    """Independent beta=0 closed form: f - sinh(rho0 f)/(rho0 cosh(rho0 f_bar))."""
    rho0 = math.sqrt(2.0 * p.alpha / p.sigma**2)
    return f - np.sinh(rho0 * f) / (rho0 * math.cosh(rho0 * p.f_bar))


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
    for beta in (0.0, 1.0, 5.0):
        sol = solve_smooth_pasting(FIG_PARAMS[beta])
        assert sol.a_anchor == pytest.approx(-sol.b_anchor, rel=1e-12)
        assert eval_stationary(sol, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_solution_is_odd():
    p = FIG_PARAMS[5.0]
    sol = solve_smooth_pasting(p)
    f = np.linspace(0.0, p.f_bar, 80)
    assert np.abs(eval_stationary(sol, f) + eval_stationary(sol, -f)).max() < 1e-10


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
    p = dataclasses.replace(FIG_PARAMS[1.0], f_bar=1e-16)
    with pytest.raises(SingularSystemError):
        solve_smooth_pasting(p)


def test_ou_mu_zero_forces_amplitude_zero():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1, r_share=0.0)
    sol = ou_stationary(1.0, 0.0, p)
    assert sol.A == 0.0


def test_ou_smooth_pasting_residual():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1, r_share=0.0)
    sol = ou_stationary(1.0, 0.02, p)
    _, d1, _ = eval_stationary_derivatives(sol, np.array([-0.1, 0.1]))
    assert np.abs(d1).max() < 1e-8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ou_refuses_non_finite_speed_or_centre(bad):
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    for lam, mu in ((bad, 0.0), (1.0, bad)):
        with pytest.raises(DomainError):
            ou_stationary(lam, mu, p)
        with pytest.raises(DomainError):
            ou_asymptotic_spectrum(lam, mu, p, 3)


def test_ou_small_reversion_close_to_gaussian_shape():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1, r_share=0.0)
    sol_ou = ou_stationary(1e-3, 0.0, p)
    grid = np.linspace(-0.1, 0.1, 60)
    diff = np.abs(eval_stationary(sol_ou, grid) - closed_form_gaussian(p, grid)).max()
    assert diff < 5e-2
