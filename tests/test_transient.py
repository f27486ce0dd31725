import dataclasses
import math

import mpmath
import numpy as np
import pytest

from targetzone import (
    DomainError,
    ModelParams,
    build_spectrum,
    build_transient,
    eval_full,
    eval_stationary,
    eval_transient,
    regime_threshold,
    surface,
    uniform_grid,
)

REF = ModelParams(alpha=0.8, beta=1.0, sigma=1.0, f_bar=0.1, horizon_T=3.0)


def fixed_node_sum(func, a, b, panels, nodes=20):
    """Composite Gauss-Legendre sum of ``func`` over [a, b] on a fixed grid."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    pts = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x[None, :]).ravel()
    return half * (func(pts) @ np.tile(w, panels))


def reference_coeffs(sol, spec, panels):
    """-<X_S cosh(beta f), psi_k> / <psi_k, psi_k> by fixed-node sums."""
    p = spec.params
    us = math.sqrt(2.0) * spec.eigenvalues * p.f_bar / p.sigma
    xs = lambda f: eval_stationary(sol, f) * np.cosh(p.beta * f)
    modes = lambda f: np.sin(np.multiply.outer(us / p.f_bar, f))
    inner = fixed_node_sum(lambda f: modes(f) * xs(f), -p.f_bar, p.f_bar, panels)
    norms = fixed_node_sum(lambda f: modes(f) ** 2, -p.f_bar, p.f_bar, panels)
    return -inner / norms


def test_modes_coincide_at_beta_zero():
    # cosh = 1 and every mode norm equals f_bar, so the projection reduces
    # to the plain sine transform -(1/f_bar) * integral of X_S sin(...)
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1, horizon_T=3.0)
    ts = build_transient(p, 25)
    us = math.sqrt(2.0) * ts.spectrum.eigenvalues * p.f_bar / p.sigma
    plain = -fixed_node_sum(
        lambda f: np.sin(np.multiply.outer(us / p.f_bar, f)) * eval_stationary(ts.stationary, f),
        -p.f_bar,
        p.f_bar,
        50,
    ) / p.f_bar
    assert np.abs(plain - ts.coeffs).max() < 1e-12


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("share", [0.5, 2.0])
def test_closed_form_coefficients_match_fixed_node_sum(sigma, share):
    base = ModelParams(alpha=0.8, sigma=sigma, f_bar=0.1, horizon_T=3.0)
    p = dataclasses.replace(base, beta=share * regime_threshold(base))
    ts = build_transient(p, 200)
    assert ts.spectrum.regime == ("shifted" if share > 1.0 else "diffusive")
    ref = reference_coeffs(ts.stationary, ts.spectrum, panels=400)
    assert np.abs(ts.coeffs - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_stiff_projection_matches_high_precision():
    p = ModelParams(alpha=200.0, beta=2000.0, sigma=0.1, f_bar=0.1, horizon_T=1.0)
    ts = build_transient(p, K=50)
    assert np.all(np.isfinite(ts.coeffs))
    sol = ts.stationary
    with mpmath.workdps(30):
        fb, b = mpmath.mpf(p.f_bar), mpmath.mpf(p.beta)
        r = mpmath.sqrt(b**2 + 2 * mpmath.mpf(p.alpha) / mpmath.mpf(p.sigma) ** 2)
        d = 2 * mpmath.mpf(p.alpha) + b**2 * (1 - mpmath.mpf(p.sigma) ** 2)
        a_t = mpmath.mpf(sol.a_anchor)

        def x_cosh(f):  # X_S(f) cosh(beta f), from the anchored closed form
            particular = 2 * p.alpha / d**2 * (
                f * d * mpmath.cosh(b * f) + 2 * b * p.sigma**2 * mpmath.sinh(b * f)
            )
            return a_t * (mpmath.exp(r * (f - fb)) - mpmath.exp(-r * (f + fb))) + particular

        for k in (1, 40):
            u = mpmath.sqrt(2) * mpmath.mpf(ts.spectrum.eigenvalues[k - 1]) * fb / p.sigma
            # the integrand is even: twice the integral over [0, f_bar]
            inner = 2 * mpmath.quad(
                lambda f: x_cosh(f) * mpmath.sin(u * f / fb),
                [fb * j / 8 for j in range(9)],
                method="gauss-legendre",
            )
            ref = float(-inner / (fb * (1 - mpmath.sin(2 * u) / (2 * u))))
            assert ts.coeffs[k - 1] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("beta", [0.0, 1.0, 30.0])
@pytest.mark.parametrize("sigma", [0.1, 1.0])
def test_sliced_coefficients_are_the_shorter_build(beta, sigma):
    # a transient sums over the first len(coeffs) roots, so slicing coeffs
    # is the k-mode build bit for bit; beta 30 puts f_bar 0.1 past beta_e
    p = ModelParams(alpha=0.8, beta=beta, sigma=sigma, f_bar=0.1, horizon_T=3.0)
    full = build_transient(p, 200)
    fg = uniform_grid(p, 101)
    t_grid = np.linspace(0.0, p.horizon_T, 7)
    for k in (1, 25, 200):
        cut = dataclasses.replace(full, coeffs=full.coeffs[:k])
        built = build_transient(p, k)
        assert np.array_equal(cut.decay_rates(), built.decay_rates())
        assert np.array_equal(surface(cut, t_grid, fg), surface(built, t_grid, fg))


def test_coefficients_decay():
    ts = build_transient(REF, K=50)
    assert abs(ts.coeffs[49]) < abs(ts.coeffs[4])


def test_transient_vanishes_at_parity_line():
    ts = build_transient(REF, K=30)
    for t in (0.0, 1.0, 3.0):
        assert eval_transient(ts, t, 0.0) == 0.0


def test_terminal_parity_exact_projection():
    fg = np.linspace(-0.1, 0.1, 401)
    for beta in (0.0, 1.0, 5.0):
        p = ModelParams(alpha=0.8, beta=beta, sigma=1.0, f_bar=0.1, horizon_T=3.0)
        ts = build_transient(p, K=200)
        recon = eval_transient(ts, p.horizon_T, fg)
        target = -eval_stationary(ts.stationary, fg)
        assert np.abs(recon - target).max() < 1e-4
        assert np.abs(eval_full(ts, p.horizon_T, fg)).max() < 1e-4


def test_terminal_error_decreases_with_truncation_doubling():
    fg = np.linspace(-0.1, 0.1, 401)
    ts = build_transient(REF, K=200)
    errors = []
    for K in (25, 50, 100, 200):
        sub = dataclasses.replace(ts, coeffs=ts.coeffs[:K])
        errors.append(np.abs(eval_full(sub, REF.horizon_T, fg)).max())
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_initial_time_matches_stationary_within_tail_bound():
    ts = build_transient(REF, K=50)
    fg = np.linspace(-0.1, 0.1, 101)
    rate1 = ts.decay_rates()[0]
    bound = np.sum(np.abs(ts.coeffs)) * math.exp(-rate1 * REF.horizon_T)
    gap = np.abs(eval_full(ts, 0.0, fg) - eval_stationary(ts.stationary, fg)).max()
    assert gap <= bound + 1e-15


def test_exponential_tail_slope():
    ts = build_transient(REF, K=50)
    rates = ts.decay_rates()
    f0 = 0.05
    tau_lo = 5.0 / rates[1]
    taus = np.linspace(tau_lo, 2.5 * tau_lo, 12)
    vals = np.array([abs(eval_transient(ts, REF.horizon_T - tau, f0)) for tau in taus])
    slope = np.polyfit(taus, np.log(vals), 1)[0]
    assert slope == pytest.approx(-rates[0], rel=0.02)


def test_mode_orthogonality_under_quadrature():
    p = ModelParams(alpha=0.8, beta=5.0, sigma=1.0, f_bar=0.1)
    spec = build_spectrum(p, 8)
    us = math.sqrt(2.0) * spec.eigenvalues * p.f_bar / p.sigma
    x, w = np.polynomial.legendre.leggauss(96)
    for j in range(8):
        for k in range(j + 1, 8):
            val = p.f_bar * np.dot(w, np.sin(us[j] * x) * np.sin(us[k] * x))
            assert abs(val) < 1e-10


def test_surface_rows():
    ts = build_transient(REF, K=100)
    fg = uniform_grid(REF, 51)
    t_grid = np.linspace(0.0, REF.horizon_T, 7)
    mat = surface(ts, t_grid, fg)
    assert mat.shape == (7, 51)
    base = eval_stationary(ts.stationary, fg)
    tail = np.sum(np.abs(ts.coeffs)) * math.exp(-ts.decay_rates()[0] * REF.horizon_T)
    assert np.abs(mat[0] - base).max() <= tail + 1e-15
    assert np.abs(mat[-1]).max() < 1e-3


@pytest.mark.parametrize(
    "params",
    [
        REF,
        dataclasses.replace(REF, beta=2.0 * regime_threshold(REF)),
        dataclasses.replace(REF, sigma=0.1),
    ],
    ids=["ref", "shifted", "sigma0.1"],
)
def test_surface_rows_equal_eval_full_bit_for_bit(params):
    # surface builds the sine basis once but keeps one product per row, so
    # every row must round exactly as the one-row path does
    ts = build_transient(params, K=200)
    fg = uniform_grid(params, 401)
    t_grid = np.linspace(0.0, params.horizon_T, 31)
    mat = surface(ts, t_grid, fg)
    for i, t in enumerate(t_grid):
        assert np.array_equal(mat[i], eval_full(ts, t, fg)), i


def test_surface_keeps_the_per_row_domain_checks():
    ts = build_transient(REF, K=10)
    fg = uniform_grid(REF, 21)
    t_grid = np.linspace(0.0, REF.horizon_T, 11)
    late = t_grid.copy()
    late[5] = REF.horizon_T * (1.0 + 1e-9)
    early = t_grid.copy()
    early[0] = -1e-9
    for bad in (late, early):
        with pytest.raises(DomainError):
            surface(ts, bad, fg)
    with pytest.raises(DomainError):
        surface(ts, t_grid, np.append(fg, REF.f_bar + 2e-12))
    edge = np.append(fg, REF.f_bar + 5e-13)
    mat = surface(ts, t_grid, edge)
    assert np.array_equal(mat[3], eval_full(ts, t_grid[3], edge))


def test_surfaces_differ_most_near_band_for_riskier_dynamics():
    fg = uniform_grid(REF, 101)
    t_grid = np.array([0.0])
    mats = {}
    for beta in (0.0, 5.0):
        p = ModelParams(alpha=0.8, beta=beta, sigma=1.0, f_bar=0.1, horizon_T=3.0)
        mats[beta] = surface(build_transient(p, K=50), t_grid, fg)[0]
    gap = np.abs(mats[0.0] - mats[5.0])
    inner = np.abs(fg) < 0.05
    outer = np.abs(fg) > 0.08
    assert gap[outer].max() > gap[inner].max()


def test_domain_checks():
    ts = build_transient(REF, K=10)
    with pytest.raises(DomainError):
        eval_transient(ts, -0.1, 0.0)
    with pytest.raises(DomainError):
        eval_transient(ts, 4.0, 0.0)
    with pytest.raises(DomainError):
        eval_transient(ts, 1.0, 0.2)


def test_band_rule_shared_by_both_halves():
    ts = build_transient(REF, K=10)
    edge = REF.f_bar + 5e-13
    # both halves accept the point, so the full rate is their sum
    assert eval_full(ts, 0.0, edge) == eval_transient(ts, 0.0, edge) + eval_stationary(
        ts.stationary, edge
    )
    for beyond in (REF.f_bar + 2e-12, -REF.f_bar - 2e-12):
        with pytest.raises(DomainError):
            eval_transient(ts, 0.0, beyond)
        with pytest.raises(DomainError):
            eval_stationary(ts.stationary, beyond)
