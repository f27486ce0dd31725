import dataclasses
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from targetzone import (
    DomainError,
    ModelParams,
    build_spectrum,
    build_transient,
    eval_full,
    eval_stationary,
    eval_stationary_derivatives,
    eval_transient,
    ou_stationary,
    regime_threshold,
    surface,
    uniform_grid,
)
from targetzone import transient
from targetzone.stationary import _sine_moments

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
    # the closed form projects onto the spectrum's own roots, not u mapped back from Omega
    us = ts.spectrum.u
    norms = p.f_bar * (1.0 - np.sin(2.0 * us) / (2.0 * us))
    assert np.array_equal(ts.coeffs, -_sine_moments(ts.stationary, us) / norms)


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


def test_eval_full_builds_its_sine_basis_in_one_buffer():
    # the n x K basis is filled in place: one 401 x 200 array of doubles is
    # 641,600 bytes.  Measured: 776,177 bytes traced with the basis in one
    # buffer, 1,283,704 when the sine goes to a second fresh array, so the
    # budget of 1.5 buffers fails only on that second array.  The warm-up
    # runs on a copy of the grid, so the traced call builds its own basis
    ts = build_transient(REF, K=200)
    fg = uniform_grid(REF, 401)
    eval_full(ts, REF.horizon_T, fg.copy())
    tracemalloc.start()
    try:
        eval_full(ts, REF.horizon_T, fg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 401 * 200 * 8


def test_eval_full_after_surface_reuses_its_sine_basis():
    # Measured: 16,896 bytes traced when the basis surface built is reused,
    # 776,177 when eval_full builds its own
    ts = build_transient(REF, K=200)
    fg = uniform_grid(REF, 401)
    surface(ts, np.linspace(0.0, REF.horizon_T, 5), fg)
    tracemalloc.start()
    try:
        eval_full(ts, REF.horizon_T, fg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 401 * 200 * 8


SLOT_K = 60


def reference_full(params, t, grid, k=SLOT_K):
    """eval_full on a freshly built solution (its first k modes) and a copy of the grid: no reuse."""
    ts = build_transient(params, SLOT_K)
    return eval_full(dataclasses.replace(ts, coeffs=ts.coeffs[:k]), t, grid.copy())


def kept_by_surface(ts, t, grid):
    """Have ``surface`` keep its basis of ``grid`` at time ``t`` in ``ts``'s slot; return the basis width."""
    surface(ts, [t], grid)
    ((width, *_),) = ts._slot
    return width


def test_sine_basis_reused_only_for_the_same_solution_and_grid_bytes():
    # at t = T every mode carries its full weight, so a stale basis row shows.
    # Only surface keeps a basis, and a hit empties the slot, so each stale
    # key below meets a basis that surface kept on another key
    ts = build_transient(REF, SLOT_K)
    fg = uniform_grid(REF, 101)
    fg[50] = 0.0
    t = REF.horizon_T
    rows = surface(ts, [t], fg)
    assert np.array_equal(rows[0], reference_full(REF, t, fg))
    assert np.array_equal(eval_full(ts, t, fg), rows[0])
    assert not ts._slot
    assert not transient._sine_basis(ts, fg).flags.writeable
    # same shape, other values
    kept_by_surface(ts, t, fg)
    other = 0.5 * fg
    assert np.array_equal(eval_full(ts, t, other), reference_full(REF, t, other))
    # the same array, changed in place after surface kept its basis
    kept_by_surface(ts, t, fg)
    fg[3] = 0.25 * REF.f_bar
    assert np.array_equal(eval_full(ts, t, fg), reference_full(REF, t, fg))
    # 0.0 became -0.0: sin keeps the sign of zero, so the basis row must too
    kept_by_surface(ts, t, fg)
    fg[50] = -0.0
    got = eval_full(ts, t, fg)
    assert np.signbit(transient._sine_basis(ts, fg)[50]).all()
    assert np.array_equal(got, reference_full(REF, t, fg))
    # another width: a row near the horizon keeps fewer modes than the one at T
    assert 0 < kept_by_surface(ts, t - 1e-3, fg) < SLOT_K
    assert np.array_equal(eval_full(ts, t, fg), reference_full(REF, t, fg))
    assert not ts._slot


def test_sine_basis_follows_the_solution_on_one_grid():
    other_params = dataclasses.replace(REF, beta=2.0 * regime_threshold(REF), sigma=0.5)
    a, b = build_transient(REF, SLOT_K), build_transient(other_params, SLOT_K)
    fg = uniform_grid(REF, 101)
    t = REF.horizon_T
    want = {REF: reference_full(REF, t, fg), other_params: reference_full(other_params, t, fg)}
    # each solution meets the basis surface kept for the other one
    for ts, other in ((a, b), (b, a), (a, b)):
        kept_by_surface(other, t, fg)
        assert np.array_equal(eval_full(ts, t, fg), want[ts.spectrum.params])
    # a k-mode view of the same solution gets k columns, not the parent's K
    k = 17
    assert kept_by_surface(a, t, fg) == SLOT_K
    view = dataclasses.replace(a, coeffs=a.coeffs[:k])
    assert np.array_equal(eval_full(view, t, fg), reference_full(REF, t, fg, k))
    assert transient._sine_basis(view, fg).shape == (len(fg), k)
    assert len(a._slot) == 1 and not view._slot


def traced_bases(monkeypatch):
    """A list that gets a weak reference to every basis ``_sine_basis`` returns."""
    refs, build = [], transient._sine_basis

    def traced(*args):
        basis = build(*args)
        refs.append(weakref.ref(basis))
        return basis

    monkeypatch.setattr(transient, "_sine_basis", traced)
    return refs


def test_sine_basis_built_on_a_miss_dies_with_its_solution(monkeypatch):
    # eval_full keeps no basis it built on a miss; surface keeps its own
    # until the solution dies
    refs = traced_bases(monkeypatch)
    ts = build_transient(REF, SLOT_K)
    fg = uniform_grid(REF, 101)
    eval_full(ts, REF.horizon_T, fg)
    assert refs[0]() is None and not ts._slot
    surface(ts, [REF.horizon_T], fg)
    assert refs[1]() is not None
    del ts
    assert refs[1]() is None


def test_sine_basis_handed_over_on_a_hit(monkeypatch):
    # surface builds the basis and eval_full takes it, so the solution keeps none
    refs = traced_bases(monkeypatch)
    ts = build_transient(REF, SLOT_K)
    fg = uniform_grid(REF, 101)
    surface(ts, [0.0, REF.horizon_T], fg)
    eval_full(ts, REF.horizon_T, fg)
    assert len(refs) == 2
    assert refs[0]() is None and refs[1]() is None


def full_transient(ts, t, f):
    """X*(T - t, f) summed over all K modes, with no mode cut."""
    p = ts.spectrum.params
    basis = np.sin(np.multiply.outer(f, ts.spectrum.u / p.f_bar))
    return basis @ (np.exp(-ts.decay_rates() * (p.horizon_T - t)) * ts.coeffs) / np.cosh(p.beta * f)


def transient_residual(ts, t, f):
    """(R, scale): X* = X*(T - t, f) in its backward equation, over all K modes.

    R = dX*/dt + sigma^2/2 X*'' + beta tanh(beta f) X*' - alpha X*, with the
    derivatives of each mode m_k = sin(k f) / cosh(beta f), k = u_k / f_bar,
    in closed form:

        cosh(beta f) m_k'  = k cos(k f) - beta tanh(beta f) sin(k f),
        cosh(beta f) m_k'' = -(k^2 + beta^2 (1 - 2 tanh^2(beta f))) sin(k f)
                             - 2 beta k tanh(beta f) cos(k f),

    and dX*/dt = sum_k lambda_k c_k exp(-lambda_k (T - t)) m_k, lambda_k the
    solution's decay rates.  Each sum is one basis product, as in
    ``_transient_rows``.  ``scale`` is sum_k lambda_k |c_k| exp(-lambda_k (T - t)),
    the size of the terms that cancel in R.
    """
    p = ts.spectrum.params
    k = ts.spectrum.u[: len(ts.coeffs)] / p.f_bar
    rates = ts.decay_rates()
    w = np.exp(-rates * (p.horizon_T - t)) * ts.coeffs
    kf = np.multiply.outer(f, k)
    sin, cos = np.sin(kf), np.cos(kf)
    th = np.tanh(p.beta * f)
    x0, x1 = sin @ w, cos @ (k * w)
    dx = x1 - p.beta * th * x0
    ddx = -(sin @ (k**2 * w)) - p.beta**2 * (1.0 - 2.0 * th**2) * x0 - 2.0 * p.beta * th * x1
    res = sin @ (rates * w) + 0.5 * p.sigma**2 * ddx + p.beta * th * dx - p.alpha * x0
    return res / np.cosh(p.beta * f), float(np.sum(rates * np.abs(w)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    log_alpha=st.floats(-2.0, 3.0),
    log_f_bar=st.floats(-3.0, 0.0),
    on_sigma_1=st.booleans(),
    share=st.floats(0.0, 0.99),
    log_sigma=st.floats(-1.5, 0.5),
    decay=st.floats(0.0, 30.0),
)
@example(log_alpha=math.log10(200.0), log_f_bar=-1.0, on_sigma_1=False, share=0.0,
         log_sigma=-1.0, decay=1.0)
def test_transient_solves_its_equation_on_the_exact_planes(
    log_alpha, log_f_bar, on_sigma_1, share, log_sigma, decay
):
    # Each mode solves the backward equation exactly where the closed form is
    # exact: on the sigma = 1 plane (beta = share * beta_e, the diffusive regime;
    # item 1 adds the shifted one) and on the beta = 0 plane (sigma 0.03 to 3).
    # So R is rounding, a few eps of the terms that cancel (at most 3.9 eps in
    # 400 random draws).  T - t is decay / lambda_1 (at most T), so the first
    # mode has not underflowed.  Off both planes R is not small (ROADMAP item 2;
    # tools/defects.py measures it).
    base = ModelParams(alpha=10.0**log_alpha, beta=0.0, f_bar=10.0**log_f_bar, horizon_T=1.0,
                       sigma=1.0 if on_sigma_1 else 10.0**log_sigma)
    p = dataclasses.replace(base, beta=share * regime_threshold(base) if on_sigma_1 else 0.0)
    ts = build_transient(p, K=200)
    t = p.horizon_T - min(p.horizon_T, decay / ts.decay_rates()[0])
    res, scale = transient_residual(ts, t, uniform_grid(p, 101))
    assert scale > 0.0
    assert np.abs(res).max() <= 8.0 * np.finfo(float).eps * scale


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    log_f_bar=st.floats(-4.0, 1.0),
    shifted=st.booleans(),
    sigma=st.sampled_from([0.1, 1.0]),
    log_tau=st.floats(-9.0, 0.0),
)
@example(log_f_bar=-4.0, shifted=False, sigma=1.0, log_tau=-8.0)
def test_mode_cut_drops_at_most_its_share_of_the_solution(log_f_bar, shifted, sigma, log_tau):
    # f_bar in [1e-4, 10], both regimes: each row's truncated sum is within
    # 1e-15 sum_k |c_k| of the all-K sum, plus rounding (a few ulps of that
    # scale for the two sums; surface also adds X_S, an ulp of |X| each), and
    # every row keeps the shortest prefix that meets the cut.  Before the cut
    # was relative, f_bar 1e-4 dropped 1.7e-5 of max |X_S|
    base = ModelParams(alpha=0.8, beta=0.0, sigma=sigma, f_bar=10.0**log_f_bar, horizon_T=1.0)
    p = dataclasses.replace(base, beta=(2.0 if shifted else 0.5) * regime_threshold(base))
    ts = build_transient(p, K=200)
    fg = uniform_grid(p, 101)
    scale = float(np.sum(np.abs(ts.coeffs)))
    sums = 1e-15 * scale + 4.0 * np.finfo(float).eps * scale
    t = 1.0 - 10.0**log_tau
    assert np.abs(eval_transient(ts, t, fg) - full_transient(ts, t, fg)).max() <= sums
    times = np.append(1.0 - np.logspace(-9.0, 0.0, 10), [t, 1.0])
    xs = eval_stationary(ts.stationary, fg)
    for row, t_row in zip(surface(ts, times, fg), times):
        ref = xs + full_transient(ts, t_row, fg)
        assert np.abs(row - ref).max() <= sums + np.finfo(float).eps * np.abs(ref).max(), t_row
    rates, amps = ts.decay_rates(), np.abs(ts.coeffs)
    for k, t_row in zip(transient._kept_modes(ts, times), times):
        bounds = amps * np.exp(-rates * (1.0 - t_row))
        assert math.fsum(bounds[k:]) <= 1e-15 * scale, t_row
        assert k == 0 or math.fsum(bounds[k - 1 :]) > 1e-15 * scale, t_row


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


def test_nan_refused_by_every_entry_point():
    ts = build_transient(REF, K=10)
    ou = ou_stationary(1.0, 0.02, REF)
    bad = np.array([0.0, math.nan])
    calls = [
        lambda: eval_full(ts, 1.0, bad),
        lambda: eval_full(ts, 1.0, math.nan),
        lambda: eval_transient(ts, 1.0, bad),
        lambda: surface(ts, [0.0, 1.0], bad),
        lambda: eval_stationary(ts.stationary, bad),
        lambda: eval_stationary_derivatives(ts.stationary, bad),
        lambda: eval_stationary(ou, bad),
        lambda: eval_stationary_derivatives(ou, math.nan),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="outside the band"):
            call()
