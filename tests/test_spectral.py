import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from targetzone import (
    DomainError,
    ModelParams,
    PoleError,
    build_spectrum,
    build_transient,
    eigen_residual,
    ou_asymptotic_spectrum,
    regime_scan,
    regime_threshold,
    relaxation_time,
    spread_coefficient,
)
from targetzone.spectral import _C_MAX

REF = ModelParams(alpha=0.8, beta=1.0, sigma=1.0, f_bar=0.1, horizon_T=3.0)


def brute_root(c, lo, hi, iters=200):
    """Independent bisection oracle for u*cot(u) = c."""
    g = lambda u: u * math.cos(u) / math.sin(u) - c
    a, b = lo, hi
    fa = g(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = g(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def test_gaussian_limit_eigenvalues_closed_form():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    spec = build_spectrum(p, 3)
    expected = np.array([1, 3, 5]) * math.pi * p.sigma / (2.0 * math.sqrt(2.0) * p.f_bar)
    assert np.abs(spec.eigenvalues - expected).max() < 1e-10
    assert spec.regime == "diffusive"


def test_first_root_matches_brute_bisection():
    c = spread_coefficient(REF)
    assert c == pytest.approx(0.1 * math.tanh(0.1), rel=1e-15)
    u_star = brute_root(c, 1e-9, math.pi - 1e-9)
    omega = build_spectrum(REF, 1).eigenvalues[0]
    assert omega == pytest.approx(u_star / (math.sqrt(2.0) * 0.1), rel=1e-10)
    assert u_star < math.pi / 2


def test_large_risk_moves_first_root_to_next_bracket():
    p = ModelParams(alpha=0.8, beta=50.0, sigma=1.0, f_bar=0.1)
    c = spread_coefficient(p)
    assert c == pytest.approx(5.0 * math.tanh(5.0), rel=1e-15)
    assert c > 1.0
    u = math.sqrt(2.0) * build_spectrum(p, 1).eigenvalues[0] * p.f_bar / p.sigma
    assert math.pi < u < 1.5 * math.pi


def test_eigen_residual_vanishes_at_gaussian_roots():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    for k in (0, 1, 2):
        omega = (2 * k + 1) * math.pi * p.sigma / (2.0 * math.sqrt(2.0) * p.f_bar)
        assert abs(eigen_residual(omega, p)) < 1e-10


def test_eigen_residual_self_consistency():
    omega = build_spectrum(REF, 1).eigenvalues[0]
    assert abs(eigen_residual(omega, REF)) < 1e-10


def test_eigen_residual_pole():
    omega_pole = math.pi * REF.sigma / (math.sqrt(2.0) * REF.f_bar)
    with pytest.raises(PoleError):
        eigen_residual(omega_pole, REF)
    with pytest.raises(DomainError):
        eigen_residual(-1.0, REF)


def test_spectrum_ordering_and_residuals():
    spec = build_spectrum(REF, 50)
    assert np.all(np.diff(spec.eigenvalues) > 0)
    for omega in spec.eigenvalues:
        assert abs(eigen_residual(float(omega), REF)) < 1e-10
    # successive u-gaps shrink beyond the first
    us = math.sqrt(2.0) * spec.eigenvalues * REF.f_bar / REF.sigma
    gaps = np.diff(us)
    assert np.all(np.diff(gaps[1:]) <= 1e-9)


def test_bracket_exclusivity_by_sign_counting():
    for beta in (0.5, 5.0, 30.0):
        p = ModelParams(alpha=0.8, beta=beta, sigma=1.0, f_bar=0.1)
        spec = build_spectrum(p, 6)
        c = spread_coefficient(p)
        for lo, hi in spec.brackets:
            us = np.linspace(lo, hi, 400)
            vals = us * np.cos(us) / np.sin(us) - c
            flips = np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))
            assert flips == 1


def test_band_scaling_at_fixed_spread_coefficient():
    # same c = beta*f_bar*tanh(beta*f_bar): (beta=5, f_bar=0.2) vs (beta=10, f_bar=0.1)
    wide = ModelParams(alpha=0.8, beta=5.0, sigma=1.0, f_bar=0.2)
    narrow = ModelParams(alpha=0.8, beta=10.0, sigma=1.0, f_bar=0.1)
    assert spread_coefficient(wide) == pytest.approx(spread_coefficient(narrow), rel=1e-15)
    sw = build_spectrum(wide, 5)
    sn = build_spectrum(narrow, 5)
    u_w = math.sqrt(2.0) * sw.eigenvalues * wide.f_bar
    u_n = math.sqrt(2.0) * sn.eigenvalues * narrow.f_bar
    assert np.allclose(u_w, u_n, rtol=1e-10)
    # wider band: smaller eigenvalue separation
    assert np.all(np.diff(sw.eigenvalues) < np.diff(sn.eigenvalues))


def test_gaussian_limit_convergence_is_quadratic():
    base = build_spectrum(ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1), 1).eigenvalues[0]
    deltas = {}
    for beta in (0.0025, 0.005, 0.01):
        om = build_spectrum(ModelParams(alpha=0.8, beta=beta, sigma=1.0, f_bar=0.1), 1).eigenvalues[0]
        deltas[beta] = abs(om - base)
    C = deltas[0.005] / 0.005**2
    predicted = C * 0.01**2
    assert deltas[0.01] == pytest.approx(predicted, rel=0.05)
    assert deltas[0.0025] == pytest.approx(C * 0.0025**2, rel=0.05)


def test_relaxation_time_gaussian_case():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1, horizon_T=3.0)
    rep = relaxation_time(build_spectrum(p, 1))
    omega1 = math.pi / (2.0 * math.sqrt(2.0) * 0.1)
    assert rep.t_relax == pytest.approx(1.0 / (omega1**2 + 0.8), rel=1e-10)
    assert rep.feasible
    assert rep.lower_bound == pytest.approx(1.0 / ((math.pi / 0.1) ** 2 + 0.8), rel=1e-14)
    assert rep.upper_bound == pytest.approx(1.0 / ((math.pi / 0.2) ** 2 + 0.8), rel=1e-14)
    assert rep.lower_bound <= rep.t_relax


def test_relaxation_time_near_upper_bound_for_small_risk():
    # deep diffusive regime: t_relax tracks the stated upper bound up to the
    # sqrt(2) convention gap (factor <= 2 at sigma = 1)
    p = ModelParams(alpha=0.8, beta=0.01, sigma=1.0, f_bar=0.1, horizon_T=3.0)
    rep = relaxation_time(build_spectrum(p, 1))
    assert rep.upper_bound <= rep.t_relax <= 2.05 * rep.upper_bound


def test_relaxation_time_jumps_down_after_threshold():
    beta_e = regime_threshold(REF)
    below = relaxation_time(build_spectrum(ModelParams(alpha=0.8, beta=0.98 * beta_e, sigma=1.0, f_bar=0.1), 1))
    above = relaxation_time(build_spectrum(ModelParams(alpha=0.8, beta=1.02 * beta_e, sigma=1.0, f_bar=0.1), 1))
    assert above.t_relax < below.t_relax
    assert above.regime == "shifted" and below.regime == "diffusive"


def test_regime_threshold_values():
    assert regime_threshold(ModelParams(alpha=0.8, f_bar=0.1)) == pytest.approx(11.9968, rel=1e-4)
    assert regime_threshold(ModelParams(alpha=0.8, f_bar=0.02)) == pytest.approx(59.98, rel=1e-3)
    for f_bar in (0.02, 0.1, 0.15):
        be = regime_threshold(ModelParams(alpha=0.8, f_bar=f_bar))
        assert be > 1.0 / f_bar
        assert be * f_bar == pytest.approx(1.1996786402577338, abs=1e-10)


def test_regime_scan_single_flip():
    p = ModelParams(alpha=0.8, sigma=1.0, f_bar=0.15, horizon_T=3.0)
    beta_e = regime_threshold(p)
    grid = np.linspace(0.2 * beta_e, 1.8 * beta_e, 60)
    rows = regime_scan(p, grid)
    regimes = [r[3] for r in rows]
    flips = sum(1 for a, b in zip(regimes, regimes[1:]) if a != b)
    assert flips == 1
    i = regimes.index("shifted")
    assert rows[i][1] > rows[i - 1][1]  # Omega_1 jumps upward


def test_regime_scan_below_threshold_monotone():
    p = ModelParams(alpha=0.8, sigma=1.0, f_bar=0.1)
    grid = np.linspace(0.1, 0.8 * regime_threshold(p), 25)
    rows = regime_scan(p, grid)
    omegas = [r[1] for r in rows]
    assert all(r[3] == "diffusive" for r in rows)
    assert all(b < a for a, b in zip(omegas, omegas[1:]))


def test_regime_scan_above_threshold_slowly_varying():
    p = ModelParams(alpha=0.8, sigma=1.0, f_bar=0.1)
    grid = np.linspace(1.1 * regime_threshold(p), 4.0 * regime_threshold(p), 25)
    rows = regime_scan(p, grid)
    omegas = np.array([r[1] for r in rows])
    assert all(r[3] == "shifted" for r in rows)
    us = math.sqrt(2.0) * omegas * p.f_bar / p.sigma
    assert np.all((us > math.pi) & (us < 1.5 * math.pi))
    assert omegas.max() / omegas.min() < 1.45


def test_ou_asymptotic_spectrum():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    # vanishing reversion speed: pure k^2 ladder
    omegas = ou_asymptotic_spectrum(1e-12, 0.0, p, 3)
    ladder = np.array([1, 4, 9]) * math.pi * p.sigma**2 / (8.0 * p.f_bar**2)
    assert np.allclose(omegas, ladder, rtol=1e-9)
    # c0 arithmetic for mu=0, lambda=1
    omegas = ou_asymptotic_spectrum(1.0, 0.0, p, 2)
    c0 = 4.0 * 0.01 / 6.0
    assert omegas[0] == pytest.approx(math.pi / 0.08 + 0.5 + c0, rel=1e-14)
    # the first-mode relaxation estimate is the reciprocal of that value
    t_est = 1.0 / omegas[0]
    assert t_est == pytest.approx(1.0 / (math.pi * p.sigma**2 / (8 * p.f_bar**2) + 0.5 + c0), rel=1e-14)
    # a count of modes is an integer; numpy's are accepted
    assert np.array_equal(ou_asymptotic_spectrum(1.0, 0.0, p, np.int64(2)), omegas)
    for bad in (2.5, 2.0):
        with pytest.raises(DomainError, match="K must be an integer"):
            ou_asymptotic_spectrum(1.0, 0.0, p, bad)


def test_residual_gate_random_draws():
    rng = np.random.default_rng(99)
    for _ in range(25):
        p = ModelParams(
            alpha=float(rng.uniform(0.1, 250.0)),
            beta=float(rng.uniform(0.0, 60.0)),
            sigma=float(rng.uniform(0.5, 2.0)),
            f_bar=float(rng.uniform(0.02, 0.2)),
        )
        spec = build_spectrum(p, 6)
        for omega in spec.eigenvalues:
            assert abs(eigen_residual(float(omega), p)) < 1e-10
        assert (spec.regime == "shifted") == (spread_coefficient(p) > 1.0)


def test_empty_spectra_refused():
    with pytest.raises(DomainError, match="K must be an integer >= 1"):
        build_spectrum(REF, 0)
    with pytest.raises(DomainError, match="K must be an integer >= 1"):
        ou_asymptotic_spectrum(1.0, 0.0, REF, 0)
    # a non-integral count (or a bool) met numpy's bare TypeError; the transient builds on the spectrum
    for build, bad in ((build_spectrum, 2.5), (build_spectrum, 2.0), (build_spectrum, True),
                       (build_transient, 2.5)):
        with pytest.raises(DomainError, match="K must be an integer"):
            build(REF, bad)
    empty = dataclasses.replace(build_spectrum(REF, 1), u=np.empty(0), brackets=())
    with pytest.raises(DomainError, match="nonempty spectrum"):
        relaxation_time(empty)


@pytest.mark.parametrize("f_bar", [1e-6, 0.1, 100.0])
def test_spread_coefficient_past_every_bracket_refused(f_bar):
    # below _C_MAX all 240 brackets hold their root; above it a valid
    # ModelParams is refused, by the spectrum and by the risk sweep alike
    below = ModelParams(alpha=0.8, beta=0.999 * _C_MAX / f_bar, f_bar=f_bar)
    assert len(build_spectrum(below, 240)) == 240
    above = ModelParams(alpha=0.8, beta=1.001 * _C_MAX / f_bar, f_bar=f_bar)
    with pytest.raises(DomainError, match="spread coefficient"):
        build_spectrum(above, 1)
    with pytest.raises(DomainError, match="spread coefficient"):
        regime_scan(above, [1.0, above.beta])


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    spread=st.one_of(st.just(0.0), log_uniform(1e-8, _C_MAX)),
    sigma=log_uniform(1e-3, 1e2),
    f_bar=log_uniform(1e-12, 1e3),
    K=st.sampled_from([1, 50, 240]),
)
def test_spectrum_over_the_accepted_box(spread, sigma, f_bar, K):
    # spread is beta f_bar; c = spread tanh(spread) runs from 0 up to _C_MAX.
    # The residual floor is the one of a root rounded to the nearest double.
    p = ModelParams(alpha=0.8, beta=spread / f_bar, sigma=sigma, f_bar=f_bar)
    c = spread_coefficient(p)
    assume(c <= _C_MAX)
    spec = build_spectrum(p, K)
    omega = spec.eigenvalues
    lo, hi = np.array(spec.brackets).T
    scale = sigma / (math.sqrt(2.0) * f_bar)  # as build_spectrum maps u to Omega
    assert np.all((scale * lo <= omega) & (omega <= scale * hi))
    assert np.all(np.diff(omega) > 0.0)
    u = math.sqrt(2.0) * omega * f_bar / sigma
    sn, cs = np.sin(u), np.cos(u)
    floor = 8.0 * np.finfo(float).eps * u * np.abs(cs / sn - u / (sn * sn))
    assert np.all(np.abs(u * cs / sn - c) <= 1e-12 + floor)
