import concurrent.futures
import dataclasses
import json
import math
import os
import statistics
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import targetzone.mc

from targetzone import (
    DensityEstimate,
    DomainError,
    ModelParams,
    RngStream,
    SimConfig,
    build_transient,
    classify_shape,
    estimate_density,
    eval_full,
    eval_stationary,
    eval_transient,
    exchange_density,
    exchange_paths,
    regime_threshold,
    simulate,
)
from targetzone.mc import _local_maxima, _reflect_into


def quiet_config(**kw):
    base = dict(
        params=ModelParams(alpha=200.0, beta=0.0, sigma=1.0, f_bar=0.1, horizon_T=1.0),
        n_paths=400,
        dt=1 / 200,
        drift_mode="tanh",
        intervention="pure_reflection",
        seed=1,
        kappa=1.0,
    )
    base.update(kw)
    return SimConfig(**base)


def trapz_norm(vals, centers):
    """Oracle densities restated under the bin-center trapezoid convention."""
    return vals / np.trapezoid(vals, centers)


# ---------------------------------------------------------------- config


BAD_CONFIG = (
    (dict(n_paths=0), "n_paths"),
    (dict(n_paths=2.5), "n_paths"),
    (dict(seed=-1), "seed"),
    (dict(seed=1.5), "seed"),
    (dict(dt=-0.1), "dt must"),
    (dict(dt=math.nan), "dt must"),
    (dict(dt=math.inf), "dt must"),
    # 1e300 steps, and horizon_T / dt = inf: no addressable path buffer
    (dict(dt=1e-300), "path buffer"),
    (dict(dt=5e-324), "path buffer"),
    (dict(drift_mode="levy"), "drift_mode"),
    (dict(intervention="none"), "intervention"),
    (dict(kappa=0.0), "kappa"),
    (dict(kappa=math.nan), "kappa"),
)


def test_config_validation():
    valid = quiet_config()
    for bad, message in BAD_CONFIG:
        with pytest.raises(DomainError, match=message):
            quiet_config(**bad)
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(valid, **bad)
    # numpy's limit on the (n_steps + 1) x n_paths float64 buffer, at one step
    limit = (np.iinfo(np.intp).max + 1) // 16
    assert quiet_config(dt=1.0, n_paths=limit - 1).n_steps() == 1
    with pytest.raises(DomainError, match="path buffer"):
        quiet_config(dt=1.0, n_paths=limit)


def test_step_frequency_mismatch_warns():
    with pytest.warns(UserWarning, match="dt\\*alpha") as record:
        simulate(quiet_config(dt=1.0, n_paths=4))
    assert record[0].filename == __file__


def test_noise_threads_capped_at_cpu_count(monkeypatch):
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = quiet_config(n_paths=4 * targetzone.mc.BLOCK)
    ens = simulate(cfg, threads=64)
    assert asked == [2]
    assert np.array_equal(ens.fundamentals, simulate(cfg).fundamentals)


@pytest.mark.parametrize("intervention", ["law", "pure_reflection"])
def test_tanh_step_at_zero_beta_matches_the_heun_expression(intervention):
    # simulate skips the drift at beta = 0; stepping the same noise through
    # the full Heun expression must give the same bytes (so -0.0 != 0.0)
    cfg = quiet_config(n_paths=300, seed=4, intervention=intervention)
    ens = simulate(cfg)
    n_steps, dt, beta = cfg.n_steps(), cfg.resolved_dt(), cfg.params.beta
    assert beta == 0.0 and cfg.drift_mode == "tanh"
    ref = np.empty((n_steps + 1, cfg.n_paths))
    for block in range(-(-cfg.n_paths // targetzone.mc.BLOCK)):
        targetzone.mc._fill_block(cfg.seed, block, ref, None)
    ref[0] = 0.0
    radius = cfg.kappa * cfg.params.f_bar
    n_interventions = 0
    for j in range(n_steps):
        f = ref[j]
        b1 = beta * np.tanh(beta * f)
        b2 = beta * np.tanh(beta * (f + b1 * dt))
        pred = ref[j + 1] * (cfg.params.sigma * math.sqrt(dt)) + (f + 0.5 * (b1 + b2) * dt)
        out = np.abs(pred) > radius
        n_interventions += np.count_nonzero(out)
        if intervention == "law":
            pred[out] = np.clip(pred[out], -radius, radius)
        else:
            pred[out] = _reflect_into(pred[out], radius)
        ref[j + 1] = pred
    assert n_interventions > 0
    assert ens.n_interventions == n_interventions
    assert np.ascontiguousarray(ens.fundamentals.T).tobytes() == ref.tobytes()


def test_default_dt_is_update_time():
    cfg = quiet_config(dt=None)
    assert cfg.resolved_dt() == pytest.approx(1.0 / 200.0)


# ---------------------------------------------------------- determinism


def test_seed_determinism_and_thread_independence():
    a = simulate(quiet_config(seed=99))
    b = simulate(quiet_config(seed=99))
    c = simulate(quiet_config(seed=99), threads=4)
    assert np.array_equal(a.fundamentals, b.fundamentals)
    assert np.array_equal(a.fundamentals, c.fundamentals)
    d = simulate(quiet_config(seed=100))
    assert not np.array_equal(a.fundamentals, d.fundamentals)


@pytest.mark.parametrize("drift_mode", ["tanh", "bernoulli"])
def test_noise_is_per_path_not_per_ensemble(monkeypatch, drift_mode):
    # 300 and 600 paths both end in a partial 256-path block; path i's
    # noise, and so its whole trajectory, depends only on (seed, i)
    streams = []
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: streams.append(self.stream_id) or generator(self))
    # beta > 0, so a bernoulli path's sign shows in its fundamentals
    p = ModelParams(alpha=200.0, beta=5.0, sigma=1.0, f_bar=0.1, horizon_T=1.0)
    small = simulate(quiet_config(params=p, drift_mode=drift_mode, n_paths=300, seed=5))
    assert streams == [0, 1]
    streams.clear()
    large = simulate(quiet_config(params=p, drift_mode=drift_mode, n_paths=600, seed=5),
                     threads=3)
    assert sorted(streams) == [0, 1, 2]
    assert np.array_equal(small.fundamentals, large.fundamentals[:300])


def test_band_containment_and_intervention_log():
    ens = simulate(quiet_config(n_paths=300, seed=3, intervention="law"))
    radius = ens.config.kappa * ens.config.params.f_bar
    f = ens.fundamentals
    assert np.abs(f).max() <= radius
    # the law clamps every escape onto the trigger boundary and nothing else
    assert ens.n_interventions > 0
    assert ens.n_interventions == np.sum(np.abs(f[:, 1:]) == radius)


def test_bernoulli_drift_under_the_law_is_clamped():
    p = ModelParams(alpha=200.0, beta=5.0, sigma=1.0, f_bar=0.1, horizon_T=1.0)
    ens = simulate(quiet_config(params=p, n_paths=300, seed=3, intervention="law",
                                drift_mode="bernoulli"))
    f = ens.fundamentals
    assert np.abs(f).max() <= 0.1
    assert ens.n_interventions > 0
    assert ens.n_interventions == np.sum(np.abs(f[:, 1:]) == 0.1)


def _mirror(x, r):
    """Reference reflection: one mirror per pass until every value is inside."""
    out = x.copy()
    while np.any(np.abs(out) > r):
        out = np.where(out > r, 2.0 * r - out, out)
        out = np.where(out < -r, -2.0 * r - out, out)
    return out


def test_reflection_fold_matches_iterative_mirror():
    rng = np.random.default_rng(12)
    n = 100_000
    for r in (0.02, 0.09, 0.1):
        # a single fold brings these back: the closed form rounds like one mirror
        x = rng.uniform(r, 3.0 * r, n) * rng.choice([-1.0, 1.0], n)
        x = x[np.abs(x) > r]
        assert np.array_equal(_reflect_into(x, r), _mirror(x, r))
    # fig8's trigger radius, where multi-fold overshoots occur
    r = 0.02
    x = rng.uniform(3.0 * r, 50.0 * r, n) * rng.choice([-1.0, 1.0], n)
    out = _reflect_into(x, r)
    assert np.abs(out - _mirror(x, r)).max() <= 1e-15
    assert np.abs(out).max() <= r + 1e-15


def _reflect_mod(values, radius):
    """The fold with its parity taken by np.mod, the form _reflect_into replaced."""
    m = np.floor((values + radius) / (2.0 * radius))
    shift = 2.0 * radius * m
    return np.where(np.mod(m, 2.0) != 0.0, shift - values, values - shift)


def test_fold_parity_matches_mod_form_bitwise():
    rng = np.random.default_rng(13)
    k = np.arange(200.0)
    for r in (0.02, 0.09, 0.1, 0.3):
        odd = (2.0 * k + 1.0) * r
        x = np.concatenate([
            [r, -r, 3.0 * r, -3.0 * r, 0.0, -0.0],
            odd, -odd, np.nextafter(odd, 0.0), np.nextafter(-odd, 0.0),
            # folded up to a million times
            rng.uniform(-2e6, 2e6, 20_000) * r,
        ])
        assert _reflect_into(x, r).tobytes() == _reflect_mod(x, r).tobytes()
    # the parity forms themselves, on finite integers up to 2^60 and both zeros
    m = np.concatenate([np.arange(-1e6, 1e6 + 1.0), [2.0**53 + 2.0, -(2.0**60), 0.0, -0.0]])
    assert np.array_equal(m != 2.0 * np.floor(0.5 * m), np.mod(m, 2.0) != 0.0)


def test_bernoulli_signs_recorded_once_per_path():
    # free space, so no path intervenes: the same seed at beta = 0 draws the
    # same signs and normals, and the gap between the two runs is the drift
    # beta * sign * t, one constant sign per path
    beta = 2.0
    runs = [
        simulate(quiet_config(
            params=ModelParams(alpha=200.0, beta=b, sigma=1.0, f_bar=50.0, horizon_T=1.0),
            drift_mode="bernoulli", n_paths=600, seed=8))
        for b in (beta, 0.0)
    ]
    assert runs[0].n_interventions == runs[1].n_interventions == 0
    gap = runs[0].fundamentals - runs[1].fundamentals
    signs = np.sign(gap[:, -1])
    assert np.abs(gap - beta * np.multiply.outer(signs, runs[0].times)).max() < 1e-12
    assert 0.35 < np.mean(signs == 1.0) < 0.65


# ------------------------------------------------------ density oracles


def test_reflected_brownian_motion_is_uniform():
    p = ModelParams(alpha=200.0, beta=0.0, sigma=1.0, f_bar=0.1, horizon_T=1.0)
    ens = simulate(SimConfig(params=p, n_paths=1500, dt=1 / 200, drift_mode="tanh",
                             intervention="pure_reflection", seed=21, kappa=1.0))
    d = estimate_density(ens.fundamentals[:, 1:].ravel(), 41, value_range=(-0.1, 0.1))
    oracle = trapz_norm(np.ones_like(d.centers), d.centers)
    assert np.trapezoid(np.abs(d.density - oracle), d.centers) < 0.05


def reflected_bm_cdf(x, s, r):
    """CDF at x in [-r, r] of N(0, s^2) folded into [-r, r], by images.

    The fold takes y to y - 4nr on [-r + 4nr, r + 4nr] and to 2r - (y - 4nr)
    on [r + 4nr, 3r + 4nr], so P(X <= x) = 1 + sum_n [Phi((x + 4nr) / s)
    - Phi((2r - x + 4nr) / s)]; a term is below 1e-22 once both its
    arguments exceed 10 in size.
    """
    c = 1.0 / (s * math.sqrt(2.0))
    n_max = math.ceil((10.0 * s + 3.0 * r) / (4.0 * r))
    return 1.0 + sum(
        0.5 * (math.erf((x + 4 * n * r) * c) - math.erf((2 * r - x + 4 * n * r) * c))
        for n in range(-n_max, n_max + 1)
    )


def ks_to_reflected_bm(sample, s, r):
    """Kolmogorov-Smirnov distance of ``sample`` to reflected_bm_cdf.

    The CDF is interpolated from 1001 nodes over [-r, r] (error below 1e-6);
    a value outside [-r, r] meets CDF 0 or 1 there.
    """
    nodes = np.linspace(-r, r, 1001)
    x = np.sort(sample)
    cdf = np.interp(x, nodes, [reflected_bm_cdf(v, s, r) for v in nodes])
    n = x.size
    return max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())


# At beta = 0 a pure_reflection path is free Brownian motion folded into
# [-r, r], r = kappa f_bar, exactly in law at every dt: each column at time
# t is N(0, sigma^2 t) folded.  fig6b's sigma and f_bar; tau = (r / sigma)^2
# is the time the noise takes to spread across r.  dt runs from 4 tau (each
# step folds, often more than once) through tau down to fig6b's 1/alpha.
# At beta = 0 alpha enters the paths only through the default dt = 1/alpha,
# so each case sets alpha = 1/dt.  Seeds: case i of RBM_CASES (from 1) uses
# seed i, fixed before the first run.  Eight columns are tested, each at
# the 0.1% Kolmogorov critical value, so correct code fails one of them
# with probability under 1%.
RBM_SIGMA, RBM_F_BAR, RBM_PATHS = 0.1, 0.1, 20_000
RBM_KS_CRIT = math.sqrt(-math.log(0.001 / 2.0) / (2.0 * RBM_PATHS))
RBM_CASES = [(kappa, dt_over_tau) for kappa in (0.9, 1.0) for dt_over_tau in (4.0, 1.0, None)]


def test_image_series_limits():
    # little spread: the Gaussian CDF; much spread: the uniform law on [-r, r]
    r = 0.1
    for x in (-0.1, -0.03, 0.0, 0.05, 0.1):
        gauss = 0.5 * (1.0 + math.erf(x / (0.01 * math.sqrt(2.0))))
        assert reflected_bm_cdf(x, 0.01, r) == pytest.approx(gauss, abs=1e-15)
        assert reflected_bm_cdf(x, 10.0, r) == pytest.approx((x + r) / (2.0 * r), abs=1e-12)


@pytest.mark.parametrize("seed, kappa, dt_over_tau",
                         [(i, *case) for i, case in enumerate(RBM_CASES, 1)])
def test_reflected_bm_columns_match_the_image_series(seed, kappa, dt_over_tau):
    r = kappa * RBM_F_BAR
    tau = (r / RBM_SIGMA) ** 2
    dt = 1 / 200 if dt_over_tau is None else dt_over_tau * tau
    p = ModelParams(alpha=1.0 / dt, beta=0.0, sigma=RBM_SIGMA, f_bar=RBM_F_BAR,
                    horizon_T=max(dt, tau))
    ens = simulate(SimConfig(params=p, n_paths=RBM_PATHS, drift_mode="tanh",
                             intervention="pure_reflection", seed=seed, kappa=kappa))
    n_steps = ens.times.size - 1
    for j in sorted({n_steps // 4, n_steps} - {0}):
        s = RBM_SIGMA * math.sqrt(ens.times[j])
        d = ks_to_reflected_bm(ens.fundamentals[:, j], s, r)
        assert d < RBM_KS_CRIT, (j, d)


# The pooled window: estimate_density over columns 10..40 of a 40-step run,
# t in [10 dt, 40 dt], against the image-series bin probabilities averaged
# over those columns.  dt = tau/40 makes the window [tau/4, tau], where the
# band is being reached; dt = 4 tau folds each step, often more than once.
# Columns along one path are correlated, so each path's window occupancy
# vector (the share of its window columns in each bin) is one independent
# draw, and each bin's pooled mass is tested against its standard error
# across paths at a Bonferroni 0.1% bound over the bins.  Seeds: case i of
# WINDOW_CASES (from 1) uses seed 10 + i, fixed before the first run.
WINDOW_BINS, WINDOW_STEPS = 20, 40
WINDOW_Z = statistics.NormalDist().inv_cdf(1.0 - 0.001 / (2 * WINDOW_BINS))
WINDOW_CASES = [(0.9, 1 / 40), (1.0, 4.0)]


@pytest.mark.parametrize("seed, kappa, dt_over_tau",
                         [(10 + i, *case) for i, case in enumerate(WINDOW_CASES, 1)])
def test_reflected_bm_pooled_window_matches_the_image_series(seed, kappa, dt_over_tau):
    r = kappa * RBM_F_BAR
    tau = (r / RBM_SIGMA) ** 2
    dt = dt_over_tau * tau
    p = ModelParams(alpha=1.0 / dt, beta=0.0, sigma=RBM_SIGMA, f_bar=RBM_F_BAR,
                    horizon_T=WINDOW_STEPS * dt)
    ens = simulate(SimConfig(params=p, n_paths=RBM_PATHS, drift_mode="tanh",
                             intervention="pure_reflection", seed=seed, kappa=kappa))
    cols = slice(WINDOW_STEPS // 4, WINDOW_STEPS + 1)
    window = ens.fundamentals[:, cols]
    assert np.abs(window).max() <= r  # pure_reflection keeps every value in the band
    masses = estimate_density(window, WINDOW_BINS, (-r, r)).bin_masses()
    edges = np.linspace(-r, r, WINDOW_BINS + 1)
    want = np.mean([np.diff([reflected_bm_cdf(e, RBM_SIGMA * math.sqrt(t), r) for e in edges])
                    for t in ens.times[cols]], axis=0)
    # occupancy vectors: the last bin is closed, as in estimate_density
    idx = np.minimum(np.searchsorted(edges, window, "right") - 1, WINDOW_BINS - 1)
    rows = idx + WINDOW_BINS * np.arange(RBM_PATHS)[:, None]
    occupancy = np.bincount(rows.ravel(), minlength=RBM_PATHS * WINDOW_BINS).reshape(RBM_PATHS, -1)
    occupancy = occupancy / window.shape[1]
    assert np.allclose(masses, occupancy.mean(axis=0), rtol=0.0, atol=1e-12)
    z = (masses - want) / (occupancy.std(axis=0, ddof=1) / math.sqrt(RBM_PATHS))
    assert np.abs(z).max() < WINDOW_Z, z


def inverse_by_bisection(x_of_f, targets, r):
    """f in [-r, r] with x_of_f(f) = targets, for an x_of_f strictly increasing there.

    A target beyond x_of_f(-r) or x_of_f(r) gives that end; 60 halvings
    leave a bracket of 2r / 2^60.
    """
    lo, hi = np.full(len(targets), -r), np.full(len(targets), r)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = x_of_f(mid) < targets
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# The same pooled window through exchange_density, which bins X(t, f), not
# f: columns 1..39 of a 40-step run, the horizon column left out because
# X(T, .) is 0 up to the parity error and so not increasing.  Each case's
# window holds stationary columns, which go through the bin table, and late
# columns, which go through exchange_paths.  Where X(t, .) is strictly
# increasing on [-r, r], P(X in [a, b)) = F_t(X(t, .)^-1(b)) - F_t(X(t,
# .)^-1(a)) with F_t the image-series CDF; X_S^-1 and X(t, .)^-1 are found by
# bisection on eval_stationary and eval_full.  The range is [-x, x], x the
# largest X(t, r) over the window (X(t, .) is odd at beta = 0), so that
# every value is binned.  Per-path occupancy and the Bonferroni bound are
# as above.  Seeds: case i of WINDOW_CASES (from 1) uses seed 20 + i,
# fixed before the first run.
@pytest.mark.parametrize("seed, kappa, dt_over_tau",
                         [(20 + i, *case) for i, case in enumerate(WINDOW_CASES, 1)])
def test_reflected_bm_pooled_window_through_exchange_density(seed, kappa, dt_over_tau):
    r = kappa * RBM_F_BAR
    tau = (r / RBM_SIGMA) ** 2
    dt = dt_over_tau * tau
    p = ModelParams(alpha=1.0 / dt, beta=0.0, sigma=RBM_SIGMA, f_bar=RBM_F_BAR,
                    horizon_T=WINDOW_STEPS * dt)
    ens = simulate(SimConfig(params=p, n_paths=RBM_PATHS, drift_mode="tanh",
                             intervention="pure_reflection", seed=seed, kappa=kappa))
    cols = slice(1, WINDOW_STEPS)
    ens = dataclasses.replace(ens, times=ens.times[cols], fundamentals=ens.fundamentals[:, cols])
    ts = build_transient(p, K=30)
    first = first_late(ens, ts)
    assert 0 < first < len(ens.times)  # both routes are taken
    grid = np.linspace(-r, r, 2001)
    for t in ens.times:
        assert np.all(np.diff(eval_full(ts, float(t), grid)) > 0.0), t
    x_hi = max(eval_full(ts, float(t), np.array([r]))[0] for t in ens.times)
    masses = exchange_density(ens, ts, WINDOW_BINS, (-x_hi, x_hi)).bin_masses()
    edges = np.linspace(-x_hi, x_hi, WINDOW_BINS + 1)

    def bin_probabilities(t, f_edges):
        s = RBM_SIGMA * math.sqrt(t)
        return np.diff([reflected_bm_cdf(e, s, r) for e in f_edges])

    stationary_edges = inverse_by_bisection(lambda f: eval_stationary(ts.stationary, f), edges, r)
    want = np.mean([bin_probabilities(t, stationary_edges) for t in ens.times[:first]]
                   + [bin_probabilities(t, inverse_by_bisection(lambda f: eval_full(ts, float(t), f), edges, r))
                      for t in ens.times[first:]], axis=0)
    x = exchange_paths(ens, ts)
    idx = np.minimum(np.searchsorted(edges, x, "right") - 1, WINDOW_BINS - 1)
    rows = idx + WINDOW_BINS * np.arange(RBM_PATHS)[:, None]
    occupancy = np.bincount(rows.ravel(), minlength=RBM_PATHS * WINDOW_BINS).reshape(RBM_PATHS, -1)
    occupancy = occupancy / x.shape[1]
    assert np.allclose(masses, occupancy.mean(axis=0), rtol=0.0, atol=1e-12)
    z = (masses - want) / (occupancy.std(axis=0, ddof=1) / math.sqrt(RBM_PATHS))
    assert np.abs(z).max() < WINDOW_Z, z


def test_tanh_drift_reflected_matches_zero_flux_density():
    # stationary density of drift beta*tanh(beta f) with diffusion sigma:
    # p(f) proportional to exp(2/sigma^2 * integral of drift) = cosh(beta f)^(2/sigma^2)
    p = ModelParams(alpha=200.0, beta=3.0, sigma=1.0, f_bar=0.3, horizon_T=1.5)
    ens = simulate(SimConfig(params=p, n_paths=2000, dt=1 / 200, drift_mode="tanh",
                             intervention="pure_reflection", seed=22, kappa=1.0))
    vals = ens.fundamentals[:, 80:].ravel()
    d = estimate_density(vals, 41, value_range=(-0.3, 0.3))
    oracle = trapz_norm(np.cosh(p.beta * d.centers) ** (2.0 / p.sigma**2), d.centers)
    assert np.trapezoid(np.abs(d.density - oracle), d.centers) < 0.08


def test_free_space_bernoulli_matches_two_gaussian_mixture():
    # huge band = no boundary contact; Euler is exact for a constant drift
    beta, sigma, t_ref = 1.0, 1.0, 0.5
    p = ModelParams(alpha=200.0, beta=beta, sigma=sigma, f_bar=50.0, horizon_T=1.0)
    ens = simulate(SimConfig(params=p, n_paths=2000, dt=1 / 200, drift_mode="bernoulli",
                             intervention="pure_reflection", seed=23, kappa=1.0))
    assert ens.n_interventions == 0
    j = int(round(t_ref * 200))
    x = np.sort(ens.fundamentals[:, j])
    sd = sigma * math.sqrt(t_ref)
    phi = lambda z: 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    cdf = 0.5 * phi((x - beta * t_ref) / sd) + 0.5 * phi((x + beta * t_ref) / sd)
    n = len(x)
    ks = max(
        np.abs(np.arange(1, n + 1) / n - cdf).max(),
        np.abs(np.arange(0, n) / n - cdf).max(),
    )
    assert ks < 1.628 / math.sqrt(n)


def test_bernoulli_marginal_is_symmetric():
    p = ModelParams(alpha=200.0, beta=2.0, sigma=1.0, f_bar=0.2, horizon_T=1.0)
    ens = simulate(SimConfig(params=p, n_paths=5000, dt=1 / 200, drift_mode="bernoulli",
                             intervention="pure_reflection", seed=24, kappa=1.0))
    pooled = ens.fundamentals[:, 20:].ravel()
    skew = np.mean(pooled**3) / np.mean(pooled**2) ** 1.5
    assert abs(skew) < 0.05


def test_tanh_heun_step_matches_the_discrete_second_moment():
    # at sigma 1e-4, beta f stays below 0.05, so tanh is linear to about 4e-4
    # and the Heun step is f' = g f + sigma sqrt(dt) Z with h = beta^2 dt and
    # g = 1 + h + h^2 / 2; hence E f_n^2 = sigma^2 dt (g^2n - 1) / (g^2 - 1).
    # 5000 paths give a standard error of about 1.6%.  Euler (g = 1 + h)
    # reads 0.613, a second stage at f + b1 dt / 2 reads 0.783, and noise
    # scaled by 1.05 reads 1.1025 (Kloeden & Platen 1992 on weak schemes)
    p = ModelParams(alpha=200.0, beta=5.0, sigma=1e-4, f_bar=0.1, horizon_T=0.2)
    cfg = SimConfig(params=p, n_paths=5000, drift_mode="tanh", seed=1, kappa=1.0)
    ens = simulate(cfg)
    n, dt = cfg.n_steps(), cfg.resolved_dt()
    assert n == 40 and ens.n_interventions == 0
    h = p.beta**2 * dt
    g = 1.0 + h + 0.5 * h**2
    expected = p.sigma**2 * dt * (g ** (2 * n) - 1.0) / (g**2 - 1.0)
    assert np.mean(ens.fundamentals[:, -1] ** 2) / expected == pytest.approx(1.0, abs=0.08)


def test_projection_scheme_weak_error_is_half_order():
    # leaning-against-the-wind clamp = projected Euler: terminal-state error
    # against the uniform law decays like sqrt(dt)
    sigma, fbar, T = 1.0, 0.5, 1.5
    dts = [1 / 50, 1 / 200, 1 / 800]
    errs = []
    for dt in dts:
        p = ModelParams(alpha=1.0 / dt, beta=0.0, sigma=sigma, f_bar=fbar, horizon_T=T)
        ens = simulate(SimConfig(params=p, n_paths=40000, dt=dt, drift_mode="tanh",
                                 intervention="law", seed=77, kappa=1.0))
        idx = [int(round(t / dt)) for t in (0.5, 0.75, 1.0, 1.25, 1.5)]
        d = estimate_density(ens.fundamentals[:, idx].ravel(), 21, value_range=(-fbar, fbar))
        oracle = trapz_norm(np.ones_like(d.centers), d.centers)
        errs.append(np.trapezoid(np.abs(d.density - oracle), d.centers))
    assert errs[0] > errs[1] > errs[2]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.3 <= slope <= 0.8


# ------------------------------------------------------- exchange paths


def test_exchange_paths_terminal_parity():
    p = ModelParams(alpha=200.0, beta=1.0, sigma=0.1, f_bar=0.1, horizon_T=1.0)
    ts = build_transient(p, K=100)
    ens = simulate(SimConfig(params=p, n_paths=50, dt=1 / 200, drift_mode="tanh",
                             intervention="pure_reflection", seed=31, kappa=1.0))
    X = exchange_paths(ens, ts)
    assert np.abs(X[:, -1]).max() < 1e-3
    # early columns keep no mode: X is exactly the stationary map there
    assert np.array_equal(X[:, 10], eval_stationary(ts.stationary, ens.fundamentals[:, 10]))


def full_transient(ts, t, f):
    """X*(T - t, f) summed over all K modes, with no mode cut."""
    p = ts.spectrum.params
    basis = np.sin(np.multiply.outer(f, ts.spectrum.u / p.f_bar))
    return basis @ (np.exp(-ts.decay_rates() * (p.horizon_T - t)) * ts.coeffs) / np.cosh(p.beta * f)


def cut_tolerance(ts):
    """What the mode cut may drop, 1e-15 sum_k |c_k|, plus a few ulps of that scale for rounding."""
    scale = float(np.sum(np.abs(ts.coeffs)))
    return 1e-15 * scale + 4.0 * np.finfo(float).eps * scale


def test_exchange_paths_matches_columnwise_reference():
    # the time-major kernel against X_S + the all-K-mode X* evaluated one path
    # column at a time, in each regime: they differ by the transient's mode
    # cut, at most 1e-15 sum_k |c_k|, and rounding
    base = ModelParams(alpha=200.0, beta=0.0, sigma=0.1, f_bar=0.1, horizon_T=0.5)
    beta_e = regime_threshold(base)
    regimes = set()
    for beta in (0.5 * beta_e, 2.0 * beta_e):
        p = ModelParams(alpha=200.0, beta=beta, sigma=0.1, f_bar=0.1, horizon_T=0.5)
        ts = build_transient(p, K=30)
        regimes.add(ts.spectrum.regime)
        ens = simulate(SimConfig(params=p, n_paths=40, dt=1 / 200, drift_mode="tanh",
                                 intervention="pure_reflection", seed=34, kappa=1.0))
        X = exchange_paths(ens, ts)
        assert X.shape == ens.fundamentals.shape
        # no late column's basis outlives the call, to sit beside the caller's next map
        assert not ts._slot
        for j, t in enumerate(ens.times):
            col = np.ascontiguousarray(ens.fundamentals[:, j])
            t = min(float(t), p.horizon_T)
            ref = eval_stationary(ts.stationary, col) + full_transient(ts, t, col)
            assert np.abs(X[:, j] - ref).max() <= cut_tolerance(ts), (beta, j)
    assert regimes == {"diffusive", "shifted"}


@pytest.mark.parametrize("beta, kappa", [(0.0, 0.9), (50.0, 0.2)])
def test_exchange_paths_keeps_shortest_weighted_prefix(monkeypatch, beta, kappa):
    # fig6b and fig8: each time slice evaluates the shortest prefix of modes
    # whose dropped bounds |c_k| exp(-(Omega_k^2 + rho) tau) sum to at most
    # 1e-15 sum_k |c_k|, as the transient's own cut counts them row by row
    p = ModelParams(alpha=200.0, beta=beta, sigma=0.1, f_bar=0.1, horizon_T=3.0)
    K = 50
    ts = build_transient(p, K=K)
    ens = simulate(SimConfig(params=p, n_paths=6, dt=1 / 200, drift_mode="tanh",
                             intervention="pure_reflection", seed=35, kappa=kappa))
    kept, cut = {}, targetzone.transient._kept_modes

    def spy(ts, times):
        # the rows eval_transient sums; exchange_paths' own column mask goes
        # through the name mc imported, which stays unspied
        counts = cut(ts, times)
        kept.update(zip(times.tolist(), counts.tolist()))
        return counts

    monkeypatch.setattr(targetzone.transient, "_kept_modes", spy)
    X = exchange_paths(ens, ts)
    rates, amps = ts.decay_rates(), np.abs(ts.coeffs)
    threshold = 1e-15 * float(np.sum(amps))
    for j, t in enumerate(ens.times):
        t = min(float(t), p.horizon_T)
        bounds = amps * np.exp(-rates * (p.horizon_T - t))
        # a transient evaluation exactly where the all-K sum passes the threshold
        assert (t in kept) == (float(np.sum(bounds)) > threshold), j
        k = kept.pop(t, 0)
        assert math.fsum(bounds[k:]) <= threshold, j
        assert k == 0 or math.fsum(bounds[k - 1 :]) > threshold, j
        assert k < K or t == p.horizon_T, j
        col = np.ascontiguousarray(ens.fundamentals[:, j])
        ref = eval_stationary(ts.stationary, col) + full_transient(ts, t, col)
        assert np.abs(X[:, j] - ref).max() <= cut_tolerance(ts), j
    assert not kept


def test_exchange_paths_pinned_at_parity():
    import dataclasses

    p = ModelParams(alpha=200.0, beta=1.0, sigma=0.1, f_bar=0.1, horizon_T=1.0)
    ts = build_transient(p, K=20)
    cfg = SimConfig(params=p, n_paths=3, dt=1 / 200, drift_mode="tanh",
                    intervention="pure_reflection", seed=32, kappa=1.0)
    ens = simulate(cfg)
    pinned = dataclasses.replace(ens, fundamentals=np.zeros_like(ens.fundamentals))
    X = exchange_paths(pinned, ts)
    assert np.abs(X).max() == 0.0


def test_exchange_paths_requires_shared_params():
    p = ModelParams(alpha=200.0, beta=1.0, sigma=0.1, f_bar=0.1, horizon_T=1.0)
    other = ModelParams(alpha=150.0, beta=1.0, sigma=0.1, f_bar=0.1, horizon_T=1.0)
    ens = simulate(SimConfig(params=p, n_paths=3, dt=1 / 200, drift_mode="tanh",
                             intervention="pure_reflection", seed=33, kappa=1.0))
    with pytest.raises(DomainError):
        exchange_paths(ens, build_transient(other, K=5))


# ----------------------------------------------------- exchange density


def density_ensemble(beta=5.0, intervention="pure_reflection", drift_mode="tanh",
                     kappa=1.0, window=(0.0, 1.0), n_paths=300, seed=36):
    """Small ensemble over the columns of ``window`` and its transient."""
    p = ModelParams(alpha=200.0, beta=beta, sigma=0.1, f_bar=0.1, horizon_T=1.0)
    ens = simulate(SimConfig(params=p, n_paths=n_paths, drift_mode=drift_mode,
                             intervention=intervention, seed=seed, kappa=kappa))
    n = len(ens.times) - 1
    j0, j1 = int(window[0] * n), int(window[1] * n) + 1
    ens = dataclasses.replace(ens, times=ens.times[j0:j1], fundamentals=ens.fundamentals[:, j0:j1])
    return ens, build_transient(p, K=30)


def first_late(ens, ts):
    """Index of the first column that keeps a transient mode; the column count if none does."""
    kept = targetzone.mc._kept_modes(ts, np.minimum(ens.times, ts.spectrum.params.horizon_T))
    return np.append(np.flatnonzero(kept), len(kept))[0]


def assert_density_matches_direct(monkeypatch, ens, ts, n_bins, value_range):
    """exchange_density against estimate_density(exchange_paths) to the bit.

    Returns the times of the columns handed to exchange_paths, sorted (the
    late columns arrive one at a time from the horizon back).
    """
    mapped = [ens.times[:0]]

    def spy(e, t):
        mapped.append(e.times)
        return exchange_paths(e, t)

    with monkeypatch.context() as patch:
        patch.setattr(targetzone.mc, "exchange_paths", spy)
        got = exchange_density(ens, ts, n_bins, value_range)
    ref = estimate_density(exchange_paths(ens, ts).ravel(order="K"), n_bins, value_range)
    assert got.bin_edges.tobytes() == ref.bin_edges.tobytes()
    assert got.density.tobytes() == ref.density.tobytes()
    return np.sort(np.concatenate(mapped))


BETA_SHIFTED = 2.0 * regime_threshold(ModelParams(alpha=200.0, beta=0.0, sigma=0.1, f_bar=0.1))


@pytest.mark.parametrize("band", [True, False], ids=["band", "observed"])
@pytest.mark.parametrize("case", [
    dict(beta=0.0, intervention="law", drift_mode="tanh"),
    dict(beta=0.0, intervention="pure_reflection", drift_mode="bernoulli", kappa=0.9),
    dict(beta=BETA_SHIFTED, intervention="law", drift_mode="bernoulli", kappa=0.5),
    dict(beta=BETA_SHIFTED, intervention="pure_reflection", drift_mode="tanh"),
    dict(beta=5.0, window=(0.2, 0.8)),
    dict(beta=5.0, window=(0.98, 1.0)),
], ids=["law-beta0", "reflect-bernoulli-beta0", "law-shifted", "reflect-shifted",
        "no-late-columns", "late-columns-only"])
def test_exchange_density_matches_direct_route(monkeypatch, case, band):
    ens, ts = density_ensemble(**case)
    f_bar = ts.spectrum.params.f_bar
    columns = ens.fundamentals.shape[1]
    mapped = assert_density_matches_direct(monkeypatch, ens, ts, 21, (-f_bar, f_bar) if band else None)
    # the late columns, and no other, went through exchange_paths, each once
    assert mapped.tobytes() == ens.times[first_late(ens, ts):].tobytes()
    if case.get("window") == (0.2, 0.8):
        assert mapped.size == 0
    elif case.get("window") == (0.98, 1.0):
        assert mapped.size == columns
    else:
        assert mapped.size < columns // 2


def test_exchange_density_range_cuts_through_the_values(monkeypatch):
    ens, ts = density_ensemble(beta=5.0)
    x = exchange_paths(ens, ts)
    lo, hi = np.quantile(x, [0.2, 0.7])
    assert assert_density_matches_direct(monkeypatch, ens, ts, 30, (lo, hi)).size < x.shape[1] // 2


def test_exchange_density_pinned_at_parity(monkeypatch):
    # every X is 0: numpy widens the zero-width observed range to [-0.5, 0.5]
    ens, ts = density_ensemble(n_paths=20)
    pinned = dataclasses.replace(ens, fundamentals=np.zeros_like(ens.fundamentals))
    assert_density_matches_direct(monkeypatch, pinned, ts, 11, None)
    assert exchange_density(pinned, ts, 11).bin_edges[[0, -1]].tolist() == [-0.5, 0.5]


@pytest.mark.parametrize("band", [True, False], ids=["band", "observed"])
@pytest.mark.parametrize("value", [0.0, 0.03])
def test_exchange_density_counts_equal_stationary_values_once(monkeypatch, value, band):
    # every stationary value is both min and max f, but is one value; the
    # late columns keep their spread
    ens, ts = density_ensemble(beta=5.0)
    rows = ens.fundamentals.copy()
    rows[:, : first_late(ens, ts)] = value
    ens = dataclasses.replace(ens, fundamentals=rows)
    f_bar = ts.spectrum.params.f_bar
    mapped = assert_density_matches_direct(monkeypatch, ens, ts, 21, (-f_bar, f_bar) if band else None)
    assert mapped.tobytes() == ens.times[first_late(ens, ts):].tobytes()


@pytest.mark.parametrize("band", [True, False], ids=["band", "observed"])
def test_exchange_density_bins_clamped_values_through_the_table(monkeypatch, band):
    # law intervention clamps values exactly onto min and max f; their cells
    # decide like any other (an observed range holds every value, and the
    # last bin is closed), so none of them is evaluated beyond the cell
    # boundaries
    ens, ts = density_ensemble(beta=0.0, intervention="law", window=(0.2, 0.8))
    f = ens.fundamentals
    assert min(np.count_nonzero(f == f.min()), np.count_nonzero(f == f.max())) > 100
    f_bar = ts.spectrum.params.f_bar
    value_range = (-f_bar, f_bar) if band else None
    evaluated = []

    def spy(sol, x):
        evaluated.append(np.asarray(x))
        return eval_stationary(sol, x)

    with monkeypatch.context() as patch:
        patch.setattr(targetzone.mc, "eval_stationary", spy)
        exchange_density(ens, ts, 21, value_range)
    cells, *mapped = evaluated
    assert cells.size == targetzone.mc._CELLS + 1
    assert not any(np.isin(x, [f.min(), f.max()]).any() for x in mapped)
    assert_density_matches_direct(monkeypatch, ens, ts, 21, value_range)


@pytest.mark.parametrize("band", [True, False], ids=["band", "observed"])
def test_exchange_density_exact_for_any_error_within_the_bound(monkeypatch, band):
    # X_S evaluated with an error of up to a third of a cell's X-width, and
    # a bound that says so: the table must still bin every value, and find
    # the observed extremes, exactly as estimate_density(exchange_paths) does
    ens, ts = density_ensemble(beta=5.0)
    lo, hi = -0.09, 0.09
    rows = np.random.default_rng(38).uniform(lo, hi, ens.fundamentals.T.shape)
    rows[:3, :50] = lo  # clamped onto min and max f
    rows[:3, 50:100] = hi
    rows[:2, 100:110] = lo + np.arange(1, 11) * 1e-9  # within a hair of them
    rows[:2, 110:120] = hi - np.arange(1, 11) * 1e-9
    ens = dataclasses.replace(ens, fundamentals=rows.T)
    cells = np.linspace(lo, hi, targetzone.mc._CELLS + 1)
    err = np.diff(eval_stationary(ts.stationary, cells)).min() / 3.0

    def off(sol, f):
        f = np.asarray(f, dtype=float)
        return eval_stationary(sol, f) - err * np.abs(np.sin(1e7 * f))

    monkeypatch.setattr(targetzone.mc, "eval_stationary", off)
    monkeypatch.setattr(targetzone.mc, "_eval_error_bound", lambda sol: err)
    value_range = (-0.05, 0.05) if band else None
    mapped = assert_density_matches_direct(monkeypatch, ens, ts, 21, value_range)
    assert mapped.size < ens.fundamentals.shape[1] // 2


def test_exchange_density_falls_back_where_x_is_not_monotone(monkeypatch):
    # X_S squared is not monotone, so the table leaves every cell undecided;
    # still only the late columns go through exchange_paths, each once
    ens, ts = density_ensemble(beta=5.0)
    monkeypatch.setattr(targetzone.mc, "eval_stationary", lambda sol, f: eval_stationary(sol, f) ** 2)
    late = ens.times[first_late(ens, ts):]
    assert 0 < late.size < ens.fundamentals.shape[1]
    for value_range in (None, (0.0, 0.01)):
        mapped = assert_density_matches_direct(monkeypatch, ens, ts, 21, value_range)
        assert mapped.tobytes() == late.tobytes()


def test_exchange_density_range_wider_than_the_data(monkeypatch):
    # every cell maps into one bin: no slab leaves a value to evaluate, and
    # no late column adds one
    ens, ts = density_ensemble(beta=5.0, window=(0.2, 0.8))
    assert assert_density_matches_direct(monkeypatch, ens, ts, 11, (-100.0, 100.0)).size == 0


def test_exchange_density_refusals():
    ens, ts = density_ensemble(n_paths=20)
    with pytest.raises(DomainError, match="no values"):
        exchange_density(ens, ts, 11, (5.0, 6.0))
    with pytest.raises(DomainError, match="value_range"):
        exchange_density(ens, ts, 11, (0.5, 0.5))
    for n_bins in (5, 10.5):
        with pytest.raises(DomainError, match="n_bins"):
            exchange_density(ens, ts, n_bins)
    empty = dataclasses.replace(ens, times=ens.times[:0], fundamentals=ens.fundamentals[:, :0])
    for value_range in (None, (-0.1, 0.1)):
        with pytest.raises(DomainError, match="at least one value"):
            exchange_density(empty, ts, 11, value_range)
    nan = dataclasses.replace(ens, fundamentals=ens.fundamentals.copy())
    nan.fundamentals[3, 4] = math.nan
    with pytest.raises(DomainError, match="finite"):
        exchange_density(nan, ts, 11)
    other = ModelParams(alpha=150.0, beta=5.0, sigma=0.1, f_bar=0.1, horizon_T=1.0)
    with pytest.raises(DomainError, match="share params"):
        exchange_density(ens, build_transient(other, K=5), 11)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    alpha=st.floats(20.0, 400.0),
    beta=st.floats(0.0, 60.0),
    sigma=st.floats(0.05, 1.0),
    f_bar=st.floats(0.02, 0.5),
    kappa=st.floats(0.1, 1.0),
    intervention=st.sampled_from(["law", "pure_reflection"]),
    drift_mode=st.sampled_from(["tanh", "bernoulli"]),
    start=st.floats(0.0, 0.95),
    band=st.booleans(),
)
def test_exchange_density_matches_direct_route_over_the_box(
    alpha, beta, sigma, f_bar, kappa, intervention, drift_mode, start, band
):
    p = ModelParams(alpha=alpha, beta=beta, sigma=sigma, f_bar=f_bar, horizon_T=60.0 / alpha)
    ens = simulate(SimConfig(params=p, n_paths=200, drift_mode=drift_mode,
                             intervention=intervention, seed=37, kappa=kappa))
    j0 = int(start * (len(ens.times) - 1))
    ens = dataclasses.replace(ens, times=ens.times[j0:], fundamentals=ens.fundamentals[:, j0:])
    ts = build_transient(p, K=20)
    value_range = (-f_bar, f_bar) if band else None
    got = exchange_density(ens, ts, 15, value_range)
    ref = estimate_density(exchange_paths(ens, ts).ravel(order="K"), 15, value_range)
    assert got.bin_edges.tobytes() == ref.bin_edges.tobytes()
    assert got.density.tobytes() == ref.density.tobytes()


@pytest.mark.parametrize("where", ["late-column", "clamped-in-a-later-slab"])
def test_exchange_density_observed_range_from_any_slab(monkeypatch, where):
    # the observed range is a running min and max: it must reach a late
    # column, and values clamped at min f in a slab other than the first
    ens, ts = density_ensemble(beta=5.0)
    rows = np.random.default_rng(39).uniform(-0.05, 0.05, ens.fundamentals.T.shape)
    first = first_late(ens, ts)
    if where == "late-column":
        j = first
        rows[j, :5], rows[j, 5:10] = -0.09, 0.09
    else:
        j = first - 1
        assert j >= targetzone.mc._XS_SLAB // rows.shape[1]  # not in the first slab
        rows[j, :5] = -0.09
    ens = dataclasses.replace(ens, fundamentals=rows.T)
    x = exchange_paths(ens, ts)
    rest = np.delete(x, j, axis=1)
    assert x[:, j].min() < rest.min()
    if where == "late-column":
        assert x[:, j].max() > rest.max()
    assert_density_matches_direct(monkeypatch, ens, ts, 21, None)


SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "targetzone" / "scenarios"


@pytest.fixture(scope="module")
def figure(request):
    """Ensemble, transient and range of the shipped figure's ``density`` run."""
    scn = json.loads((SCENARIOS / f"{request.param}.json").read_text())
    p = ModelParams(**scn["model"])
    ens = simulate(SimConfig(params=p, **scn["sim"]))
    n = len(ens.times) - 1
    j0, j1 = (int(t * n) for t in scn["density"]["t_window"])
    ens = dataclasses.replace(ens, times=ens.times[j0 : j1 + 1], fundamentals=ens.fundamentals[:, j0 : j1 + 1])
    value_range = None if scn["density"]["range"] == "observed" else (-p.f_bar, p.f_bar)
    return ens, build_transient(p, K=scn["transient"]["K"]), value_range


@pytest.mark.parametrize("figure, fallback, budget", [
    ("fig6a_law_marginal", False, 2.0e6),
    ("fig6b_reflection_intramarginal", False, 1.5e6),
    ("fig7b_reflection_marginal", False, 2.0e6),
    ("fig7b_reflection_marginal", True, 2.2e6),
], indirect=["figure"], ids=["fig6a", "fig6b", "fig7b", "fig7b-fallback"])
def test_exchange_density_memory_stays_within_slabs(monkeypatch, figure, fallback, budget):
    # the traced peak beyond the inputs holds the late values an observed
    # range keeps (1.1 to 1.2 MB on fig6a and fig7b), one late column's sine
    # basis and the bin table's temporaries, or slab temporaries.  Measured:
    # 1.77 MB on fig6a, 1.27 MB on fig6b (a band range keeps no late value),
    # 1.69 MB on fig7b and 1.96 MB on fig7b with every cell undecided, so
    # each budget leaves at least 0.23 MB.
    # A failure is an overrun of that budget, not a reason to raise it.
    # Mapping the late columns from the first forward, so that the widest
    # basis comes when every other late value is kept (2.42 MB on fig6a,
    # 2.34 MB on fig7b), evaluating the undecided values of a band figure in
    # batches of 2^15 (1.92 MB on fig6b), joining the mapped values into one
    # array (7.9 and 7.6 MB), or building all of X (26.5 MB) would not fit
    ens, ts, value_range = figure
    if fallback:  # X_S squared is not monotone: every cell is undecided
        monkeypatch.setattr(targetzone.mc, "eval_stationary", lambda sol, f: eval_stationary(sol, f) ** 2)
    tracemalloc.start()
    try:
        exchange_density(ens, ts, 61, value_range)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


# ------------------------------------------------------ density machinery


def test_density_normalization_and_interpolation():
    rng = np.random.default_rng(40)
    d = estimate_density(rng.uniform(-1.0, 1.0, 40000), 25)
    assert np.trapezoid(d.density, d.centers) == pytest.approx(1.0, abs=1e-9)
    mid = np.interp(0.0, d.centers, d.density)
    assert mid == pytest.approx(0.5, rel=0.1)


def test_density_flat_for_uniform_input():
    rng = np.random.default_rng(41)
    n = 61_000
    d = estimate_density(rng.uniform(-1.0, 1.0, n), 61)
    per_bin = n / 61
    rel_noise = np.abs(d.density / d.density.mean() - 1.0)
    assert rel_noise.max() < 3.0 / math.sqrt(per_bin) + 0.02


def test_density_two_point_input():
    vals = np.array([-0.5] * 500 + [0.5] * 500)
    d = estimate_density(vals, 11)
    mass = d.bin_masses()
    assert mass[0] == pytest.approx(0.5, abs=1e-12)
    assert mass[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.all(mass[1:-1] == 0.0)


def test_density_input_validation():
    with pytest.raises(DomainError):
        estimate_density(np.array([]), 20)
    for n_bins in (5, 10.5, 20.0):
        with pytest.raises(DomainError, match="n_bins"):
            estimate_density(np.array([1.0, 2.0]), n_bins)
    with pytest.raises(DomainError):
        estimate_density(np.array([5.0]), 20, value_range=(-1.0, 1.0))


@pytest.mark.parametrize("value_range", [(0.1, -0.1), (0.0, math.inf), (0.5, 0.5),
                                         (-math.nan, 1.0), (0.0, 1.0, 2.0), "ab"])
def test_density_refuses_ranges_it_cannot_bin(value_range):
    # numpy raised a bare ValueError on the first two and widened the third
    with pytest.raises(DomainError, match="value_range"):
        estimate_density(np.linspace(-0.5, 0.5, 100), 20, value_range)


@pytest.mark.parametrize("value_range", [None, (-1.0, 1.0)])
def test_density_refuses_non_finite_values(value_range):
    # with a range numpy silently dropped the NaN; without one it raised ValueError
    vals = np.linspace(-0.5, 0.5, 100)
    vals[7] = math.nan
    with pytest.raises(DomainError, match="finite"):
        estimate_density(vals, 20, value_range)
    vals[7] = math.inf
    with pytest.raises(DomainError, match="finite"):
        estimate_density(vals, 20, value_range)


# ----------------------------------------------------------- classifier


def test_classify_synthetic_shapes():
    rng = np.random.default_rng(50)
    n = 200_000

    u_vals = np.concatenate([rng.normal(-0.95, 0.02, n // 2), rng.normal(0.95, 0.02, n // 2)])
    assert classify_shape(estimate_density(np.clip(u_vals, -1, 1), 61)) == "u_shaped"

    hump_vals = rng.normal(0.0, 0.25, n)
    hump_vals = hump_vals[np.abs(hump_vals) < 1.0]
    assert classify_shape(estimate_density(hump_vals, 61)) == "hump"

    dirac_vals = np.concatenate([rng.normal(0.0, 0.004, n), rng.uniform(-1, 1, n // 20)])
    assert classify_shape(estimate_density(dirac_vals, 61)) == "dirac_like"

    two_vals = np.concatenate(
        [
            rng.normal(0.0, 0.08, 2 * n // 5),
            rng.normal(-0.95, 0.015, 3 * n // 10),
            rng.normal(0.95, 0.015, 3 * n // 10),
        ]
    )
    assert classify_shape(estimate_density(np.clip(two_vals, -1, 1), 61)) == "two_regime"

    flat_vals = rng.uniform(-1.0, 1.0, n)
    assert classify_shape(estimate_density(flat_vals, 61)) == "ambiguous"

    # peak finder: a two-bin plateau counts both bins, a longer one neither
    # of its inner bins; end bins face one neighbor; empty bins never peak
    assert _local_maxima(np.array([0.0, 1.0, 1.0, 0.0])).tolist() == [1, 2]
    assert _local_maxima(np.array([0.0, 1.0, 1.0, 1.0, 0.0])).tolist() == [1, 3]
    assert _local_maxima(np.array([2.0, 1.0, 0.5, 3.0])).tolist() == [0, 3]
    assert _local_maxima(np.zeros(5)).tolist() == []
    assert _local_maxima(np.array([0.0, 0.0, 0.4, 0.0, 0.0])).tolist() == [2]


def shaped(**bins):
    """DensityEstimate over 61 bins on [-1, 1]: 1 everywhere but the named bins."""
    dens = np.ones(61)
    # valley: the bins between bin 1, inside the outer 10%, and the central bin 30
    where = dict(central_5=slice(29, 32), central_decile=slice(27, 34),
                 outer_decile=np.r_[0:3, 58:61], valley=slice(2, 30))
    for name, value in bins.items():
        dens[where[name]] = value
    return DensityEstimate(bin_edges=np.linspace(-1.0, 1.0, 62), density=dens)


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_classify_shape_at_each_threshold(side):
    # each rule's density a hair (1%) either side of its threshold
    q = 1.0 + 0.01 * side
    # dirac_like: central 5% (3 bins) holding 60% of the mass
    central = 0.6 * q * 58.0 / (3.0 * (1.0 - 0.6 * q))
    assert classify_shape(shaped(central_5=central)) == ("dirac_like" if side > 0 else "hump")
    # two_regime: edge and inner peaks of 1, each 1.2 times the valley between them
    assert classify_shape(shaped(valley=1.0 / (1.2 * q))) == ("two_regime" if side > 0 else "ambiguous")
    # u_shaped: outer-decile mean 1.5 times the central-decile mean
    assert classify_shape(shaped(outer_decile=1.5 * q)) == ("u_shaped" if side > 0 else "ambiguous")
    # hump: central-decile mean 1.5 times the outer-decile mean
    assert classify_shape(shaped(central_decile=1.5 * q)) == ("hump" if side > 0 else "ambiguous")


@pytest.mark.parametrize("value", [-1e-3, math.nan, math.inf])
def test_classify_shape_refuses_an_invalid_density(value):
    with pytest.raises(DomainError, match="not a valid normalized density"):
        classify_shape(shaped(valley=value))


def test_classifier_priority_dirac_over_hump():
    rng = np.random.default_rng(51)
    vals = np.concatenate([rng.normal(0.0, 0.004, 100_000), rng.uniform(-1, 1, 2_000)])
    assert classify_shape(estimate_density(vals, 61)) == "dirac_like"
