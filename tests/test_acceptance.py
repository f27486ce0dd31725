"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to runtime
calibration.

Criterion 4 (the relaxation-time sandwich) is expected to fail on its
upper half: with eigenvalues taken literally from the transcendental
equation, the first diffusive-regime frequency is sigma*pi/(2*sqrt(2)*f_bar),
which lies strictly below the pi/(2*f_bar) that the criterion's upper bound
presupposes (they differ by the sqrt(2)/sigma factor).  Already at
beta = 0, sigma = 1: t_relax = 1/(pi^2/(8 f_bar^2) + alpha) is about twice
the bound 1/(pi^2/(4 f_bar^2) + alpha), so no diffusive draw can satisfy
it.  The criterion is asserted as stated and reported honestly; the lower
half holds for every draw.
"""

import json
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from targetzone import (
    ModelParams,
    SimConfig,
    build_spectrum,
    build_transient,
    classify_shape,
    eigen_residual,
    estimate_density,
    eval_full,
    eval_stationary,
    kummer_1f1,
    ou_asymptotic_spectrum,
    ou_stationary,
    regime_scan,
    regime_threshold,
    relaxation_time,
    simulate,
    solve_smooth_pasting,
    spread_coefficient,
    stationary_ode_residual,
    eval_stationary_derivatives,
)
from targetzone.cli import run_command

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "targetzone" / "scenarios"

mpmath.mp.dps = 50


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {number:2d}: {name}{suffix}")
    return ok


def draw_parameters(rng) -> ModelParams:
    return ModelParams(
        alpha=float(rng.uniform(0.1, 250.0)),
        beta=float(rng.uniform(0.0, 60.0)),
        sigma=float(rng.uniform(0.5, 2.0)),
        f_bar=float(rng.uniform(0.02, 0.2)),
        horizon_T=3.0,
    )


def test_criterion_01_eigenvalue_closed_form():
    start = time.perf_counter()
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1, horizon_T=3.0)
    spec = build_spectrum(p, 3)
    expected = np.array([1, 3, 5]) * math.pi * p.sigma / (2.0 * math.sqrt(2.0) * p.f_bar)
    err = float(np.abs(spec.eigenvalues - expected).max())
    elapsed = time.perf_counter() - start
    ok = err < 1e-10 and elapsed < 1.0
    assert report(1, "gaussian-limit eigenvalues analytic", ok,
                  f"max err {err:.2e}, {elapsed:.3f}s")


def test_criterion_02_residual_gate():
    start = time.perf_counter()
    rng = np.random.default_rng(20240612)
    worst = 0.0
    for _ in range(100):
        p = draw_parameters(rng)
        spec = build_spectrum(p, 8)
        for omega in spec.eigenvalues:
            worst = max(worst, abs(eigen_residual(float(omega), p)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    assert report(2, "transcendental residual gate on 100 draws", ok,
                  f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_regime_threshold_and_jump():
    # bisection oracle for x*tanh(x) = 1, independent of the module
    a, b = 1.0, 1.5
    for _ in range(200):
        m = 0.5 * (a + b)
        if m * math.tanh(m) < 1.0:
            a = m
        else:
            b = m
    x_star = 0.5 * (a + b)

    ok = True
    details = []
    for f_bar in (0.02, 0.1, 0.15):
        p = ModelParams(alpha=0.8, sigma=1.0, f_bar=f_bar)
        beta_e = regime_threshold(p)
        ok &= abs(beta_e * f_bar - x_star) < 1e-10
        ok &= beta_e > 1.0 / f_bar
    details.append(f"x*={x_star:.12f}")

    p = ModelParams(alpha=0.8, sigma=1.0, f_bar=0.15, horizon_T=3.0)
    beta_e = regime_threshold(p)
    rows = regime_scan(p, np.linspace(0.3 * beta_e, 1.7 * beta_e, 80))
    regimes = [r[3] for r in rows]
    flips = sum(1 for x, y in zip(regimes, regimes[1:]) if x != y)
    i = regimes.index("shifted")
    jump_up = rows[i][1] > rows[i - 1][1]
    # the first eigenvalue decreases on both branches, so the regime flip
    # is the scan's only upward discontinuity
    diffs = np.diff([r[1] for r in rows])
    upward = int(np.sum(diffs > 0.0))
    ok &= flips == 1 and jump_up and upward == 1
    details.append(f"flips={flips}, upward jumps={upward}")
    assert report(3, "regime threshold constant and single upward jump", ok,
                  "; ".join(details))


def test_criterion_04_relaxation_time_sandwich():
    rng = np.random.default_rng(20240612)
    lower_ok = 0
    upper_ok = 0
    diffusive = 0
    for _ in range(100):
        p = draw_parameters(rng)
        spec = build_spectrum(p, 1)
        if spec.regime != "diffusive":
            continue
        diffusive += 1
        rep = relaxation_time(spec)
        lower_ok += rep.lower_bound <= rep.t_relax
        upper_ok += rep.t_relax <= rep.upper_bound
    ok = diffusive > 0 and lower_ok == diffusive and upper_ok == diffusive
    report(
        4,
        "relaxation-time sandwich on diffusive draws",
        ok,
        f"lower bound {lower_ok}/{diffusive}, upper bound {upper_ok}/{diffusive}; "
        "upper half unattainable under the literal eigenvalue convention "
        "(see module docstring)",
    )
    assert ok


def test_criterion_05_stationary_correctness():
    ok = True
    details = []
    for beta in (0.0, 1.0, 5.0):
        p = ModelParams(alpha=0.8, beta=beta, sigma=1.0, f_bar=0.1, horizon_T=3.0)
        sol = solve_smooth_pasting(p)
        grid = np.linspace(-p.f_bar, p.f_bar, 200)
        resid = float(np.abs(stationary_ode_residual(sol, grid)).max())
        ok &= resid < 1e-7
        h = 1e-6
        for sign in (-1.0, 1.0):
            edge = sign * p.f_bar
            x0 = eval_stationary(sol, edge)
            x1 = eval_stationary(sol, edge - sign * h)
            x2 = eval_stationary(sol, edge - sign * 2 * h)
            ok &= abs(sign * (3 * x0 - 4 * x1 + x2) / (2 * h)) < 1e-6
        details.append(f"beta={beta}: resid {resid:.1e}")
    p0 = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    sol0 = solve_smooth_pasting(p0)
    rho0 = math.sqrt(2.0 * p0.alpha)
    grid = np.linspace(-0.1, 0.1, 200)
    closed = grid - np.sinh(rho0 * grid) / (rho0 * math.cosh(rho0 * 0.1))
    gap = float(np.abs(eval_stationary(sol0, grid) - closed).max())
    ok &= gap < 1e-9
    details.append(f"closed-form gap {gap:.1e}")
    assert report(5, "stationary ODE residual and smooth pasting", ok, "; ".join(details))


def test_criterion_06_terminal_parity():
    import dataclasses

    start = time.perf_counter()
    fg = np.linspace(-0.1, 0.1, 401)
    ok = True
    details = []
    for beta in (0.0, 1.0, 5.0):
        p = ModelParams(alpha=0.8, beta=beta, sigma=1.0, f_bar=0.1, horizon_T=3.0)
        ts = build_transient(p, K=200)
        errors = []
        for K in (25, 50, 100, 200):
            sub = dataclasses.replace(ts, coeffs=ts.coeffs[:K])
            errors.append(float(np.abs(eval_full(sub, 3.0, fg)).max()))
        ok &= errors[-1] < 1e-3
        ok &= all(b < a for a, b in zip(errors, errors[1:]))
        details.append(f"beta={beta}: err(K=200)={errors[-1]:.1e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert report(6, "terminal parity with truncation doubling", ok,
                  "; ".join(details) + f", {elapsed:.1f}s")


def _trapz_normalized(vals, centers):
    return vals / np.trapezoid(vals, centers)


def test_criterion_07_reflected_stationary_oracles():
    start = time.perf_counter()
    # (a) reflected driftless diffusion: uniform law
    p = ModelParams(alpha=200.0, beta=0.0, sigma=1.0, f_bar=0.1, horizon_T=3.0)
    cfg = SimConfig(params=p, n_paths=5000, dt=1 / 200, drift_mode="tanh",
                    intervention="pure_reflection", seed=701, kappa=1.0)
    ens = simulate(cfg)
    d = estimate_density(ens.fundamentals[:, 1:].ravel(), 61, value_range=(-0.1, 0.1))
    oracle = _trapz_normalized(np.ones_like(d.centers), d.centers)
    l1_uniform = float(np.trapezoid(np.abs(d.density - oracle), d.centers))
    t_a = time.perf_counter() - start

    # (b) tanh drift: zero-flux density cosh(beta f)^(2/sigma^2)
    start_b = time.perf_counter()
    p = ModelParams(alpha=200.0, beta=3.0, sigma=1.0, f_bar=0.3, horizon_T=3.0)
    cfg = SimConfig(params=p, n_paths=5000, dt=1 / 200, drift_mode="tanh",
                    intervention="pure_reflection", seed=702, kappa=1.0)
    ens = simulate(cfg)
    d = estimate_density(ens.fundamentals[:, 150:].ravel(), 61, value_range=(-0.3, 0.3))
    oracle = _trapz_normalized(np.cosh(3.0 * d.centers) ** 2, d.centers)
    l1_cosh = float(np.trapezoid(np.abs(d.density - oracle), d.centers))
    t_b = time.perf_counter() - start_b

    ok = l1_uniform < 0.05 and l1_cosh < 0.08 and t_a < 120.0 and t_b < 120.0
    assert report(7, "reflected stationary densities vs zero-flux oracles", ok,
                  f"uniform L1 {l1_uniform:.3f}, cosh^2 L1 {l1_cosh:.3f}")


def test_criterion_08_free_space_mixture():
    beta, sigma, t_ref = 1.0, 1.0, 0.5
    p = ModelParams(alpha=200.0, beta=beta, sigma=sigma, f_bar=50.0, horizon_T=1.0)
    cfg = SimConfig(params=p, n_paths=5000, dt=1 / 200, drift_mode="bernoulli",
                    intervention="pure_reflection", seed=801, kappa=1.0)
    ens = simulate(cfg)
    j = int(round(t_ref * 200))
    x = np.sort(ens.fundamentals[:, j])
    sd = sigma * math.sqrt(t_ref)
    phi = lambda z: 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    cdf = 0.5 * phi((x - beta * t_ref) / sd) + 0.5 * phi((x + beta * t_ref) / sd)
    n = len(x)
    ks = float(max(np.abs(np.arange(1, n + 1) / n - cdf).max(),
                   np.abs(np.arange(0, n) / n - cdf).max()))
    crit = 1.628 / math.sqrt(n)
    ok = ks < crit and ens.n_interventions == 0
    assert report(8, "free-space two-Gaussian mixture (KS at 1%)", ok,
                  f"KS {ks:.4f} < {crit:.4f}")


def test_criterion_09_figure_shapes(tmp_path):
    start = time.perf_counter()
    expected = {
        "fig6a_law_marginal.json": "u_shaped",
        "fig6b_reflection_intramarginal.json": "hump",
        "fig7b_reflection_marginal.json": "two_regime",
        "fig8_narrow_band_reflection.json": "dirac_like",
    }
    ok = True
    details = []
    for name, want in expected.items():
        out = run_command("density", SCENARIOS / name, tmp_path / f"{name}.out", fmt="json")
        got = json.loads(out.read_text())["classification"]
        ok &= got == want
        details.append(f"{name.split('_')[0]}={got}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    assert report(9, "figure-shape reproduction of the four scenarios", ok,
                  "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_10_special_functions():
    ok = True
    for x in np.linspace(-10.0, 10.0, 81):
        ok &= abs(kummer_1f1(1.0, 1.0, float(x)) - math.exp(x)) <= 1e-12 * math.exp(x)
    for a, b in [(0.3, 1.7), (-2.5, 0.9), (5.0, 5.0)]:
        ok &= kummer_1f1(a, b, 0.0) == 1.0
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(50):
        a = float(rng.uniform(-5.0, 5.0))
        b = float(rng.uniform(0.5, 8.0))
        x = float(rng.uniform(-20.0, 20.0))
        lhs = (b * kummer_1f1(a, b, x) - b * kummer_1f1(a - 1.0, b, x)
               - x * kummer_1f1(a, b + 1.0, x))
        worst = max(worst, abs(lhs) / max(1.0, abs(b * kummer_1f1(a, b, x))))
    ok &= worst < 1e-8
    assert report(10, "confluent hypergeometric identities", ok,
                  f"contiguous worst {worst:.1e}")


def test_criterion_11_mean_reverting_appendix():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    sol0 = ou_stationary(1.0, 0.0, p)
    ok = sol0.A == 0.0
    sol = ou_stationary(1.0, 0.02, p)
    _, d1, _ = eval_stationary_derivatives(sol, np.array([-0.1, 0.1]))
    pasting = float(np.abs(d1).max())
    ok &= pasting < 1e-8
    lam, mu = 1.0, 0.0
    omegas = ou_asymptotic_spectrum(lam, mu, p, 3)
    c0 = lam**2 * (4 * p.f_bar**2 - 6 * p.f_bar * mu + 3 * mu**2) / (6 * p.sigma**2)
    ladder = np.array([1.0, 4.0, 9.0]) * math.pi * p.sigma**2 / (8 * p.f_bar**2) + lam / 2 + c0
    ok &= bool(np.array_equal(omegas, ladder))
    assert report(11, "mean-reverting stationary and asymptotic spectrum", ok,
                  f"pasting {pasting:.1e}")


def test_criterion_12_cli_determinism(tmp_path):
    scenario = {
        "model": {"alpha": 200.0, "beta": 1.0, "sigma": 0.1, "f_bar": 0.1, "horizon_T": 1.0},
        "sim": {"n_paths": 400, "drift_mode": "tanh", "intervention": "pure_reflection",
                "kappa": 1.0, "seed": 12},
        "transient": {"K": 25},
        "density": {"target": "exchange", "n_bins": 31, "range": "band",
                    "t_window": [0.0, 0.99]},
    }
    scn = tmp_path / "det.json"
    scn.write_text(json.dumps(scenario))
    ok = True
    for command in ("spectrum", "simulate", "density"):
        outs = []
        for threads in (1, 8):
            for run in (0, 1):
                path = tmp_path / f"{command}-{threads}-{run}.out"
                run_command(command, scn, path, threads=threads)
                outs.append(path.read_bytes())
        ok &= all(o == outs[0] for o in outs[1:])
    assert report(12, "CLI byte-identical across runs and thread counts", ok)
