"""Measure every open correctness defect of ROADMAP.md, one line each.

    python tools/defects.py

Each line gives the ROADMAP item, the case and the defect's measured size,
so a change that mends one shows it as a before/after pair of lines.  A
mended defect keeps its line, which then reads its new size.  The package
is imported from this checkout's ``src/``; references come from numpy and
80-digit mpmath.  Item 9's X_S reference, item 20's law and item 23's
residual are the test suite's own helpers (``tests/test_stationary.py``,
``test_mc.py``, ``test_transient.py``), so the ledger and the tests measure
one quantity each.  The run is deterministic
and takes about a second.  It is a tool, not a test: tier-1 keeps criterion
4 as its one expected failure.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from targetzone import (  # noqa: E402
    DomainError,
    ModelParams,
    PathEnsemble,
    SimConfig,
    build_transient,
    classify_honeymoon,
    eval_full,
    eval_stationary,
    exchange_paths,
    ou_asymptotic_spectrum,
    ou_stationary,
    regime_threshold,
    simulate,
    solve_smooth_pasting,
    stationary_ode_residual,
    uniform_grid,
)
from test_mc import ks_distance, tanh_reflected_cdf  # noqa: E402
from test_stationary import closed_form_xs  # noqa: E402
from test_transient import full_transient, transient_residual  # noqa: E402

mpmath.mp.dps = 80


def report(item: int, case: str, size: str) -> None:
    print(f"item {item:2}  {case:66}  {size}", flush=True)


def parity() -> None:
    """Item 1: terminal parity max |X(T, f)|, which the missing sinh mode breaks once c > 1."""
    beta_e = regime_threshold(ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=1.0))
    for m in (0.5, 1.5, 2.5):
        p = ModelParams(alpha=0.8, beta=m * beta_e, sigma=1.0, f_bar=1.0)
        x = eval_full(build_transient(p, K=200), p.horizon_T, uniform_grid(p, 2001))
        report(1, f"parity max|X(T,f)| at {m:g} beta_e (a 0.8, s 1, fb 1, K 200)",
               f"{np.abs(x).max():.3g}")


def ode_residual() -> None:
    """Item 2: the closed form's ODE residual off sigma = 1, on 401 band points."""
    for case, alpha, beta, sigma in (("sigma 0.5 (a 0.8, b 1)", 0.8, 1.0, 0.5),
                                     ("fig7 (a 200, b 5, s 0.1)", 200.0, 5.0, 0.1),
                                     ("fig8 (a 200, b 50, s 0.1)", 200.0, 50.0, 0.1)):
        p = ModelParams(alpha=alpha, beta=beta, sigma=sigma, f_bar=0.1)
        res = stationary_ode_residual(solve_smooth_pasting(p), uniform_grid(p, 401))
        report(2, f"ODE residual max at {case}, fb 0.1", f"{np.abs(res).max():.3g}")


def ou() -> None:
    """Item 3: the OU solution's own equation, and its asymptotic spectrum."""
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    lam, h = 1.0, 1e-4
    f = np.linspace(-0.09, 0.09, 181)
    for mu in (0.0, 0.02):
        sol = ou_stationary(lam, mu, p)
        x, xp, xm = (eval_stationary(sol, f + d) for d in (0.0, h, -h))
        res = 0.5 * p.sigma**2 * (xp - 2.0 * x + xm) / h**2 - lam * (f - mu) * (xp - xm) / (2.0 * h)
        res += p.alpha * (f - x)
        report(3, f"OU finite-difference residual max, mu {mu:g} (lambda 1, |f| <= 0.09)",
               f"{np.abs(res).max():.3g}")
    p200 = ModelParams(alpha=200.0, beta=0.0, sigma=0.1, f_bar=0.1)
    res = stationary_ode_residual(ou_stationary(10.0, 0.02, p200), uniform_grid(p200, 401))
    report(3, "OU analytic residual max, mu 0.02 (a 200, s 0.1, lambda 10, 401 f)",
           f"{np.abs(res).max():.3g}")
    k = np.arange(1, 4)
    classical = k**2 * math.pi**2 * p.sigma**2 / (8.0 * p.f_bar**2) + lam / 2.0
    got = ou_asymptotic_spectrum(lam, 0.0, p, 3)
    report(3, "OU spectrum k = 1..3 (lambda 1, mu 0), against classical",
           " ".join(f"{g:.2f}" for g in got) + "  vs  " + " ".join(f"{c:.2f}" for c in classical))


def tanh_law() -> None:
    """Item 20: the law intervention's fundamental at dt 0.01 against the sigma = 1 closed-form law.

    beta 3, r = f_bar = 0.5 (c = 1.36), 20,000 paths from 0, seed 3; KS
    distance of the t = 0.3 column to the reflected Robin series, beside
    its 1% critical value.  The law converges to it as dt -> 0.
    """
    p, n_paths = ModelParams(alpha=100.0, beta=3.0, sigma=1.0, f_bar=0.5, horizon_T=0.3), 20_000
    ens = simulate(SimConfig(params=p, n_paths=n_paths, dt=0.01, drift_mode="tanh", intervention="law",
                             seed=3, kappa=1.0))
    t = ens.times[-1]
    d = ks_distance(ens.fundamentals[:, -1], lambda x: tanh_reflected_cdf(x, t, p.beta, p.f_bar), p.f_bar)
    crit = math.sqrt(-math.log(0.01 / 2.0) / (2.0 * n_paths))
    report(20, "law KS at t 0.3, dt 0.01 (b 3, s 1, fb 0.5, c 1.36, 20000 paths)",
           f"{d:.3g}  (1% critical {crit:.3g})")


def transient_equation() -> None:
    """Item 23: X*'s residual in its own backward equation, off the sigma = 1 and beta = 0 planes.

    R comes from the closed-form mode derivatives of the test suite's
    ``transient_residual``; reported over lambda_1 max |X*| at t = T/2
    (T 0.05, K 200, f_bar 0.1, 201 points in |f| <= 0.9 f_bar).
    """
    for case, alpha, beta, sigma in (("s 0.5 (a 0.8, b 1)", 0.8, 1.0, 0.5),
                                     ("fig7 (a 200, b 5, s 0.1)", 200.0, 5.0, 0.1)):
        p = ModelParams(alpha=alpha, beta=beta, sigma=sigma, f_bar=0.1, horizon_T=0.05)
        ts = build_transient(p, K=200)
        f = np.linspace(-0.9 * p.f_bar, 0.9 * p.f_bar, 201)
        t = 0.5 * p.horizon_T
        res, _ = transient_residual(ts, t, f)
        size = np.abs(res).max() / (ts.decay_rates()[0] * np.abs(full_transient(ts, t, f)).max())
        report(23, f"X* residual / (lambda_1 max|X*|) at {case}, fb 0.1", f"{size:.3g}")


def honeymoon_jump() -> None:
    """Item 7: the contact point W jumps across beta = 0."""
    w0, w1 = (classify_honeymoon(ModelParams(alpha=0.8, beta=b, sigma=1.0), 0.1).W for b in (0.0, 1e-9))
    report(7, "honeymoon W at beta 0 and 1e-9 (a 0.8, s 1, F 0.1)", f"{w0:.5f}  vs  {w1:.5f}")


def small_alpha() -> None:
    """Item 9: X_S's cancellation where alpha is small, and its false 'resonant' refusals."""
    corners = ((0.8, 1.0, 0.1), (200.0, 5.0, 0.1), (0.01, 10.0, 0.1), (1e-3, 100.0, 0.01),
               (1e-3, 625.0, 1.1e-3), (0.01, 0.0, 0.1), (1e-6, 0.0, 0.01), (1e-10, 0.0, 0.01))
    for alpha, beta, f_bar in corners:
        p = ModelParams(alpha=alpha, beta=beta, sigma=1.0, f_bar=f_bar)
        f = uniform_grid(p, 41)
        ref = closed_form_xs(p, f, dps=80)
        err = np.abs(eval_stationary(solve_smooth_pasting(p), f) - ref).max() / np.abs(ref).max()
        report(9, f"X_S error / max|X_S| at a {alpha:g}, b {beta:g}, fb {f_bar:g}", f"{err:.2g}")
    for alpha, beta, f_bar in ((1.0, 2e6, 1e-4), (1e-3, 1e5, 1e-3), (1e-14, 0.0, 0.1)):
        try:
            solve_smooth_pasting(ModelParams(alpha=alpha, beta=beta, sigma=1.0, f_bar=f_bar))
            verdict = "solved"
        except DomainError as exc:
            verdict = "refused as resonant" if "resonant" in str(exc) else f"refused: {exc}"
        report(9, f"D = 2 alpha exactly at a {alpha:g}, b {beta:g}, fb {f_bar:g}", verdict)


def narrow_band() -> None:
    """Item 9: X_S's anchored terms cancel down to O(f_bar) on narrow bands, where X_S is O(f_bar^3).

    Past the narrowest band the closed-form transient can take, it is refused.
    """
    for f_bar in (1e-8, 1e-12):
        p = ModelParams(alpha=0.8, beta=1.0, sigma=1.0, f_bar=f_bar)
        f = uniform_grid(p, 41)
        ref = closed_form_xs(p, f, dps=80)
        err = np.abs(eval_stationary(solve_smooth_pasting(p), f) - ref).max() / np.abs(ref).max()
        report(9, f"X_S error / max|X_S| at a 0.8, b 1, fb {f_bar:g} (narrow band)", f"{err:.2g}")
    verdicts = []
    for f_bar in (1e-150, 1e-300):
        try:
            build_transient(ModelParams(alpha=0.8, beta=1.0, sigma=1.0, f_bar=f_bar), K=50)
            verdicts.append("built")
        except DomainError:
            verdicts.append("refused")
    report(9, "transient at fb 1e-150 and 1e-300 (a 0.8, b 1, s 1, K 50)", "  ".join(verdicts))


def contact_cancellation() -> None:
    """Item 11: W - tanh(kW)/k cancels where kW << 1, so the stop rule accepts a far root."""
    alpha, F = 1e-100, 1.0
    w = classify_honeymoon(ModelParams(alpha=alpha, beta=0.0, sigma=1.0), F).W
    k = mpmath.sqrt(2 * mpmath.mpf(alpha))
    with mpmath.workdps(200):  # k W is 1e-17 at the root: W - tanh(kW)/k needs the extra digits
        root = mpmath.findroot(lambda W: W - F - mpmath.tanh(k * W) / k, mpmath.cbrt(3 * F / k**2))
    report(11, f"honeymoon W at a {alpha:g}, b 0, s 1, F {F:g}, against the root",
           f"{w:.3g}  vs  {float(root):.3g}")


def mode_tail() -> None:
    """Item 17: what the transient's mode cut drops at f_bar 1e-4, relative to max |X_S|.

    The Monte Carlo evaluates the cut sum at every f of a 401-point grid and
    60 values of T - t from 1e-8 to 1; the reference sums all K modes.
    """
    p = ModelParams(alpha=0.8, beta=1.0, sigma=1.0, f_bar=1e-4, horizon_T=1.0)
    ts = build_transient(p, K=200)
    f = uniform_grid(p, 401)
    times = p.horizon_T - np.logspace(-8.0, 0.0, 60)
    ens = PathEnsemble(config=SimConfig(params=p, n_paths=len(f)), times=times,
                       fundamentals=np.repeat(f[:, None], len(times), axis=1), n_interventions=0)
    x = exchange_paths(ens, ts)
    basis = np.sin(np.multiply.outer(f, ts.spectrum.u / p.f_bar)) / np.cosh(p.beta * f)[:, None]
    full = basis @ (np.exp(-np.multiply.outer(ts.decay_rates(), p.horizon_T - times)) * ts.coeffs[:, None])
    xs = eval_stationary(ts.stationary, f)
    tail = np.abs(x - (xs[:, None] + full)).max() / np.abs(xs).max()
    report(17, "mode-cut tail / max|X_S| at fb 1e-4 (a 0.8, b 1, s 1, T 1, K 200)", f"{tail:.2g}")


if __name__ == "__main__":
    for measure in (parity, ode_residual, ou, honeymoon_jump, small_alpha, narrow_band,
                    contact_cancellation, mode_tail, tanh_law, transient_equation):
        measure()
