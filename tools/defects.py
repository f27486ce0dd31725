"""Measure every open correctness defect of ROADMAP.md, one line each.

    python tools/defects.py

Each line gives the ROADMAP item, the case and the defect's measured size,
so a change that mends one shows it as a before/after pair of lines.  A
mended defect keeps its line, which then reads its new size.  The package
is imported from this checkout's ``src/``; references come from numpy and
80-digit mpmath.  The run is deterministic and takes about a second.  It is
a tool, not a test: tier-1 keeps criterion 4 as its one expected failure.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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
    solve_smooth_pasting,
    stationary_ode_residual,
    uniform_grid,
)

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


def honeymoon_jump() -> None:
    """Item 7: the contact point W jumps across beta = 0."""
    w0, w1 = (classify_honeymoon(ModelParams(alpha=0.8, beta=b, sigma=1.0), 0.1).W for b in (0.0, 1e-9))
    report(7, "honeymoon W at beta 0 and 1e-9 (a 0.8, s 1, F 0.1)", f"{w0:.5f}  vs  {w1:.5f}")


def reference_xs(p: ModelParams, f: np.ndarray) -> np.ndarray:
    """X_S in 80 digits where the closed form is exact (sigma = 1 or beta = 0).

    X_S = f + (beta/alpha) tanh(beta f) + a sinh(r f) / cosh(beta f), with
    r^2 = beta^2 + 2 alpha / sigma^2 and a set by X_S'(f_bar) = 0.
    """
    alpha, beta, sigma, fb = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.sigma, p.f_bar))
    r = mpmath.sqrt(beta**2 + 2 * alpha / sigma**2)
    ch, sh = mpmath.cosh(beta * fb), mpmath.sinh(beta * fb)
    a = -(ch**2 + beta**2 / alpha) / (r * mpmath.cosh(r * fb) * ch - beta * mpmath.sinh(r * fb) * sh)
    xs = (v + beta / alpha * mpmath.tanh(beta * v) + a * mpmath.sinh(r * v) / mpmath.cosh(beta * v)
          for v in map(mpmath.mpf, f))
    return np.array([float(x) for x in xs])


def small_alpha() -> None:
    """Item 9: X_S's cancellation where alpha is small, and its false 'resonant' refusals."""
    corners = ((0.8, 1.0, 0.1), (200.0, 5.0, 0.1), (0.01, 10.0, 0.1), (1e-3, 100.0, 0.01),
               (1e-3, 625.0, 1.1e-3), (0.01, 0.0, 0.1), (1e-6, 0.0, 0.01), (1e-10, 0.0, 0.01))
    for alpha, beta, f_bar in corners:
        p = ModelParams(alpha=alpha, beta=beta, sigma=1.0, f_bar=f_bar)
        f = uniform_grid(p, 41)
        ref = reference_xs(p, f)
        err = np.abs(eval_stationary(solve_smooth_pasting(p), f) - ref).max() / np.abs(ref).max()
        report(9, f"X_S error / max|X_S| at a {alpha:g}, b {beta:g}, fb {f_bar:g}", f"{err:.2g}")
    for alpha, beta, f_bar in ((1.0, 2e6, 1e-4), (1e-3, 1e5, 1e-3), (1e-14, 0.0, 0.1)):
        try:
            solve_smooth_pasting(ModelParams(alpha=alpha, beta=beta, sigma=1.0, f_bar=f_bar))
            verdict = "solved"
        except DomainError as exc:
            verdict = "refused as resonant" if "resonant" in str(exc) else f"refused: {exc}"
        report(9, f"D = 2 alpha exactly at a {alpha:g}, b {beta:g}, fb {f_bar:g}", verdict)


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
    for measure in (parity, ode_residual, ou, honeymoon_jump, small_alpha, contact_cancellation, mode_tail):
        measure()
