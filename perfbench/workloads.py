"""Workload definitions, seeded inputs and output checks.

Three closed-loop workloads (one client, one operation at a time):

* ``figures_density``: ``targetzone density`` as a subprocess on the five
  shipped figure scenarios, the workload seed passed through ``--seed``.
  ``mc`` does nearly all the work; this is how users reproduce figs 6-8.
* ``transient_sweep``: in-process library calls over 16 parameter sets
  drawn from the seed, stratified over sigma in {0.1, 0.5, 1, 2} and both
  spectral regimes.  It skips ``mc`` and ``cli`` and puts the analytic
  layers (quadrature, transient, spectral, roots) in charge.
* ``scenario_cli``: the other eight shipped scenarios through their
  subcommands, plus ``feasibility`` and ``honeymoon``.  Each run does a few
  ms of numerical work inside interpreter start, import and ``cli``
  formatting, the opposite extreme from ``figures_density``.

Checks return a list of problems (empty when the output is correct), so a
failed check is counted and the pass goes on.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("figures_density", "transient_sweep", "scenario_cli")

SCENARIOS = Path("src") / "targetzone" / "scenarios"

# scenario -> criterion-9 label checked on its density; None = recorded only
FIGURES = (
    ("fig6a_law_marginal", "u_shaped"),
    ("fig6b_reflection_intramarginal", "hump"),
    ("fig7a_law_intramarginal", None),
    ("fig7b_reflection_marginal", "two_regime"),
    ("fig8_narrow_band_reflection", "dirac_like"),
)

CLI_RUNS = (
    ("spectrum", "spectrum_narrow"),
    ("spectrum", "spectrum_wide"),
    ("spectrum", "eigenvalue_jump"),
    ("stationary", "fig2_stationary"),
    ("transient", "fig3_transient"),
    ("ou", "ou_stationary"),
    ("regime-scan", "regimeshift_narrow"),
    ("regime-scan", "regimeshift_wide"),
    ("feasibility", "spectrum_narrow"),
    ("honeymoon", "spectrum_narrow"),
)

SWEEP_SETS = 16
SWEEP_SIGMAS = (0.1, 0.5, 1.0, 2.0)
SWEEP_K = 200
SWEEP_TIMES = 31
SWEEP_POINTS = 401
SWEEP_BETAS = 250
X_STAR = 1.1996786402577338  # positive root of x tanh(x) = 1; beta_e = X_STAR / f_bar
EPS = np.finfo(float).eps


def cli_ops(workload: str, root: Path, seed: int, outdir: Path) -> list[tuple[str, list[str], dict]]:
    """(op name, CLI argv after the program name, check spec) per operation."""
    if workload == "figures_density":
        ops = []
        for scenario, label in FIGURES:
            cfg = root / SCENARIOS / f"{scenario}.json"
            out = outdir / f"{scenario}.json"
            argv = ["density", "--config", str(cfg), "--out", str(out),
                    "--seed", str(seed), "--threads", "1"]
            ops.append((scenario, argv, {"kind": "density", "config": cfg, "out": out, "label": label}))
        return ops
    runs = list(CLI_RUNS)
    random.Random(seed).shuffle(runs)  # the seed only orders this fixed set
    ops = []
    for command, scenario in runs:
        cfg = root / SCENARIOS / f"{scenario}.json"
        ext = "json" if command in ("ou", "feasibility", "honeymoon") else "csv"
        out = outdir / f"{command}-{scenario}.{ext}"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        ops.append((f"{command}:{scenario}", argv, {"kind": command, "config": cfg, "out": out}))
    return ops


# -- eigenvalue check --------------------------------------------------------


def spread_coefficient(beta: float, f_bar: float) -> float:
    return beta * f_bar * math.tanh(beta * f_bar)


def eigen_residuals(omegas, beta: float, sigma: float, f_bar: float):
    """(|u cot u - c|, its floating-point floor) for each eigenvalue Omega.

    In double precision the residual at the nearest representable u is
    about ulp(u) * |d(u cot u)/du|, which exceeds 1e-12 once u reaches a few
    tens; the floor is that limit, so a check against 1e-12 + floor fails
    only on a root that is wrong beyond rounding.
    """
    u = math.sqrt(2.0) * np.asarray(omegas, dtype=float) * f_bar / sigma
    s, c = np.sin(u), np.cos(u)
    res = np.abs(u * c / s - spread_coefficient(beta, f_bar))
    floor = 8.0 * EPS * u * np.abs(c / s - u / (s * s))
    return res, floor


def _eigen_problems(omegas, beta, sigma, f_bar, what: str) -> list[str]:
    res, floor = eigen_residuals(omegas, beta, sigma, f_bar)
    bad = ~(res <= 1e-12 + floor)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{what}: |u cot u - c| = {res[i]:.3g} at root {i + 1}"]
    return []


# -- CLI output checks -------------------------------------------------------


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _model(cfg: Path) -> dict:
    return json.loads(cfg.read_text())


def check_cli_output(spec: dict, data: bytes) -> list[str]:
    """Problems with one CLI output; ``data`` is the file's bytes."""
    try:
        return _check_cli_output(spec, data.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output does not parse: {exc!r}"]


def _check_cli_output(spec: dict, text: str) -> list[str]:
    scn = _model(spec["config"])
    m = scn["model"]
    beta, sigma, f_bar = m.get("beta", 0.0), m.get("sigma", 1.0), m.get("f_bar", 0.1)
    kind = spec["kind"]
    if kind == "density":
        return check_density(json.loads(text), scn["density"]["n_bins"], spec["label"])
    if kind in ("ou", "feasibility", "honeymoon"):
        doc = json.loads(text)
        if kind == "ou":
            f, x = np.array(doc["curve"]["f"]), np.array(doc["curve"]["x"])
            asym = np.array(doc["asymptotic_spectrum"])
            ok = (len(f) == len(x) == scn["ou"]["n_points"] and np.isfinite(x).all()
                  and len(asym) == scn["ou"]["K"] and (np.diff(asym) > 0).all())
            return [] if ok else ["ou curve or spectrum malformed"]
        if kind == "feasibility":
            if not (doc["t_relax"] > 0 and doc["regime"] in ("diffusive", "shifted")):
                return ["feasibility report malformed"]
            return _eigen_problems([doc["omega1"]], beta, sigma, f_bar, "omega1")
        ok = doc["status"] == "ok" and math.isfinite(doc["W"])
        return [] if ok else [f"honeymoon status {doc['status']!r}, W = {doc['W']!r}"]
    header, rows = _rows(text)
    if kind == "spectrum":
        K = scn["spectral"]["K"]
        omegas = np.array([float(r[1]) for r in rows])
        if header[:3] != ["k", "omega", "u"] or len(rows) != K or not (np.diff(omegas) > 0).all():
            return ["spectrum rows malformed"]
        return _eigen_problems(omegas, beta, sigma, f_bar, "spectrum")
    if kind == "regime-scan":
        problems = [] if len(rows) == scn["spectral"]["K"] else ["regime-scan row count"]
        for r in rows:
            b, omega1, t_relax = float(r[0]), float(r[1]), float(r[2])
            if not t_relax > 0:
                problems.append(f"t_relax {t_relax!r} at beta {b}")
            problems += _eigen_problems([omega1], b, sigma, f_bar, f"omega1 at beta {b}")
        return problems
    if kind == "stationary":
        n = len(scn["stationary"]["beta_values"]) * scn["stationary"]["n_points"]
    else:
        n = scn["transient"]["n_times"] * scn["transient"]["n_points"]
    values = np.array([float(r[2]) for r in rows])
    ok = len(rows) == n and np.isfinite(values).all()
    return [] if ok else [f"{kind} rows malformed or not finite"]


def check_density(doc: dict, n_bins: int, label: str | None) -> list[str]:
    edges = np.asarray(doc["bin_edges"], dtype=float)
    dens = np.asarray(doc["density"], dtype=float)
    problems = []
    if len(dens) != n_bins or len(edges) != n_bins + 1:
        return [f"{len(dens)} bins, expected {n_bins}"]
    if not (np.isfinite(dens).all() and (dens >= 0).all()):
        problems.append("density not finite and non-negative")
    if not (np.diff(edges) > 0).all():
        problems.append("bin edges not ascending")
    integral = float(np.trapezoid(dens, 0.5 * (edges[:-1] + edges[1:])))
    if not abs(integral - 1.0) <= 1e-9:
        problems.append(f"trapezoid integral {integral!r}")
    if label is not None and doc["classification"] != label:
        problems.append(f"classified {doc['classification']!r}, expected {label!r}")
    return problems


# -- transient sweep ---------------------------------------------------------


def sweep_params(seed: int) -> list[dict]:
    """16 parameter sets: each sigma twice per regime, the rest drawn.

    beta is uniform on [0, 0.95 beta_e] (diffusive) or [1.05, 2.5] beta_e
    (shifted), so both regimes are present for every seed.
    """
    rng = random.Random(seed)
    sets = []
    for i in range(SWEEP_SETS):
        sigma = SWEEP_SIGMAS[i % len(SWEEP_SIGMAS)]
        shifted = (i // len(SWEEP_SIGMAS)) % 2 == 1
        f_bar = rng.uniform(0.05, 0.2)
        alpha = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
        beta_e = X_STAR / f_bar
        frac = rng.uniform(1.05, 2.5) if shifted else rng.uniform(0.0, 0.95)
        sets.append({"alpha": alpha, "beta": frac * beta_e, "sigma": sigma,
                     "f_bar": f_bar, "horizon_T": 3.0})
    rng.shuffle(sets)
    return sets


def sweep_op(tz, p: dict) -> dict:
    """One parameter set; calls go through module attributes so tracing sees them."""
    params = tz.params.ModelParams(**p)
    ts = tz.transient.build_transient(params, K=SWEEP_K)
    t_grid = np.linspace(0.0, params.horizon_T, SWEEP_TIMES)
    f_grid = np.linspace(-params.f_bar, params.f_bar, SWEEP_POINTS)
    surf = tz.transient.surface(ts, t_grid, f_grid)
    terminal = tz.transient.eval_full(ts, params.horizon_T, f_grid)
    beta_e = X_STAR / params.f_bar
    betas = np.linspace(0.05 * beta_e, 2.5 * beta_e, SWEEP_BETAS)
    scan = tz.spectral.regime_scan(params, betas)
    return {"ts": ts, "surface": surf, "terminal": terminal, "scan": scan}


def check_sweep(p: dict, out: dict) -> list[str]:
    problems = []
    if not np.isfinite(out["surface"]).all():
        problems.append("surface not finite")
    problems += _eigen_problems(out["ts"].spectrum.eigenvalues, p["beta"], p["sigma"],
                                p["f_bar"], "spectrum")
    for b, omega1, _, _ in out["scan"]:
        problems += _eigen_problems([omega1], b, p["sigma"], p["f_bar"], f"omega1 at beta {b}")
    return problems


def sweep_digest(out: dict) -> str:
    h = hashlib.sha256()
    for key in ("surface", "terminal"):
        h.update(np.ascontiguousarray(out[key]).tobytes())
    h.update(repr(out["scan"]).encode())
    return h.hexdigest()


# -- numerical health (recorded, never gated) ---------------------------------


def health(tz, spectra, stationaries, transients) -> dict[str, float]:
    """Largest eigen, ODE and terminal-parity residuals of collected results.

    A group with no sample reports 0.
    """
    eig = ode1 = ode_other = par_diff = par_shift = 0.0
    for spec in spectra:
        p = spec.params
        res, _ = eigen_residuals(spec.eigenvalues, p.beta, p.sigma, p.f_bar)
        eig = max(eig, float(res.max()))
    for sol in stationaries:
        p = sol.params
        f = np.linspace(-p.f_bar, p.f_bar, SWEEP_POINTS)
        r = float(np.abs(tz.stationary.stationary_ode_residual(sol, f)).max())
        if p.sigma == 1.0:
            ode1 = max(ode1, r)
        else:
            ode_other = max(ode_other, r)
    for ts in transients:
        p = ts.spectrum.params
        f = np.linspace(-p.f_bar, p.f_bar, SWEEP_POINTS)
        r = float(np.abs(tz.transient.eval_full(ts, p.horizon_T, f)).max())
        if ts.spectrum.regime == "shifted":
            par_shift = max(par_shift, r)
        else:
            par_diff = max(par_diff, r)
    return {
        "health.eigen_residual_max": eig,
        "health.ode_residual_max.sigma1": ode1,
        "health.ode_residual_max.sigma_other": ode_other,
        "health.parity_err_max.diffusive": par_diff,
        "health.parity_err_max.shifted": par_shift,
    }
