"""Command-line front end: scenario JSON in, CSV/JSON data out.

Each subcommand reads one scenario file, runs the corresponding solver or
simulation, and writes a single output file atomically (temp file plus
rename, so partial outputs never appear).  Every run is deterministic
given the scenario and seed; ``--threads`` never changes numbers, only
how per-path noise generation is chunked.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .honeymoon import classify_honeymoon
from .mc import (
    SimConfig,
    classify_shape,
    estimate_density,
    exchange_paths,
    simulate,
)
from .params import ModelParams, uniform_grid, validate
from .spectral import (
    build_spectrum,
    ou_asymptotic_spectrum,
    regime_scan,
    regime_threshold,
    relaxation_time,
    spread_coefficient,
)
from .stationary import eval_stationary, gaussian_stationary, ou_stationary, solve_smooth_pasting
from .transient import build_transient, surface

__all__ = ["main", "load_scenario", "run_command"]

_SCENARIO_KEYS = {
    "model": {"alpha", "beta", "sigma", "f_bar", "horizon_T", "r_share"},
    "spectral": {"K"},
    "stationary": {"beta_values", "n_points"},
    "transient": {"K", "n_times", "n_points"},
    "sim": {"n_paths", "dt", "drift_mode", "intervention", "kappa", "seed"},
    "density": {"target", "n_bins", "range", "t_window"},
    "honeymoon": {"F", "omega"},
    "ou": {"lambda_speed", "mu", "K", "n_points"},
    "outputs": {"format", "path"},
}

_DEFAULTS = {
    "spectral_K": 50,
    "n_bins": 61,
    "kappa": 0.9,
}


def load_scenario(path: str | Path) -> dict:
    """Parse and strictly validate a scenario file; unknown keys rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a JSON object")
    for key, section in raw.items():
        if key not in _SCENARIO_KEYS:
            raise ValidationError(f"unknown scenario section {key!r}")
        if not isinstance(section, dict):
            raise ValidationError(f"scenario section {key!r} must be an object")
        unknown = set(section) - _SCENARIO_KEYS[key]
        if unknown:
            raise ValidationError(
                f"unknown keys in scenario section {key!r}: {sorted(unknown)}"
            )
    if "model" not in raw:
        raise ValidationError("scenario needs a 'model' section")
    return raw


def _model(scn: dict) -> ModelParams:
    m = scn["model"]
    if "alpha" not in m:
        raise ValidationError("model.alpha is required")
    params = ModelParams(
        alpha=float(m["alpha"]),
        beta=float(m.get("beta", 0.0)),
        sigma=float(m.get("sigma", 1.0)),
        f_bar=float(m.get("f_bar", 0.1)),
        horizon_T=float(m.get("horizon_T", 3.0)),
        r_share=float(m.get("r_share", 0.0)),
    )
    return validate(params)


def _sim_config(scn: dict, params: ModelParams, seed_override: int | None) -> SimConfig:
    s = scn.get("sim", {})
    seed = int(s.get("seed", 0)) if seed_override is None else seed_override
    dt = s.get("dt")
    return SimConfig(
        params=params,
        n_paths=int(s.get("n_paths", 5000)),
        dt=None if dt is None else float(dt),
        drift_mode=str(s.get("drift_mode", "tanh")),
        intervention=str(s.get("intervention", "pure_reflection")),
        seed=seed,
        kappa=float(s.get("kappa", _DEFAULTS["kappa"])),
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tz-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [c if isinstance(c, str) else _fmt(c) for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_spectrum(scn: dict, fmt: str, threads: int, seed: int | None) -> str:
    params = _model(scn)
    K = int(scn.get("spectral", {}).get("K", _DEFAULTS["spectral_K"]))
    spec = build_spectrum(params, K)
    us = np.sqrt(2.0) * spec.eigenvalues * params.f_bar / params.sigma
    rows = [
        (k + 1, spec.eigenvalues[k], us[k], spec.brackets[k][0], spec.brackets[k][1], spec.regime)
        for k in range(K)
    ]
    if fmt == "json":
        return _json_text(
            {
                "regime": spec.regime,
                "spread_coefficient": spread_coefficient(params),
                "rows": [
                    dict(zip(("k", "omega", "u", "bracket_lo", "bracket_hi", "regime"), r))
                    for r in rows
                ],
            }
        )
    return _csv(["k", "omega", "u", "bracket_lo", "bracket_hi", "regime"], rows)


def cmd_stationary(scn: dict, fmt: str, threads: int, seed: int | None) -> str:
    params = _model(scn)
    sct = scn.get("stationary", {})
    betas = [float(b) for b in sct.get("beta_values", [params.beta])]
    n = int(sct.get("n_points", 201))
    rows = []
    for b in betas:
        p = dataclasses.replace(params, beta=b)
        sol = solve_smooth_pasting(p)
        grid = uniform_grid(p, n)
        xs = eval_stationary(sol, grid)
        rows.extend((b, f, x) for f, x in zip(grid, xs))
    if fmt == "json":
        return _json_text(
            {"rows": [dict(zip(("beta", "f", "x"), r)) for r in rows]}
        )
    return _csv(["beta", "f", "x"], rows)


def cmd_transient(scn: dict, fmt: str, threads: int, seed: int | None) -> str:
    params = _model(scn)
    tct = scn.get("transient", {})
    K = int(tct.get("K", _DEFAULTS["spectral_K"]))
    n_times = int(tct.get("n_times", 25))
    n_points = int(tct.get("n_points", 101))
    ts = build_transient(params, K=K)
    t_grid = np.linspace(0.0, params.horizon_T, n_times)
    f_grid = uniform_grid(params, n_points)
    mat = surface(ts, t_grid, f_grid)
    rows = [
        (t, f, mat[i, j])
        for i, t in enumerate(t_grid)
        for j, f in enumerate(f_grid)
    ]
    if fmt == "json":
        return _json_text({"rows": [dict(zip(("t", "f", "x"), r)) for r in rows]})
    return _csv(["t", "f", "x"], rows)


def cmd_feasibility(scn: dict, fmt: str, threads: int, seed: int | None) -> str:
    params = _model(scn)
    spec = build_spectrum(params, 1)
    rep = relaxation_time(spec)
    payload = {
        "omega1": rep.omega1,
        "t_relax": rep.t_relax,
        "lower_bound": rep.lower_bound,
        "upper_bound": rep.upper_bound,
        "feasible": rep.feasible,
        "regime": rep.regime,
        "sandwich_ok": rep.sandwich_ok,
        "horizon_T": params.horizon_T,
        "regime_threshold_beta": regime_threshold(params),
    }
    if fmt == "csv":
        keys = sorted(payload)
        return _csv(keys, [tuple(str(payload[k]) if isinstance(payload[k], (bool, str)) else payload[k] for k in keys)])
    return _json_text(payload)


def cmd_regime_scan(scn: dict, fmt: str, threads: int, seed: int | None) -> str:
    params = _model(scn)
    sct = scn.get("spectral", {})
    beta_e = regime_threshold(params)
    grid = np.linspace(max(1e-6, 0.05 * beta_e), 2.5 * beta_e, int(sct.get("K", 120)))
    rows = regime_scan(params, grid)
    if fmt == "json":
        return _json_text(
            {
                "regime_threshold_beta": beta_e,
                "rows": [dict(zip(("beta", "omega1", "t_relax", "regime"), r)) for r in rows],
            }
        )
    return _csv(["beta", "omega1", "t_relax", "regime"], rows)


def cmd_simulate(scn: dict, fmt: str, threads: int, seed: int | None) -> str:
    params = _model(scn)
    cfg = _sim_config(scn, params, seed)
    ens = simulate(cfg, threads=threads)
    sample = min(5, cfg.n_paths)
    rows = [
        (p, t, ens.fundamentals[p, j])
        for p in range(sample)
        for j, t in enumerate(ens.times)
    ]
    if fmt == "json":
        return _json_text(
            {
                "n_interventions": int(ens.n_interventions),
                "rows": [dict(zip(("path", "t", "f"), r)) for r in rows],
            }
        )
    return _csv(["path", "t", "f"], rows)


def _density_values(scn: dict, params: ModelParams, cfg: SimConfig, threads: int):
    dct = scn.get("density", {})
    target = str(dct.get("target", "exchange"))
    if target not in ("exchange", "fundamental"):
        raise ValidationError(f"unknown density target {target!r}")
    window = dct.get("t_window", [0.0, 1.0])
    if len(window) != 2 or not 0.0 <= window[0] < window[1] <= 1.0:
        raise ValidationError("density.t_window must be [lo, hi] fractions of the horizon")
    ens = simulate(cfg, threads=threads)
    if target == "exchange":
        K = int(scn.get("transient", {}).get("K", _DEFAULTS["spectral_K"]))
        ts = build_transient(params, K=K)
        mat = exchange_paths(ens, ts)
    else:
        mat = ens.fundamentals
    n = mat.shape[1] - 1
    j0, j1 = int(window[0] * n), int(window[1] * n) + 1
    values = mat[:, j0:j1].ravel()
    rng_kind = str(dct.get("range", "observed"))
    if rng_kind == "band":
        value_range = (-params.f_bar, params.f_bar)
    elif rng_kind == "observed":
        value_range = None
    else:
        raise ValidationError(f"unknown density range {rng_kind!r}")
    n_bins = int(dct.get("n_bins", _DEFAULTS["n_bins"]))
    return estimate_density(values, n_bins, value_range), target


def cmd_density(scn: dict, fmt: str, threads: int, seed: int | None) -> str:
    params = _model(scn)
    cfg = _sim_config(scn, params, seed)
    dens, target = _density_values(scn, params, cfg, threads)
    shape = classify_shape(dens)
    if fmt == "json":
        return _json_text(
            {
                "target": target,
                "classification": shape,
                "bin_edges": [float(e) for e in dens.bin_edges],
                "density": [float(v) for v in dens.density],
            }
        )
    rows = [
        (dens.bin_edges[i], dens.bin_edges[i + 1], dens.centers[i], dens.density[i], shape)
        for i in range(dens.n_bins)
    ]
    return _csv(["bin_lo", "bin_hi", "center", "density", "shape"], rows)


def cmd_honeymoon(scn: dict, fmt: str, threads: int, seed: int | None) -> str:
    params = _model(scn)
    hct = scn.get("honeymoon", {})
    F = float(hct.get("F", params.f_bar))
    omega = float(hct.get("omega", 0.0))
    rep = classify_honeymoon(params, F, omega)
    payload = {
        "W": rep.W,
        "Wc": rep.Wc,
        "applicable": rep.applicable,
        "status": rep.status,
        "spread_coefficient": spread_coefficient(params),
        "regime_threshold_beta": regime_threshold(params),
    }
    if fmt == "csv":
        keys = sorted(payload)
        return _csv(keys, [tuple(str(payload[k]) if not isinstance(payload[k], float) else payload[k] for k in keys)])
    return _json_text(payload)


def cmd_ou(scn: dict, fmt: str, threads: int, seed: int | None) -> str:
    params = _model(scn)
    oct_ = scn.get("ou", {})
    lam = float(oct_.get("lambda_speed", 1.0))
    mu = float(oct_.get("mu", 0.0))
    K = int(oct_.get("K", 10))
    n = int(oct_.get("n_points", 201))
    sol = ou_stationary(lam, mu, params)
    grid = uniform_grid(params, n)
    xs = eval_stationary(sol, grid)
    spec = ou_asymptotic_spectrum(lam, mu, params, K)
    payload = {
        "A": sol.A,
        "B": sol.B,
        "lambda_speed": lam,
        "mu": mu,
        "asymptotic_spectrum": [float(w) for w in spec.eigenvalues],
        "curve": {"f": [float(f) for f in grid], "x": [float(x) for x in xs]},
    }
    if fmt == "csv":
        return _csv(["f", "x"], list(zip(grid, xs)))
    return _json_text(payload)


_COMMANDS = {
    "spectrum": (cmd_spectrum, "csv"),
    "stationary": (cmd_stationary, "csv"),
    "transient": (cmd_transient, "csv"),
    "feasibility": (cmd_feasibility, "json"),
    "regime-scan": (cmd_regime_scan, "csv"),
    "simulate": (cmd_simulate, "csv"),
    "density": (cmd_density, "json"),
    "honeymoon": (cmd_honeymoon, "json"),
    "ou": (cmd_ou, "json"),
}


def run_command(
    command: str,
    scenario_path: str | Path,
    out_path: str | Path,
    *,
    fmt: str | None = None,
    threads: int = 1,
    seed: int | None = None,
) -> Path:
    """Run one subcommand end to end; returns the output path."""
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    func, default_fmt = _COMMANDS[command]
    fmt = fmt or default_fmt
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown format {fmt!r}")
    if threads < 1:
        raise ValidationError("--threads must be >= 1")
    scn = load_scenario(scenario_path)
    out = scn.get("outputs", {})
    target = Path(out_path) if out_path else Path(out.get("path", f"{command}.{fmt}"))
    text = func(scn, fmt, threads, seed)
    _write_atomic(target, text)
    return target


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="targetzone",
        description="Finite-horizon target-zone model: spectra, solutions, simulation.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--seed", type=int, default=None, help="override sim seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)
    try:
        path = run_command(
            args.command,
            args.config,
            args.out,
            fmt=args.format,
            threads=args.threads,
            seed=args.seed,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(str(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
