"""Command-line front end: scenario JSON in, CSV/JSON data out.

Each subcommand reads one scenario file and runs the corresponding solver
or simulation.  A command only returns its data, once: a JSON document
plus a CSV header and rows.  ``run_command`` alone picks the format and
writes the single output file atomically (temp file plus rename, so
partial outputs never appear).  Every run is deterministic given the
scenario and seed; ``--threads`` never changes numbers, only how many of
the 256-path noise blocks, each keyed by (seed, block), are drawn at once.

Exit codes: 0 success, 2 validation error, 3 numerical failure.

Run as ``python -m targetzone.cli`` or as the ``targetzone`` script, the
process ends through ``_run_and_exit``: it flushes stdout and stderr after
``main`` returns, then leaves with ``os._exit``, skipping the interpreter's
teardown (module cleanup and final collections over numpy's objects, about
25 ms of CPU per run), on which no output byte depends.  ``main`` itself
returns the code and never exits, so callers in a process are unaffected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

# the analytic core most commands use is bound here; mc and honeymoon are
# imported inside the commands that use them, so other runs never load them
from .errors import NumericalError, ValidationError
from .params import ModelParams, uniform_grid
from .spectral import (
    build_spectrum,
    ou_asymptotic_spectrum,
    regime_scan,
    regime_threshold,
    relaxation_time,
    spread_coefficient,
)
from .stationary import eval_stationary, ou_stationary, solve_smooth_pasting
from .transient import build_transient, surface

__all__ = ["main", "load_scenario", "run_command"]

_SCENARIO_KEYS = {
    "model": {"alpha", "beta", "sigma", "f_bar", "horizon_T"},
    "spectral": {"K"},
    "stationary": {"beta_values", "n_points"},
    "transient": {"K", "n_times", "n_points"},
    "sim": {"n_paths", "dt", "drift_mode", "intervention", "kappa", "seed"},
    "density": {"target", "n_bins", "range", "t_window"},
    "honeymoon": {"F", "omega"},
    "ou": {"lambda_speed", "mu", "K", "n_points"},
    "outputs": {"format", "path"},
}

_FORMATS = ("csv", "json")

_DEFAULTS = {
    "spectral_K": 50,
    "n_bins": 61,
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
    if raw.get("outputs", {}).get("format", "csv") not in _FORMATS:
        raise ValidationError(f"unknown outputs.format {raw['outputs']['format']!r}")
    if not isinstance(raw.get("outputs", {}).get("path", ""), str):
        raise ValidationError(f"outputs.path must be a string, got {raw['outputs']['path']!r}")
    return raw


def _convert(key: str, value, cast=float):
    """A finite JSON number (not a boolean) as ``cast``; ``int`` also needs an integral value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    try:
        return cast(value)
    except OverflowError:
        raise ValidationError(f"{key} is out of range, got {value!r}") from None


def _num(scn: dict, key: str, default=None, cast=float):
    """Scenario field ``section.name`` through ``cast``; malformed -> ValidationError."""
    section, name = key.split(".")
    return _convert(key, scn.get(section, {}).get(name, default), cast)


def _count(scn: dict, key: str, default: int, minimum: int) -> int:
    """Integer scenario field, refused below ``minimum``."""
    value = _num(scn, key, default, int)
    if value < minimum:
        raise ValidationError(f"{key} must be >= {minimum}, got {value}")
    return value


def _nums(scn: dict, key: str, default: list) -> list[float]:
    """Scenario list field ``section.name`` as floats."""
    section, name = key.split(".")
    values = scn.get(section, {}).get(name, default)
    if not isinstance(values, list):
        raise ValidationError(f"{key} must be a list of numbers, got {values!r}")
    return [_convert(key, v) for v in values]


def _model(scn: dict) -> ModelParams:
    if "alpha" not in scn["model"]:
        raise ValidationError("model.alpha is required")
    return ModelParams(**{name: _num(scn, f"model.{name}") for name in scn["model"]})


def _sim_config(scn: dict, params: ModelParams, seed_override: int | None):
    """``sim`` section over the ``SimConfig`` defaults; counts range-checked here."""
    from .mc import SimConfig

    s = scn.get("sim", {})
    seed = _num(scn, "sim.seed", SimConfig.seed, int) if seed_override is None else seed_override
    return SimConfig(
        params=params,
        n_paths=_count(scn, "sim.n_paths", SimConfig.n_paths, 1),
        dt=None if s.get("dt") is None else _num(scn, "sim.dt"),
        drift_mode=str(s.get("drift_mode", SimConfig.drift_mode)),
        intervention=str(s.get("intervention", SimConfig.intervention)),
        seed=seed,
        kappa=_num(scn, "sim.kappa", SimConfig.kappa),
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # created like any new file, mode 0o666 less the umask, under a name no other process uses
    tmp = path.parent / f".tz-{os.getpid()}-{path.name}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


# A command returns (json_doc, csv_header, csv_rows); json_doc is a thunk, so
# the per-row objects of a table are built only when JSON is written.


def _table(header: list[str], rows: list[tuple], **meta):
    """Rows under ``header``; the JSON view is ``meta`` plus one object per row."""
    return (lambda: {**meta, "rows": [dict(zip(header, r)) for r in rows]}), header, rows


def _record(payload: dict):
    """One JSON object; its CSV is one row under the sorted keys, non-floats as ``str``."""
    keys = sorted(payload)
    row = tuple(v if isinstance(v, float) else str(v) for v in map(payload.get, keys))
    return (lambda: payload), keys, [row]


def cmd_spectrum(scn: dict, params: ModelParams, threads: int, seed: int | None):
    K = _count(scn, "spectral.K", _DEFAULTS["spectral_K"], 1)
    spec = build_spectrum(params, K)
    omega = spec.eigenvalues
    rows = [
        (k + 1, omega[k], spec.u[k], spec.brackets[k][0], spec.brackets[k][1], spec.regime)
        for k in range(K)
    ]
    return _table(
        ["k", "omega", "u", "bracket_lo", "bracket_hi", "regime"],
        rows,
        regime=spec.regime,
        spread_coefficient=spread_coefficient(params),
    )


def cmd_stationary(scn: dict, params: ModelParams, threads: int, seed: int | None):
    betas = _nums(scn, "stationary.beta_values", [params.beta])
    n = _count(scn, "stationary.n_points", 201, 2)
    rows = []
    for b in betas:
        p = dataclasses.replace(params, beta=b)
        grid = uniform_grid(p, n)
        xs = eval_stationary(solve_smooth_pasting(p), grid)
        rows.extend((b, f, x) for f, x in zip(grid, xs))
    return _table(["beta", "f", "x"], rows)


def cmd_transient(scn: dict, params: ModelParams, threads: int, seed: int | None):
    K = _count(scn, "transient.K", _DEFAULTS["spectral_K"], 1)
    n_times = _count(scn, "transient.n_times", 25, 1)
    n_points = _count(scn, "transient.n_points", 101, 2)
    t_grid = np.linspace(0.0, params.horizon_T, n_times)
    f_grid = uniform_grid(params, n_points)
    mat = surface(build_transient(params, K=K), t_grid, f_grid)
    rows = [(t, f, mat[i, j]) for i, t in enumerate(t_grid) for j, f in enumerate(f_grid)]
    return _table(["t", "f", "x"], rows)


def cmd_feasibility(scn: dict, params: ModelParams, threads: int, seed: int | None):
    rep = relaxation_time(build_spectrum(params, 1))
    return _record({
        **dataclasses.asdict(rep),
        "horizon_T": params.horizon_T,
        "regime_threshold_beta": regime_threshold(params),
    })


def cmd_regime_scan(scn: dict, params: ModelParams, threads: int, seed: int | None):
    n_betas = _count(scn, "spectral.K", 120, 1)
    beta_e = regime_threshold(params)
    grid = np.linspace(max(1e-6, 0.05 * beta_e), 2.5 * beta_e, n_betas)
    return _table(
        ["beta", "omega1", "t_relax", "regime"],
        regime_scan(params, grid),
        regime_threshold_beta=beta_e,
    )


def cmd_simulate(scn: dict, params: ModelParams, threads: int, seed: int | None):
    from .mc import simulate

    cfg = _sim_config(scn, params, seed)
    ens = simulate(cfg, threads=threads)
    rows = [
        (p, t, ens.fundamentals[p, j])
        for p in range(min(5, cfg.n_paths))
        for j, t in enumerate(ens.times)
    ]
    return _table(["path", "t", "f"], rows, n_interventions=int(ens.n_interventions))


def cmd_density(scn: dict, params: ModelParams, threads: int, seed: int | None):
    from .mc import MIN_BINS, classify_shape, estimate_density, exchange_density, simulate

    cfg = _sim_config(scn, params, seed)
    dct = scn.get("density", {})
    target = str(dct.get("target", "exchange"))
    if target not in ("exchange", "fundamental"):
        raise ValidationError(f"unknown density target {target!r}")
    window = _nums(scn, "density.t_window", [0.0, 1.0])
    if len(window) != 2 or not 0.0 <= window[0] < window[1] <= 1.0:
        raise ValidationError("density.t_window must be [lo, hi] fractions of the horizon")
    rng_kind = str(dct.get("range", "observed"))
    if rng_kind == "band":
        value_range = (-params.f_bar, params.f_bar)
    elif rng_kind == "observed":
        value_range = None
    else:
        raise ValidationError(f"unknown density range {rng_kind!r}")
    n = cfg.n_steps()
    j0, j1 = int(window[0] * n), int(window[1] * n) + 1
    n_values = cfg.n_paths * (j1 - j0)
    n_bins = _count(scn, "density.n_bins", _DEFAULTS["n_bins"], MIN_BINS)
    if n_bins > n_values:
        raise ValidationError(f"density.n_bins = {n_bins} exceeds the {n_values} sampled values")
    K = _count(scn, "transient.K", _DEFAULTS["spectral_K"], 1)
    # built before the paths, so that a refused transient draws no noise
    ts = build_transient(params, K=K) if target == "exchange" else None
    ens = simulate(cfg, threads=threads)
    # only the window's columns are histogrammed, so only they are mapped
    ens = dataclasses.replace(ens, times=ens.times[j0:j1], fundamentals=ens.fundamentals[:, j0:j1])
    if ts is not None:
        dens = exchange_density(ens, ts, n_bins, value_range)
    else:
        # a transposed time-major array: order="K" ravels without a copy
        dens = estimate_density(ens.fundamentals.ravel(order="K"), n_bins, value_range)
    shape = classify_shape(dens)
    edges = dens.bin_edges
    doc = {
        "target": target,
        "classification": shape,
        "bin_edges": [float(e) for e in edges],
        "density": [float(v) for v in dens.density],
    }
    rows = [(*r, shape) for r in zip(edges[:-1], edges[1:], dens.centers, dens.density)]
    return (lambda: doc), ["bin_lo", "bin_hi", "center", "density", "shape"], rows


def cmd_honeymoon(scn: dict, params: ModelParams, threads: int, seed: int | None):
    from .honeymoon import classify_honeymoon

    F = _num(scn, "honeymoon.F", params.f_bar)
    omega = _num(scn, "honeymoon.omega", 0.0)
    rep = classify_honeymoon(params, F, omega)
    return _record({
        **dataclasses.asdict(rep),
        "spread_coefficient": spread_coefficient(params),
        "regime_threshold_beta": regime_threshold(params),
    })


def cmd_ou(scn: dict, params: ModelParams, threads: int, seed: int | None):
    lam = _num(scn, "ou.lambda_speed", 1.0)
    mu = _num(scn, "ou.mu", 0.0)
    K = _count(scn, "ou.K", 10, 1)
    n = _count(scn, "ou.n_points", 201, 2)
    sol = ou_stationary(lam, mu, params)
    grid = uniform_grid(params, n)
    xs = eval_stationary(sol, grid)
    doc = {
        "A": sol.A,
        "B": sol.B,
        "lambda_speed": lam,
        "mu": mu,
        "asymptotic_spectrum": [float(w) for w in ou_asymptotic_spectrum(lam, mu, params, K)],
        "curve": {"f": [float(f) for f in grid], "x": [float(x) for x in xs]},
    }
    return (lambda: doc), ["f", "x"], list(zip(grid, xs))


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
    if threads < 1:
        raise ValidationError("--threads must be >= 1")
    scn = load_scenario(scenario_path)
    out = scn.get("outputs", {})
    # outputs.format belongs to outputs.path; --out names another file
    fmt = fmt or (None if out_path else out.get("format")) or default_fmt
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown format {fmt!r}")
    target = Path(out_path) if out_path else Path(out.get("path", f"{command}.{fmt}"))
    doc, header, rows = func(scn, _model(scn), threads, seed)
    text = _json_text(doc()) if fmt == "json" else _csv(header, rows)
    try:
        _write_atomic(target, text)
    except OSError as exc:
        raise ValidationError(f"cannot write output: {exc}") from exc
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
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(str(path))
    return 0


def _run_and_exit() -> None:
    """Run ``main``, flush both streams, and end the process with its code.

    ``main`` has closed and renamed its output file and joined any thread
    pool by the time it returns, so only the streams hold unwritten bytes.
    Should a flush raise, ``sys.exit`` ends the run as before, and the
    interpreter's own flush then reports the lost write (exit code 120).
    argparse's exits and uncaught exceptions raise out of ``main`` and take
    that normal path too.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    _run_and_exit()
