import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import targetzone.mc
from targetzone import (
    ModelParams,
    SimConfig,
    ValidationError,
    build_spectrum,
    build_transient,
    estimate_density,
    exchange_density,
    exchange_paths,
    simulate,
)
from targetzone.cli import load_scenario, main, run_command

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "targetzone" / "scenarios"


def write_scenario(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SMALL_SIM = {
    "model": {"alpha": 200.0, "beta": 1.0, "sigma": 0.1, "f_bar": 0.1, "horizon_T": 1.0},
    "sim": {"n_paths": 64, "drift_mode": "tanh", "intervention": "pure_reflection",
            "kappa": 1.0, "seed": 5},
    "transient": {"K": 20},
    "density": {"target": "exchange", "n_bins": 21, "range": "band", "t_window": [0.0, 0.99]},
}


def test_unknown_scenario_section_rejected(tmp_path):
    path = write_scenario(tmp_path, "bad.json", {"model": {"alpha": 1.0}, "extra": {}})
    with pytest.raises(ValidationError, match="unknown scenario section"):
        load_scenario(path)


def test_unknown_scenario_key_rejected(tmp_path):
    path = write_scenario(tmp_path, "bad.json", {"model": {"alpha": 1.0, "speed": 2}})
    with pytest.raises(ValidationError, match="unknown keys"):
        load_scenario(path)


def test_transient_mode_key_rejected(tmp_path):
    path = write_scenario(
        tmp_path, "mode.json", {"model": {"alpha": 0.8}, "transient": {"mode": "exact_projection"}}
    )
    assert main(["transient", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


def test_model_r_share_key_rejected(tmp_path, capsys):
    payload = {"model": {"alpha": 0.8, "r_share": 0.0}, "ou": {"lambda_speed": 1.0, "mu": 0.0}}
    path = write_scenario(tmp_path, "ou.json", payload)
    assert main(["ou", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "r_share" in capsys.readouterr().err


def test_missing_model_rejected(tmp_path):
    path = write_scenario(tmp_path, "bad.json", {"spectral": {"K": 5}})
    with pytest.raises(ValidationError, match="model"):
        load_scenario(path)


def test_shipped_scenarios_parse():
    for scn in SCENARIOS.glob("*.json"):
        assert load_scenario(scn)


def test_spectrum_csv_columns(tmp_path):
    out = run_command("spectrum", SCENARIOS / "spectrum_narrow.json", tmp_path / "s.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "k,omega,u,bracket_lo,bracket_hi,regime"
    assert len(lines) == 13
    assert lines[1].endswith("diffusive")


def test_spectrum_columns_print_the_stored_roots(tmp_path):
    # u is the root as solved, never u mapped back from omega
    scn = SCENARIOS / "eigenvalue_jump.json"
    out = run_command("spectrum", scn, tmp_path / "j.csv", fmt="csv")
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    spec = build_spectrum(ModelParams(**load_scenario(scn)["model"]), 240)
    assert [r[1] for r in rows] == [format(w, ".17g") for w in spec.eigenvalues]
    assert [r[2] for r in rows] == [format(u, ".17g") for u in spec.u]


def test_gaussian_spectrum_evenly_spaced(tmp_path):
    scn = write_scenario(
        tmp_path,
        "g.json",
        {"model": {"alpha": 0.8, "beta": 0.0, "sigma": 1.0, "f_bar": 0.1}, "spectral": {"K": 4}},
    )
    out = run_command("spectrum", scn, tmp_path / "g.csv")
    rows = out.read_text().splitlines()[1:]
    us = [float(r.split(",")[2]) for r in rows]
    import math

    for k, u in enumerate(us):
        assert u == pytest.approx((2 * k + 1) * math.pi / 2.0, abs=1e-9)


def test_feasibility_report_round_trip(tmp_path):
    scn = write_scenario(
        tmp_path,
        "f.json",
        {"model": {"alpha": 0.8, "beta": 1.0, "sigma": 1.0, "f_bar": 0.1, "horizon_T": 3.0}},
    )
    out = run_command("feasibility", scn, tmp_path / "f.json.out")
    payload = json.loads(out.read_text())
    assert payload["feasible"] is True
    assert payload["t_relax"] < 3.0
    assert set(payload) >= {"omega1", "t_relax", "lower_bound", "upper_bound", "regime"}


# (command, scenario sections over SMALL_SIM, extra CLI arguments): each is
# malformed input and must exit 2, not crash
MALFORMED = (
    ("feasibility", {"model": {"alpha": "x"}}, []),
    ("feasibility", {"model": {"alpha": None}}, []),
    ("simulate", {"sim": {"n_paths": "many"}}, []),
    ("simulate", {"sim": {"n_paths": 2.7}}, []),
    ("spectrum", {"spectral": {"K": 3.9}}, []),
    ("feasibility", {"model": {"alpha": "0.8"}}, []),
    ("feasibility", {"model": {"beta": True}}, []),
    ("simulate", {"sim": {"seed": 1.5}}, []),
    ("density", {"density": {"t_window": 5}}, []),
    ("stationary", {"stationary": {"beta_values": 1.0}}, []),
    ("simulate", {"sim": {"seed": -3}}, []),
    ("simulate", {}, ["--seed", "-1"]),
    ("spectrum", {"outputs": {"format": "xml"}}, []),
    ("spectrum", {"outputs": {"path": 5}}, []),
    ("spectrum", {"spectral": {"K": 0}}, []),
    ("regime-scan", {"spectral": {"K": -2}}, []),
    ("transient", {"transient": {"K": 0}}, []),
    ("transient", {"transient": {"n_times": -1}}, []),
    ("transient", {"transient": {"n_points": 1}}, []),
    ("stationary", {"stationary": {"n_points": 1}}, []),
    ("ou", {"ou": {"K": 0}}, []),
    ("ou", {"ou": {"n_points": 1}}, []),
    ("simulate", {"sim": {"n_paths": 0}}, []),
    ("density", {"sim": {"dt": float("nan")}}, []),
    # finite and positive, but no addressable (n_steps + 1) x n_paths buffer
    ("simulate", {"sim": {"n_paths": 4, "dt": 1e-300}}, []),
    ("honeymoon", {"honeymoon": {"F": float("nan")}}, []),
    ("honeymoon", {"honeymoon": {"F": float("inf")}}, []),
    ("honeymoon", {"honeymoon": {"omega": float("nan")}}, []),
    ("ou", {"ou": {"lambda_speed": float("nan")}}, []),
    ("ou", {"ou": {"lambda_speed": float("inf")}}, []),
    ("ou", {"ou": {"mu": float("nan")}}, []),
    ("ou", {"ou": {"mu": float("-inf")}}, []),
    # c = beta f_bar tanh(beta f_bar) = 1e14: no eigenvalue bracket holds a root
    ("spectrum", {"model": {"alpha": 0.8, "beta": 1e15, "f_bar": 0.1}}, []),
    ("feasibility", {"model": {"alpha": 0.8, "beta": 1e15, "f_bar": 0.1}}, []),
    # 64 paths x 3 columns = 192 values, fewer than the bins
    ("density", {"density": {"t_window": [0.0, 0.01], "n_bins": 200}}, []),
    # an integer JSON number past the double range
    ("feasibility", {"model": {"alpha": 10**400}}, []),
    ("density", {"density": {"target": "volume"}}, []),
    ("density", {"density": {"t_window": [0.8, 0.2]}}, []),
    ("density", {"density": {"range": "wide"}}, []),
    ("spectrum", {}, ["--threads", "0"]),
)

# scenario files that MALFORMED's section merge cannot express
MALFORMED_FILES = (
    '{"model": {"alpha": 0.8}',
    '[{"model": {"alpha": 0.8}}]',
    '{"model": {"alpha": 0.8}, "spectral": [5]}',
    '{"model": {"beta": 1.0}}',
)


def test_cli_exit_codes(tmp_path):
    bad = write_scenario(tmp_path, "bad.json", {"model": {"alpha": -1.0}})
    assert main(["feasibility", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    for i, (command, sections, extra) in enumerate(MALFORMED):
        payload = {key: dict(SMALL_SIM.get(key, {}), **sections.get(key, {}))
                   for key in set(SMALL_SIM) | set(sections)}
        scn = write_scenario(tmp_path, f"malformed{i}.json", payload)
        argv = [command, "--config", str(scn), "--out", str(tmp_path / f"m{i}")] + extra
        assert main(argv) == 2, (command, sections, extra)
    for i, text in enumerate(MALFORMED_FILES):
        scn = tmp_path / f"malformed-file{i}.json"
        scn.write_text(text)
        assert main(["spectrum", "--config", str(scn), "--out", str(tmp_path / "x")]) == 2, text
    missing = tmp_path / "nope.json"
    assert main(["spectrum", "--config", str(missing), "--out", str(tmp_path / "x")]) == 2
    # an output path that cannot be written: under a regular file, and under /dev/null
    ok = write_scenario(tmp_path, "ok.json", {"model": {"alpha": 0.8}})
    for out in (bad / "x.csv", Path(os.devnull) / "x.csv"):
        assert main(["spectrum", "--config", str(ok), "--out", str(out)]) == 2, out
    # hypergeometric series blowup -> numerical failure channel
    blowup = write_scenario(
        tmp_path,
        "blow.json",
        {"model": {"alpha": 0.8, "beta": 0.0, "sigma": 1e-9, "f_bar": 0.2},
         "ou": {"lambda_speed": 1.0, "mu": 0.02, "K": 2, "n_points": 5}},
    )
    assert main(["ou", "--config", str(blowup), "--out", str(tmp_path / "y")]) == 3
    # beta f_bar = 701: the smooth-pasting amplitudes overflow
    wide = write_scenario(tmp_path, "wide.json", {"model": {"alpha": 0.8, "beta": 1402.0, "f_bar": 0.5}})
    assert main(["stationary", "--config", str(wide), "--out", str(tmp_path / "w")]) == 3
    # sigma^2 underflows to 0 (1e-300), or 2 alpha / sigma^2 overflows: r is not finite
    for sigma in (1e-155, 1e-160, 1e-300):
        for beta in (0.0, 1.0):
            tiny = write_scenario(tmp_path, "tiny.json",
                                  {"model": {"alpha": 0.8, "beta": beta, "sigma": sigma, "f_bar": 0.1}})
            for command in ("stationary", "transient"):
                argv = [command, "--config", str(tiny), "--out", str(tmp_path / "t")]
                assert main(argv) == 2, (command, sigma, beta)
    # a valid model whose contact point 1/(rho - beta) lies past the double range
    far = write_scenario(tmp_path, "far.json", {"model": {"alpha": 1e-300, "beta": 1e150},
                                                "honeymoon": {"F": 0.1}})
    assert main(["honeymoon", "--config", str(far), "--out", str(tmp_path / "z")]) == 3


def test_run_command_refusals(tmp_path):
    scn = write_scenario(tmp_path, "ok.json", {"model": {"alpha": 0.8}})
    # the CLI's own parser refuses these two before run_command sees them
    with pytest.raises(ValidationError, match="unknown command"):
        run_command("plot", scn, tmp_path / "x")
    with pytest.raises(ValidationError, match="unknown format"):
        run_command("spectrum", scn, tmp_path / "x", fmt="xml")


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    scn = write_scenario(tmp_path, "ok.json", {"model": {"alpha": 0.8}})
    out = tmp_path / "out"

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["spectrum", "--config", str(scn), "--out", str(out / "s.csv")]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_output_mode_follows_the_umask(tmp_path, umask):
    # created as 0o666 less the umask, like any new file; no temporary file is left
    scn = write_scenario(tmp_path, "ok.json", {"model": {"alpha": 0.8}})
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        path = run_command("spectrum", scn, out / "s.csv")
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert [p.name for p in out.iterdir()] == ["s.csv"]


def test_module_runs_as_a_script(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["-m", "targetzone.cli", "spectrum", "--config", str(SCENARIOS / "spectrum_narrow.json"),
            "--out", str(out)]
    src = str(SCENARIOS.parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout.strip()) == (0, str(out))
    assert out.read_text() == run_command("spectrum", SCENARIOS / "spectrum_narrow.json",
                                          tmp_path / "ref.csv").read_text()


def test_cli_success_exit_code(tmp_path, capsys):
    scn = write_scenario(tmp_path, "ok.json", {"model": {"alpha": 0.8, "beta": 1.0}})
    rc = main(["feasibility", "--config", str(scn), "--out", str(tmp_path / "ok.out")])
    assert rc == 0
    assert (tmp_path / "ok.out").exists()


def test_density_runs_are_byte_identical(tmp_path):
    scn = write_scenario(tmp_path, "sim.json", SMALL_SIM)
    a = run_command("density", scn, tmp_path / "a.json")
    b = run_command("density", scn, tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_density_maps_only_the_window(tmp_path, monkeypatch):
    scn = write_scenario(tmp_path, "sim.json", {**SMALL_SIM, "density": {
        "target": "exchange", "n_bins": 21, "range": "band", "t_window": [0.25, 0.75]}})
    seen = {}

    def simulated(cfg, threads):
        seen["ens"] = simulate(cfg, threads=threads)
        return seen["ens"]

    def binned(ens, ts, n_bins, value_range):
        seen["columns"] = ens.fundamentals.shape[1]
        return exchange_density(ens, ts, n_bins, value_range)

    monkeypatch.setattr(targetzone.mc, "simulate", simulated)
    monkeypatch.setattr(targetzone.mc, "exchange_density", binned)
    doc = json.loads(run_command("density", scn, tmp_path / "d.json").read_text())
    ens = seen["ens"]
    n = len(ens.times) - 1
    j0, j1 = int(0.25 * n), int(0.75 * n) + 1
    assert j0 > 0
    assert seen["columns"] == j1 - j0
    p = ens.config.params
    full = exchange_paths(ens, build_transient(p, K=SMALL_SIM["transient"]["K"]))
    ref = estimate_density(full[:, j0:j1].ravel(order="K"), 21, (-p.f_bar, p.f_bar))
    assert doc["density"] == ref.density.tolist()
    assert doc["bin_edges"] == ref.bin_edges.tolist()


def test_fundamental_density_bins_the_window(tmp_path):
    payload = {**SMALL_SIM, "density": {**SMALL_SIM["density"], "target": "fundamental"}}
    doc = json.loads(run_command("density", write_scenario(tmp_path, "f.json", payload),
                                 tmp_path / "d.json").read_text())
    p = ModelParams(**SMALL_SIM["model"])
    ens = simulate(SimConfig(params=p, **SMALL_SIM["sim"]))
    j1 = int(0.99 * (len(ens.times) - 1)) + 1  # the window [0, 0.99]
    ref = estimate_density(ens.fundamentals[:, :j1].ravel(order="K"), 21, (-p.f_bar, p.f_bar))
    assert doc["target"] == "fundamental"
    assert np.array(doc["bin_edges"]).tobytes() == ref.bin_edges.tobytes()
    assert np.array(doc["density"]).tobytes() == ref.density.tobytes()


def test_threads_do_not_change_output(tmp_path):
    scn = write_scenario(tmp_path, "sim.json", SMALL_SIM)
    a = run_command("simulate", scn, tmp_path / "a.csv", threads=1)
    b = run_command("simulate", scn, tmp_path / "b.csv", threads=8)
    assert a.read_bytes() == b.read_bytes()


def test_seed_override_changes_output(tmp_path):
    scn = write_scenario(tmp_path, "sim.json", SMALL_SIM)
    a = run_command("simulate", scn, tmp_path / "a.csv", seed=5)
    b = run_command("simulate", scn, tmp_path / "b.csv", seed=6)
    assert a.read_bytes() != b.read_bytes()


def test_stationary_sweep_output(tmp_path):
    out = run_command("stationary", SCENARIOS / "fig2_stationary.json", tmp_path / "st.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,f,x"
    betas = {line.split(",")[0] for line in lines[1:]}
    assert len(betas) == 3


def test_regime_scan_output(tmp_path):
    out = run_command("regime-scan", SCENARIOS / "regimeshift_wide.json", tmp_path / "rs.csv")
    lines = out.read_text().splitlines()
    regimes = [line.split(",")[-1] for line in lines[1:]]
    assert "diffusive" in regimes and "shifted" in regimes
    flip = sum(1 for a, b in zip(regimes, regimes[1:]) if a != b)
    assert flip == 1


def test_honeymoon_and_ou_reports(tmp_path):
    scn = write_scenario(
        tmp_path,
        "h.json",
        {"model": {"alpha": 0.8, "beta": 1.0, "sigma": 1.0, "f_bar": 0.1},
         "honeymoon": {"F": 0.1, "omega": 0.0}},
    )
    payload = json.loads(run_command("honeymoon", scn, tmp_path / "h.out").read_text())
    assert payload["applicable"] is True
    # rho - beta is taken without cancellation, so a large beta is answered
    large = write_scenario(tmp_path, "hb.json", {"model": {"alpha": 0.8, "beta": 1e9},
                                                 "honeymoon": {"F": 0.1}})
    assert main(["honeymoon", "--config", str(large), "--out", str(tmp_path / "hb.out")]) == 0
    payload = json.loads((tmp_path / "hb.out").read_text())
    assert payload["status"] == "ok" and math.isfinite(payload["W"])
    payload = json.loads(
        run_command("ou", SCENARIOS / "ou_stationary.json", tmp_path / "ou.out").read_text()
    )
    assert len(payload["asymptotic_spectrum"]) == 10
    assert len(payload["curve"]["f"]) == len(payload["curve"]["x"])


def test_transient_surface_output(tmp_path):
    scn = write_scenario(
        tmp_path,
        "t.json",
        {"model": {"alpha": 0.8, "beta": 1.0, "sigma": 1.0, "f_bar": 0.1, "horizon_T": 3.0},
         "transient": {"K": 25, "n_times": 5, "n_points": 21}},
    )
    out = run_command("transient", scn, tmp_path / "t.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "t,f,x"
    assert len(lines) == 1 + 5 * 21
    # last time block sits at the parity line
    final = [abs(float(l.split(",")[2])) for l in lines[-21:]]
    assert max(final) < 1e-2


def test_outputs_format_applies_to_the_scenario_output(tmp_path):
    target = tmp_path / "x.json"
    scn = write_scenario(
        tmp_path,
        "fmt.json",
        {"model": {"alpha": 0.8, "beta": 1.0}, "spectral": {"K": 3},
         "outputs": {"format": "json", "path": str(target)}},
    )
    assert main(["spectrum", "--config", str(scn)]) == 0
    payload = json.loads(target.read_text())
    assert [row["k"] for row in payload["rows"]] == [1, 2, 3]
    # --format outranks outputs.format
    assert main(["spectrum", "--config", str(scn), "--format", "csv"]) == 0
    assert target.read_text().startswith("k,omega,u,")
    # --out names another file, so the scenario's format does not apply
    out = run_command("spectrum", scn, tmp_path / "other.out")
    assert out.read_text().startswith("k,omega,u,")


# the shipped-scenario runs of the benchmark's scenario_cli workload
SCENARIO_RUNS = (
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


def _cell(text):
    """A CSV cell as the JSON value it stands for: a number where it parses as one."""
    try:
        return float(text)
    except ValueError:
        return text


def _both_formats(tmp_path, command, scn):
    stem = tmp_path / f"{command}-{scn.stem}"
    csv_out = run_command(command, scn, stem.with_suffix(".csv"), fmt="csv")
    json_out = run_command(command, scn, stem.with_suffix(".json"), fmt="json")
    rows = list(csv.reader(csv_out.read_text().splitlines()))
    return rows[0], rows[1:], json.loads(json_out.read_text())


def test_csv_and_json_carry_the_same_data(tmp_path):
    small = write_scenario(tmp_path, "small.json", SMALL_SIM)
    runs = [(c, SCENARIOS / f"{s}.json") for c, s in SCENARIO_RUNS]
    runs += [("simulate", small), ("density", small)]
    for command, scn in runs:
        header, rows, doc = _both_formats(tmp_path, command, scn)
        if command in ("feasibility", "honeymoon"):
            assert header == sorted(doc), command
            (row,) = rows
            for key, cell in zip(header, row):
                value = doc[key]
                assert _cell(cell) == (value if isinstance(value, float) else str(value)), key
        elif command == "density":
            assert [float(r[0]) for r in rows] == doc["bin_edges"][:-1]
            assert [float(r[1]) for r in rows] == doc["bin_edges"][1:]
            assert [float(r[3]) for r in rows] == doc["density"]
            assert {r[4] for r in rows} == {doc["classification"]}
        elif command == "ou":
            assert header == ["f", "x"]
            assert [float(r[0]) for r in rows] == doc["curve"]["f"]
            assert [float(r[1]) for r in rows] == doc["curve"]["x"]
        else:
            assert all(sorted(obj) == sorted(header) for obj in doc["rows"]), command
            assert [[_cell(c) for c in r] for r in rows] == [
                [obj[key] for key in header] for obj in doc["rows"]
            ], (command, scn.name)


# one field of the reference model at a time, across the accepted box
BOX_REF = {"alpha": 0.8, "beta": 1.0, "sigma": 1.0, "f_bar": 0.1, "horizon_T": 3.0}
BOX_VALUES = {
    "alpha": (1e-300, 1e-30, 1e30, 1e300),
    "beta": (0.0, 1e-300, 1e4, 1e10, 1e150, 1e300),
    "sigma": (1e-300, 1e-160, 1e-155, 1e-150, 1e-30, 1e30, 1e150, 1e300),
    "f_bar": (1e-300, 1e-150, 1e-30, 1e30, 1e150, 1e300),
    "horizon_T": (1e-300, 1e300),
}
BOX_SECTIONS = {
    "spectral": {"K": 3},
    "stationary": {"n_points": 5},
    "transient": {"K": 3, "n_times": 3, "n_points": 5},
    "ou": {"K": 2, "n_points": 5},
    "sim": {"n_paths": 20, "dt": 0.01},
    "density": {"n_bins": 10},
}
ANALYTIC = ("spectrum", "stationary", "transient", "feasibility", "regime-scan", "honeymoon", "ou")
NON_FINITE = re.compile(r"\b(nan|-?inf(inity)?)\b", re.IGNORECASE)


# numpy's RuntimeWarnings are printed by the CLI, not raised; what a user gets
# is the exit code and the numbers, and that is what this test judges
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_exit_codes_over_the_parameter_box(tmp_path):
    # every command either answers with finite numbers or refuses with exit 2 or 3
    failures = []
    for field, values in BOX_VALUES.items():
        for value in values:
            for command in (*ANALYTIC, "density", "simulate"):
                # the Monte Carlo commands run 20 paths of 10 steps: T 0.1, dt 0.01
                model = {**BOX_REF, **({} if command in ANALYTIC else {"horizon_T": 0.1}), field: value}
                name = f"{command}-{field}-{value:g}"
                scn = write_scenario(tmp_path, f"{name}.json", {"model": model, **BOX_SECTIONS})
                out = tmp_path / f"{name}.out"
                try:
                    code = main([command, "--config", str(scn), "--out", str(out)])
                except Exception as exc:  # an exception escaping main is the failure
                    failures.append((name, repr(exc)))
                    continue
                if code not in (0, 2, 3) or (code == 0 and NON_FINITE.search(out.read_text())):
                    failures.append((name, code))
                # sigma^2 underflows or lambda / sigma^2 overflows: ou refuses its input
                if command == "ou" and field == "sigma" and value <= 1e-155 and code != 2:
                    failures.append((name, code))
    assert failures == []
