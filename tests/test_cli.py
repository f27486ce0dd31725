import json
from pathlib import Path

import pytest

from targetzone import ValidationError
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


def test_cli_exit_codes(tmp_path):
    bad = write_scenario(tmp_path, "bad.json", {"model": {"alpha": -1.0}})
    assert main(["feasibility", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    missing = tmp_path / "nope.json"
    assert main(["spectrum", "--config", str(missing), "--out", str(tmp_path / "x")]) == 2
    # hypergeometric series blowup -> numerical failure channel
    blowup = write_scenario(
        tmp_path,
        "blow.json",
        {"model": {"alpha": 0.8, "beta": 0.0, "sigma": 1e-9, "f_bar": 0.2},
         "ou": {"lambda_speed": 1.0, "mu": 0.02, "K": 2, "n_points": 5}},
    )
    assert main(["ou", "--config", str(blowup), "--out", str(tmp_path / "y")]) == 3


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
