"""Config parsing, canonical hashing, run/design/sweep records, CLI."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import dipolemem
from dipolemem import ConfigError, ParameterError, freespace, scenarios
from dipolemem.cli import main as cli_main
from dipolemem.scenarios import (MODELS, SWEEP_AXES, build_input,
                                 design_couplings, load_scenario,
                                 run_scenario, run_sweep, scenario_from_dict,
                                 scenario_hash, write_artifacts)
from dipolemem.units import format_quantity, parse_quantity

PRESETS = sorted(Path(__file__).resolve().parents[1].glob("presets/*.yaml"))


def cavity_cfg(**over):
    cfg = {
        "model": "cavity-adiabatic",
        "grid": {"start": "-2 us", "stop": "0 us", "points": 2001},
        "coupling": [{"kind": "square", "start": "-2 us", "end": "0 us",
                      "amplitude": "0.70710678118654752 MHz_angular"}],
        "input": {"kind": "optimal"},
        "cavity": {"kappa": "1 MHz_angular"},
    }
    cfg.update(over)
    return cfg


def freespace_cfg(**over):
    cfg = {
        "model": "freespace-numeric",
        "grid": {"start": "-1 us", "stop": "2 us", "points": 3001},
        "coupling": [{"kind": "gaussian", "amplitude": "750 MHz_angular",
                      "center": "0 us", "sigma": "100 ns",
                      "support": ["-0.4 us", "0.4 us"]}],
        "input": {"kind": "gaussian", "center": "0.05 us", "sigma": "80 ns"},
        "medium": {"length": "1 cm", "gamma": "50 kHz"},
    }
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------------------
# quantities
# ---------------------------------------------------------------------------

def test_quantity_parsing():
    assert parse_quantity("300 ns", "time") == 300 * 1e-9
    assert parse_quantity("1 cm", "length") == 0.01
    assert parse_quantity("50 kHz_angular", "rate") == 5e4
    # plain frequency units are cycles; rates are stored angular
    assert abs(parse_quantity("50 kHz", "rate") - 2 * np.pi * 5e4) < 1e-9
    assert parse_quantity(0.25, "dimensionless") == 0.25


def test_quantity_rejections():
    with pytest.raises(ConfigError):
        parse_quantity(300e-9, "time")          # bare number needs a unit
    with pytest.raises(ConfigError):
        parse_quantity("300 parsec", "time")
    with pytest.raises(ConfigError):
        parse_quantity("1 cm", "time")          # wrong dimension
    with pytest.raises(ConfigError):
        parse_quantity("fast", "rate")
    with pytest.raises(ConfigError):
        parse_quantity(True, "dimensionless")
    # literals that overflow, alone or through the unit factor
    for text in ("1e400 Hz_angular", "1e300 THz"):
        with pytest.raises(ConfigError, match="cavity.kappa.*finite"):
            parse_quantity(text, "rate", where="cavity.kappa")
    for x in (float("inf"), float("nan")):      # YAML .inf / .nan
        with pytest.raises(ConfigError, match="input.photons.*finite"):
            parse_quantity(x, "dimensionless", where="input.photons")


def test_quantity_format_round_trips(rng):
    for x in rng.uniform(1e-9, 1e-5, size=20):
        assert parse_quantity(format_quantity(x, "time"), "time") == x


# ---------------------------------------------------------------------------
# config canonicalization
# ---------------------------------------------------------------------------

def test_canonical_config_is_idempotent():
    scn = scenario_from_dict(cavity_cfg())
    again = scenario_from_dict(scn.config)
    assert again.config == scn.config
    assert scenario_hash(again) == scenario_hash(scn)


def test_save_load_round_trip(tmp_path):
    from dipolemem.scenarios import save_scenario
    scn = scenario_from_dict(freespace_cfg())
    save_scenario(scn, tmp_path / "case.yaml")
    back = load_scenario(tmp_path / "case.yaml")
    assert scenario_hash(back) == scenario_hash(scn)


def test_hash_tracks_content():
    a = scenario_from_dict(cavity_cfg())
    b = scenario_from_dict(cavity_cfg(cavity={"kappa": "2 MHz_angular"}))
    assert scenario_hash(a) != scenario_hash(b)


def test_presets_load_and_canonicalize():
    assert PRESETS, "preset directory is empty"
    for path in PRESETS:
        scn = load_scenario(path)
        assert scn.model in MODELS
        assert scenario_hash(scenario_from_dict(scn.config)) \
            == scenario_hash(scn)


def test_config_rejections():
    bad = [
        cavity_cfg(extra_knob=1),
        cavity_cfg(model="cavity"),
        cavity_cfg(grid={"start": "-2 us", "stop": "0 us"}),
        cavity_cfg(grid={"start": "-2 us", "stop": "0 us", "points": True}),
        cavity_cfg(grid={"start": "0 us", "stop": "0 us", "points": 100}),
        cavity_cfg(cavity={"kappa": 1e6}),               # unitless rate
        cavity_cfg(cavity={"kappa": "1e300 THz"}),       # overflows to inf
        cavity_cfg(input={"kind": "optimal", "photons": float("inf")}),
        cavity_cfg(input={"kind": "optimal", "photons": float("nan")}),
        cavity_cfg(medium={"length": "1 cm"}),           # wrong block
        cavity_cfg(coupling=[{"kind": "square", "start": "-2 us",
                              "end": "0 us",
                              "amplitude": "-1 MHz_angular"}]),
        cavity_cfg(input={"kind": "gaussian", "center": "0 us",
                          "sigma": "10 ns", "fwtm": "30 ns"}),
        cavity_cfg(input={"kind": "warble"}),
        cavity_cfg(outputs={"fields": True}),            # cavity models
        freespace_cfg(cavity={"kappa": "1 MHz_angular"}),
        freespace_cfg(input={"kind": "optimal"}),
        freespace_cfg(space_points=4),
        freespace_cfg(theta_points=4),
        freespace_cfg(storage_time="-1 ns"),
        freespace_cfg(input={"kind": "gaussian", "center": "0 us",
                             "sigma": "0 ns"}),
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            scenario_from_dict(raw)


def test_load_missing_file():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/config.yaml")


# ---------------------------------------------------------------------------
# the run operation
# ---------------------------------------------------------------------------

def test_run_is_reproducible(tmp_path):
    scn = scenario_from_dict(cavity_cfg())
    for sub in ("a", "b"):
        write_artifacts(run_scenario(scn), tmp_path / sub)
    for name in ("e_out.csv", "spinwave.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    ra = json.loads((tmp_path / "a" / "result.json").read_text())
    rb = json.loads((tmp_path / "b" / "result.json").read_text())
    ra.pop("wall_time_s"), rb.pop("wall_time_s")
    assert ra == rb
    assert ra["scenario_hash"] == scenario_hash(scn)


def test_csv_artifacts_are_crlf_and_full_precision(tmp_path):
    scn = scenario_from_dict(cavity_cfg())
    rec = run_scenario(scn)
    write_artifacts(rec, tmp_path)
    payload = (tmp_path / "e_out.csv").read_bytes()
    lines = payload.split(b"\r\n")
    assert payload.endswith(b"\r\n") and b"\n" not in lines[0]
    assert lines[0] == b"time_s,re,im"
    with open(tmp_path / "e_out.csv", newline="") as f:
        rows = list(csv.reader(f))
    got = np.array([float(r[1]) + 1j * float(r[2]) for r in rows[1:]])
    # 17 significant digits round-trip doubles exactly
    assert got.size == scn.grid.n
    rerun = run_scenario(scn)
    sim_out = None
    for name, header, rows_it in rerun.tables:
        if name == "e_out.csv":
            sim_out = np.array([complex(a, b) for _, a, b in
                                (tuple(r) for r in rows_it)])
    np.testing.assert_array_equal(got, sim_out)


def test_uncoupled_cavity_reflects_everything():
    # with no coupling window nothing is stored and, in both model
    # families, the untouched pulse counts as leakage
    for cfg in (cavity_cfg(coupling=[], input={
                    "kind": "gaussian", "center": "-1 us", "sigma": "100 ns"}),
                freespace_cfg(coupling=[])):
        rec = run_scenario(scenario_from_dict(cfg))
        assert rec.summary["eta_write"] == 0.0
        assert rec.summary["eta_total"] == 0.0
        assert rec.summary["leakage"] == 1.0
        assert rec.summary["output_photons"] == rec.summary["input_photons"]


@pytest.mark.parametrize("cfg", [
    cavity_cfg(input=None, initial_excitation={"sigma_re": 1.0}),
    cavity_cfg(model="cavity-full", input=None,
               initial_excitation={"sigma_re": 1.0}),
    freespace_cfg(input=None, initial_excitation={
        "kind": "gaussian", "center_frac": 0.5, "sigma_frac": 0.1,
        "excitation": 1.0}),
], ids=["cavity-adiabatic", "cavity-full", "freespace-numeric"])
def test_pure_read_starts_at_grid_start_without_leakage(cfg):
    scn = scenario_from_dict(cfg)
    s = run_scenario(scn).summary
    assert s["leakage"] == 0.0
    assert s["read_start"] == scn.grid.t0
    assert s["eta_write"] is None and s["eta_total"] is None
    assert 0.0 < s["eta_read"] < 1.0


def test_medium_is_transparent_outside_coupling_windows():
    scn = scenario_from_dict(freespace_cfg(
        input={"kind": "gaussian", "center": "1.5 us", "sigma": "100 ns"}))
    rec = run_scenario(scn)
    assert rec.summary["eta_write"] < 1e-6
    # nothing stored, nothing lost: the pulse just flies through
    assert abs(rec.summary["output_photons"]
               - rec.summary["input_photons"]) < 1e-9
    t = scn.grid.times()
    e_in = build_input(scn).samples
    e_out = None
    for name, header, rows_it in rec.tables:
        if name == "e_out.csv":
            e_out = np.array([complex(a, b) for _, a, b in
                              (tuple(r) for r in rows_it)])
    late = t > 0.5e-6
    np.testing.assert_array_equal(e_out[late], e_in[late])


def test_freespace_run_closes_its_ledger():
    scn = scenario_from_dict(freespace_cfg())
    rec = run_scenario(scn)
    s = rec.summary
    assert s["theta_total"] > 1.0
    assert 0.0 < s["eta_write"] < 1.0
    assert 0.0 <= s["leakage"] < 1.0
    # what is stored by the write-window end plus what leaked past it
    # cannot beat the input (the rest decayed)
    assert s["eta_write"] + s["leakage"] < 1.0 + 1e-9
    budget = s["output_photons"] + s["stored_final"] + s["decay_loss"]
    assert abs(budget - s["input_photons"]) < 1e-4 * s["input_photons"]
    assert rec.diagnostics["continuity_residual"] < 1e-3
    assert rec.diagnostics["normalization_drift"] < 1e-4


@pytest.mark.parametrize("model", ["freespace-numeric",
                                   "freespace-analytic"])
def test_freespace_field_dump_is_opt_in(tmp_path, monkeypatch, model):
    n_theta = []
    for name in ("numeric_evolution", "analytic_evolution"):
        solver = getattr(scenarios, name)

        def spy(*args, _solver=solver, **kw):
            fields = _solver(*args, **kw)
            n_theta.append(fields.tau.size)
            return fields
        monkeypatch.setattr(scenarios, name, spy)
    cfg = freespace_cfg(model=model, space_points=16, theta_points=40)
    write_artifacts(run_scenario(scenario_from_dict(cfg)), tmp_path / "off")
    assert not (tmp_path / "off" / "fields.csv").exists()
    cfg["outputs"] = {"fields": True}
    write_artifacts(run_scenario(scenario_from_dict(cfg)), tmp_path / "on")
    with open(tmp_path / "on" / "fields.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["z_m", "time_s", "re", "im"]
    assert len(rows) - 1 == n_theta[-1] * 16


def test_storage_followed_by_read_replays(tmp_path):
    scn = scenario_from_dict(freespace_cfg(
        storage_time="1 us",
        coupling=[
            {"kind": "gaussian", "amplitude": "750 MHz_angular",
             "center": "0 us", "sigma": "100 ns",
             "support": ["-0.4 us", "0.4 us"]},
            {"kind": "gaussian", "amplitude": "750 MHz_angular",
             "center": "1.4 us", "sigma": "100 ns",
             "support": ["1 us", "1.8 us"]},
        ]))
    rec = run_scenario(scn)
    s = rec.summary
    assert s["eta_read"] is not None and 0.0 < s["eta_read"] < 1.0
    assert 0.0 < s["eta_total"] < 1.0
    # the spin wave decays while it waits, so the product bound is strict
    assert s["eta_total"] < s["eta_write"] * s["eta_read"]
    assert s["read_start"] == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_tau_read_sweep_matches_decay_law():
    scn = scenario_from_dict(cavity_cfg(
        input=None, initial_excitation={"sigma_re": 1.0}))
    rec = run_sweep(scn, "tau_r", [0.25, 1.0, 2.3])
    [(name, header, rows)] = rec.tables
    assert name == "sweep.csv" and header == ("tau_r", "eta_r")
    for tau, eta in rows:
        assert abs(eta - (1.0 - np.exp(-2.0 * tau))) < 1e-6


def test_sweep_axis_spelling_is_forgiving():
    scn = scenario_from_dict(cavity_cfg(
        input=None, initial_excitation={"sigma_re": 1.0}))
    rec = run_sweep(scn, "tau-r", [1.0])
    assert rec.summary["axis"] == "tau_r"


def test_duration_sweep_grows_with_window():
    scn = scenario_from_dict(cavity_cfg(
        model="cavity-adiabatic",
        grid={"start": "-3 us", "stop": "0 us", "points": 3001},
        coupling=[{"kind": "square", "start": "-3 us", "end": "-2 us",
                   "amplitude": "0.5 MHz_angular"}],
        cavity={"kappa": "1 MHz_angular", "gamma": "20 kHz"}))
    rec = run_sweep(scn, "duration", [0.5e-6, 1.0e-6, 2.0e-6])
    etas = [eta for _, eta in rec.tables[0][2]]
    assert etas[0] < etas[1] < etas[2] < 1.0


def test_sweep_rejections():
    cav = scenario_from_dict(cavity_cfg())
    fs = scenario_from_dict(freespace_cfg())
    with pytest.raises(ConfigError):
        run_sweep(cav, "sideways", [1.0])
    with pytest.raises(ConfigError):
        run_sweep(cav, "d", [10.0])          # depth axis: propagation only
    with pytest.raises(ConfigError):
        run_sweep(fs, "tau_r", [1.0])        # cavity-only axis
    with pytest.raises(ConfigError):
        run_sweep(cav, "cooperativity", [1.0])   # needs gamma > 0
    with pytest.raises(ConfigError):
        run_sweep(cav, "tau_r", [])
    with pytest.raises(ParameterError):
        run_sweep(scenario_from_dict(cavity_cfg(
            input=None, initial_excitation={"sigma_re": 1.0})),
            "tau_r", [-1.0])
    with pytest.raises(ParameterError):        # d is in units of gamma
        run_sweep(scenario_from_dict(freespace_cfg(
            medium={"length": "1 cm", "gamma": "0 Hz"})), "d", [10.0])
    for axis in SWEEP_AXES:
        scn = fs if axis == "d" else cav
        for v in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match=f"'{axis}'.*{v}"):
                run_sweep(scn, axis, [1.0, v])


def test_depth_sweep_obeys_theta_points(monkeypatch):
    n_theta = []

    def spy(bc, ic, tau, z, **kw):
        n_theta.append(tau.size)
        return solver(bc, ic, tau, z, **kw)
    solver = freespace.numeric_evolution
    monkeypatch.setattr(freespace, "numeric_evolution", spy)
    cfg = freespace_cfg(
        input={"kind": "gaussian", "center": "0 us", "fwtm": "300 ns"},
        coupling=[{"kind": "gaussian", "amplitude": "1 MHz_angular",
                   "center": "-50 ns", "sigma": "100 ns"}])
    run_sweep(scenario_from_dict(cfg), "d", [150.0])
    # automatic: a theta step of 0.01 over 150 gamma sigma sqrt(pi) = 8.35
    assert n_theta == [837] * 3
    n_theta.clear()
    run_sweep(scenario_from_dict(dict(cfg, theta_points=500)), "d", [150.0])
    assert n_theta == [500] * 3


def test_depth_sweep_through_scenario():
    scn = scenario_from_dict(freespace_cfg(
        grid={"start": "-1 us", "stop": "1 us", "points": 2001},
        input={"kind": "gaussian", "center": "0 us", "fwtm": "300 ns"},
        coupling=[{"kind": "gaussian", "amplitude": "1 MHz_angular",
                   "center": "-50 ns", "sigma": "100 ns"}]))
    rec = run_sweep(scn, "d", [0.0, 60.0])
    [(name, header, rows)] = rec.tables
    assert header == ("d", "eta_forward", "eta_backward")
    assert rows[0] == (0.0, 0.0, 0.0)
    assert rows[1][2] > rows[1][1] > 0.0     # backward wins at high d


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def test_design_synthesizes_and_verifies():
    scn = scenario_from_dict(cavity_cfg(
        grid={"start": "-1 us", "stop": "0 us", "points": 4001},
        coupling=[],
        input={"kind": "gaussian", "center": "-0.5 us", "sigma": "100 ns"},
        storage_time="3 us",
        design={"eta_write": 0.9, "eta_read": 0.9}))
    rec = design_couplings(scn)
    assert rec.summary["replay_overlap"] > 1.0 - 1e-6
    assert abs(rec.summary["energy_ratio"] - 0.81) < 1e-3
    names = {name: header for name, header, _ in rec.tables}
    assert names["g_write.csv"] == ("time_s", "value")
    assert names["g_read.csv"] == ("time_s", "value")


def test_design_refuses_overlapping_read():
    scn = scenario_from_dict(cavity_cfg(
        grid={"start": "-2 us", "stop": "0 us", "points": 2001},
        coupling=[],
        input={"kind": "gaussian", "center": "-1 us", "sigma": "100 ns"},
        storage_time="1 us",
        design={"eta_write": 0.9, "eta_read": 0.9}))
    with pytest.raises(ConfigError):
        design_couplings(scn)


def test_design_needs_its_inputs():
    with pytest.raises(ConfigError):
        design_couplings(scenario_from_dict(cavity_cfg(
            storage_time="3 us", design={"eta_write": 0.9, "eta_read": 0.9})))
    with pytest.raises(ConfigError):
        design_couplings(scenario_from_dict(cavity_cfg()))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, cfg, name="case.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


# The source root of the dipolemem this process imported.  A relative
# PYTHONPATH entry such as ``src`` would resolve against the child's cwd.
_SRC_ROOT = str(Path(dipolemem.__file__).resolve().parents[1])


def _cli(args, cwd):
    """Run ``python -m dipolemem`` on the package under test."""
    old = os.environ.get("PYTHONPATH")
    path = _SRC_ROOT + (os.pathsep + old if old else "")
    return subprocess.run([sys.executable, "-m", "dipolemem", *args],
                          cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path},
                          timeout=300)


def test_cli_run_writes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, cavity_cfg())
    proc = _cli(["run", str(cfg), "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "result.json").exists()
    assert (tmp_path / "out" / "e_out.csv").exists()
    assert (tmp_path / "out" / "spinwave.csv").exists()


def test_cli_reports_config_errors_as_json(tmp_path):
    proc = _cli(["run", str(tmp_path / "missing.yaml")], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert "missing.yaml" in err["message"]


def test_cli_reports_numeric_refusals(tmp_path):
    cfg = _write_cfg(tmp_path, cavity_cfg(
        model="cavity-full",
        grid={"start": "-2 us", "stop": "0 us", "points": 201},
        cavity={"kappa": "100 MHz_angular"}))
    proc = _cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr)["error"] == "StabilityError"


def test_cli_sweep_and_value_parsing(tmp_path):
    cfg = _write_cfg(tmp_path, cavity_cfg(
        input=None, initial_excitation={"sigma_re": 1.0}))
    out = tmp_path / "sweep_out"
    proc = _cli(["sweep", str(cfg), "--axis", "tau_r",
                 "--values", "0.5, 1.0", "--outdir", str(out)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    body = (out / "sweep.csv").read_text()
    assert body.splitlines()[0] == "tau_r,eta_r"
    bad = _cli(["sweep", str(cfg), "--axis", "tau_r", "--values", "a,b"],
               cwd=tmp_path)
    assert bad.returncode == 2, bad.stderr
    assert json.loads(bad.stderr)["error"] == "ConfigError"
    fs_cfg = _write_cfg(tmp_path, freespace_cfg(), "fs.yaml")
    for path, axis, values in ((fs_cfg, "d", "10,nan"),
                               (cfg, "tau_r", "0.5,inf")):
        bad = _cli(["sweep", str(path), "--axis", axis, "--values", values],
                   cwd=tmp_path)
        assert bad.returncode == 2, bad.stderr
        err = json.loads(bad.stderr)
        assert err["error"] == "ConfigError"
        assert f"'{axis}'" in err["message"]
        assert values.split(",")[1] in err["message"]


def test_cli_version(tmp_path):
    proc = _cli(["--version"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("dipolemem ")


def test_cli_verify_passes(capsys):
    assert cli_main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower() or "pass" in out.lower()
