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
from dipolemem import (ConfigError, ParameterError, ResolutionError,
                       freespace, scenarios)
from dipolemem.cli import main as cli_main
from dipolemem.scenarios import (MODELS, SWEEP_AXES, build_input,
                                 design_couplings, load_scenario,
                                 run_scenario, run_sweep, scenario_from_dict,
                                 scenario_hash, write_artifacts)
from dipolemem.schedules import effective_time
from dipolemem.units import format_quantity, parse_quantity

REPO = Path(__file__).resolve().parents[1]
PRESETS = sorted(REPO.glob("presets/*.yaml"))


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


def _write_table(path, header, cols):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(zip(*cols))
    return path.name


# (config builder, config key, table keys) of each tabulated form; the
# first column is increasing, the last one optional where it is "im"
_T = [0.0, 0.5e-6, 1.0e-6, 1.5e-6, 2.0e-6]
_TABLE_FORMS = {
    "segment": (lambda node: cavity_cfg(
        grid={"start": "0 us", "stop": "2 us", "points": 201},
        coupling=[dict(node, kind="piecewise_linear")]),
        ("time_s", "value"), [_T, [0.0, 3e5, 7e5, 4e5, 0.0]]),
    "input": (lambda node: cavity_cfg(
        grid={"start": "0 us", "stop": "2 us", "points": 201},
        input=dict(node, kind="tabulated")),
        ("time_s", "re", "im"), [_T, [0.0, 0.3, 1.0, 0.4, 0.1],
                                 [0.0, -0.2, 0.5, 0.0, 0.1]]),
    "initial_excitation": (lambda node: freespace_cfg(
        input=None, initial_excitation=dict(node, kind="tabulated")),
        ("x", "re", "im"), [[0.0, 0.25, 0.5, 0.75, 1.0],
                            [0.1, 0.6, 1.0, 0.6, 0.1],
                            [0.0, 0.1, 0.0, -0.1, 0.0]]),
}


@pytest.mark.parametrize("form", sorted(_TABLE_FORMS))
def test_tables_load_inline_and_from_csv_alike(tmp_path, form):
    make, names, cols = _TABLE_FORMS[form]
    inline = scenario_from_dict(make(dict(zip(names, cols))))
    name = _write_table(tmp_path / "table.csv", names, cols)
    from_csv = scenario_from_dict(make({"csv": name}), base_dir=tmp_path)
    # CSV data is inlined on load, so the scenario hash ignores the file
    assert from_csv.config == inline.config
    assert scenario_hash(from_csv) == scenario_hash(inline)
    if names[-1] == "im":      # the imaginary column is optional
        name = _write_table(tmp_path / "real.csv", names[:-1], cols[:-1])
        real = scenario_from_dict(make({"csv": name}), base_dir=tmp_path)
        key = "input" if form == "input" else form
        assert real.config[key]["im"] == [0.0] * 5
        assert real.config[key]["re"] == cols[1]


@pytest.mark.parametrize("form", sorted(_TABLE_FORMS))
def test_table_rejections(tmp_path, form):
    make, names, cols = _TABLE_FORMS[form]
    bad_inline = [
        dict(zip(names, [c[:4] if i == 1 else c
                         for i, c in enumerate(cols)])),      # lengths differ
        dict(zip(names, [c[:1] for c in cols])),              # one row
        dict(zip(names, [c[::-1] for c in cols])),            # decreasing
        dict(zip(names[1:], cols[1:])),                       # no first column
        dict(zip(names, cols), csv="table.csv"),              # both forms
    ]
    _write_table(tmp_path / "table.csv", names, cols)
    for node in bad_inline:
        with pytest.raises(ConfigError, match=form.replace("segment",
                                                           "coupling")):
            scenario_from_dict(make(node), base_dir=tmp_path)
    # a bad cell or a short row fails at load, naming the file and row
    for bad, value in (("nan.csv", "nan"), ("inf.csv", "inf"),
                       ("ragged.csv", None)):
        rows = [list(r) for r in zip(*cols)]
        if value is None:
            rows[0] = rows[0][:-1]
        else:
            rows[2][1] = value
        with open(tmp_path / bad, "w", newline="") as f:
            csv.writer(f).writerows([names, *rows])
        if value is None and len(names) == 2:
            match = f"{bad}.*row 2 has 1 columns"
        else:
            match = f"{bad}.*row {2 if value is None else 4}"
        with pytest.raises(ConfigError, match=match):
            scenario_from_dict(make({"csv": bad}), base_dir=tmp_path)


def test_csv_kind_alias_is_gone(tmp_path):
    name = _write_table(tmp_path / "in.csv", ("time_s", "re"),
                        [[0.0, 1e-6], [1.0, 0.5]])
    for cfg, kinds in ((cavity_cfg(input={"kind": "csv", "csv": name}),
                        "none, gaussian, square, optimal or tabulated"),
                       (freespace_cfg(initial_excitation={
                           "kind": "csv", "csv": name}),
                        "gaussian or tabulated")):
        with pytest.raises(ConfigError, match=f"'csv'.*{kinds}"):
            scenario_from_dict(cfg, base_dir=tmp_path)


def test_readme_scenario_examples_load():
    text = (REPO / "README.md").read_text()
    blocks = text.split("```yaml\n")[1:]
    assert len(blocks) >= 2
    for block in blocks:
        scn = scenario_from_dict(yaml.safe_load(block.split("```")[0]))
        assert scn.model in MODELS


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


def test_active_theta_axis_matches_loop_reference():
    scn = scenario_from_dict(freespace_cfg())
    tr = freespace.FreeSpaceTransform(scn.coupling, scn.detuning,
                                      scn.medium, scn.grid)
    act = tr.rho >= scenarios.RHO_CUT * tr.rho.max()
    th_raw = tr.theta[act]
    # the raw nodes cluster in the window tails; a target a quarter of
    # the widest raw cell subdivides the centre and leaves the tails
    h_target = 0.25 * np.diff(th_raw).max()
    bc_t = np.exp(1j * tr.theta) * tr.rho / tr.rho.max()
    theta, bc = scenarios._active_theta_axis(tr, bc_t, act, h_target)

    nodes = [th_raw[0]] + [b for a, b in zip(th_raw[:-1], th_raw[1:])
                           if b > a]
    ref = [0.0] if nodes[0] > 0.0 else []
    ref.append(nodes[0])
    for a, b in zip(nodes[:-1], nodes[1:]):
        n_sub = max(int(np.ceil((b - a) / h_target)), 1)
        ref.extend(np.linspace(a, b, n_sub + 1)[1:])
    np.testing.assert_array_equal(theta, ref)
    assert np.isin(nodes, theta).all()
    assert 0.0 < np.diff(theta).min()
    assert np.diff(theta).max() <= h_target * (1.0 + 1e-12)
    assert theta.size > len(nodes) and bc.shape == theta.shape


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


@pytest.mark.parametrize("gamma", ["0 Hz", "2 kHz"])
def test_cavity_sweeps_store_what_run_stores(gamma):
    # a detuned write: run and every write axis at the scenario's own
    # coupling store the same optimal input, detuning-compensated
    scn = scenario_from_dict(cavity_cfg(
        detuning=[{"kind": "piecewise_linear",
                   "time_s": [-2e-6, -1e-6, 0.0], "value": [2e5, -1e5, 3e5]}],
        cavity={"kappa": "1 MHz_angular", "gamma": gamma}))
    eta = run_scenario(scn).summary["eta_write"]
    assert abs(eta - (1.0 - np.exp(-2.0))) < 0.02
    p = scn.cavity
    own = {"tau_w": float(effective_time(scn.coupling, p.kappa,
                                         scn.grid)[-1]),
           "duration": 2e-6}
    if p.gamma > 0.0:
        own["cooperativity"] = scn.coupling.max_abs() ** 2 / (p.kappa
                                                              * p.gamma)
    for axis, value in own.items():
        [(_v, eta_w)] = run_sweep(scn, axis, [value]).tables[0][2]
        assert abs(eta_w - eta) <= 1e-12 * eta, axis


def test_tau_write_sweep_rescales_the_write_window():
    # write and read windows of unit effective time each: the tau_w axis
    # sets the write window, the one the optimal input fills and the row
    # measures, whatever the read window holds
    scn = load_scenario(REPO / "presets" / "cavity_square_optimal.yaml")
    scn = scenario_from_dict(dict(scn.config, grid=dict(scn.config["grid"],
                                                         points=20001)))
    rows = run_sweep(scn, "tau_w", [0.5, 1.0, 2.0]).tables[0][2]
    for tau_w, eta in rows:
        # the input's jump at the write-window end biases the trapezoid
        # by -h r_w, with the write rate r_w = tau_w / 2 us
        bound = 2.0 * scn.grid.dt * tau_w / 2e-6
        assert abs(eta - (1.0 - np.exp(-2.0 * tau_w))) <= bound, tau_w


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


def test_depth_sweep_obeys_the_kernel_argument_guard(tmp_path):
    preset = REPO / "presets" / "freespace_gaussian_sweep.yaml"
    with pytest.raises(ResolutionError, match="kernel argument"):
        run_sweep(load_scenario(preset), "d", [3000.0])
    proc = _cli(["sweep", str(preset), "--axis", "d", "--values", "3000",
                 "--outdir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr)["error"] == "ResolutionError"


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
