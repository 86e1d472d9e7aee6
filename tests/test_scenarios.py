"""Config parsing, canonical hashing, run/design/sweep records, CLI."""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import dipolemem
from dipolemem import (ConfigError, ParameterError, ResolutionError,
                       StabilityError, freespace, optimal_write_input,
                       scenarios, write_efficiency_of)
from dipolemem.cli import main as cli_main
from dipolemem.scenarios import (MODELS, SWEEP_AXES, build_input,
                                 design_couplings, load_scenario,
                                 run_scenario, run_sweep, scenario_from_dict,
                                 scenario_hash, write_artifacts)
from dipolemem.schedules import (FieldEnvelope, GaussianSegment, Schedule,
                                 SquareSegment, effective_time)
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
    # the canonical config, written out as YAML, loads to the same hash
    scn = scenario_from_dict(freespace_cfg())
    (tmp_path / "case.yaml").write_text(
        yaml.safe_dump(scn.config, sort_keys=True))
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
        cavity_cfg(input=None, initial_excitation=float("inf")),
        cavity_cfg(input=None, initial_excitation=float("nan")),
        cavity_cfg(input=None,                           # YAML overflow
                   initial_excitation=yaml.safe_load("1.0e+400")),
        freespace_cfg(cavity={"kappa": "1 MHz_angular"}),
        freespace_cfg(input={"kind": "optimal"}),
        freespace_cfg(space_points=4),
        freespace_cfg(theta_points=4),
        freespace_cfg(outputs={"fields": "false"}),      # not a YAML bool
        freespace_cfg(outputs={"fields": "no"}),
        freespace_cfg(outputs={"fields": 2}),
        freespace_cfg(storage_time="-1 ns"),
        freespace_cfg(input={"kind": "gaussian", "center": "0 us",
                             "sigma": "0 ns"}),
        freespace_cfg(coupling=[{"kind": "gaussian",        # reversed support
                                 "amplitude": "750 MHz_angular",
                                 "center": "0 us", "sigma": "100 ns",
                                 "support": ["0.4 us", "-0.4 us"]}]),
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


# one scenario per input kind, coupling segment kind and initial
# excitation form, with the hash of its canonical form as the decoder
# that parsed unit strings in every block gave it: a decoder change
# must keep each canonical form, and so each hash, as it is
_PINNED_HASHES = {
    "cavity-optimal-square": (
        "78bf25e0c30bfa32acc522cd6e33096c24a0375695e42e5822046a528eb18a6e",
        cavity_cfg()),
    "cavity-none-sigma-number": (
        "68f103018a8020885fb792cbec184f45c5abd736cee27d963ea295c5d65548c1",
        cavity_cfg(input=None, initial_excitation=0.5)),
    "cavity-fwtm-sigma-mapping": (
        "a96c94627b9972b0cb07669d39dc892ced29a27523d1a131df5220b3a3764903",
        cavity_cfg(input={"kind": "gaussian", "center": "-1 us",
                          "fwtm": "300 ns", "photons": 2},
                   initial_excitation={"sigma_re": 0.3, "sigma_im": -0.1})),
    "cavity-square-input-decay": (
        "d758bd48aa842d1f0d6f50abec103e327992063f5f24e743b755276240cee08f",
        cavity_cfg(input={"kind": "square", "start": "-1.5 us",
                          "end": "-0.5 us"},
                   cavity={"kappa": "1 MHz_angular", "gamma": "2 kHz"})),
    "cavity-tabulated-design": (
        "47c9367ee8e25b1778e0b51049b423dfc44880f3964cc1f27bd27c9e99c73d43",
        cavity_cfg(grid={"start": "0 us", "stop": "2 us", "points": 201},
                   coupling=[{"kind": "piecewise_linear", "time_s": _T,
                              "value": [0.0, 3e5, 7e5, 4e5, 0.0]}],
                   detuning=[{"kind": "tabulated", "time_s": _T,
                              "value": [1e5, -2e5, 0.0, 3e5, 1e5]}],
                   input={"kind": "tabulated", "time_s": _T,
                          "re": [0.0, 0.3, 1.0, 0.4, 0.1]},
                   storage_time="3 us",
                   design={"eta_write": 0.9, "eta_read": 0.8})),
    "freespace-gaussian": (
        "ec51fc29e3b17f9b7ecae36229a524d7ba6c9acb70e9dda8cc4c655eb28cc8ba",
        freespace_cfg()),
    "freespace-initial-gaussian": (
        "3c63690b73bb443a32be3587de8a386bca0b77ec300f70516ebae80e82ca9648",
        freespace_cfg(model="freespace-analytic", input=None,
                      theta_points=64,
                      coupling=[{"kind": "gaussian",
                                 "amplitude": "500 MHz_angular",
                                 "center": "0.5 us", "sigma": "150 ns"}],
                      initial_excitation={"kind": "gaussian",
                                          "center_frac": 0.4,
                                          "sigma_frac": 0.1})),
    "freespace-initial-tabulated": (
        "8ea92e586f86b711044babc68157f8f96e319c31c44dc03ee07798aaf844a0e4",
        freespace_cfg(input={"kind": "none"}, space_points=64,
                      initial_excitation={"kind": "tabulated",
                                          "x": [0.0, 0.5, 1.0],
                                          "re": [0.1, 1.0, 0.1],
                                          "im": [0.0, 0.2, 0.0]})),
}


@pytest.mark.parametrize("key, value", [("space_points", 50),
                                        ("theta_points", 99)])
def test_cavity_models_refuse_propagation_grid_keys(key, value):
    # the defaults, which the canonical form carries, load
    scenario_from_dict(cavity_cfg(space_points=201, theta_points=None))
    for model in ("cavity-adiabatic", "cavity-full"):
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict(cavity_cfg(model=model, **{key: value}))


@pytest.mark.parametrize("name", sorted(_PINNED_HASHES))
def test_canonical_hash_is_pinned(name):
    want, raw = _PINNED_HASHES[name]
    assert scenario_hash(scenario_from_dict(raw)) == want


def test_preset_hashes_are_pinned():
    assert {p.name: scenario_hash(load_scenario(p)) for p in PRESETS} == {
        "cavity_gaussian_cycle.yaml":
        "69c21e6c3898d6977997c8c415daead69ad14279f96bff214406a353f89ac0fb",
        "cavity_gaussian_design.yaml":
        "eca23b0f0270da66b7c98803e504e304fd6f5de344562847275cec644c1c823c",
        "cavity_square_optimal.yaml":
        "a179e8480eb11cf5d8292a0b3e8dfb41e5889ab20eeca60c6cc4c640cf40b1f7",
        "freespace_gaussian_sweep.yaml":
        "12e72a68ef2c5a9f2b43e2c232de32a7efaf9930ed1790728b435bc01fb6b759"}


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


def test_readme_python_examples_run():
    text = (REPO / "README.md").read_text()
    blocks = [b.split("```")[0] for b in text.split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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


def _edge_cfg(inp):
    # the window [0.1, 0.7] us sits on samples 2100 and 2700 of the grid,
    # up to rounding: t[2100] = 9.999999999999989e-08 s
    return cavity_cfg(
        grid={"start": "-2 us", "stop": "2 us", "points": 4001},
        coupling=[{"kind": "square", "start": "0.1 us", "end": "0.7 us",
                   "amplitude": "1 MHz_angular"}],
        input=inp)


def test_square_input_spans_its_coupling_window():
    # an input with the same edges as its coupling window covers the
    # same samples: inputs and couplings share one support rule
    scn = scenario_from_dict(_edge_cfg(
        {"kind": "square", "start": "0.1 us", "end": "0.7 us"}))
    on = np.flatnonzero(build_input(scn).samples)
    assert scn.coupling.windows(scn.grid) == [(2100, 2700)]
    assert (on[0], on[-1]) == (2100, 2700) and on.size == 601
    assert scn.grid.times()[on[0]] == 9.999999999999989e-08


def test_tabulated_input_takes_its_knot_value_on_the_edge_sample():
    scn = scenario_from_dict(_edge_cfg(
        {"kind": "tabulated", "time_s": [1e-7, 4e-7, 7e-7],
         "re": [1.0, 0.5, 0.2], "im": [0.0, 0.1, 0.0]}))
    s = build_input(scn).samples
    assert s[2100] == 1.0
    assert s[2099] == 0.0 and s[2701] == 0.0
    on = np.flatnonzero(s)
    assert (on[0], on[-1]) == scn.coupling.windows(scn.grid)[0]


@pytest.mark.parametrize("cfg", [
    cavity_cfg(input=None, initial_excitation={"sigma_re": 1.0}),
    cavity_cfg(model="cavity-full", input=None,
               initial_excitation={"sigma_re": 1.0}),
    freespace_cfg(input=None, initial_excitation={
        "kind": "gaussian", "center_frac": 0.5, "sigma_frac": 0.1,
        "excitation": 1.0}),
    freespace_cfg(model="freespace-analytic", input=None,
                  initial_excitation={
                      "kind": "gaussian", "center_frac": 0.5,
                      "sigma_frac": 0.1, "excitation": 1.0}),
], ids=["cavity-adiabatic", "cavity-full", "freespace-numeric",
        "freespace-analytic"])
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


@pytest.mark.parametrize("cfg, lead", [
    (freespace_cfg(), 1),
    (freespace_cfg(grid={"start": "-0.3 us", "stop": "2 us",
                         "points": 2301}), 0),
], ids=["window-inside-grid", "window-at-grid-start"])
def test_march_nodes_are_the_active_samples(monkeypatch, cfg, lead):
    seen = {}

    def spy(bc, ic, theta, x, **kw):
        seen["bc"], seen["theta"] = bc, theta
        return solver(bc, ic, theta, x, **kw)
    solver = scenarios.numeric_evolution
    monkeypatch.setattr(scenarios, "numeric_evolution", spy)
    scn = scenario_from_dict(cfg)
    run_scenario(scn)
    tr = freespace.FreeSpaceTransform(scn.coupling, scn.detuning,
                                      scn.medium, scn.grid)
    act = tr.rho >= scenarios.RHO_CUT * tr.rho.max()
    # distinct active-sample thetas, with theta = 0 first when the
    # coupling starts after the grid does
    nodes, first = np.unique(tr.theta[act], return_index=True)
    assert (nodes[0] > 0.0) == bool(lead)
    np.testing.assert_array_equal(seen["theta"][lead:], nodes)
    if lead:
        assert seen["theta"][0] == 0.0 and seen["bc"][0] == seen["bc"][1]
    # the boundary trace enters as sampled, with no resampling
    in_act = np.where(act, build_input(scn).samples, 0.0)
    bc_t = tr.boundary_to_reduced(FieldEnvelope(scn.grid, in_act))
    np.testing.assert_array_equal(seen["bc"][lead:], bc_t[act][first])


def _preset_at(points):
    cfg = yaml.safe_load(
        (REPO / "presets" / "freespace_gaussian_sweep.yaml").read_text())
    return dict(cfg, grid=dict(cfg["grid"], points=points))


def test_march_converges_at_second_order_in_the_lab_step():
    def eta_write(points):
        scn = scenario_from_dict(_preset_at(points))
        return run_scenario(scn).summary["eta_write"]
    ref = eta_write(4801)
    # halving the lab step cuts the error about 4x (4.2 measured)
    ratio = abs(eta_write(601) - ref) / abs(eta_write(1201) - ref)
    assert 3.0 < ratio < 5.0


@pytest.mark.parametrize("points", [3, 41])
def test_coarse_marching_grid_is_refused(tmp_path, points):
    # 41 points: one lab step moves the kernel argument by 0.55 > 0.5;
    # 3 points: two active samples give too few theta nodes
    cfg = _preset_at(points)
    with pytest.raises(ResolutionError):
        run_scenario(scenario_from_dict(cfg))
    proc = _cli(["run", str(_write_cfg(tmp_path, cfg)), "--outdir",
                 str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr)["error"] == "ResolutionError"


@pytest.mark.parametrize("model", ["freespace-numeric",
                                   "freespace-analytic"])
def test_freespace_run_closes_its_ledger(model):
    # both solvers run on the active lab samples' own theta
    scn = scenario_from_dict(freespace_cfg(model=model))
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
def test_freespace_field_dump_is_opt_in(tmp_path, model):
    cfg = freespace_cfg(model=model, space_points=16, theta_points=40)
    write_artifacts(run_scenario(scenario_from_dict(cfg)), tmp_path / "off")
    assert not (tmp_path / "off" / "fields.csv").exists()
    cfg["outputs"] = {"fields": True}
    scn = scenario_from_dict(cfg)
    write_artifacts(run_scenario(scn), tmp_path / "on")
    with open(tmp_path / "on" / "fields.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["z_m", "time_s", "re", "im"]
    # one row per position at each active lab sample, for both solvers
    tr = freespace.FreeSpaceTransform(scn.coupling, scn.detuning,
                                      scn.medium, scn.grid)
    act = tr.rho >= scenarios.RHO_CUT * tr.rho.max()
    assert len(rows) - 1 == act.sum() * 16


def _field_dump_row_loop(tr, fields, theta, x, med):
    """Reference rows of fields.csv, one (active lab sample, position)
    at a time: np.interp of the reduced field's real and imaginary parts
    at the sample's theta, times i g sqrt(L/c) e^{-i chi} there."""
    scale = np.sqrt(med.length / med.c)
    z = x * med.length
    act = tr.rho >= scenarios.RHO_CUT * tr.rho.max()
    for k in np.flatnonzero(act):
        row_scale = 1j * tr.gv[k] * scale * np.exp(-1j * tr.chi[k])
        e_row = np.empty(x.size, dtype=complex)
        for j in range(x.size):
            e_row.real[j] = np.interp(tr.theta[k], theta, fields.e[:, j].real)
            e_row.imag[j] = np.interp(tr.theta[k], theta, fields.e[:, j].imag)
        lab = row_scale * e_row
        for j in range(x.size):
            yield (z[j], tr.t[k], lab[j].real, lab[j].imag)


def _reference_csv(header, rows) -> bytes:
    """csv.writer with CRLF line ends and .17g cells."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow([format(float(v), ".17g") for v in row])
    return buf.getvalue().encode()


def _record_of(tables):
    return scenarios.RunRecord(
        operation="run", scenario_hash="0" * 64, version="test",
        wall_time_s=0.0, summary={}, diagnostics={}, tables=tables,
        config={})


def _awkward_doubles() -> np.ndarray:
    """Doubles whose %.17g is easy to get wrong: every power of ten in
    range, one ulp either side, and times 0.5 and 9.5; dyadic ties
    (9000000000000001/4 is 2250000000000000.25, which rounds to even);
    the %g switch points 1e-5, 1e-4, 1e16, 1e17 and their neighbours;
    subnormals; signed zeros, nan of either sign, infinities and the
    extremes."""
    rng = np.random.default_rng(5)
    powers = 10.0 ** np.arange(-300, 301)
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])
    edges = np.concatenate([powers, switch])
    ties = (2 * rng.integers(2 * 10 ** 15, 2 ** 52, 200) + 1) / 4.0
    subnormal = rng.integers(1, 2 ** 52, 50).view(float)
    family = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        powers * 0.5, powers * 9.5, [9000000000000001 / 4], ties,
        subnormal, [5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                    0.1, 1.0 / 3.0]])
    special = [0.0, -0.0, float("nan"), -float("nan"), float("inf"),
               float("-inf")]
    return np.concatenate([family, -family, special])


def test_one_writer_formats_every_double(tmp_path):
    awkward = _awkward_doubles()
    assert np.signbit(awkward[-3])          # the nan with its sign bit set
    # more rows than one write block, so a block boundary is crossed
    n = max(scenarios._CSV_BLOCK_ROWS + 5, awkward.size)
    rng = np.random.default_rng(3)
    table = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300,
                                                               (n, 3))
    table[:awkward.size, 0] = awkward
    table[-awkward.size:, 2] = awkward[::-1]
    write_artifacts(_record_of([("t.csv", ("a", "b", "c"), table),
                                ("one.csv", ("x",), table[:7, 1:2])]),
                    tmp_path)
    assert (tmp_path / "t.csv").read_bytes() \
        == _reference_csv(("a", "b", "c"), table.tolist())
    assert (tmp_path / "one.csv").read_bytes() \
        == _reference_csv(("x",), table[:7, 1:2].tolist())


def test_cell_kernel_matches_python_on_random_doubles():
    """The numpy formatter against Python's %.17g on 2^20 doubles with
    random bit patterns (every exponent, nan payloads, subnormals)."""
    from dipolemem import _csvcells
    rng = np.random.default_rng(7)
    for _ in range(8):
        x = rng.integers(0, 2 ** 64, 1 << 17, dtype=np.uint64).view(float)
        got = _csvcells.cells(x, b"\r\n").tolist()
        assert got == [b"%.17g\r\n" % v for v in x.tolist()]


def test_fast_path_formats_nearly_every_trace_cell(tmp_path, monkeypatch):
    """At most 1e-5 of a cavity run's cells reach the Python fallback:
    a formatter that sends every cell there would also write the right
    bytes."""
    from dipolemem import _csvcells
    slow = []
    python_cells = _csvcells._python_cells

    def counted(values, sep):
        slow.extend(values)
        return python_cells(values, sep)

    monkeypatch.setattr(_csvcells, "_python_cells", counted)
    # the square-pulse preset's layout on a coarser grid
    cfg = yaml.safe_load(
        (REPO / "presets" / "cavity_square_optimal.yaml").read_text())
    cfg["grid"]["points"] = 40001
    rec = run_scenario(scenario_from_dict(cfg))
    write_artifacts(rec, tmp_path)
    cells = sum(table.size for _, _, table in rec.tables)
    assert cells > 200000
    assert len(slow) <= 1e-5 * cells
    # next to a power of ten, log10 can land a decade off; such cells
    # are recomputed a decade over, and only cells on a decade edge
    # (the exact powers 1 to 1e22), ties and cells outside the fast
    # path's range reach Python: 26 of these 1683
    slow.clear()
    powers = 10.0 ** np.arange(-280, 281)
    _csvcells.cells(np.concatenate([np.nextafter(powers, 0.0), powers,
                                    np.nextafter(powers, np.inf)]), b",")
    assert len(slow) < 40


def test_writer_formats_shared_and_constant_columns_exactly(tmp_path):
    """Tables of one record are written in lockstep blocks, with each
    constant column one repeated cell and shared columns formatted once
    per block; every file is still the reference writer's bytes."""
    n = scenarios._CSV_BLOCK_ROWS + 7
    rng = np.random.default_rng(11)
    t = np.linspace(-2e-6, 2e-6, n)
    zero_but_one = np.zeros(n)
    zero_but_one[n // 2] = -0.0
    first = np.column_stack((t, rng.standard_normal(n), np.zeros(n),
                             np.full(n, -0.0), zero_but_one))
    second = np.column_stack((t, np.full(n, np.nan), np.full(n, np.inf),
                              rng.standard_normal(n)))
    m = scenarios._CSV_BLOCK_ROWS // 3
    third = np.column_stack((t[:m], t[:m] * 2.0))
    single = rng.standard_normal((m, 1))
    tables = [("first.csv", ("t", "a", "zero", "negzero", "onezero"), first),
              ("second.csv", ("t", "nan", "inf", "b"), second),
              ("third.csv", ("t", "2t"), third),
              ("single.csv", ("x",), single)]
    write_artifacts(_record_of(tables), tmp_path)
    for name, header, table in tables:
        assert (tmp_path / name).read_bytes() \
            == _reference_csv(header, table.tolist()), name
    # the single -0.0 keeps its sign: the column is not a literal 0
    lines = (tmp_path / "first.csv").read_bytes().split(b"\r\n")
    assert lines[1 + n // 2].endswith(b",-0")
    assert lines[1].endswith(b",0,-0,0")


@pytest.mark.parametrize("detuning", [None, "150 kHz_angular"])
def test_cavity_traces_match_the_reference_writer(tmp_path, detuning):
    over = {} if detuning is None else {"detuning": [
        {"kind": "square", "start": "-2 us", "end": "0 us",
         "amplitude": detuning}]}
    rec = run_scenario(scenario_from_dict(cavity_cfg(**over)))
    write_artifacts(rec, tmp_path)
    for name, header, table in rec.tables:
        assert (tmp_path / name).read_bytes() \
            == _reference_csv(header, table.tolist()), name
    e_out = dict((name, table) for name, _, table in rec.tables)["e_out.csv"]
    assert (e_out[:, 2] == 0.0).all() == (detuning is None)


@pytest.mark.parametrize("model", ["freespace-numeric",
                                   "freespace-analytic"])
def test_field_dump_matches_row_loop(tmp_path, monkeypatch, model):
    seen = {}
    for name in ("numeric_evolution", "analytic_evolution"):
        solver = getattr(scenarios, name)

        def spy(bc, ic, theta, x, *args, _solver=solver, **kw):
            seen["theta"], seen["x"] = theta, x
            seen["fields"] = _solver(bc, ic, theta, x, *args, **kw)
            return seen["fields"]
        monkeypatch.setattr(scenarios, name, spy)
    scn = scenario_from_dict(freespace_cfg(
        model=model, space_points=16, theta_points=40,
        outputs={"fields": True}))
    write_artifacts(run_scenario(scn), tmp_path)
    tr = freespace.FreeSpaceTransform(scn.coupling, scn.detuning,
                                      scn.medium, scn.grid)
    ref = _reference_csv(("z_m", "time_s", "re", "im"), _field_dump_row_loop(
        tr, seen["fields"], seen["theta"], seen["x"], scn.medium))
    assert (tmp_path / "fields.csv").read_bytes() == ref


def test_field_dump_far_end_is_the_output(tmp_path):
    """fields.csv at z = L and e_out.csv come from one lab-frame map, so
    at every grid-sample time they hold the same doubles.  Both solvers
    write their rows at the active lab samples, so every row falls on
    one.  In the second case the coupling starts after the grid does,
    and the theta = 0 node the march prepends has no lab time of its
    own."""
    preset = yaml.safe_load(
        (REPO / "presets" / "freespace_gaussian_sweep.yaml").read_text())
    cases = [(dict(preset, space_points=41, outputs={"fields": True}), 1000),
             (freespace_cfg(space_points=41, outputs={"fields": True}), 700)]
    for model in ("freespace-numeric", "freespace-analytic"):
        for case, (cfg, least) in enumerate(cases):
            scn = scenario_from_dict(dict(cfg, model=model))
            out = write_artifacts(run_scenario(scn),
                                  tmp_path / f"{model}{case}")
            fields = np.loadtxt(out / "fields.csv", delimiter=",",
                                skiprows=1)
            e_out = np.loadtxt(out / "e_out.csv", delimiter=",", skiprows=1)
            far = fields[fields[:, 0] == scn.medium.length]
            row_of = {t: k for k, t in enumerate(e_out[:, 0])}
            on_grid = np.array([t in row_of for t in far[:, 1]])
            assert on_grid.all() and on_grid.sum() > least
            want = e_out[[row_of[t] for t in far[on_grid, 1]], 1:]
            np.testing.assert_array_equal(far[on_grid, 2:], want)


@pytest.mark.parametrize("model", ["freespace-numeric",
                                   "freespace-analytic"])
def test_freespace_run_evaluates_the_coupling_on_the_grid(monkeypatch,
                                                          model):
    """The transform holds every lab-grid table, so a run with the field
    dump evaluates the coupling once, at the grid times: the boundary
    map reuses the transform's samples."""
    scn = scenario_from_dict(freespace_cfg(model=model, space_points=16,
                                           outputs={"fields": True}))
    seen = []
    plain = Schedule.eval

    def spy(self, t):
        if self is scn.coupling:
            seen.append(np.array(t, dtype=float))
        return plain(self, t)
    monkeypatch.setattr(Schedule, "eval", spy)
    run_scenario(scn)
    assert len(seen) == 1
    for t in seen:
        np.testing.assert_array_equal(t, scn.grid.times())


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


def test_gaussian_window_with_decay_runs_and_sweeps(tmp_path):
    # a shaped coupling with decay (cooperativity 10 at its peak): run and
    # the write axes at the scenario's own coupling store the same
    # optimum, which meets the Cauchy-Schwarz bound of the write kernel
    cfg = cavity_cfg(
        grid={"start": "0 us", "stop": "200 us", "points": 20001},
        coupling=[{"kind": "gaussian", "amplitude": "0.1 MHz_angular",
                   "center": "100 us", "sigma": "30 us",
                   "support": ["0 us", "200 us"]}],
        cavity={"kappa": "1 MHz_angular", "gamma": "1 kHz_angular"})
    proc = _cli(["run", str(_write_cfg(tmp_path, cfg)),
                 "--outdir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    eta = result["summary"]["eta_write"]
    scn = scenario_from_dict(cfg)
    g, p, grid = scn.coupling, scn.cavity, scn.grid
    assert run_scenario(scn).summary["eta_write"] == eta
    own = {"cooperativity": g.max_abs() ** 2 / (p.kappa * p.gamma),
           "tau_w": float(effective_time(g, p.kappa, grid)[-1])}
    for axis, value in own.items():
        [(_v, eta_w)] = run_sweep(scn, axis, [value]).tables[0][2]
        assert abs(eta_w - eta) <= 1e-12 * eta, axis
    bound = write_efficiency_of(optimal_write_input(g, p, grid), g, p)
    assert abs(eta - bound) < 1e-8


def test_freespace_run_agrees_with_the_depth_sweep():
    # run reads eta_write at the last grid sample of the coupling's
    # +-8 sigma support, the sweep at the end of its own active window,
    # where the depth profile falls to 1e-3 of its peak; between the two
    # ends the spin wave only decays, at 2 gamma.  The tolerance is the
    # effective time the 1e-3 cut drops plus the march's a^2, with
    # a = theta_total h_x.
    scn = load_scenario(REPO / "presets" / "freespace_gaussian_sweep.yaml")
    med, (seg,) = scn.medium, scn.coupling.segments
    d = seg.amplitude ** 2 * med.length / (med.c * med.gamma)
    assert d == pytest.approx(60.0)
    s = run_scenario(scn).summary
    [(_d, eta_sweep, _f, _b, _theta)] = freespace.storage_retrieval_sweep(
        [d], med, seg, scn.input_spec["center"], scn.input_spec["sigma"],
        0.0, scn.space_points)
    radius = np.sqrt(np.log(1e3))
    sweep_end = seg.center + radius * seg.width
    want = eta_sweep * np.exp(-2.0 * med.gamma * (s["write_end"] - sweep_end))
    theta_full = d * med.gamma * seg.width * np.sqrt(np.pi)
    a2 = (s["theta_total"] / (scn.space_points - 1)) ** 2
    tol = theta_full * math.erfc(radius) + a2
    assert abs(s["eta_write"] / want - 1.0) <= tol


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


_SWEEP_CASES = {
    "tau_w": ([0.5, 1.0, 1.5, 2.0, 2.5], {}),
    "cooperativity": ([1.0, 5.0, 20.0, 50.0],
                      {"cavity": {"kappa": "1 MHz_angular",
                                  "gamma": "2 kHz_angular"}}),
    "tau_r": ([0.25, 0.5, 1.0, 2.0],
              {"model": "cavity-full", "input": None,
               "initial_excitation": {"sigma_re": 1.0},
               "grid": {"start": "-2 us", "stop": "0 us", "points": 4001},
               "cavity": {"kappa": "100 MHz_angular"}}),
}


@pytest.mark.parametrize("axis", sorted(_SWEEP_CASES))
def test_concurrent_sweep_rows_match_a_sequential_loop(tmp_path, monkeypatch,
                                                       axis):
    # three workers, so rows overlap on any machine; the reference runs
    # the rows one after another through _simulate
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 3)
    values, over = _SWEEP_CASES[axis]
    scn = scenario_from_dict(cavity_cfg(**over))
    write_artifacts(run_sweep(scn, axis, values), tmp_path)
    g, p, grid = scn.coupling, scn.cavity, scn.grid
    tau = float(effective_time(g, p.kappa, grid)[-1])
    rows = []
    for v in values:
        if axis == "cooperativity":
            g_v = g.scaled(np.sqrt(v * p.gamma * p.kappa) / g.max_abs())
        else:                   # one window up to the grid end
            g_v = g.scaled(np.sqrt(v / tau))
        if axis == "tau_r":
            eta = scenarios._simulate(scn, None, g_v, sigma0=1.0).eta_r
        else:
            e_in = scenarios._optimal_input(scn, g_v)
            eta = scenarios._simulate(scn, e_in, g_v).eta_w
        rows.append((v, eta))
    header = (axis, "eta_r" if axis == "tau_r" else "eta_w")
    assert (tmp_path / "sweep.csv").read_bytes() == _reference_csv(header,
                                                                   rows)


def test_sweep_rows_share_one_sampling_of_the_coupling(monkeypatch):
    """Each row's coupling is a scaled copy of the scenario's, and a
    scaled copy takes its base's kept samples times its factor.  So a
    6-row tau_w sweep on a Gaussian coupling, its rows on three threads,
    evaluates the coupling's segment once at the grid points and once
    at the half steps; with every layer sampling it again, the same
    sweep made 31 `Schedule.eval` calls."""
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 3)
    sizes = []
    evaluate = GaussianSegment.evaluate

    def counting(seg, t):
        sizes.append(np.size(t))
        time.sleep(0.02)        # long enough for the other rows to ask too
        return evaluate(seg, t)

    monkeypatch.setattr(GaussianSegment, "evaluate", counting)
    scn = scenario_from_dict(cavity_cfg(coupling=[
        {"kind": "gaussian", "amplitude": "0.8 MHz_angular",
         "center": "-1 us", "sigma": "300 ns",
         "support": ["-1.9 us", "-0.1 us"]}]))
    # switch threads often, so that rows reach the shared samples at once
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = run_sweep(scn, "tau_w", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]).tables
    finally:
        sys.setswitchinterval(interval)
    assert len(rows[0][2]) == 6
    assert sorted(sizes) == [scn.grid.n - 1, scn.grid.n]
    assert not scn.coupling._samples(scn.grid, False).flags.writeable


def test_sweep_raises_the_first_failing_value_error(tmp_path, monkeypatch):
    # the 2nd and 4th values both trip the step guard (dt*rate = 0.25 and
    # 0.45); whichever row fails first, the 2nd value's error is raised
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 3)
    cfg = cavity_cfg()
    scn = scenario_from_dict(cfg)
    tau = float(effective_time(scn.coupling, scn.cavity.kappa,
                               scn.grid)[-1])
    values = [1.0, 500.0, 2.0, 900.0]
    messages = []
    for v in values[1::2]:
        g_v = scn.coupling.scaled(np.sqrt(v / tau))
        with pytest.raises(StabilityError) as exc:
            scenarios._simulate(scn, scenarios._optimal_input(scn, g_v), g_v)
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    with pytest.raises(StabilityError) as exc:
        run_sweep(scn, "tau_w", values)
    assert str(exc.value) == messages[0]
    proc = _cli(["sweep", str(_write_cfg(tmp_path, cfg)), "--axis", "tau_w",
                 "--values", ",".join(map(str, values)),
                 "--outdir", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr) == {"error": "StabilityError",
                                       "message": messages[0]}


def test_duration_sweep_checks_every_value_first(monkeypatch):
    calls = []

    def spy(*args, **kw):
        calls.append(args)
        return simulate(*args, **kw)
    simulate = scenarios._simulate
    monkeypatch.setattr(scenarios, "_simulate", spy)
    scn = scenario_from_dict(cavity_cfg(
        grid={"start": "-3 us", "stop": "0 us", "points": 3001},
        coupling=[{"kind": "square", "start": "-3 us", "end": "-2 us",
                   "amplitude": "0.5 MHz_angular"}]))
    with pytest.raises(ConfigError, match="past the grid end"):
        run_sweep(scn, "duration", [0.5e-6, 1.0e-6, 5.0e-6])
    assert calls == []


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


@pytest.mark.parametrize("axis, value", [("tau_w", 1.0),
                                         ("cooperativity", 10.0),
                                         ("duration", 1e-6)])
def test_write_sweeps_refuse_an_input_they_would_ignore(tmp_path, axis,
                                                        value):
    """A write-axis row stores the swept coupling's optimal input, so a
    scenario with another input is refused (exit 2) by a ConfigError
    naming `input`, after the per-value checks."""
    cfg = cavity_cfg(input={"kind": "gaussian", "center": "-0.5 us",
                            "sigma": "200 ns"},
                     cavity={"kappa": "1 MHz_angular", "gamma": "1 kHz"})
    scn = scenario_from_dict(cfg)
    with pytest.raises(ParameterError):
        run_sweep(scn, axis, [-value])
    with pytest.raises(ConfigError, match="input"):
        run_sweep(scn, axis, [value])
    proc = _cli(["sweep", str(_write_cfg(tmp_path, cfg)), "--axis", axis,
                 "--values", str(value), "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError" and "input" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis, value", [("tau_w", 1.0),
                                         ("cooperativity", 10.0),
                                         ("duration", 1e-6)])
def test_write_sweeps_refuse_an_initial_excitation(tmp_path, axis, value):
    """A write-axis row writes from sigma = 0, so a scenario with an
    initial excitation is refused (exit 2) by a ConfigError naming
    `initial_excitation`, after the per-value and input checks; without
    the key the same scenario sweeps."""
    cfg = cavity_cfg(initial_excitation={"sigma_re": 0.5},
                     cavity={"kappa": "1 MHz_angular", "gamma": "1 kHz"})
    scn = scenario_from_dict(cfg)
    with pytest.raises(ParameterError):
        run_sweep(scn, axis, [-value])
    with pytest.raises(ConfigError, match="^input:"):
        run_sweep(scenario_from_dict(dict(cfg, input={
            "kind": "gaussian", "center": "-0.5 us", "sigma": "200 ns"})),
            axis, [value])
    with pytest.raises(ConfigError, match="^initial_excitation:"):
        run_sweep(scn, axis, [value])
    proc = _cli(["sweep", str(_write_cfg(tmp_path, cfg)), "--axis", axis,
                 "--values", str(value), "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert (err["error"] == "ConfigError"
            and "initial_excitation" in err["message"])
    assert not (tmp_path / "out").exists()
    cfg.pop("initial_excitation")
    assert run_sweep(scenario_from_dict(cfg), axis, [value]).tables


@pytest.mark.parametrize("given", [
    {"kind": "gaussian", "center": "-0.5 us", "sigma": "200 ns"},
    {"kind": "optimal"}])
def test_read_sweep_refuses_an_input_it_would_ignore(tmp_path, given):
    """A tau_r row reads the initial excitation, so a scenario with any
    input but none is refused (exit 2) by a ConfigError naming `input`,
    after the per-value checks."""
    cfg = cavity_cfg(input=given, initial_excitation={"sigma_re": 1.0})
    scn = scenario_from_dict(cfg)
    with pytest.raises(ParameterError):
        run_sweep(scn, "tau_r", [-1.0])
    with pytest.raises(ConfigError, match="input"):
        run_sweep(scn, "tau_r", [1.0])
    proc = _cli(["sweep", str(_write_cfg(tmp_path, cfg)), "--axis", "tau_r",
                 "--values", "1.0", "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError" and "input" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("given", [0, {"sigma_re": 0, "sigma_im": 0}],
                         ids=["number", "mapping"])
def test_read_sweep_refuses_a_zero_initial_excitation(tmp_path, given):
    """A tau_r row reads the initial excitation, so an explicit zero is
    refused (exit 2) by a ConfigError naming `initial_excitation`, after
    the per-value and input checks; an absent key reads sigma = 1."""
    cfg = cavity_cfg(input=None, initial_excitation=given)
    scn = scenario_from_dict(cfg)
    with pytest.raises(ParameterError):
        run_sweep(scn, "tau_r", [-1.0])
    with pytest.raises(ConfigError, match="input"):
        run_sweep(scenario_from_dict(dict(cfg, input={"kind": "optimal"})),
                  "tau_r", [1.0])
    with pytest.raises(ConfigError, match="initial_excitation"):
        run_sweep(scn, "tau_r", [1.0])
    proc = _cli(["sweep", str(_write_cfg(tmp_path, cfg)), "--axis", "tau_r",
                 "--values", "1.0", "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert (err["error"] == "ConfigError"
            and "initial_excitation" in err["message"])
    assert not (tmp_path / "out").exists()
    [(_, _, rows)] = run_sweep(scenario_from_dict(cavity_cfg(input=None)),
                               "tau_r", [1.0]).tables
    assert abs(rows[0, 1] - (1.0 - math.exp(-2.0))) < 1e-6


# (center_frac, sigma_frac) of Gaussian spin waves that vanish on the
# default 201-point z grid, centred between two points: the first is 0
# at every point, the second's norm is so small that its scale overflows
_VANISHING_SPINWAVES = {
    "zero": (0.5003, 1e-9),
    "overflowing scale": (0.5025, 0.0025 / math.sqrt(310 * math.log(10))),
}


@pytest.mark.parametrize("case", _VANISHING_SPINWAVES)
def test_a_vanishing_gaussian_spin_wave_is_refused(tmp_path, case):
    """A Gaussian initial spin wave that vanishes on the z grid cannot
    be scaled to its excitation: the run refuses it (exit 2) with a
    ConfigError naming `initial_excitation`."""
    center, sigma = _VANISHING_SPINWAVES[case]
    cfg = freespace_cfg(input={"kind": "none"}, initial_excitation={
        "kind": "gaussian", "center_frac": center, "sigma_frac": sigma})
    with pytest.raises(ConfigError, match="initial_excitation.*vanishes"):
        run_scenario(scenario_from_dict(cfg))
    proc = _cli(["run", str(_write_cfg(tmp_path, cfg)), "--outdir",
                 str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert (err["error"] == "ConfigError"
            and "initial_excitation" in err["message"])
    assert not (tmp_path / "out").exists()


def test_depth_sweep_refuses_a_model_it_would_not_run(tmp_path):
    """The depth sweep marches its rows, so a freespace-analytic
    scenario is refused (exit 2) by a ConfigError naming `model`."""
    cfg = freespace_cfg(model="freespace-analytic")
    with pytest.raises(ConfigError, match="model"):
        run_sweep(scenario_from_dict(cfg), "d", [10.0])
    proc = _cli(["sweep", str(_write_cfg(tmp_path, cfg)), "--axis", "d",
                 "--values", "10", "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError" and "model" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, over", [
    ("initial_excitation", {"initial_excitation": {
        "kind": "gaussian", "center_frac": 0.5, "sigma_frac": 0.1,
        "excitation": 0.7}}),
    ("outputs.fields", {"outputs": {"fields": True}})])
def test_depth_sweep_refuses_what_it_would_ignore(tmp_path, key, over):
    """A depth row writes into an empty medium and dumps no fields, so a
    scenario with an initial excitation or outputs.fields is refused
    (exit 2) by a ConfigError naming the key, after the model and input
    checks; without the key the same scenario sweeps."""
    cfg = freespace_cfg(**over)
    with pytest.raises(ConfigError, match="^model:"):
        run_sweep(scenario_from_dict(dict(cfg, model="freespace-analytic")),
                  "d", [10.0])
    with pytest.raises(ConfigError, match="gaussian input"):
        run_sweep(scenario_from_dict(dict(cfg, input={"kind": "none"})),
                  "d", [10.0])
    with pytest.raises(ConfigError, match=f"^{key}:"):
        run_sweep(scenario_from_dict(cfg), "d", [10.0])
    proc = _cli(["sweep", str(_write_cfg(tmp_path, cfg)), "--axis", "d",
                 "--values", "10", "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError" and key in err["message"]
    assert not (tmp_path / "out").exists()
    cfg.pop(key.split(".")[0])
    assert run_sweep(scenario_from_dict(cfg), "d", [10.0]).tables


def test_depth_sweep_obeys_theta_points(monkeypatch):
    # one entry per march, holding each batch row's theta node count
    marches = []

    def spy(bc, ic, tau, z, **kw):
        marches.append([np.shape(tau)[-1]] * np.atleast_2d(tau).shape[0])
        return solver(bc, ic, tau, z, **kw)
    solver = freespace.numeric_evolution
    monkeypatch.setattr(freespace, "numeric_evolution", spy)
    cfg = freespace_cfg(
        input={"kind": "gaussian", "center": "0 us", "fwtm": "300 ns"},
        coupling=[{"kind": "gaussian", "amplitude": "1 MHz_angular",
                   "center": "-50 ns", "sigma": "100 ns"}])
    run_sweep(scenario_from_dict(cfg), "d", [150.0])
    # automatic: a theta step of 0.01 over 150 gamma sigma sqrt(pi) = 8.35;
    # one write march, then one read march over forward and backward
    assert marches == [[837], [837] * 2]
    marches.clear()
    run_sweep(scenario_from_dict(dict(cfg, theta_points=500)), "d", [150.0])
    assert marches == [[500], [500] * 2]


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
    assert tuple(rows[0]) == (0.0, 0.0, 0.0)
    assert rows[1][2] > rows[1][1] > 0.0     # backward wins at high d


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def design_cfg(**over):
    return cavity_cfg(**{
        "grid": {"start": "-1 us", "stop": "0 us", "points": 4001},
        "coupling": [],
        "input": {"kind": "gaussian", "center": "-0.5 us", "sigma": "100 ns"},
        "storage_time": "3 us",
        "design": {"eta_write": 0.9, "eta_read": 0.9}, **over})


def test_design_synthesizes_and_verifies(monkeypatch):
    replays = []

    def spy(*args, **kw):
        replays.append(simulate(*args, **kw))
        return replays[-1]
    simulate = scenarios.simulate_adiabatic
    monkeypatch.setattr(scenarios, "simulate_adiabatic", spy)
    rec = design_couplings(scenario_from_dict(design_cfg()))
    assert rec.summary["replay_overlap"] > 1.0 - 1e-6
    assert abs(rec.summary["energy_ratio"] - 0.81) < 1e-3
    # the energy ratio is the replay ledger's, bit for bit
    [replay] = replays
    assert rec.summary["energy_ratio"] == replay.eta_tot
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


def test_design_refuses_read_meeting_write_end():
    # at storage_time = grid span the read coupling starts on the last
    # sample of the write coupling, where both are nonzero; 1e-10 of the
    # span later the two supports still meet within their edge tolerance
    for storage_time in ("1 us", "1.0000000001 us"):
        scn = scenario_from_dict(cavity_cfg(
            grid={"start": "-1 us", "stop": "0 us", "points": 4001},
            coupling=[],
            input={"kind": "gaussian", "center": "-0.5 us",
                   "sigma": "100 ns"},
            storage_time=storage_time,
            design={"eta_write": 0.9, "eta_read": 0.9}))
        with pytest.raises(ConfigError, match="storage_time"):
            design_couplings(scn)


def test_design_needs_its_inputs():
    with pytest.raises(ConfigError, match="concrete input"):
        design_couplings(scenario_from_dict(design_cfg(
            input={"kind": "optimal"})))
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


def _python(args, cwd):
    """Run a fresh interpreter that imports the package under test."""
    old = os.environ.get("PYTHONPATH")
    path = _SRC_ROOT + (os.pathsep + old if old else "")
    return subprocess.run([sys.executable, *args],
                          cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path},
                          timeout=300)


def _cli(args, cwd):
    """Run ``python -m dipolemem`` on the package under test."""
    return _python(["-m", "dipolemem", *args], cwd)


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


# a cavity scenario whose tables are written in exponent notation, as
# YAML 1.2 and JSON (json.dumps prints 1e-06) write them
_EXPONENT_YAML = """\
model: cavity-adiabatic
cavity: {kappa: "1 MHz_angular"}
grid: {start: "0 us", stop: "2 us", points: 201}
coupling:
  - kind: piecewise_linear
    time_s: [0, 1e-6, 1.5e-6, 2e-6]
    value: [0, 5e5, 5.0e5, 0]
input: {kind: optimal}
"""


def _exponent_cfg():
    return cavity_cfg(
        grid={"start": "0 us", "stop": "2 us", "points": 201},
        coupling=[{"kind": "piecewise_linear",
                   "time_s": [0.0, 1e-6, 1.5e-6, 2e-6],
                   "value": [0.0, 5e5, 5e5, 0.0]}])


@pytest.mark.parametrize("name", ["case.yaml", "case.json"])
def test_cli_reads_exponent_notation_as_numbers(tmp_path, name):
    """1e-6 and 5e5 are numbers in YAML and in json.dumps output, and
    the scenario hashes as the same dict given to scenario_from_dict."""
    cfg = _exponent_cfg()
    path = tmp_path / name
    path.write_text(_EXPONENT_YAML if name.endswith(".yaml")
                    else json.dumps(cfg))
    assert "1e-06" in path.read_text() or "1e-6" in path.read_text()
    proc = _cli(["run", str(path), "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert result["scenario_hash"] == scenario_hash(scenario_from_dict(cfg))


def test_cli_still_refuses_a_quoted_exponent(tmp_path):
    path = tmp_path / "case.yaml"
    path.write_text(_EXPONENT_YAML.replace("[0, 1e-6,", '[0, "1e-6",'))
    proc = _cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr) == {
        "error": "ConfigError",
        "message": "expected a bare number at coupling[0].time_s[1], "
                   "got '1e-6'"}


def test_load_keeps_counts_strings_and_specials():
    """The exponent resolver changes only unquoted exponent notation:
    counts stay ints, quoted numbers and unit strings stay strings."""
    from dipolemem.scenarios import _yaml_loader
    doc = yaml.load(
        "[2001, '1e-6', 1 us, .inf, 1.0e-6, 5.0e+5, 1e-6, 5e5, 1e+16, 1.e3,"
        " .5e-1, -2E3, 1e, e5, 1_000]", Loader=_yaml_loader())
    assert doc[:4] == [2001, "1e-6", "1 us", float("inf")]
    assert doc[4:12] == [1e-6, 5e5, 1e-6, 5e5, 1e16, 1e3, 0.05, -2e3]
    assert all(type(x) is float for x in doc[4:12])
    assert doc[12:14] == ["1e", "e5"] and doc[14] == 1000
    assert type(doc[0]) is int


@pytest.mark.parametrize("what", ["directory", "non-UTF-8 file"])
def test_cli_refuses_a_config_that_is_not_a_text_file(tmp_path, what):
    if what == "directory":
        path = tmp_path / "cfg.yaml"
        path.mkdir()
    else:
        path = _write_cfg(tmp_path, cavity_cfg())
        path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
    proc = _cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert str(path) in err["message"]


@pytest.mark.parametrize("what", ["directory", "non-UTF-8 file", "number"])
def test_cli_refuses_a_table_that_is_not_a_text_file(tmp_path, what):
    """A csv path to a directory or to a file that is not UTF-8, or a
    csv value that is not a path at all (`csv: 1e5` reads as a number),
    exits 2 with a ConfigError naming the table."""
    table = tmp_path / "g.csv"
    if what == "directory":
        table.mkdir()
    else:
        table.write_bytes(b"time_s,value\xff\n0,0\n1e-6,5e5\n2e-6,0\n")
    cfg = _write_cfg(tmp_path, cavity_cfg(
        grid={"start": "0 us", "stop": "2 us", "points": 201},
        coupling=[{"kind": "piecewise_linear",
                   "csv": 1e5 if what == "number" else "g.csv"}]))
    proc = _cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert "coupling[0]" in err["message"]
    assert ("100000.0" if what == "number" else "g.csv") in err["message"]


def test_csv_table_with_a_byte_order_mark_keeps_its_first_row(tmp_path):
    """A table saved with a UTF-8 byte-order mark (as some spreadsheets
    save CSV) loads as the same table: the mark is not read into the
    first cell, which would turn the first data row into a header."""
    rows = b"0,0\n1e-6,5e5\n1.5e-6,5e5\n2e-6,0\n"
    (tmp_path / "plain.csv").write_bytes(rows)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + rows)
    configs = [scenario_from_dict(cavity_cfg(
        grid={"start": "0 us", "stop": "2 us", "points": 201},
        coupling=[{"kind": "piecewise_linear", "csv": name}]),
        base_dir=tmp_path).config["coupling"][0]
        for name in ("plain.csv", "bom.csv")]
    assert configs[0]["time_s"] == [0.0, 1e-6, 1.5e-6, 2e-6]
    assert configs[1] == configs[0]


@pytest.mark.parametrize("count", [2**70, scenarios._MAX_COUNT + 1])
@pytest.mark.parametrize("key", ["grid.points", "space_points",
                                 "theta_points"])
def test_oversized_counts_are_refused_at_parse_time(key, count):
    """A count past the stated bound is a ConfigError naming its key,
    raised while parsing, before any array of that size is made."""
    if key == "grid.points":
        raw = cavity_cfg(grid={"start": "-2 us", "stop": "0 us",
                               "points": count})
    else:
        raw = freespace_cfg(**{key: count})
    with pytest.raises(ConfigError, match=f"{key} must be at most"):
        scenario_from_dict(raw)


def test_cli_refuses_an_oversized_grid_with_exit_2(tmp_path):
    cfg = _write_cfg(tmp_path, cavity_cfg(
        grid={"start": "-2 us", "stop": "0 us", "points": 2**70}))
    proc = _cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert "grid.points" in err["message"]


def test_cli_reports_numeric_refusals(tmp_path):
    cfg = _write_cfg(tmp_path, cavity_cfg(
        model="cavity-full",
        grid={"start": "-2 us", "stop": "0 us", "points": 201},
        cavity={"kappa": "100 MHz_angular"}))
    proc = _cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr)["error"] == "StabilityError"


def test_cli_design_refuses_spin_decay(tmp_path):
    # the synthesis has no decay: at gamma = 2e5 rad/s its replay would
    # reach an energy ratio of about 0.24 against the 0.81 target
    _assert_design_refused(tmp_path, "cavity.gamma", cavity={
        "kappa": "1 MHz_angular", "gamma": "200 kHz_angular"})


@pytest.mark.parametrize("key, over", [
    # the synthesis and its replay are adiabatic, with no detuning, and
    # they make both couplings: each of these would be ignored, and the
    # run would report the plain preset's numbers
    ("model", {"model": "cavity-full"}),
    ("detuning", {"detuning": [{"kind": "square", "start": "-1 us",
                                "end": "0 us", "amplitude": "3 MHz"}]}),
    ("coupling", {"coupling": [{"kind": "square", "start": "-1 us",
                                "end": "0 us",
                                "amplitude": "1 MHz_angular"}]}),
    # the replay starts from sigma = 0
    ("initial_excitation", {"initial_excitation": {"sigma_re": 0.5}}),
])
def test_cli_design_refuses_what_it_would_ignore(tmp_path, key, over):
    _assert_design_refused(tmp_path, key, **over)


def _assert_design_refused(tmp_path, key, **over):
    """`design` on `design_cfg(**over)` exits 2 with a ConfigError naming
    `key`, and writes nothing."""
    cfg = _write_cfg(tmp_path, design_cfg(**over))
    proc = _cli(["design", str(cfg), "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert key in err["message"]
    assert not (tmp_path / "out").exists()


def test_segments_meeting_while_nonzero_are_refused(tmp_path):
    # [0, 1] us at 5e5 and [1, 2] us at 9e5 would add to 1.4e6 at 1 us
    segs = [SquareSegment(0.0, 1e-6, 5e5), SquareSegment(1e-6, 2e-6, 9e5)]
    with pytest.raises(ParameterError, match=r"\[0\.0, 1e-06\] and "
                       r"\[1e-06, 2e-06\]"):
        Schedule(segs)
    # a junction that is zero on one side is kept
    Schedule([SquareSegment(0.0, 1e-6, 0.0), segs[1]])
    cfg = _write_cfg(tmp_path, cavity_cfg(
        grid={"start": "0 us", "stop": "2 us", "points": 2001},
        coupling=[{"kind": "square", "start": "0 us", "end": "1 us",
                   "amplitude": "500 kHz_angular"},
                  {"kind": "square", "start": "1 us", "end": "2 us",
                   "amplitude": "900 kHz_angular"}]))
    proc = _cli(["run", str(cfg), "--outdir", str(tmp_path / "out")],
                cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert "coupling" in err["message"] and "meet" in err["message"]


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
    # no values at all: the sweep's own check is the only one
    bad = _cli(["sweep", str(cfg), "--axis", "tau_r", "--values", ","],
               cwd=tmp_path)
    assert bad.returncode == 2, bad.stderr
    assert json.loads(bad.stderr) == {
        "error": "ConfigError",
        "message": "the sweep needs at least one axis value"}
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


def test_cavity_run_loads_no_scipy(tmp_path):
    # scipy costs most of a CLI process's start-up; a cavity run with a
    # tabulated (PCHIP) coupling must not load any of it
    cfg = _write_cfg(tmp_path, cavity_cfg(
        grid={"start": "0 us", "stop": "2 us", "points": 201},
        coupling=[{"kind": "tabulated", "time_s": _T,
                   "value": [0.0, 3e5, 7e5, 4e5, 0.0]}]))
    code = ("import sys, dipolemem\n"
            "from dipolemem.scenarios import load_scenario, run_scenario\n"
            "run_scenario(load_scenario(sys.argv[1]))\n"
            "print([m for m in sys.modules\n"
            "       if m == 'scipy' or m.startswith('scipy.')])\n")
    proc = _python(["-c", code, str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_formatter_loads_with_the_first_write(tmp_path):
    # `import dipolemem` does not load the CSV formatter; writing loads
    # it, and neither pulls in fractions or decimal
    code = ("import sys, dipolemem\n"
            "names = ('dipolemem._csvcells', 'fractions', 'decimal')\n"
            "print([m for m in names if m in sys.modules])\n"
            "from dipolemem.scenarios import run_scenario, \\\n"
            "    scenario_from_dict, write_artifacts\n"
            "cfg = {'model': 'cavity-adiabatic',\n"
            "       'cavity': {'kappa': '1 MHz_angular'},\n"
            "       'grid': {'start': '0 us', 'stop': '2 us',\n"
            "                'points': 201},\n"
            "       'coupling': [{'kind': 'square', 'start': '0 us',\n"
            "                     'end': '2 us',\n"
            "                     'amplitude': '1 MHz_angular'}],\n"
            "       'initial_excitation': 1.0}\n"
            "rec = run_scenario(scenario_from_dict(cfg))\n"
            "write_artifacts(rec, sys.argv[1])\n"
            "print([m for m in names if m in sys.modules])\n")
    proc = _python(["-c", code, str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['dipolemem._csvcells']"]


def test_verify_loads_no_yaml(tmp_path):
    # only `load_scenario` parses YAML, and `verify` reads no file; its
    # checks draw no random numbers, so numpy.random stays unloaded
    code = ("import sys\n"
            "from dipolemem.cli import main\n"
            "assert main(['verify']) == 0\n"
            "mods = ('yaml', 'numpy.random')\n"
            "print([m for m in mods if m in sys.modules])\n")
    proc = _python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_depth_sweep_and_verify_load_no_scipy(tmp_path):
    # the depth sweep's erf map and verify's Bessel reference are numpy
    # and the standard library, and the version is a literal: neither
    # command loads scipy or the package-metadata machinery
    preset = REPO / "presets" / "freespace_gaussian_sweep.yaml"
    code = ("import sys\n"
            "from dipolemem.cli import main\n"
            "assert main(['sweep', sys.argv[1], '--axis', 'd', '--values',\n"
            "             '1,3,10,22,40,60,90,120,150',\n"
            "             '--outdir', sys.argv[2]]) == 0\n"
            "assert main(['verify']) == 0\n"
            "print([m for m in sys.modules\n"
            "       if m.startswith(('scipy', 'importlib.metadata'))])\n")
    proc = _python(["-c", code, str(preset), str(tmp_path / "out")],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_version_comes_from_one_literal(tmp_path):
    version = dipolemem.__version__
    proc = _cli(["--version"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"dipolemem {version}"
    write_artifacts(run_scenario(scenario_from_dict(cavity_cfg())), tmp_path)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["version"] == version
    # pyproject.toml reads the same literal instead of repeating it
    text = (REPO / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "dipolemem.__version__"}' in text


def test_verify_bessel_reference_matches_scipy():
    # the kernel's one route at every argument, and verify's exact read
    from scipy import special
    u = np.concatenate([np.linspace(0.0, 30.0, 3001)[1:],
                        np.linspace(30.0, 2000.0, 19701)[1:]])
    x = 2.0 * np.sqrt(u)
    for n, a, want in ((0, u, special.i0(x)), (1, u, special.i1(x)),
                       (0, -u, special.j0(x)), (1, -u, special.j1(x))):
        got = freespace.entire_bessel_kernel(a, n) * np.sqrt(u) ** n
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-14, (n, a[-1], err.max())


def test_kernel_solver_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import failing, a
    # freespace-analytic run past one theta slab and the kernel's Bessel
    # forms still run
    cfg = freespace_cfg(model="freespace-analytic", space_points=201)
    cfg["coupling"][0]["amplitude"] = "2750 MHz_angular"
    path = _write_cfg(tmp_path, cfg)
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from dipolemem.freespace import entire_bessel_kernel\n"
            "from dipolemem.scenarios import load_scenario, run_scenario\n"
            "rec = run_scenario(load_scenario(sys.argv[1]))\n"
            "print(json.dumps([rec.summary['theta_total'],\n"
            "                  [entire_bessel_kernel(a, n)\n"
            "                   for a in (-100.0, 100.0) for n in (0, 1)]]))\n")
    proc = _python(["-c", code, str(path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    theta_total, kernels = json.loads(proc.stdout)
    assert theta_total > 30.0
    from scipy import special
    want = [special.j0(20.0), special.j1(20.0) / 10.0,
            special.i0(20.0), special.i1(20.0) / 10.0]
    np.testing.assert_allclose(kernels, want, rtol=1e-12)


def test_cli_verify_passes(capsys):
    assert cli_main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower() or "pass" in out.lower()


def test_verify_text_passes_the_benchmark_checks(monkeypatch):
    # the benchmark parses every verify line and holds each printed error
    # to its printed bound; a reworded or failing line fails it
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    buf = io.StringIO()
    assert scenarios.builtin_verify(buf)
    text = buf.getvalue()
    ck = workloads.Checker()
    workloads.check_verify_text(ck, text)
    assert ck.ok, [r for r in ck.results if not r[2]]
    assert sum(ln.startswith("PASS") for ln in text.splitlines()) == 12
    assert all(ratio <= 1.0 for _n, ratio, _ok in ck.results
               if ratio is not None)


def test_verify_marches_the_propagation_case_once(monkeypatch):
    # the continuity check reuses the two-solver check's march; the
    # exact-read and thin-medium checks march their own cases, and no
    # march outlives a call
    calls = []

    def spy(*args, **kw):
        calls.append(args)
        return solver(*args, **kw)
    solver = scenarios.numeric_evolution
    monkeypatch.setattr(scenarios, "numeric_evolution", spy)
    assert scenarios.builtin_verify(io.StringIO())
    assert len(calls) == 3
    assert scenarios.builtin_verify(io.StringIO())
    assert len(calls) == 6


@pytest.mark.parametrize("solver", ["analytic_evolution", "numeric_evolution"])
@pytest.mark.parametrize("field", ["e_end", "s_final"])
def test_verify_exact_read_fails_a_solver_off_by_twice_its_bound(solver,
                                                                 field):
    # the exact-read lines hold each solver's read to 0.15 a^2
    # (a = theta_total h_x = 2/60); an offset of twice that fails them
    bound = 0.15 * (2.0 / 60.0) ** 2

    def off(*case):
        fields = getattr(scenarios, solver)(*case)
        setattr(fields, field, getattr(fields, field) + 2.0 * bound)
        return fields
    ok, detail = scenarios._check_exact_read(off)
    assert not ok, detail
    assert scenarios._check_exact_read(getattr(scenarios, solver))[0]
