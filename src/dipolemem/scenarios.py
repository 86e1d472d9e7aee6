"""Declarative experiment configs and the operations that consume them.

A scenario file (YAML; JSON works too) describes one memory experiment:
which model to integrate, the physical parameters, the coupling and
detuning waveforms, the input field, and the grids.  This module turns
such a document into a simulation run and writes a self-contained
artifact directory:

    result.json     scalar summary, diagnostics, scenario hash, version
    e_out.csv       output field envelope against time
    spinwave.csv    stored excitation (against time for cavity runs,
                    against position for propagation runs)
    g_write.csv,
    g_read.csv      synthesized couplings (design operation)
    sweep.csv       one row per axis value (sweep operation)
    fields.csv      optional full space-time field dump

Models: ``cavity-full``, ``cavity-adiabatic`` (single-mode memory, with
or without adiabatic elimination of the intracavity field) and
``freespace-numeric``, ``freespace-analytic`` (propagating medium,
marching solver or exact kernel convolutions).

Every dimensioned number in a config carries a unit suffix ("300 ns",
"1 cm", "50 kHz_angular"); see `units`.  Tabulated waveforms may be
inline arrays (keys time_s / value, plain SI floats) or a path to a
two-column CSV; CSV data is inlined on load, so the canonical form of a
scenario -- and therefore its hash -- is independent of external files.
The hash is the SHA-256 of the canonical JSON encoding; together with
the package version it pins a run's numerics: CSV bodies are written
with 17 significant digits and reproduce byte-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from importlib import metadata as _metadata
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .cavity import (CavityParams, SimResult, continuity_residual,
                     simulate_adiabatic, simulate_full,
                     square_pulse_efficiency)
from .control import optimal_write_input, synthesize_couplings, \
    variational_optimize
from .errors import ConfigError, ParameterError
from .freespace import (FreeSpaceTransform, MediumParams, analytic_evolution,
                        entire_bessel_kernel, numeric_evolution,
                        reduced_continuity_residual, storage_retrieval_sweep,
                        theta_nodes, thin_medium_cavity_coupling)
from .schedules import (FieldEnvelope, GaussianSegment, Ledger, Schedule,
                        SquareSegment, TimeGrid, effective_time, ledger)
from .units import format_quantity, parse_quantity

try:
    TOOLKIT_VERSION = _metadata.version("dipolemem")
except _metadata.PackageNotFoundError:  # running from a source tree
    TOOLKIT_VERSION = "0.0.0+src"

CAVITY_MODELS = ("cavity-full", "cavity-adiabatic")
FREESPACE_MODELS = ("freespace-numeric", "freespace-analytic")
MODELS = CAVITY_MODELS + FREESPACE_MODELS

SWEEP_AXES = ("d", "tau_r", "tau_w", "cooperativity", "duration")

# A time sample counts as interacting when the instantaneous depth rate
# g^2 L / c exceeds this fraction of its peak; below it the medium is
# treated as transparent (input passes straight through).  The neglected
# effective time is about RHO_CUT * theta_total, far below the solver
# error, while the reduced boundary field E/g stays bounded.
RHO_CUT = 1e-6


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"expected a mapping at {where}, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed, required, where: str) -> None:
    unknown = set(node) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} at {where}; "
            f"allowed: {sorted(allowed)}")
    missing = set(required) - set(node)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} at {where}")


def _number(node, where: str) -> float:
    return parse_quantity(node, "dimensionless", where=where)


def _float_list(node, where: str) -> list[float]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"expected a non-empty list of numbers at {where}")
    return [_number(x, f"{where}[{i}]") for i, x in enumerate(node)]


def _read_csv_columns(path: Path, ncols_min: int, ncols_max: int,
                      where: str) -> list[np.ndarray]:
    """Numeric columns from a small CSV (optional header row).  Every
    data row has the same width and only finite cells."""
    if not path.exists():
        raise ConfigError(f"CSV file {path} at {where} does not exist")
    rows = []
    with open(path, newline="") as f:
        for lineno, rec in enumerate(csv.reader(f), start=1):
            if not rec:
                continue
            try:
                vals = [float(c) for c in rec]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ConfigError(
                    f"non-numeric row {lineno} in {path} at {where}")
            if not np.all(np.isfinite(vals)):
                raise ConfigError(
                    f"{path} at {where}: row {lineno} has a non-finite cell")
            if not ncols_min <= len(vals) <= ncols_max:
                raise ConfigError(
                    f"{path} at {where}: row {lineno} has {len(vals)} "
                    f"columns, expected {ncols_min}..{ncols_max}")
            if rows and len(vals) != len(rows[0]):
                raise ConfigError(
                    f"{path} at {where}: row {lineno} has {len(vals)} "
                    f"columns, the first data row {len(rows[0])}")
            rows.append(vals)
    return [np.array(col) for col in zip(*rows)]


def _table(node: dict, base_dir: Path, where: str, names,
           optional=()) -> list[np.ndarray]:
    """The columns `names` of a tabulated form: inline arrays under those
    keys or a `csv` path (columns in that order), not both.  Columns in
    `optional` may be left out and read as zeros.  A table has at least
    two rows, equal column lengths and an increasing first column."""
    inline = [n for n in names if n in node]
    if "csv" in node:
        if inline:
            raise ConfigError(
                f"{where}: give either csv or inline arrays, not both")
        cols = _read_csv_columns(base_dir / node["csv"],
                                 len(names) - len(optional), len(names), where)
    else:
        missing = [n for n in names if n not in node and n not in optional]
        if missing:
            raise ConfigError(f"{where}: a table needs {'/'.join(names)} "
                              f"arrays (or a csv path); missing {missing}")
        cols = [np.array(_float_list(node[n], f"{where}.{n}"))
                for n in inline]
    if len({c.size for c in cols}) > 1:
        raise ConfigError(f"{where}: {'/'.join(names)} lengths differ")
    if not cols or cols[0].size < 2:
        raise ConfigError(f"{where}: a table needs at least two rows")
    if not np.all(np.diff(cols[0]) > 0):
        raise ConfigError(f"{where}: {names[0]} must be increasing")
    return cols + [np.zeros_like(cols[0])] * (len(names) - len(cols))


# ---------------------------------------------------------------------------
# schedule segments <-> config
# ---------------------------------------------------------------------------

def _segment_from_config(node, base_dir: Path, where: str):
    node = _require_mapping(node, where)
    kind = node.get("kind")
    if kind == "square":
        _check_keys(node, ("kind", "start", "end", "amplitude"),
                    ("start", "end", "amplitude"), where)
        return SquareSegment(
            parse_quantity(node["start"], "time", where=f"{where}.start"),
            parse_quantity(node["end"], "time", where=f"{where}.end"),
            parse_quantity(node["amplitude"], "rate", where=f"{where}.amplitude"))
    if kind == "gaussian":
        _check_keys(node, ("kind", "amplitude", "center", "sigma", "support"),
                    ("amplitude", "center", "sigma"), where)
        center = parse_quantity(node["center"], "time", where=f"{where}.center")
        sigma = parse_quantity(node["sigma"], "time", where=f"{where}.sigma")
        if sigma <= 0.0:
            raise ConfigError(f"sigma must be positive at {where}")
        if "support" in node:
            sup = node["support"]
            if not (isinstance(sup, list) and len(sup) == 2):
                raise ConfigError(f"support at {where} must be [start, end]")
            lo = parse_quantity(sup[0], "time", where=f"{where}.support[0]")
            hi = parse_quantity(sup[1], "time", where=f"{where}.support[1]")
        else:
            lo, hi = center - 8.0 * sigma, center + 8.0 * sigma
        return GaussianSegment(
            lo, hi,
            parse_quantity(node["amplitude"], "rate", where=f"{where}.amplitude"),
            center, sigma)
    if kind in ("piecewise_linear", "tabulated"):
        _check_keys(node, ("kind", "time_s", "value", "csv"), (), where)
        t, v = _table(node, base_dir, where, ("time_s", "value"))
        try:
            seg_cls = Schedule.piecewise_linear if kind == "piecewise_linear" \
                else Schedule.tabulated
            return seg_cls(t, v).segments[0]
        except ParameterError as exc:
            raise ConfigError(f"bad {kind} segment at {where}: {exc}") from exc
    raise ConfigError(
        f"unknown segment kind {kind!r} at {where}; expected square, "
        "gaussian, piecewise_linear or tabulated")


def _segment_to_config(seg) -> dict:
    if isinstance(seg, SquareSegment):
        return {"kind": "square",
                "start": format_quantity(seg.start, "time"),
                "end": format_quantity(seg.end, "time"),
                "amplitude": format_quantity(seg.amplitude, "rate")}
    if isinstance(seg, GaussianSegment):
        return {"kind": "gaussian",
                "amplitude": format_quantity(seg.amplitude, "rate"),
                "center": format_quantity(seg.center, "time"),
                "sigma": format_quantity(seg.width, "time"),
                "support": [format_quantity(seg.start, "time"),
                            format_quantity(seg.end, "time")]}
    kind = "piecewise_linear" if type(seg).__name__.startswith("Piecewise") \
        else "tabulated"
    return {"kind": kind,
            "time_s": [float(x) for x in seg.times],
            "value": [float(x) for x in seg.values]}


def _schedule_from_config(node, base_dir: Path, where: str) -> Schedule:
    if node is None:
        return Schedule.zero()
    if not isinstance(node, list):
        raise ConfigError(f"{where} must be a list of segments (or omitted)")
    segs = [_segment_from_config(s, base_dir, f"{where}[{i}]")
            for i, s in enumerate(node)]
    try:
        return Schedule(segs)
    except ParameterError as exc:
        raise ConfigError(f"bad schedule at {where}: {exc}") from exc


def _schedule_to_config(sched: Schedule) -> list:
    return [_segment_to_config(s) for s in sched.segments]


# ---------------------------------------------------------------------------
# input field and initial excitation <-> config
# ---------------------------------------------------------------------------

def _input_from_config(node, base_dir: Path, model: str) -> dict:
    where = "input"
    if node is None:
        return {"kind": "none"}
    node = _require_mapping(node, where)
    kind = node.get("kind")
    if kind == "none":
        _check_keys(node, ("kind",), (), where)
        return {"kind": "none"}
    if kind == "gaussian":
        _check_keys(node, ("kind", "center", "sigma", "fwtm", "photons"),
                    ("center",), where)
        if ("sigma" in node) == ("fwtm" in node):
            raise ConfigError(f"{where}: give exactly one of sigma or fwtm")
        if "sigma" in node:
            sigma = parse_quantity(node["sigma"], "time", where=f"{where}.sigma")
        else:
            # full width at a tenth of the peak *amplitude*
            fwtm = parse_quantity(node["fwtm"], "time", where=f"{where}.fwtm")
            sigma = fwtm / (2.0 * np.sqrt(2.0 * np.log(10.0)))
        if sigma <= 0.0:
            raise ConfigError(f"{where}: width must be positive")
        return {"kind": "gaussian",
                "center": format_quantity(
                    parse_quantity(node["center"], "time",
                                   where=f"{where}.center"), "time"),
                "sigma": format_quantity(sigma, "time"),
                "photons": _photons(node, where)}
    if kind == "square":
        _check_keys(node, ("kind", "start", "end", "photons"),
                    ("start", "end"), where)
        start = parse_quantity(node["start"], "time", where=f"{where}.start")
        end = parse_quantity(node["end"], "time", where=f"{where}.end")
        if not end > start:
            raise ConfigError(f"{where}: need end > start")
        return {"kind": "square",
                "start": format_quantity(start, "time"),
                "end": format_quantity(end, "time"),
                "photons": _photons(node, where)}
    if kind == "optimal":
        if model not in CAVITY_MODELS:
            raise ConfigError(
                f"{where}: the optimal input is defined for cavity models, "
                f"not {model}")
        _check_keys(node, ("kind", "photons"), (), where)
        return {"kind": "optimal", "photons": _photons(node, where)}
    if kind == "tabulated":
        _check_keys(node, ("kind", "csv", "time_s", "re", "im", "photons"),
                    (), where)
        t, re, im = _table(node, base_dir, where, ("time_s", "re", "im"),
                           optional=("im",))
        out = {"kind": "tabulated",
               "time_s": [float(x) for x in t],
               "re": [float(x) for x in re],
               "im": [float(x) for x in im],
               "photons": None}
        if "photons" in node and node["photons"] is not None:
            out["photons"] = _photons(node, where)
        return out
    raise ConfigError(
        f"unknown input kind {kind!r}; expected none, gaussian, square, "
        "optimal or tabulated")


def _photons(node: dict, where: str) -> float:
    n = _number(node.get("photons", 1.0), f"{where}.photons")
    if n <= 0.0:
        raise ConfigError(f"{where}.photons must be positive")
    return n


def _initial_from_config(node, base_dir: Path, model: str) -> Optional[dict]:
    where = "initial_excitation"
    if node is None:
        return None
    if model in CAVITY_MODELS:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            return {"sigma_re": float(node), "sigma_im": 0.0}
        node = _require_mapping(node, where)
        _check_keys(node, ("sigma_re", "sigma_im"), ("sigma_re",), where)
        return {"sigma_re": _number(node["sigma_re"], f"{where}.sigma_re"),
                "sigma_im": _number(node.get("sigma_im", 0.0),
                                    f"{where}.sigma_im")}
    node = _require_mapping(node, where)
    kind = node.get("kind")
    if kind == "gaussian":
        _check_keys(node, ("kind", "center_frac", "sigma_frac", "excitation"),
                    ("center_frac", "sigma_frac"), where)
        c = _number(node["center_frac"], f"{where}.center_frac")
        s = _number(node["sigma_frac"], f"{where}.sigma_frac")
        n = _number(node.get("excitation", 1.0), f"{where}.excitation")
        if not 0.0 <= c <= 1.0:
            raise ConfigError(f"{where}.center_frac must lie in [0, 1]")
        if s <= 0.0 or n <= 0.0:
            raise ConfigError(f"{where}: sigma_frac and excitation must be > 0")
        return {"kind": "gaussian", "center_frac": c, "sigma_frac": s,
                "excitation": n}
    if kind == "tabulated":
        _check_keys(node, ("kind", "csv", "x", "re", "im"), (), where)
        x, re, im = _table(node, base_dir, where, ("x", "re", "im"),
                           optional=("im",))
        if x[0] < 0.0 or x[-1] > 1.0:
            raise ConfigError(f"{where}: positions are fractions of the "
                              "medium length, within [0, 1]")
        return {"kind": "tabulated",
                "x": [float(v) for v in x],
                "re": [float(v) for v in re],
                "im": [float(v) for v in im]}
    raise ConfigError(
        f"unknown initial_excitation kind {kind!r} for {model}; "
        "expected gaussian or tabulated")


# ---------------------------------------------------------------------------
# the scenario object
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Scenario:
    """A fully resolved experiment description.

    `config` is the canonical dictionary: every quantity in SI with an
    explicit unit string, every external table inlined, every default
    materialized.  Re-parsing it reproduces the same canonical form, so
    the SHA-256 of its sorted JSON encoding identifies the scenario.
    """

    model: str
    grid: TimeGrid
    coupling: Schedule
    detuning: Schedule
    cavity: Optional[CavityParams]
    medium: Optional[MediumParams]
    input_spec: dict
    initial_excitation: Optional[dict]
    storage_time: Optional[float]
    space_points: int
    theta_points: Optional[int]
    dump_fields: bool
    design: Optional[dict]
    config: dict


def scenario_hash(scn: Scenario) -> str:
    blob = json.dumps(scn.config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_TOP_KEYS = ("model", "grid", "coupling", "detuning", "cavity", "medium",
             "input", "initial_excitation", "storage_time", "space_points",
             "theta_points", "outputs", "design")


def scenario_from_dict(raw: dict, base_dir="." ) -> Scenario:
    base_dir = Path(base_dir)
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, ("model", "grid", "coupling"), "config")

    model = raw["model"]
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {MODELS}")

    gnode = _require_mapping(raw["grid"], "grid")
    _check_keys(gnode, ("start", "stop", "points"),
                ("start", "stop", "points"), "grid")
    t0 = parse_quantity(gnode["start"], "time", where="grid.start")
    t1 = parse_quantity(gnode["stop"], "time", where="grid.stop")
    npts = gnode["points"]
    if not isinstance(npts, int) or isinstance(npts, bool) or npts < 2:
        raise ConfigError("grid.points must be an integer >= 2")
    if not t1 > t0:
        raise ConfigError("grid.stop must exceed grid.start")
    grid = TimeGrid.from_span(t0, t1, npts)

    coupling = _schedule_from_config(raw["coupling"], base_dir, "coupling")
    if not coupling.is_nonnegative(grid):
        raise ConfigError("the coupling schedule must be non-negative")
    detuning = _schedule_from_config(raw.get("detuning"), base_dir, "detuning")

    cavity = medium = None
    if model in CAVITY_MODELS:
        if "medium" in raw and raw["medium"] is not None:
            raise ConfigError(f"model {model} takes a cavity block, not medium")
        cnode = _require_mapping(raw.get("cavity"), "cavity")
        _check_keys(cnode, ("kappa", "gamma"), ("kappa",), "cavity")
        try:
            cavity = CavityParams(
                kappa=parse_quantity(cnode["kappa"], "rate",
                                     where="cavity.kappa"),
                gamma=parse_quantity(cnode.get("gamma", "0 Hz_angular"),
                                     "rate", where="cavity.gamma"))
        except ParameterError as exc:
            raise ConfigError(f"bad cavity block: {exc}") from exc
    else:
        if "cavity" in raw and raw["cavity"] is not None:
            raise ConfigError(f"model {model} takes a medium block, not cavity")
        mnode = _require_mapping(raw.get("medium"), "medium")
        _check_keys(mnode, ("length", "gamma"), ("length",), "medium")
        try:
            medium = MediumParams(
                length=parse_quantity(mnode["length"], "length",
                                      where="medium.length"),
                gamma=parse_quantity(mnode.get("gamma", "0 Hz_angular"),
                                     "rate", where="medium.gamma"))
        except ParameterError as exc:
            raise ConfigError(f"bad medium block: {exc}") from exc

    input_spec = _input_from_config(raw.get("input"), base_dir, model)
    initial = _initial_from_config(raw.get("initial_excitation"), base_dir,
                                   model)

    storage_time = None
    if raw.get("storage_time") is not None:
        storage_time = parse_quantity(raw["storage_time"], "time",
                                      where="storage_time")
        if storage_time <= 0.0:
            raise ConfigError("storage_time must be positive when given")

    space_points = raw.get("space_points", 201)
    if not isinstance(space_points, int) or isinstance(space_points, bool) \
            or space_points < 16:
        raise ConfigError("space_points must be an integer >= 16")
    theta_points = raw.get("theta_points")
    if theta_points is not None:
        if not isinstance(theta_points, int) or isinstance(theta_points, bool) \
                or theta_points < 16:
            raise ConfigError("theta_points must be an integer >= 16 (or null)")

    onode = raw.get("outputs") or {}
    onode = _require_mapping(onode, "outputs")
    _check_keys(onode, ("fields",), (), "outputs")
    dump_fields = bool(onode.get("fields", False))
    if dump_fields and model in CAVITY_MODELS:
        raise ConfigError("outputs.fields applies to propagation models only"
                          " (cavity trajectories are already in spinwave.csv)")

    design = None
    if raw.get("design") is not None:
        dnode = _require_mapping(raw["design"], "design")
        _check_keys(dnode, ("eta_write", "eta_read"),
                    ("eta_write", "eta_read"), "design")
        design = {"eta_write": _number(dnode["eta_write"], "design.eta_write"),
                  "eta_read": _number(dnode["eta_read"], "design.eta_read")}

    config = {
        "model": model,
        "grid": {"start": format_quantity(grid.t0, "time"),
                 "stop": format_quantity(grid.t_end, "time"),
                 "points": grid.n},
        "coupling": _schedule_to_config(coupling),
        "detuning": _schedule_to_config(detuning),
        "cavity": None if cavity is None else {
            "kappa": format_quantity(cavity.kappa, "rate"),
            "gamma": format_quantity(cavity.gamma, "rate")},
        "medium": None if medium is None else {
            "length": format_quantity(medium.length, "length"),
            "gamma": format_quantity(medium.gamma, "rate")},
        "input": input_spec,
        "initial_excitation": initial,
        "storage_time": None if storage_time is None
        else format_quantity(storage_time, "time"),
        "space_points": space_points,
        "theta_points": theta_points,
        "outputs": {"fields": dump_fields},
        "design": design,
    }
    return Scenario(model=model, grid=grid, coupling=coupling,
                    detuning=detuning, cavity=cavity, medium=medium,
                    input_spec=input_spec, initial_excitation=initial,
                    storage_time=storage_time, space_points=space_points,
                    theta_points=theta_points, dump_fields=dump_fields,
                    design=design, config=config)


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with open(path) as f:
        try:
            raw = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return scenario_from_dict(raw, base_dir=path.parent)


def save_scenario(scn: Scenario, path) -> None:
    """Write the canonical form back out (round-trips to the same hash)."""
    with open(path, "w") as f:
        yaml.safe_dump(scn.config, f, sort_keys=True)


# ---------------------------------------------------------------------------
# building runtime objects from the resolved config
# ---------------------------------------------------------------------------

def _write_window(scn: Scenario, coupling: Schedule) -> Schedule:
    """The segments of the first window of `coupling` on the scenario
    grid: the write window."""
    windows = coupling.windows(scn.grid)
    if not windows:
        raise ConfigError("the coupling vanishes on the whole grid; "
                          "there is no write window")
    lo, hi = windows[0]
    return Schedule([s for s in coupling.segments
                     if s.start < hi and s.end > lo])


def _optimal_input(scn: Scenario, coupling: Schedule) -> FieldEnvelope:
    """Unit-norm input that the write window of `coupling` stores best,
    carrying the phase that compensates the scenario's detuning."""
    delta = scn.detuning if scn.detuning.max_abs() > 0.0 else None
    return optimal_write_input(_write_window(scn, coupling), scn.cavity,
                               scn.grid, delta=delta)


def build_input(scn: Scenario) -> Optional[FieldEnvelope]:
    """The lab-frame input envelope on the scenario grid (None if the
    scenario has no input field)."""
    spec = scn.input_spec
    kind = spec["kind"]
    grid = scn.grid
    if kind == "none":
        return None
    if kind == "gaussian":
        env = FieldEnvelope.gaussian(
            grid, parse_quantity(spec["center"], "time"),
            parse_quantity(spec["sigma"], "time"))
        return _normalized_to(env, spec["photons"])
    if kind == "square":
        t = grid.times()
        lo = parse_quantity(spec["start"], "time")
        hi = parse_quantity(spec["end"], "time")
        samples = ((t >= lo) & (t <= hi)).astype(complex)
        if not samples.any():
            raise ConfigError("square input window misses the grid")
        return _normalized_to(FieldEnvelope(grid, samples), spec["photons"])
    if kind == "optimal":
        return _normalized_to(_optimal_input(scn, scn.coupling),
                              spec["photons"])
    if kind == "tabulated":
        t = grid.times()
        tt = np.asarray(spec["time_s"], dtype=float)
        re = np.interp(t, tt, np.asarray(spec["re"]), left=0.0, right=0.0)
        im = np.interp(t, tt, np.asarray(spec["im"]), left=0.0, right=0.0)
        env = FieldEnvelope(grid, re + 1j * im)
        if spec.get("photons") is not None:
            env = _normalized_to(env, spec["photons"])
        return env
    raise ConfigError(f"unhandled input kind {kind!r}")


def _normalized_to(env: FieldEnvelope, photons: float) -> FieldEnvelope:
    n2 = env.norm2()
    if n2 <= 0.0:
        raise ConfigError("input envelope vanishes on the grid")
    return FieldEnvelope(env.grid, env.samples * np.sqrt(photons / n2))


def _cavity_sigma0(scn: Scenario) -> complex:
    if scn.initial_excitation is None:
        return 0.0
    return complex(scn.initial_excitation["sigma_re"],
                   scn.initial_excitation["sigma_im"])


def _initial_spinwave(scn: Scenario, x: np.ndarray) -> np.ndarray:
    """Initial reduced spin wave S_hat(x) (integral |S_hat|^2 dx is the
    stored excitation number)."""
    spec = scn.initial_excitation
    if spec is None:
        return np.zeros(x.size, dtype=complex)
    if spec["kind"] == "gaussian":
        prof = np.exp(-((x - spec["center_frac"]) ** 2)
                      / (2.0 * spec["sigma_frac"] ** 2)).astype(complex)
        n2 = float(np.trapezoid(np.abs(prof) ** 2, x=x))
        return prof * np.sqrt(spec["excitation"] / n2)
    xs = np.asarray(spec["x"], dtype=float)
    re = np.interp(x, xs, np.asarray(spec["re"]), left=0.0, right=0.0)
    im = np.interp(x, xs, np.asarray(spec["im"]), left=0.0, right=0.0)
    return re + 1j * im


# ---------------------------------------------------------------------------
# run records and artifact writing
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RunRecord:
    """Everything one operation produced: scalars for result.json plus
    the tables to be written as CSV artifacts."""

    operation: str
    scenario_hash: str
    version: str
    wall_time_s: float
    summary: dict
    diagnostics: dict
    tables: list  # (filename, header tuple, row iterable)
    config: dict


def _fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(c) for c in row])


def write_artifacts(rec: RunRecord, outdir) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "operation": rec.operation,
        "scenario_hash": rec.scenario_hash,
        "version": rec.version,
        "wall_time_s": rec.wall_time_s,
        "summary": rec.summary,
        "diagnostics": rec.diagnostics,
        "scenario": rec.config,
    }
    with open(outdir / "result.json", "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    for name, header, rows in rec.tables:
        _write_csv(outdir / name, header, rows)
    return outdir


def _envelope_rows(t: np.ndarray, samples: np.ndarray):
    return zip(t, samples.real, samples.imag)


# ---------------------------------------------------------------------------
# the run operation
# ---------------------------------------------------------------------------

def run_scenario(scn: Scenario) -> RunRecord:
    start = time.perf_counter()
    if scn.model in CAVITY_MODELS:
        summary, diagnostics, tables = _run_cavity(scn)
    else:
        summary, diagnostics, tables = _run_freespace(scn)
    wall = time.perf_counter() - start
    return RunRecord(operation="run", scenario_hash=scenario_hash(scn),
                     version=TOOLKIT_VERSION, wall_time_s=wall,
                     summary=summary, diagnostics=diagnostics, tables=tables,
                     config=scn.config)


def _ledger_summary(led: Ledger) -> dict:
    """The result.json entries of a run's photon-number ledger."""
    return {
        "input_photons": led.input_energy,
        "output_photons": led.output_energy,
        "stored_initial": led.stored_initial,
        "stored_final": led.stored_final,
        "decay_loss": led.decay,
        "eta_write": led.eta_w,
        "eta_read": led.eta_r,
        "eta_total": led.eta_tot,
        "leakage": led.leakage,
        "write_end": led.write_end,
        "read_start": led.read_start,
    }


def _simulate(scn: Scenario, e_in, coupling, sigma0=0.0) -> SimResult:
    sim_fn = simulate_full if scn.model == "cavity-full" else simulate_adiabatic
    return sim_fn(e_in, coupling, scn.detuning, scn.cavity, scn.grid,
                  sigma0=sigma0)


def _run_cavity(scn: Scenario):
    sim = _simulate(scn, build_input(scn), scn.coupling, _cavity_sigma0(scn))
    diagnostics = {"normalization_drift": sim.normalization_drift}
    if scn.cavity.gamma == 0.0 and scn.detuning.max_abs() == 0.0:
        diagnostics["continuity_residual"] = continuity_residual(sim)
    summary = {"model": scn.model, "tau_total": float(sim.tau[-1]),
               **_ledger_summary(sim)}
    t = scn.grid.times()
    tables = [
        ("e_out.csv", ("time_s", "re", "im"),
         _envelope_rows(t, sim.e_out.samples)),
        ("spinwave.csv", ("time_s", "re", "im"), _envelope_rows(t, sim.sigma)),
    ]
    return summary, diagnostics, tables


def _active_theta_axis(tr: FreeSpaceTransform, bc_t, act, h_target):
    """Theta axis of the reduced z-march.

    Every active time sample keeps its own theta node: the map t -> theta
    compresses the coupling-window tails, and resampling the boundary
    trace onto a uniform theta grid starves exactly those stretches where
    the input still carries flux but theta barely advances.  Cells wider
    than h_target are subdivided so the interior keeps the requested
    resolution.
    """
    th_raw = tr.theta[act]
    keep = np.empty(th_raw.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(th_raw) > 0.0      # theta stalls where g ~ 0
    th_nodes = th_raw[keep]
    bc_nodes = bc_t[act][keep]
    # each cell [a, b] gets n sub-nodes a + k (b - a)/n, k = 1..n, the
    # last set to b exactly, as np.linspace(a, b, n + 1)[1:] gives them
    a, b = th_nodes[:-1], th_nodes[1:]
    n_sub = np.maximum(np.ceil((b - a) / h_target).astype(np.int64), 1)
    ends = np.cumsum(n_sub)
    k = np.arange(1, int(n_sub.sum()) + 1) - np.repeat(ends - n_sub, n_sub)
    sub = k * np.repeat((b - a) / n_sub, n_sub) + np.repeat(a, n_sub)
    sub[ends - 1] = b
    theta = np.concatenate([th_nodes[:1], sub])
    if theta[0] > 0.0:
        theta = np.concatenate([[0.0], theta])
    bc = (np.interp(theta, th_nodes, bc_nodes.real)
          + 1j * np.interp(theta, th_nodes, bc_nodes.imag))
    return theta, bc


def _run_freespace(scn: Scenario):
    grid = scn.grid
    med = scn.medium
    tr = FreeSpaceTransform(scn.coupling, scn.detuning, med, grid)
    e_in = build_input(scn)
    t = grid.times()
    in_samples = e_in.samples if e_in is not None else np.zeros(t.size,
                                                                dtype=complex)
    x = np.linspace(0.0, 1.0, scn.space_points)
    ic = _initial_spinwave(scn, x)
    theta_total = tr.theta_total
    fields = None

    if theta_total <= 0.0:
        # transparent medium: the input passes straight through and any
        # stored excitation just dephases/decays in place
        out = in_samples
        s_final = ic
        n_t = float(np.trapezoid(np.abs(ic) ** 2, x=x)) * tr.decay_weight()
        residual = 0.0
    else:
        act = tr.rho >= RHO_CUT * tr.rho.max()
        if e_in is not None:
            bc_t = tr.boundary_to_reduced(
                FieldEnvelope(grid, np.where(act, in_samples, 0.0)))
        else:
            bc_t = np.zeros(t.size, dtype=complex)
        n_theta = theta_nodes(theta_total, scn.theta_points)
        if scn.model == "freespace-numeric":
            theta, bc = _active_theta_axis(tr, bc_t, act,
                                           theta_total / (n_theta - 1))
            fields = numeric_evolution(bc, ic, theta, x,
                                       store_fields=scn.dump_fields)
        else:
            # the kernel solver needs a uniform axis
            th_act = tr.theta[act]
            theta = np.linspace(0.0, theta_total, n_theta)
            bc = (np.interp(theta, th_act, bc_t[act].real)
                  + 1j * np.interp(theta, th_act, bc_t[act].imag))
            fields = analytic_evolution(bc, ic, theta, x)

        # map the far-end field back to the lab frame; below the coupling
        # cut the medium is transparent and the input passes through
        e_red_t = (np.interp(tr.theta, theta, fields.e_end.real)
                   + 1j * np.interp(tr.theta, theta, fields.e_end.imag))
        out = tr.field_from_reduced(e_red_t).samples
        out[~act] = in_samples[~act]
        s_final = fields.s_final
        n_t = np.interp(tr.theta, theta, fields.s_norm2) * tr.decay_weight()
        residual = reduced_continuity_residual(fields, bc)

    led = ledger(grid, scn.coupling.windows(grid), n_t, np.abs(out) ** 2,
                 e_in.norm2() if e_in is not None else 0.0, med.gamma)
    summary = {"model": scn.model, "theta_total": theta_total,
               **_ledger_summary(led)}
    diagnostics = {"normalization_drift": led.normalization_drift,
                   "continuity_residual": residual}
    sigma_final = s_final * np.exp(-1j * tr.chi[-1]) / np.sqrt(med.length)
    tables = [
        ("e_out.csv", ("time_s", "re", "im"), _envelope_rows(t, out)),
        ("spinwave.csv", ("z_m", "re", "im"),
         _envelope_rows(x * med.length, sigma_final)),
    ]
    if scn.dump_fields and fields is not None:
        tables.append(("fields.csv", ("z_m", "time_s", "re", "im"),
                       _field_dump_rows(tr, fields, theta, x, med)))
    return summary, diagnostics, tables


def _field_dump_rows(tr: FreeSpaceTransform, fields, theta, x, med):
    """Lab-frame field E(z, t) over the active evolution, one row per
    (reduced-time node, position)."""
    t_act = tr.t[tr.rho > 0.0]
    th_act = tr.theta[tr.rho > 0.0]
    t_of = np.interp(theta, th_act, t_act)
    gv = tr.g.eval(t_of)
    chi = (np.interp(t_of, tr.t, tr.chi.real)
           + 1j * np.interp(t_of, tr.t, tr.chi.imag))
    scale = np.sqrt(med.length / med.c)
    z = x * med.length
    for m in range(theta.size):
        row_scale = 1j * gv[m] * scale * np.exp(-1j * chi[m])
        lab = row_scale * fields.e[m]
        for j in range(x.size):
            yield (z[j], t_of[m], lab[j].real, lab[j].imag)


# ---------------------------------------------------------------------------
# the design operation
# ---------------------------------------------------------------------------

def design_couplings(scn: Scenario) -> RunRecord:
    """Synthesize write/read couplings that store the scenario's input
    and replay it after `storage_time`, then verify by simulation."""
    start = time.perf_counter()
    if scn.model not in CAVITY_MODELS:
        raise ConfigError("the design operation works in the cavity models")
    if scn.design is None:
        raise ConfigError("the design operation needs a design block "
                          "(eta_write, eta_read)")
    if scn.storage_time is None:
        raise ConfigError("the design operation needs storage_time")
    if scn.input_spec["kind"] in ("none", "optimal"):
        raise ConfigError("the design operation needs a concrete input "
                          "envelope (gaussian, square or tabulated)")
    T = scn.storage_time
    span = scn.grid.t_end - scn.grid.t0
    if T < span:
        raise ConfigError(
            f"storage_time ({T:g} s) must be at least the grid span "
            f"({span:g} s): the write coupling is tabulated on the whole "
            "grid and must not overlap the read coupling")
    env = build_input(scn)
    env = FieldEnvelope(env.grid, env.samples / np.sqrt(env.norm2()))
    eta_w = scn.design["eta_write"]
    eta_r = scn.design["eta_read"]
    g_write, g_read = synthesize_couplings(env, T, eta_w, eta_r, scn.cavity)

    sim, overlap, energy_ratio = _design_verification(
        env, g_write, g_read, T, scn.cavity)
    wall = time.perf_counter() - start

    summary = {
        "target_eta_write": eta_w,
        "target_eta_read": eta_r,
        "target_energy_ratio": eta_w * eta_r,
        "delay_s": T,
        "replay_overlap": overlap,
        "energy_ratio": energy_ratio,
        "peak_g_write": g_write.max_abs(),
        "peak_g_read": g_read.max_abs(),
    }
    diagnostics = {
        "overlap_shortfall": 1.0 - overlap,
        "energy_ratio_error": abs(energy_ratio - eta_w * eta_r),
    }
    wseg = g_write.segments[0]
    rseg = g_read.segments[0]
    t_ext = sim.grid.times()
    tables = [
        ("g_write.csv", ("time_s", "value"), zip(wseg.times, wseg.values)),
        ("g_read.csv", ("time_s", "value"), zip(rseg.times, rseg.values)),
        ("e_out.csv", ("time_s", "re", "im"),
         _envelope_rows(t_ext, sim.e_out.samples)),
    ]
    return RunRecord(operation="design", scenario_hash=scenario_hash(scn),
                     version=TOOLKIT_VERSION, wall_time_s=wall,
                     summary=summary, diagnostics=diagnostics, tables=tables,
                     config=scn.config)


def _design_verification(env: FieldEnvelope, g_write: Schedule,
                         g_read: Schedule, T: float, p: CavityParams):
    """Simulate write + delayed read with the synthesized couplings and
    measure how faithfully the output replays the input."""
    grid = env.grid
    n_ext = grid.n + int(np.ceil(T / grid.dt))
    ext = TimeGrid(grid.t0, grid.dt, n_ext)
    samples = np.zeros(ext.n, dtype=complex)
    samples[: grid.n] = env.samples
    e_ext = FieldEnvelope(ext, samples)
    combined = Schedule(list(g_write.segments) + list(g_read.segments))
    sim = simulate_adiabatic(e_ext, combined, Schedule.zero(), p, ext)

    t_ext = ext.times()
    ref = (np.interp(t_ext - T, grid.times(), env.samples.real,
                     left=0.0, right=0.0)
           + 1j * np.interp(t_ext - T, grid.times(), env.samples.imag,
                            left=0.0, right=0.0))
    mask = t_ext >= grid.t0 + T - 0.5 * grid.dt
    a = sim.e_out.samples[mask]
    b = ref[mask]
    denom = float(np.sum(np.abs(a) ** 2) * np.sum(np.abs(b) ** 2))
    overlap = 0.0
    if denom > 0.0:
        overlap = float(abs(np.sum(np.conj(a) * b)) ** 2 / denom)
    energy_ratio = float(np.trapezoid(np.abs(a) ** 2, dx=grid.dt)
                         / env.norm2())
    return sim, overlap, energy_ratio


# ---------------------------------------------------------------------------
# the sweep operation
# ---------------------------------------------------------------------------

def run_sweep(scn: Scenario, axis: str, values) -> RunRecord:
    """Scan one scenario parameter and tabulate efficiencies.

    Axes: ``tau_r`` / ``tau_w`` (rescale the coupling so that the whole
    coupling / its write window hits a target effective time),
    ``cooperativity`` (rescale the coupling amplitude to
    sqrt(C kappa gamma)), ``duration`` (stretch a single square coupling
    segment), and ``d`` (peak optical depth of a Gaussian-pulse
    storage/retrieval experiment in the propagation models).  A
    ``tau_r`` row is a pure read; the other cavity axes write the input
    ``run`` uses for ``input: optimal`` (detuning-compensated) into the
    swept coupling.  Rows are emitted in the order the values were given.
    """
    start = time.perf_counter()
    axis = axis.replace("-", "_").strip()
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; "
                          f"expected one of {SWEEP_AXES}")
    vals = [float(v) for v in values]
    if not vals:
        raise ConfigError("the sweep needs at least one axis value")
    for v in vals:
        if not np.isfinite(v):
            raise ConfigError(f"sweep axis {axis!r} value {v!r} is not finite")

    if axis == "d":
        header, rows = _sweep_depth(scn, vals)
    else:
        header, rows = _sweep_cavity(scn, axis, vals)

    wall = time.perf_counter() - start
    summary = {"axis": axis, "values": vals, "rows": len(rows)}
    return RunRecord(operation="sweep", scenario_hash=scenario_hash(scn),
                     version=TOOLKIT_VERSION, wall_time_s=wall,
                     summary=summary, diagnostics={},
                     tables=[("sweep.csv", header, rows)],
                     config=scn.config)


_CAVITY_HEADERS = {"tau_r": ("tau_r", "eta_r"), "tau_w": ("tau_w", "eta_w"),
                   "cooperativity": ("cooperativity", "eta_w"),
                   "duration": ("duration_s", "eta_w")}


def _sweep_cavity(scn: Scenario, axis: str, vals):
    """One row per value: the axis sets the coupling, and the row is a
    pure read (tau_r, from the initial excitation or sigma = 1) or the
    write of the run's optimal input for that coupling."""
    if scn.model not in CAVITY_MODELS:
        raise ConfigError(f"sweep axis {axis!r} needs a cavity model, "
                          f"not {scn.model}")
    g, p, grid = scn.coupling, scn.cavity, scn.grid
    if axis in ("tau_r", "tau_w"):
        # tau_w is the effective time of the write window, which the
        # optimal input fills and the row measures; tau_r of the whole
        # coupling
        g_tau = _write_window(scn, g) if axis == "tau_w" else g
        base = float(effective_time(g_tau, p.kappa, grid)[-1])
        if base <= 0.0:
            raise ConfigError("the coupling schedule has zero effective time "
                              "on the grid; nothing to rescale")

        def coupling_at(v):
            return g.scaled(np.sqrt(v / base))
    elif axis == "cooperativity":
        if p.gamma <= 0.0:
            raise ConfigError("a cooperativity sweep needs gamma > 0")
        peak = g.max_abs()
        if peak <= 0.0:
            raise ConfigError("the coupling schedule vanishes; "
                              "nothing to rescale")

        def coupling_at(c):
            return g.scaled(np.sqrt(c * p.gamma * p.kappa) / peak)
    else:
        segs = [s for s in g.segments if s.peak_abs() > 0.0]
        if len(segs) != 1 or not isinstance(segs[0], SquareSegment):
            raise ConfigError("a duration sweep needs a single square "
                              "coupling segment to stretch")
        seg = segs[0]

        def coupling_at(v):
            if seg.start + v > grid.t_end + 1e-12 * grid.span:
                raise ConfigError(
                    f"duration {v:g} s pushes the window past the grid end; "
                    "enlarge the grid")
            return Schedule.square(seg.amplitude, seg.start, seg.start + v)

    for v in vals:
        if v < 0.0 or (v == 0.0 and axis != "tau_r"):
            bound = ">= 0" if axis == "tau_r" else "> 0"
            raise ParameterError(f"{axis} must be {bound}, got {v}")
    sigma0 = _cavity_sigma0(scn) or 1.0
    rows = []
    for v in vals:
        if v == 0.0:
            rows.append((v, 0.0))
        elif axis == "tau_r":
            sim = _simulate(scn, None, coupling_at(v), sigma0=sigma0)
            rows.append((v, float(sim.eta_r)))
        else:
            g_v = coupling_at(v)
            sim = _simulate(scn, _optimal_input(scn, g_v), g_v)
            rows.append((v, float(sim.eta_w)))
    return _CAVITY_HEADERS[axis], rows


def _sweep_depth(scn: Scenario, vals):
    if scn.model not in FREESPACE_MODELS:
        raise ConfigError(f"sweep axis 'd' needs a propagation model, "
                          f"not {scn.model}")
    segs = [s for s in scn.coupling.segments if s.peak_abs() > 0.0]
    if len(segs) != 1 or not isinstance(segs[0], GaussianSegment):
        raise ConfigError("a depth sweep needs a single Gaussian coupling "
                          "segment (its amplitude is set by each d value)")
    if scn.input_spec["kind"] != "gaussian":
        raise ConfigError("a depth sweep needs a gaussian input envelope")
    table = storage_retrieval_sweep(
        vals, scn.medium, segs[0],
        parse_quantity(scn.input_spec["center"], "time"),
        parse_quantity(scn.input_spec["sigma"], "time"),
        scn.storage_time or 0.0, scn.space_points, scn.detuning,
        scn.theta_points)
    rows = [tuple(r) for r in table[:, [0, 2, 3]].tolist()]
    return ("d", "eta_forward", "eta_backward"), rows


# ---------------------------------------------------------------------------
# built-in verification
# ---------------------------------------------------------------------------

def builtin_verify(stream=None) -> bool:
    """Run the fast end-to-end invariant checks and print one PASS/FAIL
    line per check.  Returns True when everything passed."""
    stream = stream if stream is not None else sys.stdout
    checks = [
        ("retrieval decay law", _check_read_law),
        ("optimal write envelope", _check_optimal_write),
        ("square-pulse closed form", _check_square_pulse),
        ("variational optimizer", _check_variational),
        ("kernel series vs Bessel routes", _check_kernel_routes),
        ("kernel derivative identity", _check_kernel_identity),
        ("analytic vs marching propagation", _check_two_solvers),
        ("propagation continuity", _check_reduced_continuity),
        ("cavity continuity (both models)", _check_cavity_continuity),
        ("write-read synthesis replay", _check_synthesis),
        ("thin-medium correspondence", _check_thin_medium),
        ("detuning compensation", _check_detuning),
    ]
    all_ok = True
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<36s} {detail}",
              file=stream)
    n = len(checks)
    print(f"{'all' if all_ok else 'NOT all'} {n} checks passed", file=stream)
    return all_ok


def _verify_grid():
    return TimeGrid.from_span(-2e-6, 0.0, 8001)


def _check_read_law():
    p = CavityParams(kappa=1e6, gamma=0.0)
    tau_r = 1.3
    grid = TimeGrid.from_span(0.0, 2e-6, 8001)
    g = Schedule.square(np.sqrt(tau_r * p.kappa / 2e-6), 0.0, 2e-6)
    sim = simulate_adiabatic(None, g, Schedule.zero(), p, grid, sigma0=1.0)
    err = abs(sim.eta_r - (1.0 - np.exp(-2.0 * tau_r)))
    return err <= 1e-8, f"(|err| = {err:.2e} <= 1e-08)"


def _check_optimal_write():
    p = CavityParams(kappa=1e6, gamma=0.0)
    grid = _verify_grid()
    g = Schedule.square(np.sqrt(p.kappa / 2e-6), -2e-6, 0.0)  # tau_w = 1
    e_in = optimal_write_input(g, p, grid)
    sim = simulate_adiabatic(e_in, g, Schedule.zero(), p, grid)
    err = abs(sim.eta_w - (1.0 - np.exp(-2.0)))
    return err <= 1e-8, f"(|err| = {err:.2e} <= 1e-08)"


def _check_square_pulse():
    p = CavityParams(kappa=1e6, gamma=1e3)   # cooperativity 10 at g0 = 1e5
    g0, dur = 1e5, 2e-4
    grid = TimeGrid.from_span(0.0, dur, 20001)
    g = Schedule.square(g0, 0.0, dur)
    e_in = optimal_write_input(g, p, grid)
    sim = simulate_adiabatic(e_in, g, Schedule.zero(), p, grid)
    err = abs(sim.eta_w - square_pulse_efficiency(g0, dur, p))
    return err <= 1e-6, f"(|err| = {err:.2e} <= 1e-06)"


def _check_variational():
    p = CavityParams(kappa=1e6, gamma=0.0)
    grid = _verify_grid()
    g = Schedule.gaussian(8e5, -1e-6, 3e-7, support=(-2e-6, 0.0))
    a = optimal_write_input(g, p, grid).samples
    b = variational_optimize(g, None, p, grid).samples
    num = abs(np.trapezoid(np.conj(a) * b, dx=grid.dt)) ** 2
    den = (np.trapezoid(np.abs(a) ** 2, dx=grid.dt)
           * np.trapezoid(np.abs(b) ** 2, dx=grid.dt))
    overlap = float(num / den)
    return overlap >= 1.0 - 1e-9, f"(overlap = {overlap:.12f} >= 1 - 1e-09)"


def _check_kernel_routes():
    from scipy import special
    rng = np.random.default_rng(7)
    a = rng.uniform(-30.0, 30.0, size=20)
    worst = 0.0
    for av in a:
        r = np.sqrt(abs(av))
        if av >= 0.0:
            ref0, ref1 = special.i0(2 * r), special.i1(2 * r) / max(r, 1e-300)
        else:
            ref0, ref1 = special.j0(2 * r), special.j1(2 * r) / max(r, 1e-300)
        got0 = entire_bessel_kernel(av, 0)
        got1 = entire_bessel_kernel(av, 1)
        worst = max(worst,
                    abs(got0 - ref0) / max(abs(ref0), 1.0),
                    abs(got1 - ref1) / max(abs(ref1), 1.0))
    return worst <= 1e-10, f"(max rel err = {worst:.2e} <= 1e-10)"


def _check_kernel_identity():
    # K1(b) + b K1'(b) = K0(b), with the derivative by central difference
    rng = np.random.default_rng(8)
    hs = 1e-5
    worst = 0.0
    for b in rng.uniform(-20.0, 20.0, size=10):
        d1 = (entire_bessel_kernel(b + hs, 1)
              - entire_bessel_kernel(b - hs, 1)) / (2 * hs)
        lhs = entire_bessel_kernel(b, 1) + b * d1
        rhs = entire_bessel_kernel(b, 0)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst <= 1e-7, f"(max rel err = {worst:.2e} <= 1e-07)"


def _propagation_case(n=301):
    theta = np.linspace(0.0, 2.0, n)
    x = np.linspace(0.0, 1.0, n)
    bc = np.exp(-((theta - 0.9) ** 2) / 0.08) * np.exp(1j * 3.0 * theta)
    ic = 0.4 * np.exp(-((x - 0.55) ** 2) / 0.02).astype(complex)
    return bc, ic, theta, x


def _check_two_solvers():
    bc, ic, theta, x = _propagation_case()
    fa = analytic_evolution(bc, ic, theta, x)
    fn = numeric_evolution(bc, ic, theta, x)
    scale = max(np.abs(fa.e_end).max(), np.abs(fa.s_final).max())
    diff = max(np.abs(fa.e_end - fn.e_end).max(),
               np.abs(fa.s_final - fn.s_final).max()) / scale
    return diff <= 1e-3, f"(max rel diff = {diff:.2e} <= 1e-03)"


def _check_reduced_continuity():
    bc, ic, theta, x = _propagation_case()
    fields = numeric_evolution(bc, ic, theta, x)
    res = reduced_continuity_residual(fields, bc)
    return res <= 1e-3, f"(residual = {res:.2e} <= 1e-03)"


def _check_cavity_continuity():
    p = CavityParams(kappa=1e6, gamma=0.0)
    grid = TimeGrid.from_span(-2e-6, 2e-6, 20001)
    g = Schedule([SquareSegment(-2e-6, 0.0, np.sqrt(p.kappa / 2e-6)),
                  SquareSegment(5e-7, 2e-6, np.sqrt(p.kappa / 1.5e-6))])
    gw = Schedule([g.segments[0]])
    e_in = optimal_write_input(gw, p, grid)
    worst = 0.0
    for fn in (simulate_adiabatic, simulate_full):
        sim = fn(e_in, g, Schedule.zero(), p, grid)
        worst = max(worst, continuity_residual(sim))
    return worst <= 1e-6, f"(max residual = {worst:.2e} <= 1e-06)"


def _check_synthesis():
    p = CavityParams(kappa=1e6, gamma=0.0)
    grid = TimeGrid.from_span(-5e-7, 5e-7, 4001)
    env = FieldEnvelope.gaussian(grid, 0.0, 1e-7).normalized()
    T = 1.5e-6
    g_w, g_r = synthesize_couplings(env, T, 0.9, 0.9, p)
    _sim, overlap, ratio = _design_verification(env, g_w, g_r, T, p)
    ok = overlap >= 0.999 and abs(ratio - 0.81) <= 2e-3
    return ok, f"(overlap = {overlap:.6f}, energy ratio = {ratio:.6f})"


def _check_thin_medium():
    med = MediumParams(length=1e-2, gamma=0.0)
    g0 = np.sqrt(0.15 * med.c / (med.length * 1e-6))   # theta_total = 0.15
    n = 801
    theta = np.linspace(0.0, 0.15, n)
    x = np.linspace(0.0, 1.0, 101)
    t_of = theta / (g0 * g0 * med.length / med.c)          # square window
    sig = 0.12e-6
    amp = np.exp(-((t_of - 0.5e-6) ** 2) / (2 * sig ** 2))
    amp /= np.sqrt(np.trapezoid(amp ** 2, x=t_of))
    bc = np.sqrt(med.c / med.length) * amp / (1j * g0)
    eta_fs = float(np.trapezoid(
        np.abs(numeric_evolution(bc, np.zeros(101, complex), theta, x,
                                 store_fields=False).s_final) ** 2, x=x))

    p = CavityParams(kappa=1e6, gamma=0.0)
    g_c = thin_medium_cavity_coupling(g0, med, p.kappa)
    grid = TimeGrid.from_span(0.0, 1e-6, 8001)
    tgrid = grid.times()
    env = FieldEnvelope(grid, np.exp(-((tgrid - 0.5e-6) ** 2)
                                     / (2 * sig ** 2)).astype(complex))
    sim = simulate_adiabatic(env.normalized(),
                             Schedule.square(g_c, 0.0, 1e-6),
                             Schedule.zero(), p, grid)
    rel = abs(eta_fs - sim.eta_w) / sim.eta_w
    return rel <= 0.02, (f"(eta {eta_fs:.5f} vs {sim.eta_w:.5f}, "
                         f"rel diff = {rel:.2e} <= 0.02)")


def _check_detuning():
    p = CavityParams(kappa=1e6, gamma=0.0)
    grid = _verify_grid()
    g = Schedule.square(np.sqrt(p.kappa / 2e-6), -2e-6, 0.0)
    delta = Schedule.piecewise_linear([-2e-6, -1e-6, 0.0], [2e5, -1e5, 3e5])
    e_in = optimal_write_input(g, p, grid, delta=delta)
    sim = simulate_adiabatic(e_in, g, delta, p, grid)
    err = abs(sim.eta_w - (1.0 - np.exp(-2.0)))
    return err <= 1e-6, f"(|err| = {err:.2e} <= 1e-06)"
