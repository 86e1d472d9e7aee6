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
the package version it pins a run's numerics.  Every table an operation
produces is a 2-D float array, and one writer turns each into a CSV: a
header row, then one row per array row, 17 significant digits per cell
and CRLF line ends, so reruns reproduce byte-identically.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import re
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .cavity import (CavityParams, SimResult, continuity_residual,
                     simulate_adiabatic, simulate_full,
                     square_pulse_efficiency)
from .control import optimal_write_input, synthesize_couplings, \
    variational_optimize
from .errors import ConfigError, ParameterError, ResolutionError
from .freespace import (FreeSpaceTransform, MediumParams, analytic_evolution,
                        entire_bessel_kernel, numeric_evolution,
                        reduced_continuity_residual, storage_retrieval_sweep,
                        thin_medium_cavity_coupling)
from .schedules import (FieldEnvelope, GaussianSegment, Ledger,
                        PiecewiseLinearSegment, Schedule, SquareSegment,
                        TabulatedSegment, TimeGrid, effective_time,
                        interp_rows, ledger)
from .units import format_quantity, parse_quantity

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


def _read(node, where: str, dims: dict, required=None, extra=()) -> dict:
    """The quantities of a config block in SI, keyed like the block.

    `node` must be a mapping whose keys are those of `dims` (key ->
    dimension) or `extra`; the keys in `required` (by default every key
    of `dims`) must be present.  Each present `dims` key is parsed once,
    in the order of `dims`; `extra` keys are left to the caller.
    """
    node = _require_mapping(node, where)
    _check_keys(node, (*dims, *extra), dims if required is None else required,
                where)
    return {k: parse_quantity(node[k], dim, where=f"{where}.{k}")
            for k, dim in dims.items() if k in node}


# the largest point count a config may give: a grid of 10^9 points
# holds 8 GB in each float array, far past any useful run, and numpy
# cannot even allocate a count past 2^63
_MAX_COUNT = 10**9


def _count(n, where: str, least: int, note: str = "") -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise ConfigError(f"{where} must be an integer >= {least}{note}")
    if n > _MAX_COUNT:
        raise ConfigError(f"{where} must be at most {_MAX_COUNT:,}, got {n}")
    return n


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
    if not path.is_file():
        raise ConfigError(f"CSV file {path} at {where} is not a file")
    try:
        # a byte-order mark is not part of the first row
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"CSV file {path} at {where} is not UTF-8 text: {exc}") from exc
    rows = []
    with io.StringIO(text, newline="") as f:
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
        if not isinstance(node["csv"], str):
            raise ConfigError(f"{where}.csv must be a path, got {node['csv']!r}")
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
        return SquareSegment(**_read(
            node, where, {"start": "time", "end": "time", "amplitude": "rate"},
            extra=("kind",)))
    if kind == "gaussian":
        q = _read(node, where,
                  {"center": "time", "sigma": "time", "amplitude": "rate"},
                  extra=("kind", "support"))
        if q["sigma"] <= 0.0:
            raise ConfigError(f"sigma must be positive at {where}")
        support = None
        if "support" in node:
            sup = node["support"]
            if not (isinstance(sup, list) and len(sup) == 2):
                raise ConfigError(f"support at {where} must be [start, end]")
            support = [parse_quantity(x, "time", where=f"{where}.support[{i}]")
                       for i, x in enumerate(sup)]
        return GaussianSegment.around(q["amplitude"], q["center"],
                                      q["sigma"], support)
    if kind in ("piecewise_linear", "tabulated"):
        _check_keys(node, ("kind", "time_s", "value", "csv"), (), where)
        t, v = _table(node, base_dir, where, ("time_s", "value"))
        try:
            seg_cls = PiecewiseLinearSegment if kind == "piecewise_linear" \
                else TabulatedSegment
            return seg_cls(t, v)
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
    kind = "tabulated" if isinstance(seg, TabulatedSegment) \
        else "piecewise_linear"
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
    """The input block with its times in seconds."""
    where = "input"
    if node is None:
        return {"kind": "none"}
    node = _require_mapping(node, where)
    kind = node.get("kind")
    if kind == "none":
        _check_keys(node, ("kind",), (), where)
        return {"kind": "none"}
    if kind == "gaussian":
        q = _read(node, where, {"sigma": "time", "fwtm": "time",
                                "center": "time"},
                  required=("center",), extra=("kind", "photons"))
        if ("sigma" in q) == ("fwtm" in q):
            raise ConfigError(f"{where}: give exactly one of sigma or fwtm")
        # fwtm: full width at a tenth of the peak *amplitude*
        sigma = q["sigma"] if "sigma" in q \
            else q["fwtm"] / (2.0 * np.sqrt(2.0 * np.log(10.0)))
        if sigma <= 0.0:
            raise ConfigError(f"{where}: width must be positive")
        return {"kind": "gaussian", "center": q["center"], "sigma": sigma,
                "photons": _photons(node, where)}
    if kind == "square":
        q = _read(node, where, {"start": "time", "end": "time"},
                  extra=("kind", "photons"))
        if not q["end"] > q["start"]:
            raise ConfigError(f"{where}: need end > start")
        return {"kind": "square", **q, "photons": _photons(node, where)}
    if kind == "optimal":
        if model not in CAVITY_MODELS:
            raise ConfigError(
                f"{where}: the optimal input is defined for cavity models, "
                f"not {model}")
        _check_keys(node, ("kind", "photons"), (), where)
        return {"kind": "optimal", "photons": _photons(node, where)}
    if kind == "tabulated":
        return {**_complex_table(node, base_dir, where, "time_s",
                                 ("photons",)),
                "photons": None if node.get("photons") is None
                else _photons(node, where)}
    raise ConfigError(
        f"unknown input kind {kind!r}; expected none, gaussian, square, "
        "optimal or tabulated")


def _complex_table(node: dict, base_dir: Path, where: str, key: str,
                   extra=()) -> dict:
    """The spec {kind, key, re, im} of a tabulated complex form."""
    names = (key, "re", "im")
    _check_keys(node, ("kind", "csv", *names, *extra), (), where)
    cols = _table(node, base_dir, where, names, optional=("im",))
    return {"kind": "tabulated",
            **{n: c.tolist() for n, c in zip(names, cols)}}


def _input_to_config(spec: dict) -> dict:
    """The canonical input block: the spec with its times as strings."""
    return {k: format_quantity(v, "time")
            if k in ("center", "sigma", "start", "end") else v
            for k, v in spec.items()}


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
            return {"sigma_re": _number(node, where), "sigma_im": 0.0}
        q = _read(node, where, {"sigma_re": "dimensionless",
                                "sigma_im": "dimensionless"},
                  required=("sigma_re",))
        return {"sigma_re": q["sigma_re"], "sigma_im": q.get("sigma_im", 0.0)}
    node = _require_mapping(node, where)
    kind = node.get("kind")
    if kind == "gaussian":
        q = _read(node, where, {"center_frac": "dimensionless",
                                "sigma_frac": "dimensionless",
                                "excitation": "dimensionless"},
                  required=("center_frac", "sigma_frac"), extra=("kind",))
        q.setdefault("excitation", 1.0)
        if not 0.0 <= q["center_frac"] <= 1.0:
            raise ConfigError(f"{where}.center_frac must lie in [0, 1]")
        if q["sigma_frac"] <= 0.0 or q["excitation"] <= 0.0:
            raise ConfigError(f"{where}: sigma_frac and excitation must be > 0")
        return {"kind": "gaussian", **q}
    if kind == "tabulated":
        spec = _complex_table(node, base_dir, where, "x")
        if spec["x"][0] < 0.0 or spec["x"][-1] > 1.0:
            raise ConfigError(f"{where}: positions are fractions of the "
                              "medium length, within [0, 1]")
        return spec
    raise ConfigError(
        f"unknown initial_excitation kind {kind!r} for {model}; "
        "expected gaussian or tabulated")


# ---------------------------------------------------------------------------
# the scenario object
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Scenario:
    """A fully resolved experiment description.

    The fields hold decoded values: quantities in SI floats, and
    `input_spec` gives its times (center, sigma, start, end) in seconds.
    `config` is the canonical dictionary: every quantity in SI with an
    explicit unit string, every external table inlined, every default
    materialized.  Only `config` holds unit strings.  Re-parsing it
    reproduces the same canonical form, so the SHA-256 of its sorted
    JSON encoding identifies the scenario.
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

# the physics block of each model family: its parameter class and the
# dimension of each field, the first one required
_BLOCKS = {"cavity": (CavityParams, {"kappa": "rate", "gamma": "rate"}),
           "medium": (MediumParams, {"length": "length", "gamma": "rate"})}


def scenario_from_dict(raw: dict, base_dir="." ) -> Scenario:
    base_dir = Path(base_dir)
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, ("model", "grid", "coupling"), "config")

    model = raw["model"]
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {MODELS}")

    span = _read(raw["grid"], "grid", {"start": "time", "stop": "time"},
                 required=("start", "stop", "points"), extra=("points",))
    npts = _count(raw["grid"]["points"], "grid.points", 2)
    if not span["stop"] > span["start"]:
        raise ConfigError("grid.stop must exceed grid.start")
    grid = TimeGrid.from_span(span["start"], span["stop"], npts)

    coupling = _schedule_from_config(raw["coupling"], base_dir, "coupling")
    if not coupling.is_nonnegative():
        raise ConfigError("the coupling schedule must be non-negative")
    detuning = _schedule_from_config(raw.get("detuning"), base_dir, "detuning")

    block, other = ("cavity", "medium") if model in CAVITY_MODELS \
        else ("medium", "cavity")
    if raw.get(other) is not None:
        raise ConfigError(f"model {model} takes a {block} block, not {other}")
    cls, dims = _BLOCKS[block]
    q = _read(raw.get(block), block, dims, required=tuple(dims)[:1])
    params = {"cavity": None, "medium": None}
    try:
        params[block] = cls(**q)
    except ParameterError as exc:
        raise ConfigError(f"bad {block} block: {exc}") from exc

    input_spec = _input_from_config(raw.get("input"), base_dir, model)
    initial = _initial_from_config(raw.get("initial_excitation"), base_dir,
                                   model)

    storage_time = None
    if raw.get("storage_time") is not None:
        storage_time = parse_quantity(raw["storage_time"], "time",
                                      where="storage_time")
        if storage_time <= 0.0:
            raise ConfigError("storage_time must be positive when given")

    space_points = _count(raw.get("space_points", 201), "space_points", 16)
    theta_points = raw.get("theta_points")
    if theta_points is not None:
        _count(theta_points, "theta_points", 16, " (or null)")
    # the canonical form carries the defaults for every model
    for key, value, default in (("space_points", space_points, 201),
                                ("theta_points", theta_points, None)):
        if model in CAVITY_MODELS and value != default:
            raise ConfigError(f"{key} applies to propagation models only")

    onode = raw.get("outputs") or {}
    onode = _require_mapping(onode, "outputs")
    _check_keys(onode, ("fields",), (), "outputs")
    dump_fields = onode.get("fields", False)
    if not isinstance(dump_fields, bool):
        raise ConfigError(
            f"outputs.fields must be true or false, got {dump_fields!r}")
    if dump_fields and model in CAVITY_MODELS:
        raise ConfigError("outputs.fields applies to propagation models only"
                          " (cavity trajectories are already in spinwave.csv)")

    design = None
    if raw.get("design") is not None:
        design = _read(raw["design"], "design", {"eta_write": "dimensionless",
                                                 "eta_read": "dimensionless"})

    config = {
        "model": model,
        "grid": {"start": format_quantity(grid.t0, "time"),
                 "stop": format_quantity(grid.t_end, "time"),
                 "points": grid.n},
        "coupling": _schedule_to_config(coupling),
        "detuning": _schedule_to_config(detuning),
        **{name: None if p is None else
           {k: format_quantity(getattr(p, k), dim)
            for k, dim in _BLOCKS[name][1].items()}
           for name, p in params.items()},
        "input": _input_to_config(input_spec),
        "initial_excitation": initial,
        "storage_time": None if storage_time is None
        else format_quantity(storage_time, "time"),
        "space_points": space_points,
        "theta_points": theta_points,
        "outputs": {"fields": dump_fields},
        "design": design,
    }
    return Scenario(model=model, grid=grid, coupling=coupling,
                    detuning=detuning, cavity=params["cavity"],
                    medium=params["medium"], input_spec=input_spec,
                    initial_excitation=initial, storage_time=storage_time,
                    space_points=space_points, theta_points=theta_points,
                    dump_fields=dump_fields, design=design, config=config)


@functools.cache
def _yaml_loader():
    """yaml.SafeLoader that also reads 1e-6, 5e5 and 1e+16 as floats.
    YAML 1.1 wants a dot and a signed exponent, so the safe loader
    returns these as strings, although JSON and YAML 1.2 write them."""
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."))
    return Loader


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    if not path.is_file():
        raise ConfigError(f"config file {path} is not a file")
    import yaml     # imported here: only loading a file pays for it
    with open(path, encoding="utf-8") as f:
        try:
            raw = yaml.load(f, Loader=_yaml_loader())
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config file {path} is not UTF-8 text: {exc}") from exc
    return scenario_from_dict(raw, base_dir=path.parent)


# ---------------------------------------------------------------------------
# building runtime objects from the resolved config
# ---------------------------------------------------------------------------

def _optimal_input(scn: Scenario, coupling: Schedule) -> FieldEnvelope:
    """Unit-norm input that the write window of `coupling` (its first
    window) stores best, under the scenario's decay and detuning."""
    return optimal_write_input(coupling, scn.cavity, scn.grid,
                               delta=scn.detuning)


def build_input(scn: Scenario) -> Optional[FieldEnvelope]:
    """The lab-frame input envelope on the scenario grid (None if the
    scenario has no input field), scaled to the spec's photon number
    when it gives one."""
    spec = scn.input_spec
    kind = spec["kind"]
    grid = scn.grid
    if kind == "none":
        return None
    if kind == "gaussian":
        env = FieldEnvelope.gaussian(grid, spec["center"], spec["sigma"])
    elif kind == "square":
        samples = SquareSegment(spec["start"], spec["end"], 1.0).evaluate(
            grid.times())
        if not samples.any():
            raise ConfigError("square input window misses the grid")
        env = FieldEnvelope(grid, samples)
    elif kind == "optimal":
        env = _optimal_input(scn, scn.coupling)
    else:
        env = FieldEnvelope(grid, _sampled(spec, "time_s", grid.times()))
        if spec["photons"] is None:
            return env
    n2 = env.norm2()
    if n2 <= 0.0:
        raise ConfigError("input envelope vanishes on the grid")
    return FieldEnvelope(grid, env.samples * np.sqrt(spec["photons"] / n2))


def _sampled(spec: dict, key: str, x: np.ndarray) -> np.ndarray:
    """The table (spec[key], re + i im) at x: linear between its rows,
    zero outside them, by the segments' support rule."""
    re, im = (PiecewiseLinearSegment(spec[key], spec[part]).evaluate(x)
              for part in ("re", "im"))
    return re + 1j * im


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
        # a norm that is 0, or so small that the scale overflows
        scale = spec["excitation"] / n2 if n2 > 0.0 else np.inf
        if not np.isfinite(scale):
            raise ConfigError("initial_excitation: the Gaussian spin wave "
                              "vanishes on the z grid")
        return prof * np.sqrt(scale)
    return _sampled(spec, "x", x)


# ---------------------------------------------------------------------------
# run records and artifact writing
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RunRecord:
    """Everything one operation produced: scalars for result.json plus
    the tables to be written as CSV artifacts.  Each table is
    (filename, header tuple, 2-D float array with one column per header
    name)."""

    operation: str
    scenario_hash: str
    version: str
    wall_time_s: float
    summary: dict
    diagnostics: dict
    tables: list
    config: dict


def _record(operation: str, scn: Scenario, start: float, summary: dict,
            diagnostics: dict, tables: list) -> RunRecord:
    """The record of an operation that started at perf_counter `start`."""
    return RunRecord(operation=operation, scenario_hash=scenario_hash(scn),
                     version=__version__,
                     wall_time_s=time.perf_counter() - start, summary=summary,
                     diagnostics=diagnostics, tables=tables,
                     config=scn.config)


# rows of each table formatted per write: every table of a record
# advances one block at a time, so a multi-million-row table exists as
# text for one block only, and the formatter's temporaries (a few
# dozen arrays of one block's column) stay in the CPU caches
_CSV_BLOCK_ROWS = 1 << 12


def _write_tables(tables) -> None:
    """Write each (path, header, table) as CSV: the header, then every
    row of the 2-D float `table` as %.17g cells, CRLF ends.

    `_csvcells.cells` formats a column in numpy, separator included,
    as `S32` cells (Python's own %.17g takes the few cells it cannot
    decide).  The tables are written together, `_CSV_BLOCK_ROWS` rows
    of each at a time:
    - a column whose doubles all share one bit pattern (so -0, nan and
      inf stay exact) is one cell, repeated;
    - a column bit-equal to another column of the record (the time axis
      of two traces) is formatted once per block and separator;
    - each block of a table is a grid of cells, written as its bytes in
      row order without the NUL padding (no cell holds a NUL)."""
    from . import _csvcells
    tables = [(path, header, np.asarray(table, dtype=float))
              for path, header, table in tables]
    columns = []        # the distinct columns that are not constant
    keys = []           # per table and column: a cell or (column, end)
    for _, _, table in tables:
        row = []
        for c, col in enumerate(table.T):
            end = b"\r\n" if c == table.shape[1] - 1 else b","
            bits = col.view(np.int64)
            if bits.size and (bits == bits[0]).all():
                row.append(_csvcells.cells(col[:1], end)[0])
                continue
            k = next((k for k, other in enumerate(columns)
                      if np.array_equal(other.view(np.int64), bits)),
                     len(columns))
            if k == len(columns):
                columns.append(col)
            row.append((k, end))
        keys.append(row)
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb"))
                 for path, _, _ in tables]
        for f, (_, header, _) in zip(files, tables):
            f.write(",".join(header).encode() + b"\r\n")
        for i in range(0, max((t.shape[0] for _, _, t in tables),
                              default=0), _CSV_BLOCK_ROWS):
            j = i + _CSV_BLOCK_ROWS
            block = {}
            for f, row, (_, _, table) in zip(files, keys, tables):
                if i >= table.shape[0]:
                    continue
                grid = np.empty((min(j, table.shape[0]) - i, len(row)),
                                "S32")
                for c, key in enumerate(row):
                    if isinstance(key, tuple):
                        if key not in block:
                            block[key] = _csvcells.cells(
                                columns[key[0]][i:j], key[1])
                        key = block[key]
                    grid[:, c] = key
                f.write(grid.tobytes().translate(None, b"\0"))


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
    _write_tables([(outdir / name, header, table)
                   for name, header, table in rec.tables])
    return outdir


def _envelope_rows(t: np.ndarray, samples: np.ndarray) -> np.ndarray:
    return np.column_stack((t, samples.real, samples.imag))


# ---------------------------------------------------------------------------
# the run operation
# ---------------------------------------------------------------------------

def run_scenario(scn: Scenario) -> RunRecord:
    start = time.perf_counter()
    if scn.model in CAVITY_MODELS:
        summary, diagnostics, tables = _run_cavity(scn)
    else:
        summary, diagnostics, tables = _run_freespace(scn)
    return _record("run", scn, start, summary, diagnostics, tables)


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
    diagnostics = {"normalization_drift": sim.normalization_drift,
                   "continuity_residual": continuity_residual(sim)}
    summary = {"model": scn.model, "tau_total": float(sim.tau[-1]),
               **_ledger_summary(sim)}
    # the tables are the run's largest arrays: the result's input, tau
    # and ledger arrays go before they are built
    e_out, sigma = sim.e_out.samples, sim.sigma
    del sim
    t = scn.grid.times()
    tables = [
        ("e_out.csv", ("time_s", "re", "im"), _envelope_rows(t, e_out)),
        ("spinwave.csv", ("time_s", "re", "im"), _envelope_rows(t, sigma)),
    ]
    return summary, diagnostics, tables


def _active_theta_axis(tr: FreeSpaceTransform, bc_t, act):
    """Theta nodes of both free-space solvers and the trace on them.

    The nodes are the effective times of the active lab samples
    themselves, each distinct value once (theta stalls where g ~ 0),
    with a leading 0 when the first is positive; the trace at that 0
    repeats the first sample.  Every node is a lab sample, so a solver
    sees the data as sampled and maps back to the lab frame exactly.
    """
    th = tr.theta[act]
    keep = np.concatenate([[True], np.diff(th) > 0.0])
    theta, bc = th[keep], bc_t[act][keep]
    if theta[0] > 0.0:
        theta = np.concatenate([[0.0], theta])
        bc = np.concatenate([bc[:1], bc])
    if theta.size < 3:
        raise ResolutionError("the coupling windows cover too few grid "
                              "samples for the solver; refine the grid")
    return theta, bc


def _run_freespace(scn: Scenario):
    grid = scn.grid
    med = scn.medium
    tr = FreeSpaceTransform(scn.coupling, scn.detuning, med, grid)
    e_in = build_input(scn) or FieldEnvelope.zero(grid)
    x = np.linspace(0.0, 1.0, scn.space_points)
    ic = _initial_spinwave(scn, x)
    theta_total = tr.theta_total
    fields = None

    if theta_total <= 0.0:
        # transparent medium: the input passes straight through and any
        # stored excitation just dephases/decays in place
        out = e_in.samples
        s_final = ic
        n_t = float(np.trapezoid(np.abs(ic) ** 2, x=x)) * tr.decay_weight()
        residual = 0.0
    else:
        act = tr.rho >= RHO_CUT * tr.rho.max()
        bc_t = tr.boundary_to_reduced(
            FieldEnvelope(grid, np.where(act, e_in.samples, 0.0)))
        theta, bc = _active_theta_axis(tr, bc_t, act)
        if scn.model == "freespace-numeric":
            fields = numeric_evolution(bc, ic, theta, x,
                                       store_fields=scn.dump_fields)
        else:
            fields = analytic_evolution(bc, ic, theta, x)

        # map the far-end field back to the lab frame; below the coupling
        # cut the medium is transparent and the input passes through
        out = tr.lab * interp_rows(tr.theta, theta, fields.e_end)
        out[~act] = e_in.samples[~act]
        s_final = fields.s_final
        n_t = np.interp(tr.theta, theta, fields.s_norm2) * tr.decay_weight()
        residual = reduced_continuity_residual(fields, bc)

    led = ledger(grid, scn.coupling.windows(grid), n_t, np.abs(out) ** 2,
                 e_in.norm2(), med.gamma)
    summary = {"model": scn.model, "theta_total": theta_total,
               **_ledger_summary(led)}
    diagnostics = {"normalization_drift": led.normalization_drift,
                   "continuity_residual": residual}
    sigma_final = s_final * np.exp(-1j * tr.chi[-1]) / np.sqrt(med.length)
    tables = [
        ("e_out.csv", ("time_s", "re", "im"), _envelope_rows(tr.t, out)),
        ("spinwave.csv", ("z_m", "re", "im"),
         _envelope_rows(x * med.length, sigma_final)),
    ]
    if scn.dump_fields and fields is not None:
        tables.append(("fields.csv", ("z_m", "time_s", "re", "im"),
                       _field_dump_rows(tr, fields, theta, x, act)))
    return summary, diagnostics, tables


def _field_dump_rows(tr: FreeSpaceTransform, fields, theta, x, act):
    """Lab-frame field E(z, t) at the active lab samples, one row per
    (sample, position), positions varying fastest: the reduced field at
    each sample's theta times the transform's lab factor, as for
    e_out.csv, so the far-end rows are its active samples."""
    t = tr.t[act]
    lab = tr.lab[act, None] * interp_rows(tr.theta[act], theta, fields.e)
    return np.column_stack((np.tile(x * tr.medium.length, t.size),
                            np.repeat(t, x.size),
                            lab.real.ravel(), lab.imag.ravel()))


# ---------------------------------------------------------------------------
# the design operation
# ---------------------------------------------------------------------------

def design_couplings(scn: Scenario) -> RunRecord:
    """Synthesize write/read couplings that store the scenario's input
    and replay it after `storage_time`, then verify by simulation."""
    start = time.perf_counter()
    if scn.model != "cavity-adiabatic":
        raise ConfigError("model: the design operation works in the "
                          f"cavity-adiabatic model only, not {scn.model}")
    if scn.design is None:
        raise ConfigError("the design operation needs a design block "
                          "(eta_write, eta_read)")
    if scn.cavity.gamma > 0.0:
        raise ConfigError("the design operation needs cavity.gamma = 0: "
                          "the coupling synthesis has no spin decay")
    if scn.detuning.max_abs() > 0.0:
        raise ConfigError("the design operation needs no detuning: the "
                          "coupling synthesis has none")
    if scn.coupling.segments:
        raise ConfigError("the design operation needs coupling: []: it "
                          "synthesizes both couplings")
    if scn.initial_excitation is not None:
        raise ConfigError("the design operation needs no initial_excitation: "
                          "its write and replay start from sigma = 0")
    if scn.storage_time is None:
        raise ConfigError("the design operation needs storage_time")
    if scn.input_spec["kind"] in ("none", "optimal"):
        raise ConfigError("the design operation needs a concrete input "
                          "envelope (gaussian, square or tabulated)")
    T = scn.storage_time
    # the couplings are tabulated on the grid times t and on t + T; their
    # supports, widened as `Schedule` widens every segment's, must not meet
    t = scn.grid.times()
    write_end = SquareSegment(t[0], t[-1], 1.0).bounds()[1]
    read_start = SquareSegment(t[0] + T, t[-1] + T, 1.0).bounds()[0]
    if not read_start > write_end:
        raise ConfigError(
            f"storage_time ({T:g} s) must exceed the grid span "
            f"({scn.grid.span:g} s) by more than the segment edge "
            "tolerance: the write coupling is tabulated on the whole grid, "
            "and the read coupling must start after it ends")
    env = build_input(scn).normalized()
    eta_w = scn.design["eta_write"]
    eta_r = scn.design["eta_read"]
    g_write, g_read = synthesize_couplings(env, T, eta_w, eta_r, scn.cavity)

    sim, overlap = _design_verification(env, g_write, g_read, T, scn.cavity)
    summary = {
        "target_eta_write": eta_w,
        "target_eta_read": eta_r,
        "target_energy_ratio": eta_w * eta_r,
        "delay_s": T,
        "replay_overlap": overlap,
        "energy_ratio": sim.eta_tot,
        "peak_g_write": g_write.max_abs(),
        "peak_g_read": g_read.max_abs(),
    }
    diagnostics = {
        "overlap_shortfall": 1.0 - overlap,
        "energy_ratio_error": abs(sim.eta_tot - eta_w * eta_r),
    }
    tables = [(f"{name}.csv", ("time_s", "value"),
               np.column_stack((seg.times, seg.values)))
              for name, seg in (("g_write", g_write.segments[0]),
                                ("g_read", g_read.segments[0]))]
    tables.append(("e_out.csv", ("time_s", "re", "im"),
                   _envelope_rows(sim.grid.times(), sim.e_out.samples)))
    return _record("design", scn, start, summary, diagnostics, tables)


def _design_verification(env: FieldEnvelope, g_write: Schedule,
                         g_read: Schedule, T: float, p: CavityParams):
    """Simulate write + delayed read with the synthesized couplings.
    Returns the replay, whose ledger's eta_tot is the energy ratio, and
    the overlap of its output with the delayed input."""
    grid = env.grid
    n_ext = grid.n + int(np.ceil(T / grid.dt))
    ext = TimeGrid(grid.t0, grid.dt, n_ext)
    samples = np.zeros(ext.n, dtype=complex)
    samples[: grid.n] = env.samples
    e_ext = FieldEnvelope(ext, samples)
    combined = Schedule(list(g_write.segments) + list(g_read.segments))
    sim = simulate_adiabatic(e_ext, combined, Schedule.zero(), p, ext)

    t_ext = ext.times()
    t_in, t = t_ext - T, grid.times()
    ref = np.where((t_in < t[0]) | (t_in > t[-1]), 0.0,
                   interp_rows(t_in, t, env.samples))
    mask = t_ext >= grid.t0 + T - 0.5 * grid.dt
    a = sim.e_out.samples[mask]
    b = ref[mask]
    denom = float(np.sum(np.abs(a) ** 2) * np.sum(np.abs(b) ** 2))
    overlap = 0.0
    if denom > 0.0:
        overlap = float(abs(np.sum(np.conj(a) * b)) ** 2 / denom)
    return sim, overlap


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
    ``tau_r`` row is a pure read, so it refuses any input but ``none``;
    the other cavity axes write the input ``run`` uses for ``input:
    optimal`` into the swept coupling, so they refuse any other input.
    Cavity rows run concurrently on the CPUs the process may use; rows
    are emitted, and the first failing value's error is raised, in the
    order the values were given.
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
        header, table = _sweep_depth(scn, vals)
    else:
        header, table = _sweep_cavity(scn, axis, vals)
    summary = {"axis": axis, "values": vals, "rows": len(table)}
    return _record("sweep", scn, start, summary, {},
                   [("sweep.csv", header, table)])


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
        # tau_w is the effective time up to the write end, where the
        # optimal input fills the write window and the row measures it;
        # tau_r that of the whole coupling
        tau = effective_time(g, p.kappa, grid)
        windows = g.windows(grid)
        if axis == "tau_w" and windows:
            tau = tau[:windows[0][1] + 1]
        base = float(tau[-1])
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
        for v in vals:
            if seg.start + v > grid.t_end + 1e-12 * grid.span:
                raise ConfigError(
                    f"duration {v:g} s pushes the window past the grid end; "
                    "enlarge the grid")

        def coupling_at(v):
            return Schedule.square(seg.amplitude, seg.start, seg.start + v)

    for v in vals:
        if v < 0.0 or (v == 0.0 and axis != "tau_r"):
            bound = ">= 0" if axis == "tau_r" else "> 0"
            raise ParameterError(f"{axis} must be {bound}, got {v}")
    need = "none" if axis == "tau_r" else "optimal"
    if scn.input_spec["kind"] != need:
        does = ("reads the initial excitation" if axis == "tau_r" else
                "stores the swept coupling's optimal input")
        raise ConfigError(f"input: sweep axis {axis!r} {does}, so it needs "
                          f"input: {need}, not {scn.input_spec['kind']}")
    if axis != "tau_r" and scn.initial_excitation is not None:
        raise ConfigError(f"initial_excitation: sweep axis {axis!r} writes "
                          "from sigma = 0, so it needs no initial_excitation")
    sigma0 = 1.0 if scn.initial_excitation is None else _cavity_sigma0(scn)
    if axis == "tau_r" and sigma0 == 0.0:
        raise ConfigError("initial_excitation: a tau_r row reads it, so it "
                          "must not be zero (leave it out to read sigma = 1)")

    def row(v):
        if v == 0.0:
            return v, 0.0
        if axis == "tau_r":
            return v, float(_simulate(scn, None, coupling_at(v),
                                      sigma0=sigma0).eta_r)
        g_v = coupling_at(v)
        return v, float(_simulate(scn, _optimal_input(scn, g_v), g_v).eta_w)

    # rows run concurrently (numpy releases the GIL in its array work);
    # map yields them in value order and raises the first failing value's
    # error, cancelling the rows not yet started.  Imported here: only a
    # cavity sweep pays for it.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(len(vals), _usable_cpus())) as pool:
        rows = list(pool.map(row, vals))
    return _CAVITY_HEADERS[axis], np.array(rows, dtype=float)


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where the platform
    cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep_depth(scn: Scenario, vals):
    if scn.model != "freespace-numeric":
        raise ConfigError(f"model: sweep axis 'd' marches its rows, so it "
                          f"needs freespace-numeric, not {scn.model}")
    segs = [s for s in scn.coupling.segments if s.peak_abs() > 0.0]
    if len(segs) != 1 or not isinstance(segs[0], GaussianSegment):
        raise ConfigError("a depth sweep needs a single Gaussian coupling "
                          "segment (its amplitude is set by each d value)")
    if scn.input_spec["kind"] != "gaussian":
        raise ConfigError("a depth sweep needs a gaussian input envelope")
    if scn.initial_excitation is not None:
        raise ConfigError("initial_excitation: sweep axis 'd' writes into an "
                          "empty medium, so it needs no initial_excitation")
    if scn.dump_fields:
        raise ConfigError("outputs.fields: sweep axis 'd' writes no field "
                          "dump, so it needs fields: false")
    table = storage_retrieval_sweep(
        vals, scn.medium, segs[0], scn.input_spec["center"],
        scn.input_spec["sigma"], scn.storage_time or 0.0, scn.space_points,
        scn.detuning, scn.theta_points)
    return ("d", "eta_forward", "eta_backward"), table[:, [0, 2, 3]]


# ---------------------------------------------------------------------------
# built-in verification
# ---------------------------------------------------------------------------

def builtin_verify(stream=None) -> bool:
    """Run the fast end-to-end invariant checks and print one PASS/FAIL
    line per check.  Returns True when everything passed."""
    stream = stream if stream is not None else sys.stdout
    # one march of the propagation case serves both propagation checks;
    # it is made by the first that runs, and a crash fails both
    propagation = functools.cache(_propagation_case)
    checks = [
        ("retrieval decay law", _check_read_law),
        ("optimal write envelope", _check_optimal_write),
        ("square-pulse closed form", _check_square_pulse),
        ("variational optimizer", _check_variational),
        ("kernel solver vs exact read",
         lambda: _check_exact_read(analytic_evolution)),
        ("marching solver vs exact read",
         lambda: _check_exact_read(numeric_evolution)),
        ("analytic vs marching propagation",
         lambda: _check_two_solvers(*propagation())),
        ("propagation continuity",
         lambda: _check_reduced_continuity(*propagation())),
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
    tau = effective_time(g, p.kappa, grid)
    a = g.eval(grid.times()) * np.exp(tau - tau[-1])     # the paper's form
    b = variational_optimize(g, None, p, grid).samples
    num = abs(np.trapezoid(np.conj(a) * b, dx=grid.dt)) ** 2
    den = (np.trapezoid(np.abs(a) ** 2, dx=grid.dt)
           * np.trapezoid(np.abs(b) ** 2, dx=grid.dt))
    overlap = float(num / den)
    return overlap >= 1.0 - 1e-9, f"(overlap = {overlap:.12f} >= 1 - 1e-09)"


def _check_exact_read(solve):
    # a uniform spin wave read out has S(x, theta) = K0(-theta x) and
    # E(1, theta) = K1(-theta); both solvers are second order in
    # a = theta_total h_x
    theta = np.linspace(0.0, 2.0, 61)
    x = np.linspace(0.0, 1.0, 61)
    f = solve(np.zeros(theta.size, complex), np.ones(x.size, complex),
              theta, x)
    err = max(np.abs(f.s_final - entire_bessel_kernel(-theta[-1] * x)).max(),
              np.abs(f.e_end - entire_bessel_kernel(-theta, 1)).max())
    bound = 0.15 * (theta[-1] * x[1]) ** 2
    return err <= bound, f"(max err = {err:.2e} <= {bound:.2e})"


def _propagation_case():
    """A boundary pulse entering a medium that holds a spin wave: the
    data (bc, ic, theta, x) and their march."""
    theta = np.linspace(0.0, 2.0, 301)
    x = np.linspace(0.0, 1.0, 301)
    bc = np.exp(-((theta - 0.9) ** 2) / 0.08) * np.exp(1j * 3.0 * theta)
    ic = 0.4 * np.exp(-((x - 0.55) ** 2) / 0.02).astype(complex)
    return ((bc, ic, theta, x),
            numeric_evolution(bc, ic, theta, x, store_fields=False))


def _check_two_solvers(case, fn):
    fa = analytic_evolution(*case)
    scale = max(np.abs(fa.e_end).max(), np.abs(fa.s_final).max())
    diff = max(np.abs(fa.e_end - fn.e_end).max(),
               np.abs(fa.s_final - fn.s_final).max()) / scale
    return diff <= 1e-3, f"(max rel diff = {diff:.2e} <= 1e-03)"


def _check_reduced_continuity(case, fields):
    res = reduced_continuity_residual(fields, case[0])
    return res <= 1e-3, f"(residual = {res:.2e} <= 1e-03)"


def _check_cavity_continuity():
    p = CavityParams(kappa=1e6, gamma=0.0)
    grid = TimeGrid.from_span(-2e-6, 2e-6, 20001)
    g = Schedule([SquareSegment(-2e-6, 0.0, np.sqrt(p.kappa / 2e-6)),
                  SquareSegment(5e-7, 2e-6, np.sqrt(p.kappa / 1.5e-6))])
    e_in = optimal_write_input(g, p, grid)
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
    sim, overlap = _design_verification(env, g_w, g_r, T, p)
    ok = overlap >= 0.999 and abs(sim.eta_tot - 0.81) <= 2e-3
    return ok, f"(overlap = {overlap:.6f}, energy ratio = {sim.eta_tot:.6f})"


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
    eta_fs = float(numeric_evolution(bc, np.zeros(101, complex), theta, x,
                                     store_fields=False).s_norm2[-1])

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
