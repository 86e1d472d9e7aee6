"""The benchmark's workloads: seeded scenario files, the operations run on
them, and the checks of every output against the paper's closed forms.

A workload is a list of `Op`s.  Each op is one `dipolemem` command; the
benchmark runs it both as a CLI process and as warm in-process calls,
and checks what it wrote with the same code either way.  The program
sees only the generated scenario files and command-line values; the
seed picks them within the ranges recorded in `Op.params`.

Tolerances come from the discretisation of the run they check, as the
leading error term times a stated margin (see each check), so a check
fails when a change loses accuracy and not because of the grid the
benchmark chose.  A check ratio |error| / tolerance above 1 fails the op.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("cavity-traces", "cavity-sweeps", "freespace-depth", "verify")

EPS = 2.0 ** -52                 # float64 machine epsilon

# cavity-traces geometry: write window [-2, 0] us, read window
# [0.5, 2] us on a [-2, 2] us grid (the cavity preset's layout)
_TW, _TR, _SPAN = 2e-6, 1.5e-6, 4e-6
_KAPPA = 1e6                     # rad/s, bad-cavity models
_GAMMA_COOP = 1e3                # rad/s, cooperativity sweep
_T_COOP = 200e-6                 # s, cooperativity sweep window
_T_FULL = 2e-6                   # s, full-model read window
_PRESET_DEPTHS = (1, 3, 10, 22, 40, 60, 90, 120, 150)

# known program defects, reported as per-layer metrics (see README)
DEFECT_NAMES = ("freespace.analytic_run.normalization_drift",
                "freespace.analytic_run.continuity_residual")


@dataclass(frozen=True)
class Scale:
    """Problem sizes.  `full` is the measured benchmark; `tiny` keeps
    every op and check but runs in seconds, for the self-test."""

    trace_points: int        # cavity-traces run grid
    design_points: int       # design input grid
    sweep_points: int        # tau_w and cooperativity sweep grids
    full_kappa: float        # full-model cavity linewidth (rad/s)
    full_points: int         # full-model grid; dt * kappa = 0.05
    n_tau_w: int
    n_coop: int
    n_tau_r: int
    depths: tuple


SCALES = {
    "full": Scale(100_001, 20_001, 100_001, 1e9, 40_001, 8, 5, 4,
                  _PRESET_DEPTHS),
    "tiny": Scale(10_001, 4_001, 10_001, 1e8, 4_001, 2, 2, 2, (40, 90)),
}


class Checker:
    """Collects the checks of one op as (name, ratio, ok).

    `perturb` shifts every expected value by twice its tolerance and
    expects every condition to be false, which must make every check
    fail: the self-test uses it to show that the checks are live.
    """

    def __init__(self, perturb: bool = False):
        self.perturb = perturb
        self.results: list[tuple[str, Optional[float], bool]] = []
        self.defects: list[tuple[str, float, float]] = []

    def close(self, name: str, got: float, want: float, tol: float) -> None:
        if self.perturb:
            want = want + 2.0 * tol
        ratio = abs(got - want) / tol
        self.results.append((name, ratio, bool(ratio <= 1.0)))

    def holds(self, name: str, cond: bool) -> None:
        self.results.append((name, None, bool(cond) != self.perturb))

    def known_defect(self, name: str, value: float, bound: float) -> None:
        """A diagnostic the program is known to get wrong: kept out of
        the op's pass/fail, reported as the per-layer metric `name` and
        printed with its bound on every run."""
        self.defects.append((name, value, bound))

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(ok for _n, _r, ok in self.results)

    @property
    def worst(self) -> float:
        ratios = [r for _n, r, _ok in self.results if r is not None]
        return max(ratios, default=0.0)


@dataclass
class Op:
    """One CLI command of a workload.

    `check(checker, output, shared)` reads the op's output -- the
    artifact directory, or the printed text for `verify` -- and may read
    or leave values in `shared`, a dict common to the ops of one pass.
    """

    name: str
    command: str                     # run | design | sweep | verify
    check: Callable
    config: Optional[Path] = None
    axis: Optional[str] = None
    values: tuple = ()
    params: dict = field(default_factory=dict)
    # computes the check's reference with the package imported, once,
    # before anything is timed
    prepare: Optional[Callable] = None

    def cli_args(self, outdir: Path) -> list[str]:
        if self.command == "verify":
            return ["verify"]
        args = [self.command, str(self.config), "--outdir", str(outdir)]
        if self.command == "sweep":
            args += ["--axis", self.axis, "--values", self.values_text()]
        return args

    def values_text(self) -> str:
        return ",".join(repr(v) for v in self.values)


# ---------------------------------------------------------------------------
# the closed forms
# ---------------------------------------------------------------------------

def efficiency_law(tau: float) -> float:
    """eta = 1 - exp(-2 tau): read-out, and the optimal write."""
    return -math.expm1(-2.0 * tau)


def square_pulse_law(coop: float, gamma: float, duration: float) -> float:
    """Optimal-input write efficiency of a square window with decay:
    (r / (r + gamma)) (1 - exp(-2 (r + gamma) T)), r = C gamma."""
    r = coop * gamma
    return r / (r + gamma) * -math.expm1(-2.0 * (r + gamma) * duration)


# ---------------------------------------------------------------------------
# reading an op's output
# ---------------------------------------------------------------------------

def _result(outdir: Path) -> dict:
    return json.loads((outdir / "result.json").read_text())


def _sweep_rows(outdir: Path) -> list[list[float]]:
    with open(outdir / "sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    return [[float(c) for c in row] for row in rows[1:]]


def _rate(x: float) -> str:
    return f"{x!r} Hz_angular"


def _time(x: float) -> str:
    return f"{x!r} s"


def _write_config(path: Path, cfg: dict) -> Path:
    # JSON is YAML; load_scenario reads either
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw rounded to 6 significant digits, so the value round-
    trips through its printed form unchanged."""
    return float(f"{rng.uniform(lo, hi):.6g}")


# ---------------------------------------------------------------------------
# cavity-traces: artifact writing dominates
# ---------------------------------------------------------------------------

def _cavity_traces(rng, scale: Scale, inputs: Path) -> list[Op]:
    tau_w, tau_r = _draw(rng, 0.5, 1.5), _draw(rng, 0.5, 1.5)
    n = scale.trace_points
    run_cfg = {
        "model": "cavity-adiabatic",
        "cavity": {"kappa": _rate(_KAPPA), "gamma": _rate(0.0)},
        "grid": {"start": _time(-_TW), "stop": _time(_SPAN - _TW),
                 "points": n},
        "coupling": [
            {"kind": "square", "start": _time(-_TW), "end": _time(0.0),
             "amplitude": _rate(math.sqrt(tau_w * _KAPPA / _TW))},
            {"kind": "square", "start": _time(_SPAN - _TW - _TR),
             "end": _time(_SPAN - _TW),
             "amplitude": _rate(math.sqrt(tau_r * _KAPPA / _TR))},
        ],
        "input": {"kind": "optimal"},
    }

    def check_run(ck: Checker, out: Path, _shared) -> None:
        res = _result(out)
        s, diag = res["summary"], res["diagnostics"]
        h = _SPAN / (n - 1)
        r_w, r_r = tau_w / _TW, tau_r / _TR
        # the scan itself is exact to rounding: RK4 truncation
        # (h r)^4 ~ 1e-20 is far below n steps of roundoff
        ck.close("eta_read", s["eta_read"], efficiency_law(tau_r), n * EPS)
        # the optimal input jumps to zero at the write-window end; the
        # trapezoid counts that step as a ramp, a bias of -h r_w to
        # first order (margin 2)
        ck.close("eta_write", s["eta_write"], efficiency_law(tau_w),
                 2.0 * h * r_w)
        # one such first-order step bias at each coupling jump
        # (write end, read start), at most h r of the energy present
        ck.close("ledger", diag["normalization_drift"], 0.0,
                 h * (r_w + r_r))
        ck.close("continuity", diag["continuity_residual"], 0.0, 1e-6)

    center, sigma = _draw(rng, -0.2e-6, 0.2e-6), _draw(rng, 80e-9, 150e-9)
    eta_w, eta_r = _draw(rng, 0.8, 0.95), _draw(rng, 0.8, 0.95)
    design_cfg = {
        "model": "cavity-adiabatic",
        "cavity": {"kappa": _rate(_KAPPA), "gamma": _rate(0.0)},
        "grid": {"start": _time(-1e-6), "stop": _time(1e-6),
                 "points": scale.design_points},
        "coupling": [],
        "input": {"kind": "gaussian", "center": _time(center),
                  "sigma": _time(sigma)},
        "storage_time": _time(3e-6),
        "design": {"eta_write": eta_w, "eta_read": eta_r},
    }

    def check_design(ck: Checker, out: Path, _shared) -> None:
        s = _result(out)["summary"]
        ck.close("replay_overlap", 1.0 - s["replay_overlap"], 0.0, 1e-6)
        ck.close("energy_ratio", s["energy_ratio"], eta_w * eta_r, 1e-3)

    return [
        Op("run-cavity", "run", check_run,
           config=_write_config(inputs / "cavity_traces.yaml", run_cfg),
           params={"tau_w": tau_w, "tau_r": tau_r, "points": n,
                   "ranges": {"tau_w": [0.5, 1.5], "tau_r": [0.5, 1.5]}}),
        Op("design", "design", check_design,
           config=_write_config(inputs / "design.yaml", design_cfg),
           params={"center_s": center, "sigma_s": sigma, "eta_write": eta_w,
                   "eta_read": eta_r, "points": scale.design_points,
                   "ranges": {"center_s": [-0.2e-6, 0.2e-6],
                              "sigma_s": [80e-9, 150e-9],
                              "eta_write": [0.8, 0.95],
                              "eta_read": [0.8, 0.95]}}),
    ]


# ---------------------------------------------------------------------------
# cavity-sweeps: the integrator cores dominate, almost nothing is written
# ---------------------------------------------------------------------------

def _cavity_sweeps(rng, scale: Scale, inputs: Path) -> list[Op]:
    n = scale.sweep_points
    # tau_w rescales the whole coupling, so a single write window keeps
    # each row on 1 - exp(-2 tau_w)
    tau_ws = tuple(_draw(rng, 1.0, 3.0) for _ in range(scale.n_tau_w))
    tau_w_cfg = {
        "model": "cavity-adiabatic",
        "cavity": {"kappa": _rate(_KAPPA)},
        "grid": {"start": _time(-_TW), "stop": _time(0.0), "points": n},
        "coupling": [{"kind": "square", "start": _time(-_TW),
                      "end": _time(0.0),
                      "amplitude": _rate(math.sqrt(_KAPPA / _TW))}],
        "input": {"kind": "optimal"},
    }

    def check_tau_w(ck: Checker, out: Path, _shared) -> None:
        rows = _sweep_rows(out)
        ck.holds("tau_w rows", [r[0] for r in rows] == list(tau_ws))
        h = _TW / (n - 1)
        for tau, eta in rows:
            # trapezoid normalisation of the input e^{r t}: relative
            # bias (2 r h)^2 / 12 (margin 2)
            r = tau / _TW
            ck.close(f"eta_w(tau_w={tau})", eta, efficiency_law(tau),
                     (2.0 * r * h) ** 2 / 6.0)

    coops = tuple(_draw(rng, 1.0, 100.0) for _ in range(scale.n_coop))
    coop_cfg = {
        "model": "cavity-adiabatic",
        "cavity": {"kappa": _rate(_KAPPA), "gamma": _rate(_GAMMA_COOP)},
        "grid": {"start": _time(0.0), "stop": _time(_T_COOP), "points": n},
        "coupling": [{"kind": "square", "start": _time(0.0),
                      "end": _time(_T_COOP), "amplitude": _rate(1e5)}],
        "input": {"kind": "optimal"},
    }

    def check_coop(ck: Checker, out: Path, _shared) -> None:
        rows = _sweep_rows(out)
        ck.holds("cooperativity rows", [r[0] for r in rows] == list(coops))
        h = _T_COOP / (n - 1)
        for coop, eta in rows:
            # same quadrature bias for the input e^{(r + gamma) t}
            rate = (coop + 1.0) * _GAMMA_COOP
            ck.close(f"eta_w(C={coop})", eta,
                     square_pulse_law(coop, _GAMMA_COOP, _T_COOP),
                     (2.0 * rate * h) ** 2 / 6.0)

    # the full model stays at kappa = 1 GHz: at 1 MHz a cooperativity
    # sweep leaves the bad-cavity regime and misses C/(C+1) by 10 %
    kappa = scale.full_kappa
    tau_rs = tuple(_draw(rng, 0.5, 2.0) for _ in range(scale.n_tau_r))
    full_cfg = {
        "model": "cavity-full",
        "cavity": {"kappa": _rate(kappa)},
        "grid": {"start": _time(0.0), "stop": _time(_T_FULL),
                 "points": scale.full_points},
        "coupling": [{"kind": "square", "start": _time(0.0),
                      "end": _time(_T_FULL),
                      "amplitude": _rate(math.sqrt(kappa / _T_FULL))}],
        "initial_excitation": {"sigma_re": 1.0},
    }

    def check_tau_r(ck: Checker, out: Path, _shared) -> None:
        rows = _sweep_rows(out)
        ck.holds("tau_r rows", [r[0] for r in rows] == list(tau_rs))
        for tau, eta in rows:
            # adiabatic elimination is first order in r / kappa: the
            # full model misses the law by (r/kappa) e^{-2 tau} (2 tau - 3)
            # to leading order; bound |2 tau - 3| by 2 tau + 3 (margin 2)
            r = tau / _T_FULL
            tol = 2.0 * (r / kappa) * math.exp(-2.0 * tau) * (2.0 * tau + 3.0)
            ck.close(f"eta_r(tau_r={tau})", eta, efficiency_law(tau), tol)

    ranges = {"tau_w": [1.0, 3.0], "cooperativity": [1.0, 100.0],
              "tau_r": [0.5, 2.0]}
    return [
        Op("sweep-tau_w", "sweep", check_tau_w,
           config=_write_config(inputs / "tau_w.yaml", tau_w_cfg),
           axis="tau_w", values=tau_ws,
           params={"points": n, "ranges": ranges}),
        Op("sweep-cooperativity", "sweep", check_coop,
           config=_write_config(inputs / "cooperativity.yaml", coop_cfg),
           axis="cooperativity", values=coops, params={"points": n}),
        Op("sweep-tau_r-full", "sweep", check_tau_r,
           config=_write_config(inputs / "tau_r_full.yaml", full_cfg),
           axis="tau_r", values=tau_rs,
           params={"points": scale.full_points, "kappa": kappa}),
    ]


# ---------------------------------------------------------------------------
# freespace-depth: the propagation solvers dominate, no cavity code runs
# ---------------------------------------------------------------------------

_FS_GAMMA = 2.0 * math.pi * 50e3     # rad/s, the preset's "50 kHz"
_FS_SIGMA = 100e-9                    # s, coupling pulse width
_FS_CUT = 1e-3                        # the sweep's depth-profile cut
_FS_X = 201                           # space points


def _freespace_preset(center: float, write_center: float,
                      fwtm: float) -> dict:
    """The free-space preset (peak depth 60), with the pulse timing
    given."""
    return {
        "model": "freespace-numeric",
        "medium": {"length": "1 cm", "gamma": "50 kHz"},
        "grid": {"start": "-0.4 us", "stop": "0.8 us", "points": 2401},
        "coupling": [{"kind": "gaussian",
                      "amplitude": "751728322.06366682 Hz_angular",
                      "center": _time(write_center),
                      "sigma": _time(_FS_SIGMA)}],
        "input": {"kind": "gaussian", "center": _time(center),
                  "fwtm": _time(fwtm)},
        "space_points": _FS_X,
    }


def _kernel_sweep_point(d: float, center: float, write_center: float,
                        fwtm: float) -> tuple[float, float, float]:
    """Forward and backward storage-retrieval efficiency of one sweep
    depth, solved with the exact kernel solver, and the kernel-argument
    change per cell a = theta_total h_x.

    The depth profile rho(t) = d gamma exp(-(t - t_c)^2 / sigma^2) is
    kept where rho >= cut * d gamma; its effective time theta(t) is an
    erf, inverted exactly onto a uniform theta grid (step <= 0.01).
    Write: the Gaussian input (unit photon number) enters at z = 0;
    read: an identical pulse right after the write window, with the
    spin wave as left (forward) or mirrored (backward), emitted photon
    number weighted by the spin decay e^{-2 gamma t}.
    """
    # imported here: the package is importable only once run.py has
    # found it
    import numpy as np
    from scipy.special import erfinv
    from dipolemem.freespace import analytic_evolution

    radius = _FS_SIGMA * math.sqrt(math.log(1.0 / _FS_CUT))
    full = d * _FS_GAMMA * _FS_SIGMA * math.sqrt(math.pi)
    edge = math.erf(radius / _FS_SIGMA)
    theta = np.linspace(0.0, full * edge,
                        max(801, math.ceil(full * edge / 0.01) + 1))
    x = np.linspace(0.0, 1.0, _FS_X)

    def times(t_c):
        return t_c + _FS_SIGMA * erfinv(2.0 * theta / full - edge)

    sig_e = fwtm / (2.0 * math.sqrt(2.0 * math.log(10.0)))
    t_w = times(write_center)
    rho = d * _FS_GAMMA * np.exp(-((t_w - write_center) / _FS_SIGMA) ** 2)
    e_in = (np.exp(-(t_w - center) ** 2 / (2.0 * sig_e ** 2))
            / math.sqrt(sig_e * math.sqrt(math.pi)))
    bc = e_in * np.exp(_FS_GAMMA * t_w) / (1j * np.sqrt(rho))
    stored = analytic_evolution(bc, np.zeros(x.size, complex), theta,
                                x).s_final
    t_r = times(t_w[-1] + radius)
    weight = np.exp(-2.0 * _FS_GAMMA * t_r)
    etas = []
    for ic in (stored, stored[::-1].copy()):
        e_end = analytic_evolution(np.zeros(theta.size, complex), ic,
                                   theta, x).e_end
        etas.append(float(np.trapezoid(np.abs(e_end) ** 2 * weight,
                                       x=theta)))
    return etas[0], etas[1], float(theta[-1]) / (_FS_X - 1)


def _freespace_depth(rng, scale: Scale, inputs: Path) -> list[Op]:
    # The runs use the preset as shipped: their checks compare two
    # solvers whose difference depends on the pulse timing.  The seed
    # moves the pulses of the depth sweep, whose checks do not.
    preset = _freespace_preset(0.0, -50e-9, 300e-9)
    analytic = dict(preset, model="freespace-analytic")
    center = _draw(rng, -20e-9, 20e-9)
    write_center = _draw(rng, -70e-9, -30e-9)
    fwtm = _draw(rng, 270e-9, 330e-9)
    sweep_cfg = _freespace_preset(center, write_center, fwtm)
    depths = tuple(float(d) for d in scale.depths)

    def check_numeric(ck: Checker, out: Path, shared: dict) -> None:
        res = _result(out)
        shared["eta_write_numeric"] = res["summary"]["eta_write"]
        ck.close("ledger", res["diagnostics"]["normalization_drift"], 0.0,
                 1e-4)

    def check_analytic(ck: Checker, out: Path, shared: dict) -> None:
        res = _result(out)
        s, diag = res["summary"], res["diagnostics"]
        # resampling the boundary trace onto the kernel solver's uniform
        # theta grid breaks the ledger (bound 1e-4, as for the numeric
        # run) and the continuity residual (bound 1e-3, as in verify)
        ck.known_defect(DEFECT_NAMES[0], diag["normalization_drift"], 1e-4)
        ck.known_defect(DEFECT_NAMES[1], diag["continuity_residual"], 1e-3)
        ref = shared.get("eta_write_numeric")
        ck.holds("numeric run present", ref is not None)
        if ref is None:
            return
        # both solvers are second order in the kernel-argument change
        # per cell, a = theta_total h_x (the resolution guard's measure);
        # their write efficiencies agree within 10 a^2
        a = s["theta_total"] / (preset["space_points"] - 1)
        ck.close("eta_write numeric vs analytic", s["eta_write"] / ref - 1.0,
                 0.0, 10.0 * a * a)

    d_ref = max(depths)
    reference = {}

    def prepare() -> None:
        reference[d_ref] = _kernel_sweep_point(d_ref, center, write_center,
                                               fwtm)

    def check_sweep(ck: Checker, out: Path, _shared) -> None:
        rows = _sweep_rows(out)
        ck.holds("depth rows", [r[0] for r in rows] == list(depths))
        for d, fwd, bwd in rows:
            if d >= 40.0:
                ck.holds(f"backward > forward > 0 (d={d:g})", bwd > fwd > 0.0)
        ck.holds("kernel reference computed", d_ref in reference)
        if d_ref not in reference:
            return
        # the march and the kernel solver are both second order in a;
        # on these uniform theta grids they differ by 0.08-0.16 a^2
        # (margin >= 6)
        ref_fwd, ref_bwd, a = reference[d_ref]
        _d, fwd, bwd = rows[depths.index(d_ref)]
        ck.close(f"forward vs kernel (d={d_ref:g})", fwd / ref_fwd - 1.0,
                 0.0, a * a)
        ck.close(f"backward vs kernel (d={d_ref:g})", bwd / ref_bwd - 1.0,
                 0.0, a * a)

    return [
        Op("run-numeric", "run", check_numeric,
           config=_write_config(inputs / "freespace_numeric.yaml", preset)),
        Op("run-analytic", "run", check_analytic,
           config=_write_config(inputs / "freespace_analytic.yaml",
                                analytic)),
        Op("sweep-d", "sweep", check_sweep,
           config=_write_config(inputs / "freespace_sweep.yaml", sweep_cfg),
           axis="d", values=depths, prepare=prepare,
           params={"center_s": center, "write_center_s": write_center,
                   "fwtm_s": fwtm, "kernel_reference_d": d_ref,
                   "ranges": {"center_s": [-20e-9, 20e-9],
                              "write_center_s": [-70e-9, -30e-9],
                              "fwtm_s": [270e-9, 330e-9]}}),
    ]


# ---------------------------------------------------------------------------
# verify: short-command traffic
# ---------------------------------------------------------------------------

_N_VERIFY = 12
_LE = re.compile(r"= ([-+0-9.eE]+) <= ([-+0-9.eE]+)\)")
_GE_ONE = re.compile(r"= ([0-9.]+) >= 1 - ([-+0-9.eE]+)\)")
_SYNTH = re.compile(r"overlap = ([0-9.]+), energy ratio = ([0-9.]+)\)")


def check_verify_text(ck: Checker, text: str, _shared=None) -> None:
    """Every check line must PASS, and each printed error must be
    within its printed tolerance."""
    lines = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
    ck.holds(f"{_N_VERIFY} checks", len(lines) == _N_VERIFY)
    ck.holds("summary line", f"all {_N_VERIFY} checks passed" in text)
    for ln in lines:
        name = ln[4:].strip()[:36].strip()
        ck.holds(f"PASS {name}", ln.startswith("PASS"))
        if m := _LE.search(ln):
            ck.close(name, float(m.group(1)), 0.0, float(m.group(2)))
        elif m := _GE_ONE.search(ln):
            ck.close(name, 1.0 - float(m.group(1)), 0.0, float(m.group(2)))
        elif m := _SYNTH.search(ln):
            # thresholds of the synthesis check: overlap >= 0.999 and
            # |energy ratio - 0.81| <= 2e-3 (0.81 = 0.9 * 0.9)
            ck.close(name + " overlap", 1.0 - float(m.group(1)), 0.0, 1e-3)
            ck.close(name + " energy", float(m.group(2)), 0.81, 2e-3)
        else:
            ck.holds(f"{name} detail parsed", False)


def _verify(_rng, _scale: Scale, _inputs: Path) -> list[Op]:
    # verify takes no input, so the seed changes nothing here
    return [Op("verify", "verify", check_verify_text)]


_MAKE_OPS = {
    "cavity-traces": _cavity_traces,
    "cavity-sweeps": _cavity_sweeps,
    "freespace-depth": _freespace_depth,
    "verify": _verify,
}


def build(workload: str, seed: int, scale: Scale, inputs: Path) -> list[Op]:
    """The ops of `workload`, with their input files written to
    `inputs`.  The same seed gives the same files and values."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _MAKE_OPS[workload](rng, scale, inputs)
