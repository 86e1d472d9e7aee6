"""The README's CLI commands on the presets write the artifacts they
name, and the Gaussian write/hold/read preset holds the effective-time
laws and equals the README's Python example."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dipolemem
from dipolemem import effective_time, total_efficiency
from dipolemem.scenarios import load_scenario, run_scenario

_REPO = Path(__file__).resolve().parents[1]
# The source root of the dipolemem this process imported.  A relative
# PYTHONPATH entry such as ``src`` would resolve against the child's cwd.
_SRC_ROOT = str(Path(dipolemem.__file__).resolve().parents[1])


def _python(args, cwd):
    old = os.environ.get("PYTHONPATH")
    path = _SRC_ROOT + (os.pathsep + old if old else "")
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path},
                          timeout=300)


def _header(path):
    with open(path, newline="") as f:
        return next(csv.reader(f))


def _assert_outputs(root, outputs):
    for rel, header in outputs.items():
        path = root / rel
        assert path.exists(), rel
        if header is not None:
            assert _header(path) == header


@pytest.mark.parametrize("args, outputs, summary", [
    (["design", "presets/cavity_gaussian_design.yaml",
      "--outdir", "design_out"],
     {"design_out/g_write.csv": ["time_s", "value"],
      "design_out/g_read.csv": ["time_s", "value"],
      "design_out/result.json": None},
     # the preset's stated outcome: the input replayed, scaled by
     # sqrt(0.81)
     {"replay_overlap": (1.0, 1e-6), "energy_ratio": (0.81, 1e-3)}),
    (["sweep", "presets/freespace_gaussian_sweep.yaml", "--axis", "d",
      "--values", "1,150", "--outdir", "depth_sweep_out"],
     {"depth_sweep_out/sweep.csv": ["d", "eta_forward", "eta_backward"],
      "depth_sweep_out/result.json": None}, {}),
    (["run", "presets/cavity_gaussian_cycle.yaml", "--outdir", "cycle_out"],
     {"cycle_out/e_out.csv": ["time_s", "re", "im"],
      "cycle_out/spinwave.csv": ["time_s", "re", "im"],
      "cycle_out/result.json": None}, {}),
], ids=["design", "sweep-d", "run-cycle"])
def test_readme_cli_commands_write_artifacts(tmp_path, args, outputs,
                                             summary):
    # the README's commands, run from the checkout
    command, preset, *rest = args
    proc = _python(["-m", "dipolemem", command, str(_REPO / preset), *rest],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    _assert_outputs(tmp_path, outputs)
    result = tmp_path / rest[-1] / "result.json"
    got = json.loads(result.read_text())["summary"]
    for key, (want, tol) in summary.items():
        assert abs(got[key] - want) <= tol, (key, got[key])


def test_cycle_preset_holds_the_laws_and_matches_the_readme_example():
    scn = load_scenario(_REPO / "presets" / "cavity_gaussian_cycle.yaml")
    s = run_scenario(scn).summary
    # tau_w runs to the write end, the last sample of the first window
    tau = effective_time(scn.coupling, scn.cavity.kappa, scn.grid)
    tau_w = tau[scn.coupling.windows(scn.grid)[0][1]]
    tau_r = tau[-1] - tau_w
    # the Gaussians are smooth: the errors are second order in the step,
    # -1.7e-8 (write, total) and -5e-11 (read) at 40,001 points
    assert abs(s["eta_write"] - (1 - np.exp(-2 * tau_w))) < 1e-7
    assert abs(s["eta_read"] - (1 - np.exp(-2 * tau_r))) < 1e-9
    assert abs(s["eta_total"] - total_efficiency(tau_w, tau_r)) < 1e-7
    # the README's Python example builds the same cycle through the API;
    # its kappa is 1 ulp away from the preset's parsed "20 MHz"
    text = (_REPO / "README.md").read_text()
    namespace = {}
    exec(text.split("```python\n")[1].split("```")[0], namespace)
    sim = namespace["sim"]
    for name, value in (("eta_write", sim.eta_w), ("eta_read", sim.eta_r),
                        ("eta_total", sim.eta_tot)):
        assert abs(value - s[name]) < 1e-12, name
