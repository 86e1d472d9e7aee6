"""The example script runs end to end at a tiny size, and the CLI
commands that replace the former design and depth-sweep scripts write
the artifacts those scripts wrote."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dipolemem

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


@pytest.mark.parametrize("name, args, outputs", [
    ("cavity_storage_demo.py", ["--points", "4001", "--csv", "env.csv"],
     {"env.csv": ["time_s", "e_in_re", "e_in_im", "e_out_re", "e_out_im",
                  "sigma_abs"]}),
])
def test_script_runs(tmp_path, name, args, outputs):
    proc = _python([str(_REPO / "scripts" / name), *args], tmp_path)
    assert proc.returncode == 0, proc.stderr
    _assert_outputs(tmp_path, outputs)
    _assert_cells_round_trip(tmp_path / "env.csv", 4001)


@pytest.mark.parametrize("args, outputs", [
    (["design", "presets/cavity_gaussian_design.yaml",
      "--outdir", "design_out"],
     {"design_out/g_write.csv": ["time_s", "value"],
      "design_out/g_read.csv": ["time_s", "value"],
      "design_out/result.json": None}),
    (["sweep", "presets/freespace_gaussian_sweep.yaml", "--axis", "d",
      "--values", "1,150", "--outdir", "depth_sweep_out"],
     {"depth_sweep_out/sweep.csv": ["d", "eta_forward", "eta_backward"],
      "depth_sweep_out/result.json": None}),
], ids=["design", "sweep-d"])
def test_readme_cli_commands_write_artifacts(tmp_path, args, outputs):
    # the README's design and depth-sweep commands, run from the checkout
    command, preset, *rest = args
    proc = _python(["-m", "dipolemem", command, str(_REPO / preset), *rest],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    _assert_outputs(tmp_path, outputs)


def _assert_cells_round_trip(path, points):
    # the demo writes through the package's CSV writer: every cell is the
    # %.17g text of a double, which parses back to that double, and the
    # time column is the grid's own samples
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == points
    for row in rows:
        assert all(format(float(c), ".17g") == c for c in row), row
    t = np.array([float(row[0]) for row in rows])
    assert np.array_equal(
        t, dipolemem.TimeGrid.from_span(-2e-6, 2e-6, points).times())
