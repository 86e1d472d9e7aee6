"""The example scripts run end to end at tiny sizes."""

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


def _script(name, args, cwd):
    old = os.environ.get("PYTHONPATH")
    path = _SRC_ROOT + (os.pathsep + old if old else "")
    return subprocess.run([sys.executable, str(_REPO / "scripts" / name),
                           *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path},
                          timeout=300)


def _header(path):
    with open(path, newline="") as f:
        return next(csv.reader(f))


@pytest.mark.parametrize("name, args, outputs", [
    ("cavity_storage_demo.py", ["--points", "4001", "--csv", "env.csv"],
     {"env.csv": ["time_s", "e_in_re", "e_in_im", "e_out_re", "e_out_im",
                  "sigma_abs"]}),
    ("design_couplings.py", ["--points", "2001"],
     {"design_out/g_write.csv": ["time_s", "value"],
      "design_out/g_read.csv": ["time_s", "value"],
      "design_out/result.json": None}),
    ("depth_sweep.py", ["--num", "2"],
     {"depth_sweep_out/sweep.csv": ["d", "eta_forward", "eta_backward"],
      "depth_sweep_out/result.json": None}),
])
def test_script_runs(tmp_path, name, args, outputs):
    proc = _script(name, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for rel, header in outputs.items():
        path = tmp_path / rel
        assert path.exists(), rel
        if header is not None:
            assert _header(path) == header
    if name == "cavity_storage_demo.py":
        _assert_cells_round_trip(tmp_path / "env.csv", 4001)


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
