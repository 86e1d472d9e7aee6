#!/usr/bin/env bash
# Every CSV cell must read back as itself: exact %.17g text.
#
#   bash -e .github/scripts/csv_cells_roundtrip.sh OUTDIR
#
# Runs the design preset and the square-pulse preset's layout on 40,001
# points with whichever `python -m dipolemem` the environment provides
# (the installed package, or PYTHONPATH=src), writing under OUTDIR.
set -euo pipefail
out=$1
python -m dipolemem design \
  presets/cavity_gaussian_design.yaml --outdir "$out/cells_design"
cat > "$out/square.json" <<'JSON'
{"model": "cavity-adiabatic",
 "cavity": {"kappa": "1e6 Hz_angular", "gamma": "0 Hz_angular"},
 "grid": {"start": "-2 us", "stop": "2 us", "points": 40001},
 "coupling": [{"kind": "square", "start": "-2 us", "end": "0 s",
                "amplitude": "707106.78118654748 Hz_angular"},
               {"kind": "square", "start": "0.5 us", "end": "2 us",
                "amplitude": "816496.580927726 Hz_angular"}],
 "input": {"kind": "optimal"}}
JSON
python -m dipolemem run "$out/square.json" --outdir "$out/cells_run"
python - "$out"/cells_design/*.csv "$out"/cells_run/*.csv <<'PY'
import sys
for path in sys.argv[1:]:
    rows = open(path, "rb").read().split(b"\r\n")
    assert rows[-1] == b"", path
    cells = [c for row in rows[1:-1] for c in row.split(b",")]
    assert cells, path
    bad = [c for c in cells if c != b"%.17g" % float(c)]
    assert not bad, (path, bad[:5])
    print(path, len(cells), "cells")
PY
