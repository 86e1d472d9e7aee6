#!/usr/bin/env python3
"""Free-space storage/retrieval efficiency versus optical depth.

Runs `dipolemem sweep --axis d` on the free-space preset for a geometric
ladder of depths: a pulsed write stage followed by forward and backward
read-out, one row per depth, written as `sweep.csv` and `result.json`.
Forward read-out peaks at moderate depth; backward read-out saturates.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from dipolemem import run_sweep, scenario_from_dict, write_artifacts

PRESET = (Path(__file__).resolve().parents[1] / "presets"
          / "freespace_gaussian_sweep.yaml")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d-min", type=float, default=1.0)
    ap.add_argument("--d-max", type=float, default=150.0)
    ap.add_argument("--num", type=int, default=15, help="number of depths")
    ap.add_argument("--gamma-khz", type=float, default=50.0,
                    help="spin-wave decay rate [kHz, ordinary frequency]")
    ap.add_argument("--length-cm", type=float, default=1.0)
    ap.add_argument("--outdir", default="depth_sweep_out")
    args = ap.parse_args()

    raw = yaml.safe_load(PRESET.read_text())
    raw["medium"] = {"length": f"{args.length_cm!r} cm",
                     "gamma": f"{args.gamma_khz!r} kHz"}
    scn = scenario_from_dict(raw, base_dir=PRESET.parent)
    d_values = np.round(np.geomspace(args.d_min, args.d_max, args.num), 3)

    tic = time.time()
    rec = run_sweep(scn, "d", d_values)
    print(f"{args.num} depths in {time.time() - tic:.1f} s", file=sys.stderr)

    [(_name, _header, rows)] = rec.tables
    print(f"{'d':>9} {'eta_fwd':>10} {'eta_bwd':>10}")
    for d, ef, eb in rows:
        print(f"{d:9.3f} {ef:10.5f} {eb:10.5f}")

    d, eta_fwd, eta_bwd = np.array(rows).T
    k = int(np.argmax(eta_fwd))
    print(f"forward optimum: d = {d[k]:.3f}, eta = {eta_fwd[k]:.5f}")
    print(f"backward at d = {d[-1]:.3f}: {eta_bwd[-1]:.5f}")

    write_artifacts(rec, args.outdir)
    print(f"table -> {args.outdir}/sweep.csv", file=sys.stderr)


if __name__ == "__main__":
    main()
