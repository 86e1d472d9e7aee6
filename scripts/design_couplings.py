#!/usr/bin/env python3
"""Synthesize write/read coupling schedules for a Gaussian input pulse.

Runs the `design` operation on a cavity scenario built from the
arguments: it solves for the coupling envelopes that reach the target
write/read efficiencies, replays the input through them, and writes
`g_write.csv`, `g_read.csv`, `e_out.csv` and `result.json`.  The memory
should emit a scaled copy of the input delayed by T.
"""

import argparse

from dipolemem import design_couplings, scenario_from_dict, write_artifacts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigma-ns", type=float, default=100.0,
                    help="input pulse width [ns]")
    ap.add_argument("--delay-us", type=float, default=3.0,
                    help="storage delay T [us]")
    ap.add_argument("--eta-w", type=float, default=0.9)
    ap.add_argument("--eta-r", type=float, default=0.9)
    ap.add_argument("--points", type=int, default=8001)
    ap.add_argument("--outdir", default="design_out")
    args = ap.parse_args()

    scn = scenario_from_dict({
        "model": "cavity-adiabatic",
        "cavity": {"kappa": "1 MHz"},           # plain Hz: times 2*pi
        "grid": {"start": "-1 us", "stop": "0 us", "points": args.points},
        "coupling": [],
        "input": {"kind": "gaussian", "center": "-0.5 us",
                  "sigma": f"{args.sigma_ns!r} ns"},
        "storage_time": f"{args.delay_us!r} us",
        "design": {"eta_write": args.eta_w, "eta_read": args.eta_r},
    })
    rec = design_couplings(scn)
    s = rec.summary
    print(f"replay overlap     {s['replay_overlap']:.9f}")
    print(f"energy ratio       {s['energy_ratio']:.6f} "
          f"(target {s['target_energy_ratio']:.6f})")

    write_artifacts(rec, args.outdir)
    print(f"schedules -> {args.outdir}/g_write.csv, {args.outdir}/g_read.csv")


if __name__ == "__main__":
    main()
