#!/usr/bin/env python3
"""Full write -> hold -> read cycle in the adiabatic cavity model.

Builds a two-window coupling schedule, drives the write window with the
matched input envelope, and compares the simulated efficiencies against
the effective-time laws.  Optionally cross-checks the write stage with
the unreduced cavity model and dumps the field envelopes to CSV.
"""

import argparse

import numpy as np

from dipolemem import (CavityParams, Schedule, TimeGrid, effective_time,
                       optimal_write_input, simulate_adiabatic, simulate_full,
                       total_efficiency)
from dipolemem.scenarios import _write_tables

KAPPA = 2 * np.pi * 20e6  # cavity linewidth, rad/s


def build_schedules(write_peak, read_peak):
    g_write = Schedule.gaussian(write_peak, center=-1.0e-6, width=0.22e-6,
                                support=(-1.9e-6, -0.1e-6))
    g_read = Schedule.gaussian(read_peak, center=1.0e-6, width=0.25e-6,
                               support=(0.1e-6, 1.9e-6))
    return g_write, g_read


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write-peak", type=float, default=1.8e7,
                    help="peak write coupling [rad/s]")
    ap.add_argument("--read-peak", type=float, default=2.2e7,
                    help="peak read coupling [rad/s]")
    ap.add_argument("--points", type=int, default=40001)
    ap.add_argument("--full-model", action="store_true",
                    help="also run the unreduced cavity equations")
    ap.add_argument("--csv", metavar="FILE",
                    help="write t, e_in, e_out, sigma columns to FILE")
    args = ap.parse_args()

    grid = TimeGrid.from_span(-2e-6, 2e-6, args.points)
    g_write, g_read = build_schedules(args.write_peak, args.read_peak)
    combined = Schedule(list(g_write.segments) + list(g_read.segments))
    p = CavityParams(KAPPA)

    e_in = optimal_write_input(combined, p, grid)   # the first window writes
    sim = simulate_adiabatic(e_in, combined, Schedule.zero(), p, grid)

    # tau_w runs to the write end, the last sample of the first window
    tau = effective_time(combined, KAPPA, grid)
    tau_w = tau[combined.windows(grid)[0][1]]
    tau_r = tau[-1] - tau_w

    print(f"tau_w = {tau_w:.4f}    tau_r = {tau_r:.4f}")
    print(f"eta_w      sim {sim.eta_w:.6f}   law {1 - np.exp(-2 * tau_w):.6f}")
    print(f"eta_r      sim {sim.eta_r:.6f}   law {1 - np.exp(-2 * tau_r):.6f}")
    print(f"eta_total  sim {sim.eta_tot:.6f}   "
          f"law {total_efficiency(tau_w, tau_r):.6f}")

    if args.full_model:
        full = simulate_full(e_in, combined, Schedule.zero(), p, grid)
        print(f"full model eta_total {full.eta_tot:.6f} "
              f"(adiabatic {sim.eta_tot:.6f})")

    if args.csv:
        table = np.column_stack((grid.times(), e_in.samples.real,
                                 e_in.samples.imag, sim.e_out.samples.real,
                                 sim.e_out.samples.imag, np.abs(sim.sigma)))
        _write_tables([(args.csv, ("time_s", "e_in_re", "e_in_im",
                                   "e_out_re", "e_out_im", "sigma_abs"),
                        table)])
        print(f"envelopes -> {args.csv}")


if __name__ == "__main__":
    main()
