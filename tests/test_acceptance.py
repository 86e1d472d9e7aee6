"""End-to-end acceptance checks.

Each test states one headline property of the toolkit at its target
tolerance, so `pytest -v` prints a one-line verdict per property.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from dipolemem import (CavityParams, FieldEnvelope, Schedule, TimeGrid,
                       analytic_evolution, continuity_residual,
                       effective_fields, effective_time, numeric_evolution,
                       optimal_write_input, simulate_adiabatic, simulate_full,
                       square_pulse_efficiency, synthesize_couplings,
                       write_efficiency_of)
from dipolemem.scenarios import run_scenario, run_sweep, scenario_from_dict

FREESPACE_PRESET = (Path(__file__).resolve().parents[1] / "presets"
                    / "freespace_gaussian_sweep.yaml")

KAPPA = 1e6
ZERO = Schedule.zero()


def _random_coupling_profile(rng, t0, t1, n_tab=4001):
    """Smooth random coupling: a few wide bumps with soft edge ramps
    (narrow features would leave the bandwidth the full model resolves)."""
    tt = np.linspace(t0, t1, n_tab)
    span = t1 - t0
    prof = np.zeros(n_tab)
    for _ in range(int(rng.integers(1, 4))):
        c = t0 + span * rng.uniform(0.3, 0.7)
        w = span * rng.uniform(0.08, 0.18)
        prof += rng.uniform(0.3, 1.0) * np.exp(-((tt - c) ** 2) / (2 * w * w))
    ramp = 0.05 * span
    prof *= np.clip((tt - t0) / ramp, 0, 1) * np.clip((t1 - tt) / ramp, 0, 1)
    return tt, prof


def test_01_retrieval_law_over_random_couplings():
    """eta_r = 1 - e^{-2 tau_r} for 10 random schedules: 1e-6 in the
    adiabatic model, 1e-3 in the full model at safe pole margin;
    the whole scan stays under 10 s."""
    rng = np.random.default_rng(20260814)
    t0, t1 = 0.0, 2e-6
    tic = time.perf_counter()
    worst_ad = worst_full = 0.0
    for _ in range(10):
        tau_r = rng.uniform(0.1, 4.0)
        tt, prof = _random_coupling_profile(rng, t0, t1)
        weight = np.trapezoid(prof ** 2, tt)
        # kappa = margin * g_peak; short effective times need more
        # margin because the retrieval is bandwidth-limited there
        margin = 50.0 if tau_r < 0.5 else (40.0 if tau_r < 2.0 else 15.0)
        g_pk = tau_r * margin / weight
        kappa = margin * g_pk
        g = Schedule.tabulated(tt, g_pk * prof)
        n = max(20001, int(np.ceil((t1 - t0) * kappa / 0.05)) + 1)
        grid = TimeGrid.from_span(t0, t1, n)
        p = CavityParams(kappa)
        tau_end = effective_time(g, kappa, grid)[-1]
        law = 1.0 - np.exp(-2.0 * tau_end)
        eta_ad = simulate_adiabatic(None, g, ZERO, p, grid,
                                    sigma0=1.0).output_energy
        eta_fl = simulate_full(None, g, ZERO, p, grid,
                               sigma0=1.0).output_energy
        worst_ad = max(worst_ad, abs(eta_ad - law) / law)
        worst_full = max(worst_full, abs(eta_fl - law) / law)
    elapsed = time.perf_counter() - tic
    assert worst_ad < 1e-6
    assert worst_full < 1e-3
    assert elapsed < 10.0


def test_02_retrieval_is_shape_independent():
    """Square and Gaussian couplings tuned to the same effective time
    retrieve with efficiencies equal to 1e-8."""
    p = CavityParams(KAPPA)
    grid_sq = TimeGrid.from_span(0.2e-6, 1.8e-6, 32001)
    sq = Schedule.square(1.0e6, 0.2e-6, 1.8e-6)
    tau_sq = effective_time(sq, KAPPA, grid_sq)[-1]
    grid_ga = TimeGrid.from_span(0.0, 2e-6, 40001)
    ga0 = Schedule.gaussian(1.0e6, center=1.0e-6, width=0.25e-6,
                            support=(0.0, 2e-6))
    scale = np.sqrt(tau_sq / effective_time(ga0, KAPPA, grid_ga)[-1])
    ga = Schedule.gaussian(1.0e6 * scale, center=1.0e-6, width=0.25e-6,
                           support=(0.0, 2e-6))
    eta_sq = simulate_adiabatic(None, sq, ZERO, p, grid_sq, sigma0=1.0).eta_r
    eta_ga = simulate_adiabatic(None, ga, ZERO, p, grid_ga, sigma0=1.0).eta_r
    assert abs(eta_sq - eta_ga) < 1e-8


def test_03_optimal_write_envelope_is_unbeaten():
    """The closed-form input beats 1000 random unit-norm envelopes on
    the same grid, and hits 1 - e^{-2 tau_w} to 1e-6."""
    p = CavityParams(KAPPA)
    grid = TimeGrid.from_span(-2e-6, 0.0, 8001)
    g = Schedule.gaussian(8e5, center=-1e-6, width=0.25e-6,
                          support=(-1.9e-6, -0.1e-6))
    tau_w = effective_time(g, KAPPA, grid)[-1]
    opt = optimal_write_input(g, p, grid)
    eta_opt = write_efficiency_of(opt, g, p)
    assert abs(eta_opt - (1.0 - np.exp(-2.0 * tau_w))) < 1e-6
    rng = np.random.default_rng(7)
    for _ in range(1000):
        raw = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        assert write_efficiency_of(FieldEnvelope(grid, raw), g, p) < eta_opt


def test_04_write_optimum_is_time_reversed_read():
    """In effective time, the optimal write envelope matches the
    reversed read output to better than 1 - 1e-8."""
    p = CavityParams(KAPPA)
    g_read = Schedule.gaussian(8e5, center=0.45e-6, width=0.15e-6,
                               support=(0.0, 1e-6))
    grid_r = TimeGrid.from_span(0.0, 1e-6, 20001)
    res = simulate_adiabatic(None, g_read, ZERO, p, grid_r, sigma0=1.0)
    eff_out = effective_fields(res.e_out, g_read, KAPPA)

    g_write = Schedule.gaussian(8e5, center=-0.45e-6, width=0.15e-6,
                                support=(-1e-6, 0.0))
    grid_w = TimeGrid.from_span(-1e-6, 0.0, 20001)
    eff_in = effective_fields(optimal_write_input(g_write, p, grid_w),
                              g_write, KAPPA)

    tau_w = eff_in.tau
    tau_r_tot = eff_out.tau[-1]
    rev = np.interp(tau_w, tau_r_tot - eff_out.tau[::-1],
                    eff_out.values[::-1].conj())
    w = np.gradient(tau_w)
    num = abs(np.sum(w * np.conj(eff_in.values) * rev)) ** 2
    den = (np.sum(w * np.abs(eff_in.values) ** 2)
           * np.sum(w * np.abs(rev) ** 2))
    assert num / den > 1.0 - 1e-8


def test_05_synthesized_couplings_replay_the_input():
    """Write/read schedules synthesized for a Gaussian input at
    eta_w = eta_r = 0.9 emit a copy of the input delayed by T: shape
    overlap > 0.999 peaking at lag T, energy ratio 0.81 within 1e-3."""
    p = CavityParams(KAPPA)
    sigma = 90e-9
    grid = TimeGrid.from_span(-1e-6, 0.0, 8001)
    env = FieldEnvelope.gaussian(grid, center=-0.5e-6,
                                 width=sigma).normalized()
    T = 5.0 * (2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma)  # five fwhm
    g_w, g_r = synthesize_couplings(env, T, 0.9, 0.9, p)

    ext = TimeGrid(grid.t0, grid.dt, grid.n + int(np.ceil(T / grid.dt)))
    samples = np.zeros(ext.n, dtype=complex)
    samples[: grid.n] = env.samples
    sim = simulate_adiabatic(FieldEnvelope(ext, samples),
                             Schedule(list(g_w.segments) + list(g_r.segments)),
                             ZERO, p, ext)
    t_ext = ext.times()
    out = sim.e_out.samples

    def lag_overlap(lag):
        ref = np.interp(t_ext - lag, grid.times(), env.samples.real,
                        left=0.0, right=0.0).astype(complex)
        den = np.sum(np.abs(out) ** 2) * np.sum(np.abs(ref) ** 2)
        return abs(np.sum(np.conj(out) * ref)) ** 2 / den

    assert lag_overlap(T) > lag_overlap(0.9 * T)
    assert lag_overlap(T) > lag_overlap(1.1 * T)

    mask = t_ext >= grid.t0 + T - 0.5 * grid.dt
    a, b = out[mask], np.interp(
        t_ext - T, grid.times(), env.samples.real,
        left=0.0, right=0.0).astype(complex)[mask]
    overlap = abs(np.sum(np.conj(a) * b)) ** 2 \
        / (np.sum(np.abs(a) ** 2) * np.sum(np.abs(b) ** 2))
    energy_ratio = np.trapezoid(np.abs(a) ** 2, dx=grid.dt)
    assert overlap > 0.999
    assert abs(energy_ratio - 0.81) < 1e-3


def test_06_square_pulse_decay_formula():
    """With spin decay, simulated square-pulse write efficiencies match
    the closed form to 1e-5 for C in {0.5, 1, 10, 100}, and sit at
    C/(C+1) within 1e-4 after ten rate constants."""
    gamma = 2 * np.pi * 5e4
    kappa = 1e7
    for C in (0.5, 1.0, 10.0, 100.0):
        p = CavityParams(kappa, gamma=gamma)
        g0 = np.sqrt(C * kappa * gamma)
        big_gamma = (C + 1.0) * gamma
        T = 10.0 / big_gamma
        grid = TimeGrid.from_span(-T, 0.0, 8001)
        g = Schedule.square(g0, -T, 0.0)
        e_in = optimal_write_input(g, p, grid)
        eta_sim = simulate_adiabatic(e_in, g, ZERO, p, grid).eta_w
        eta_law = square_pulse_efficiency(g0, T, p)
        assert abs(eta_sim - eta_law) < 1e-5
        assert abs(eta_sim - C / (C + 1.0)) < 1e-4


def test_07_detuning_compensation_restores_efficiency():
    """A phase-compensated input under 5 random tabulated detuning
    profiles recovers the zero-detuning write efficiency to 1e-6."""
    p = CavityParams(KAPPA)
    g = Schedule.gaussian(8e5, center=-1e-6, width=0.25e-6,
                          support=(-1.9e-6, -0.1e-6))
    grid = TimeGrid.from_span(-2e-6, 0.0, 20001)
    eta_base = simulate_adiabatic(optimal_write_input(g, p, grid), g, ZERO,
                                  p, grid).eta_w
    rng = np.random.default_rng(42)
    tt = np.linspace(-2e-6, 0.0, 121)
    for _ in range(5):
        prof = np.zeros(tt.size)
        for _ in range(4):
            prof += rng.uniform(-1, 1) * np.cos(
                2 * np.pi * rng.uniform(0.3, 3.0) * (tt / 2e-6)
                + rng.uniform(0, 2 * np.pi))
        delta = Schedule.tabulated(tt, 4e5 * prof)
        env = optimal_write_input(g, p, grid, delta=delta)
        eta = simulate_adiabatic(env, g, delta, p, grid).eta_w
        assert abs(eta - eta_base) < 1e-6


def test_08_propagation_solvers_cross_validate():
    """Kernel solution and marching integrator agree to 1e-3 on a
    200 x 200 grid; grid refinement shows order >= 1.8; under 60 s."""
    tic = time.perf_counter()
    theta_tot, z_max = 3.0, 1.0

    def bc_of(tau):
        return np.exp(-((tau - 0.8) ** 2) / (2 * 0.25 ** 2)) \
            * np.exp(0.3j * tau)

    def ic_of(z):
        return 0.4 * np.exp(-((z - 0.35) ** 2) / (2 * 0.12 ** 2))

    tau = np.linspace(0.0, theta_tot, 200)
    z = np.linspace(0.0, z_max, 200)
    fa = analytic_evolution(bc_of(tau), ic_of(z), tau, z)
    fn = numeric_evolution(bc_of(tau), ic_of(z), tau, z)
    scale = max(np.abs(fa.e).max(), np.abs(fa.s).max())
    err = max(np.abs(fa.e - fn.e).max(), np.abs(fa.s - fn.s).max()) / scale
    assert err < 1e-3

    ref_n = 801
    tau_ref = np.linspace(0.0, theta_tot, ref_n)
    z_ref = np.linspace(0.0, z_max, ref_n)
    ref = analytic_evolution(bc_of(tau_ref), ic_of(z_ref), tau_ref, z_ref)
    errs = []
    for n in (101, 201, 401):
        tau_n = np.linspace(0.0, theta_tot, n)
        z_n = np.linspace(0.0, z_max, n)
        f = numeric_evolution(bc_of(tau_n), ic_of(z_n), tau_n, z_n)
        stride = (ref_n - 1) // (n - 1)
        sub = ref.e[::stride, ::stride]
        errs.append(np.abs(f.e - sub).max() / np.abs(sub).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8
    assert time.perf_counter() - tic < 60.0


def test_09_depth_sweep_shapes():
    """Forward retrieval vs optical depth has an interior maximum;
    backward retrieval is non-decreasing and saturates strictly below
    one, lower still when the decay rate doubles. 15 depths in < 5 min."""
    tic = time.perf_counter()
    raw = yaml.safe_load(FREESPACE_PRESET.read_text())   # gamma = 50 kHz
    d_vals = np.round(np.geomspace(1.0, 150.0, 15), 3)
    _d, eta_fwd, eta_bwd = np.array(
        run_sweep(scenario_from_dict(raw), "d", d_vals).tables[0][2]).T

    i = int(np.argmax(eta_fwd))
    assert 0 < i < d_vals.size - 1
    assert eta_fwd[i] > eta_fwd[0]
    assert eta_fwd[i] > eta_fwd[-1]

    steps = np.diff(eta_bwd)
    assert np.all(steps > -1e-9)
    assert eta_bwd[-1] < 1.0 - 1e-3
    # saturation: growth per geometric step keeps decelerating
    assert steps[-1] < 0.1 * steps.max()
    assert eta_bwd[-1] - eta_bwd[-3] < 0.05 * eta_bwd[-1]

    raw["medium"]["gamma"] = "100 kHz"
    _d, _fwd, bwd2 = np.array(
        run_sweep(scenario_from_dict(raw), "d", d_vals[-3:]).tables[0][2]).T
    assert bwd2[-1] < eta_bwd[-1]
    assert time.perf_counter() - tic < 300.0


def test_10_conservation_suite():
    """Photon-flux continuity residual < 1e-6 on lossless cavity runs of
    both models; the propagation energy ledger closes to 1e-4."""
    p0 = CavityParams(KAPPA)

    g_wr = Schedule([s for s in
                     (Schedule.gaussian(7e5, center=-1e-6, width=0.2e-6,
                                        support=(-1.8e-6, -0.2e-6)).segments
                      + Schedule.gaussian(9e5, center=1e-6, width=0.25e-6,
                                          support=(0.2e-6, 1.8e-6)).segments)])
    grid = TimeGrid.from_span(-2e-6, 2e-6, 40001)
    e_opt = optimal_write_input(Schedule(g_wr.segments[:1]), p0, grid)
    runs = [simulate_adiabatic(e_opt, g_wr, ZERO, p0, grid)]

    g_full = Schedule.gaussian(4e5, center=0.0, width=0.3e-6,
                               support=(-1.5e-6, 1.5e-6))
    e_g = FieldEnvelope.gaussian(grid, center=-0.2e-6,
                                 width=0.25e-6).normalized()
    runs.append(simulate_full(e_g, g_full, ZERO, CavityParams(5e6), grid))

    g_read = Schedule.gaussian(8e5, center=0.8e-6, width=0.2e-6,
                               support=(0.0, 1.6e-6))
    grid_r = TimeGrid.from_span(0.0, 2e-6, 40001)
    runs.append(simulate_adiabatic(None, g_read, ZERO, p0, grid_r,
                                   sigma0=1.0))
    runs.append(simulate_full(None, g_read, ZERO, CavityParams(5e6), grid_r,
                              sigma0=1.0))
    for sim in runs:
        assert continuity_residual(sim) < 1e-6

    fs = {
        "model": "freespace-numeric",
        "grid": {"start": "-1 us", "stop": "2 us", "points": 3001},
        "coupling": [{"kind": "gaussian", "amplitude": "750 MHz_angular",
                      "center": "0 us", "sigma": "100 ns",
                      "support": ["-0.4 us", "0.4 us"]}],
        "input": {"kind": "gaussian", "center": "0.05 us", "sigma": "80 ns"},
        "medium": {"length": "1 cm", "gamma": "50 kHz"},
    }
    for gamma_str in ("50 kHz", "0 Hz_angular"):
        fs["medium"]["gamma"] = gamma_str
        rec = run_scenario(scenario_from_dict(fs))
        assert rec.diagnostics["normalization_drift"] < 1e-4
