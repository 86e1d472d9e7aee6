"""Input-pulse optimality, coupling synthesis, detuning compensation."""

import numpy as np
import pytest

from dipolemem import (CavityParams, FieldEnvelope, ParameterError,
                       Schedule, TimeGrid, cooperativity_from_depth,
                       effective_time, optimal_write_input,
                       simulate_adiabatic, square_pulse_efficiency,
                       synthesize_couplings, total_efficiency,
                       variational_optimize, write_efficiency_of)

KAPPA = 1e6
ZERO = Schedule.zero()
P0 = CavityParams(KAPPA)

ETA_TAU1 = 1.0 - np.exp(-2.0)    # optimum at unit effective time


def _unit_tau_square(span=2e-6):
    g0 = np.sqrt(KAPPA / span)
    return Schedule.square(g0, -span, 0.0), TimeGrid.from_span(-span, 0.0,
                                                               20001)


# ---------------------------------------------------------------------------
# the write functional
# ---------------------------------------------------------------------------

def test_optimal_square_hits_the_law():
    g, grid = _unit_tau_square()
    env = optimal_write_input(g, P0, grid)
    eta = write_efficiency_of(env, g, P0)
    assert abs(eta - ETA_TAU1) < 1e-9
    # growing exponential: strictly increasing magnitude on the window
    mag = np.abs(env.samples)
    assert np.all(np.diff(mag) > 0.0)


def test_functional_agrees_with_simulation():
    g = Schedule.gaussian(8e5, center=-0.9e-6, width=0.22e-6,
                          support=(-1.8e-6, -0.05e-6))
    grid = TimeGrid.from_span(-2e-6, 0.0, 40001)
    env = optimal_write_input(g, P0, grid)
    eta_k = write_efficiency_of(env, g, P0)
    res = simulate_adiabatic(env, g, ZERO, P0, grid)
    assert abs(eta_k - res.eta_w) < 1e-8


def test_reversed_optimum_is_suboptimal():
    g, grid = _unit_tau_square()
    env = optimal_write_input(g, P0, grid)
    reversed_env = FieldEnvelope(grid, env.samples[::-1].copy()).normalized()
    eta_rev = write_efficiency_of(reversed_env, g, P0)
    # overlap of e^{u-1} with its mirror e^{-u} on u in [0, 1]:
    # eta_rev = 4 e^{-2} / (1 - e^{-2})
    assert abs(eta_rev - 4.0 * np.exp(-2.0) / (1.0 - np.exp(-2.0))) < 1e-9
    assert eta_rev < ETA_TAU1


def test_orthogonal_input_stores_nothing():
    g, grid = _unit_tau_square()
    opt = optimal_write_input(g, P0, grid)
    r = np.random.default_rng(5)
    raw = r.standard_normal(grid.n) + 1j * r.standard_normal(grid.n)
    w = np.full(grid.n, grid.dt)
    w[0] = w[-1] = grid.dt / 2
    raw -= opt.samples * np.sum(w * np.conj(opt.samples) * raw)
    eta = write_efficiency_of(FieldEnvelope(grid, raw).normalized(), g, P0)
    assert eta < 1e-12


def test_zero_norm_input_rejected():
    g, grid = _unit_tau_square()
    with pytest.raises(ParameterError):
        write_efficiency_of(FieldEnvelope.zero(grid), g, P0)


# ---------------------------------------------------------------------------
# optimal_write_input corner cases
# ---------------------------------------------------------------------------

def test_decay_square_optimum_matches_closed_form():
    p = CavityParams(KAPPA, gamma=2 * np.pi * 2e4)
    span = 2e-6
    g0 = np.sqrt(KAPPA / span)
    g = Schedule.square(g0, -span, 0.0)
    grid = TimeGrid.from_span(-span, 0.0, 40001)
    env = optimal_write_input(g, p, grid)
    res = simulate_adiabatic(env, g, ZERO, p, grid)
    assert abs(res.eta_w - square_pulse_efficiency(g0, span, p)) < 1e-7


def _decay_gaussian(window_end=200e-6):
    """A Gaussian write window with decay, cooperativity 10 at its peak,
    on a 200 us grid of 20,001 points."""
    p = CavityParams(KAPPA, gamma=1e3)
    g = Schedule.gaussian(np.sqrt(10.0 * KAPPA * p.gamma), center=100e-6,
                          width=30e-6, support=(0.0, window_end))
    return g, p, TimeGrid.from_span(0.0, 200e-6, 20001)


def test_decay_with_shaped_coupling_meets_cauchy_schwarz():
    # the optimum stores the kernel norm ∫|k|^2 dt,
    # k = sqrt(2/kappa) g exp(R - R_end), R = tau + gamma (t - t0)
    g, p, grid = _decay_gaussian()
    t = grid.times()
    R = effective_time(g, p.kappa, grid) + p.gamma * (t - t[0])
    k2 = 2.0 / p.kappa * g.eval(t) ** 2 * np.exp(2.0 * (R - R[-1]))
    bound = np.trapezoid(k2, dx=grid.dt)
    env = optimal_write_input(g, p, grid)
    assert abs(write_efficiency_of(env, g, p) - bound) < 1e-12
    eta = simulate_adiabatic(env, g, ZERO, p, grid).eta_w
    assert abs(eta - bound) < 1e-8
    assert eta < 10.0 / 11.0                       # below C/(C+1)


def test_decay_with_shaped_coupling_beats_every_perturbation(rng):
    g, p, grid = _decay_gaussian()
    opt = optimal_write_input(g, p, grid)
    eta_opt = simulate_adiabatic(opt, g, ZERO, p, grid).eta_w
    w = np.full(grid.n, grid.dt)
    w[0] = w[-1] = grid.dt / 2
    eps = 1e-2
    for _ in range(20):
        pert = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        pert -= opt.samples * np.sum(w * np.conj(opt.samples) * pert)
        pert /= np.sqrt(np.sum(w * np.abs(pert) ** 2))
        bumped = FieldEnvelope(grid, opt.samples + eps * pert).normalized()
        assert simulate_adiabatic(bumped, g, ZERO, p, grid).eta_w < eta_opt


@pytest.mark.parametrize("gamma, center, width, window_end, span", [
    (1e3, 100e-6, 30e-6, 200e-6, 220e-6),   # ends between two samples
    (2.5e4, 1e-6, 0.3e-6, 1.9e-6, 2e-6),    # ends 0.1 us before the grid
], ids=["between-samples", "before-grid-end"])
def test_write_efficiency_is_read_at_the_window_end(gamma, center, width,
                                                    window_end, span):
    # the ledger, the optimum and write_efficiency_of share one write end,
    # the last grid sample of the first window (cooperativity 10 at the
    # peak of a Gaussian window, 20,001 points)
    p = CavityParams(KAPPA, gamma=gamma)
    g = Schedule.gaussian(np.sqrt(10.0 * KAPPA * gamma), center=center,
                          width=width, support=(0.0, window_end))
    grid = TimeGrid.from_span(0.0, span, 20001)
    env = optimal_write_input(g, p, grid)
    res = simulate_adiabatic(env, g, ZERO, p, grid)
    eta = write_efficiency_of(env, g, p)
    assert abs(res.eta_w - eta) <= 1e-7 * eta
    t = grid.times()
    i_w = int(np.searchsorted(t, window_end)) - 1
    assert t[i_w] < window_end < t[i_w + 1]
    assert res.write_end == t[i_w]


def test_whole_coupling_writes_with_its_first_window():
    kappa = 2 * np.pi * 20e6
    p = CavityParams(kappa)
    grid = TimeGrid.from_span(-2e-6, 2e-6, 40001)
    g = Schedule(
        Schedule.gaussian(1.8e7, center=-1e-6, width=0.22e-6,
                          support=(-1.9e-6, -0.1e-6)).segments
        + Schedule.gaussian(2.2e7, center=1e-6, width=0.25e-6,
                            support=(0.1e-6, 1.9e-6)).segments)
    g_w = Schedule(g.segments[:1])
    whole = optimal_write_input(g, p, grid)
    assert np.array_equal(whole.samples,
                          optimal_write_input(g_w, p, grid).samples)
    assert write_efficiency_of(whole, g, p) == write_efficiency_of(whole,
                                                                   g_w, p)


def test_no_write_window_is_an_error():
    grid = TimeGrid.from_span(-1e-6, 0.0, 101)
    with pytest.raises(ParameterError):
        optimal_write_input(ZERO, P0, grid)


# ---------------------------------------------------------------------------
# variational optimizer
# ---------------------------------------------------------------------------

def test_variational_recovers_closed_form():
    g, grid = _unit_tau_square()
    num = variational_optimize(g, None, P0, grid)
    tau = effective_time(g, KAPPA, grid)
    ana = FieldEnvelope(grid, (g.eval(grid.times())
                               * np.exp(tau - tau[-1])).astype(complex))
    ana = ana.normalized()
    w = np.full(grid.n, grid.dt)
    w[0] = w[-1] = grid.dt / 2
    overlap = abs(np.sum(w * np.conj(num.samples) * ana.samples))
    assert overlap > 1.0 - 1e-8


def test_variational_constant_detuning():
    """A constant detuning only chirps the optimum; the achieved
    efficiency is unchanged."""
    g, grid = _unit_tau_square()
    d0 = 3e5
    delta = Schedule.square(d0, -2e-6, 0.0)
    num = variational_optimize(g, delta, P0, grid)
    eta = simulate_adiabatic(num, g, delta, P0, grid).eta_w
    assert abs(eta - ETA_TAU1) < 1e-6
    # phase profile: conj-chirp of the flat optimum
    ana = optimal_write_input(g, P0, grid)
    t = grid.times()
    chirped = ana.samples * np.exp(-1j * d0 * (t - t[-1]))
    w = np.full(grid.n, grid.dt)
    w[0] = w[-1] = grid.dt / 2
    overlap = abs(np.sum(w * np.conj(num.samples) * chirped))
    assert overlap > 1.0 - 1e-8


def test_every_orthogonal_perturbation_hurts(rng):
    g, grid = _unit_tau_square()
    opt = optimal_write_input(g, P0, grid)
    eta_opt = write_efficiency_of(opt, g, P0)
    w = np.full(grid.n, grid.dt)
    w[0] = w[-1] = grid.dt / 2
    eps = 1e-3
    for _ in range(100):
        pert = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        pert -= opt.samples * np.sum(w * np.conj(opt.samples) * pert)
        pert /= np.sqrt(np.sum(w * np.abs(pert) ** 2))
        bumped = FieldEnvelope(grid, opt.samples + eps * pert).normalized()
        assert write_efficiency_of(bumped, g, P0) < eta_opt


# ---------------------------------------------------------------------------
# coupling synthesis
# ---------------------------------------------------------------------------

def test_synthesis_effective_time_matches_target():
    grid = TimeGrid.from_span(-0.5e-6, 0.5e-6, 80001)
    e_in = FieldEnvelope.gaussian(grid, center=0.0, width=0.1e-6).normalized()
    gw, _ = synthesize_couplings(e_in, 1.5e-6, 0.9, 0.9, P0)
    tau_w = effective_time(gw, KAPPA, grid)[-1]
    assert abs(tau_w - (-0.5 * np.log(1.0 - 0.9))) < 1e-8


def test_synthesis_constant_envelope_closed_form():
    T0 = 1e-6
    eta = 0.75
    grid = TimeGrid.from_span(-T0, 0.0, 20001)
    e_in = FieldEnvelope(grid, np.full(grid.n, 1.0 / np.sqrt(T0),
                                       dtype=complex))
    gw, gr = synthesize_couplings(e_in, 3e-6, eta, 0.5, P0)
    t = grid.times()
    expect = np.sqrt(KAPPA * eta
                     / (2.0 * T0 * (1.0 - eta + eta * (t + T0) / T0)))
    np.testing.assert_allclose(gw.eval(t), expect, rtol=1e-10)
    assert np.all(gw.eval(t) >= 0.0) and np.all(gr.eval(t + 3e-6) >= 0.0)


def test_synthesis_validates_targets():
    grid = TimeGrid.from_span(-0.5e-6, 0.5e-6, 2001)
    e_in = FieldEnvelope.gaussian(grid, center=0.0, width=0.1e-6).normalized()
    for bad_w, bad_r in ((1.0, 0.5), (0.0, 0.5), (0.5, 1.2), (-0.1, 0.5)):
        with pytest.raises(ParameterError):
            synthesize_couplings(e_in, 1e-6, bad_w, bad_r, P0)
    with pytest.raises(ParameterError):
        synthesize_couplings(e_in, 0.0, 0.5, 0.5, P0)
    with pytest.raises(ParameterError):
        synthesize_couplings(FieldEnvelope(grid, 2.0 * e_in.samples),
                             1e-6, 0.5, 0.5, P0)


# ---------------------------------------------------------------------------
# detuning compensation
# ---------------------------------------------------------------------------

def test_tabulated_detuning_compensation(rng):
    g = Schedule.gaussian(8e5, center=-1e-6, width=0.25e-6,
                          support=(-1.9e-6, -0.1e-6))
    grid = TimeGrid.from_span(-2e-6, 0.0, 20001)
    base = simulate_adiabatic(optimal_write_input(g, P0, grid), g, ZERO,
                              P0, grid).eta_w
    tt = np.linspace(-2e-6, 0.0, 101)
    for _ in range(2):
        prof = np.zeros(101)
        for _ in range(4):
            prof += rng.uniform(-1, 1) * np.cos(
                2 * np.pi * rng.uniform(0.3, 3.0) * (tt / 2e-6)
                + rng.uniform(0, 2 * np.pi))
        delta = Schedule.tabulated(tt, 4e5 * prof)
        env = optimal_write_input(g, P0, grid, delta=delta)
        eta = simulate_adiabatic(env, g, delta, P0, grid).eta_w
        assert abs(eta - base) < 1e-6


def test_compensation_is_a_pure_phase():
    # the detuned optimum is the undetuned one times a phase that is zero
    # at the end of the write window
    g, p, grid = _decay_gaussian(window_end=180e-6)
    delta = Schedule.piecewise_linear([0.0, 100e-6, 200e-6], [2e4, -1e4, 3e4])
    base = optimal_write_input(g, p, grid)
    out = optimal_write_input(g, p, grid, delta=delta)
    np.testing.assert_allclose(np.abs(out.samples), np.abs(base.samples),
                               rtol=1e-12, atol=0.0)
    assert not np.all(out.samples.imag == 0.0)
    assert np.all(base.samples.imag == 0.0)
    i_end = int(np.flatnonzero(g.eval(grid.times()))[-1])
    assert np.angle(out.samples[i_end]) == 0.0


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

def test_total_efficiency_values():
    assert abs(total_efficiency(1.0, 1.0) - (1 - np.exp(-2)) ** 2) < 1e-15
    assert total_efficiency(0.0, 3.0) == 0.0
    assert abs(total_efficiency(40.0, 40.0) - 1.0) < 1e-12
    with pytest.raises(ParameterError):
        total_efficiency(-0.1, 1.0)


def test_cooperativity_from_depth_values():
    C, bound = cooperativity_from_depth(1.0, 100.0)
    assert C == 100.0 and abs(bound - 100.0 / 101.0) < 1e-15
    assert cooperativity_from_depth(0.0, 50.0) == (0.0, 0.0)
    C1, b1 = cooperativity_from_depth(1.0, 1.0)
    assert C1 == 1.0 and b1 == 0.5
    with pytest.raises(ParameterError):
        cooperativity_from_depth(-1.0, 10.0)
    with pytest.raises(ParameterError):
        cooperativity_from_depth(1.0, 0.0)
