"""Cavity memory dynamics: read/write efficiencies, continuity, decay."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolemem import (CavityParams, FieldEnvelope, ParameterError, Schedule,
                       SquareSegment, StabilityError, TimeGrid, continuity_residual,
                       effective_fields, effective_time, optimal_write_input,
                       read_analytic, simulate_adiabatic, simulate_full,
                       square_pulse_efficiency)
from dipolemem import cavity
from dipolemem.cavity import (_CHUNK, _MAP_CHUNK, _RADIX, _affine_scan,
                              _rk4_maps)

KAPPA = 1e6
ZERO = Schedule.zero()


def _read_run(g, grid, p=None, model="adiabatic"):
    p = p or CavityParams(KAPPA)
    sim = simulate_adiabatic if model == "adiabatic" else simulate_full
    return sim(None, g, ZERO, p, grid, sigma0=1.0)


# ---------------------------------------------------------------------------
# retrieval law
# ---------------------------------------------------------------------------

def test_read_decay_law_gaussian_coupling():
    g = Schedule.gaussian(9e5, center=1e-6, width=0.3e-6, support=(0.0, 2e-6))
    grid = TimeGrid.from_span(0.0, 2e-6, 20001)
    tau_r = effective_time(g, KAPPA, grid)[-1]
    res = _read_run(g, grid)
    assert abs(res.output_energy - (1.0 - np.exp(-2.0 * tau_r))) < 1e-10
    # the closed-form read meets the law to rounding through the ledger
    ana = read_analytic(1.0, g, CavityParams(KAPPA), grid)
    assert abs(ana.eta_r - (1.0 - np.exp(-2.0 * tau_r))) < 1e-15


@given(st.floats(0.1, 3.5), st.floats(0.08, 0.3))
@settings(max_examples=20)
def test_read_efficiency_depends_only_on_tau(tau_target, rel_width):
    """Couplings of very different shape but equal effective time
    retrieve with the same efficiency."""
    span = 2e-6
    grid_sq = TimeGrid.from_span(0.0, span, 8001)
    g_sq = Schedule.square(np.sqrt(tau_target * KAPPA / span), 0.0, span)
    grid_ga = TimeGrid.from_span(0.0, span, 8001)
    w = rel_width * span
    ga0 = Schedule.gaussian(1.0, center=span / 2, width=w, support=(0.0, span))
    scale = np.sqrt(tau_target / effective_time(ga0, KAPPA, grid_ga)[-1])
    g_ga = Schedule.gaussian(scale, center=span / 2, width=w,
                             support=(0.0, span))
    eta_sq = _read_run(g_sq, grid_sq).eta_r
    eta_ga = _read_run(g_ga, grid_ga).eta_r
    assert abs(eta_sq - eta_ga) < 1e-8


def test_read_analytic_matches_simulation():
    g = Schedule.gaussian(8e5, center=0.8e-6, width=0.2e-6,
                          support=(0.0, 2e-6))
    grid = TimeGrid.from_span(0.0, 2e-6, 8001)
    p = CavityParams(KAPPA, gamma=2 * np.pi * 3e4)
    ana = read_analytic(1.0, g, p, grid)
    num = simulate_adiabatic(None, g, ZERO, p, grid, sigma0=1.0)
    np.testing.assert_allclose(num.sigma, ana.sigma, atol=1e-9)
    assert abs(num.eta_r - ana.eta_r) < 1e-9


def test_square_pulse_efficiency_asymptote():
    p = CavityParams(KAPPA, gamma=1e4)
    C = 8.0
    g0 = np.sqrt(C * KAPPA * p.gamma)
    eta_inf = square_pulse_efficiency(g0, 1.0, p)   # effectively t -> inf
    assert abs(eta_inf - C / (C + 1.0)) < 1e-12
    assert square_pulse_efficiency(0.0, 1e-6, p) == 0.0
    with pytest.raises(ParameterError):
        square_pulse_efficiency(-1.0, 1e-6, p)


# ---------------------------------------------------------------------------
# continuity / conservation
# ---------------------------------------------------------------------------

_RAMP = Schedule.piecewise_linear([-2e-6, 0.0, 2e-6], [3e5, -2e5, 1e5])


def test_continuity_residual_adiabatic_write_read():
    g = Schedule([s for s in
                  (Schedule.gaussian(7e5, center=-1e-6, width=0.2e-6,
                                     support=(-1.8e-6, -0.2e-6)).segments
                   + Schedule.gaussian(9e5, center=1e-6, width=0.25e-6,
                                       support=(0.2e-6, 1.8e-6)).segments)])
    grid = TimeGrid.from_span(-2e-6, 2e-6, 40001)
    # without and with spin decay (the -2 gamma |sigma|^2 term) and a
    # detuning ramp, which turns sigma's phase only
    for p, delta in ((CavityParams(KAPPA), ZERO),
                     (CavityParams(KAPPA, gamma=5e4), _RAMP)):
        e_in = optimal_write_input(Schedule(g.segments[:1]), p, grid,
                                   delta=delta)
        res = simulate_adiabatic(e_in, g, delta, p, grid)
        assert continuity_residual(res) < 1e-6


def test_continuity_residual_full_model():
    g = Schedule.gaussian(4e5, center=0.0, width=0.3e-6,
                          support=(-1.5e-6, 1.5e-6))
    grid = TimeGrid.from_span(-2e-6, 2e-6, 40001)
    e_in = FieldEnvelope.gaussian(grid, center=-0.2e-6, width=0.25e-6)
    for p, delta in ((CavityParams(5e6), ZERO),
                     (CavityParams(5e6, gamma=5e4), _RAMP)):
        res = simulate_full(e_in.normalized(), g, delta, p, grid)
        assert continuity_residual(res) < 1e-6


def test_continuity_residual_with_edges_between_samples():
    """Window edges a third or two thirds of a step off the grid: the
    residual skips the samples at and next to each window's first and
    last sample, and nowhere else exceeds the bound."""
    grid = TimeGrid.from_span(-2e-6, 2e-6, 4001)
    a, b = -1.7e-6 + grid.dt / 3, -0.3e-6 - grid.dt / 3
    c, d = 0.4e-6 + 2 * grid.dt / 3, 1.6e-6 + grid.dt / 3
    g = Schedule([SquareSegment(a, b, np.sqrt(KAPPA / (b - a))),
                  SquareSegment(c, d, np.sqrt(0.8 * KAPPA / (d - c)))])
    assert g.windows(grid) == [(301, 1699), (2401, 3600)]
    for gamma in (0.0, 5e4):
        p = CavityParams(KAPPA, gamma=gamma)
        e_in = optimal_write_input(Schedule(g.segments[:1]), p, grid)
        for sim in (simulate_adiabatic, simulate_full):
            res = sim(e_in, g, ZERO, p, grid)
            assert continuity_residual(res) < 1e-6


def _read_output_ratio(res):
    """The read output over the energy stored at the read start, spin
    and cavity field together."""
    i_r = round((res.read_start - res.grid.t0) / res.grid.dt)
    out = np.trapezoid(np.abs(res.e_out.samples[i_r:]) ** 2, dx=res.grid.dt)
    return out / (np.abs(res.sigma[i_r]) ** 2 + np.abs(res.e_cav[i_r]) ** 2)


@pytest.mark.parametrize("write, bound", [(False, 3e-9), (True, 1e-7)])
def test_full_model_read_continuity_matches_read_output(write, bound):
    """The full model's continuity eta_r against the read output over
    the stored excitation, for a pure read and a write then read; both
    are second order in the step, so doubling the points cuts their
    difference fourfold."""
    p = CavityParams(KAPPA, gamma=5e4)
    g_w = Schedule.square(np.sqrt(KAPPA / 2e-6), -2e-6, 0.0)
    g_r = Schedule.gaussian(9e5, center=1e-6, width=0.25e-6,
                            support=(0.2e-6, 1.8e-6))
    diffs = []
    for n in (12345, 24689):
        grid = TimeGrid.from_span(-2e-6, 2e-6, n)
        if write:
            e_in = optimal_write_input(g_w, p, grid)
            res = simulate_full(e_in, Schedule(g_w.segments + g_r.segments),
                                ZERO, p, grid)
        else:
            res = simulate_full(None, g_r, ZERO, p, grid, sigma0=1.0)
        diffs.append(abs(res.eta_r - _read_output_ratio(res)))
    assert diffs[0] < bound
    assert 3.5 < diffs[0] / diffs[1] < 4.5


def test_full_model_eta_r_is_a_share_of_the_stored_energy():
    """A slow cavity (kappa = 1e6) still holds 740 times |sigma|^2 of
    light when the read starts 10 ns after the write; eta_r counts the
    read's release against all of that stored energy, so it stays in
    (0, 1]."""
    p = CavityParams(KAPPA)
    grid = TimeGrid.from_span(-2e-6, 2e-6, 40001)
    g = Schedule([SquareSegment(-2e-6, 0.0, 1e5),
                  SquareSegment(10e-9, 2e-6, 7.1e5)])
    e_in = FieldEnvelope.gaussian(grid, -0.3e-6, 0.2e-6).normalized()
    res = simulate_full(e_in, g, ZERO, p, grid)
    i_r = round((res.read_start - grid.t0) / grid.dt)
    assert abs(res.e_cav[i_r]) ** 2 > 100.0 * abs(res.sigma[i_r]) ** 2
    assert 0.0 < res.eta_r <= 1.0


def test_slaved_models_carry_no_cavity_field():
    g = Schedule.square(8e5, 0.0, 1e-6)
    grid = TimeGrid.from_span(0.0, 1e-6, 1001)
    assert _read_run(g, grid).e_cav is None
    assert read_analytic(1.0, g, CavityParams(KAPPA), grid).e_cav is None
    assert _read_run(g, grid, model="full").e_cav.shape == (grid.n,)


def test_energy_bound_with_decay():
    """input = stored + leaked + decayed, with the write window covering
    the whole grid."""
    gamma = 2 * np.pi * 5e4
    p = CavityParams(KAPPA, gamma=gamma)
    grid = TimeGrid.from_span(-2e-6, 0.0, 20001)
    g = Schedule.square(8e5, -2e-6, 0.0)
    e_in = optimal_write_input(g, p, grid)
    res = simulate_adiabatic(e_in, g, ZERO, p, grid)
    balance = res.eta_w + res.leakage + res.decay / res.input_energy
    assert abs(balance - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# integrator core
# ---------------------------------------------------------------------------

def _sequential_scan(D, v, x0):
    x = [np.asarray(x0, dtype=complex).reshape(-1, 1)]
    for k in range(v.shape[-1]):
        x.append(x[-1] + D[:, :, k] @ x[-1] + v[:, :, k])
    return np.concatenate(x, axis=1)


def _scan(D, v, x0):
    """The states of the maps D, v from x0 by `_affine_scan`, which works
    in place on D and on a table holding x0 and then v."""
    x0 = np.asarray(x0, dtype=complex).reshape(-1, 1)
    return _affine_scan(D, np.concatenate([x0, v[:, 0]], axis=1))


def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 960, 961, 962,
                               10 ** 3 - 1, 10 ** 3, 10 ** 3 + 1, 100_003]
                         + [_RADIX ** k + e for k in (4, 5)
                            for e in (-1, 0, 1)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1.0 + 1e-4])
def test_affine_scan_matches_sequential_loop(d, n, scale):
    """Blocked scan against the step-by-step recurrence.  Below 64 steps
    the scan is the step loop itself; above, blocks are _RADIX steps long
    at every level and the block ends are scanned recursively.  So the
    sizes sit on the base-case cutoff, on powers r^4 and r^5 of the radix
    (whole blocks at every level), on 960 and 10^3, one step to either
    side of each, and at many recursion levels (100,003).  The
    maps are scale times a random unitary: 1e-3 decays the running
    products past underflow, 1 + 1e-4 grows the state by up to e^10.
    The reference runs first: the scan overwrites D."""
    rng = np.random.default_rng(n + d)
    z = _random_complex(rng, n, d, d)
    M = np.moveaxis(scale * np.linalg.qr(z)[0], 0, -1)
    D = M - np.eye(d)[:, :, None]
    v = _random_complex(rng, d, 1, n)
    x0 = _random_complex(rng, d)
    ref = _sequential_scan(D, v, x0)
    x = _scan(D, v, x0)
    assert x.shape == (d, n + 1)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("d", [1, 2])
def test_rk4_maps_are_the_textbook_four_stage_step(d):
    """The affine maps against classical RK4 written stage by stage: J
    and f at t, t + h/2 (both middle stages) and t + h.  D is the step
    of the homogeneous equation applied to I, minus I; v is the step of
    the full equation applied to the zero state."""
    rng = np.random.default_rng(d)
    n, h = 50, 0.05
    j, jm = _random_complex(rng, d, d, n + 1), _random_complex(rng, d, d, n)
    f, fm = _random_complex(rng, d, 1, n + 1), _random_complex(rng, d, 1, n)
    D, v = _rk4_maps(j, jm, f, fm, h)
    assert D.shape == (d, d, n) and v.shape == (d, 1, n)

    def step(x, k, src):                # x + h/6 (k1 + 2 k2 + 2 k3 + k4)
        j1, jh, j4 = j[..., k], jm[..., k], j[..., k + 1]
        f1, fh, f4 = src * f[..., k], src * fm[..., k], src * f[..., k + 1]
        k1 = j1 @ x + f1
        k2 = jh @ (x + 0.5 * h * k1) + fh
        k3 = jh @ (x + 0.5 * h * k2) + fh
        k4 = j4 @ (x + h * k3) + f4
        return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    D_ref = np.stack([step(np.eye(d), k, 0.0) - np.eye(d) for k in range(n)],
                     axis=-1)
    v_ref = np.stack([step(np.zeros((d, 1)), k, 1.0) for k in range(n)],
                     axis=-1)
    assert np.abs(D - D_ref).max() <= 1e-14 * np.abs(D_ref).max()
    assert np.abs(v - v_ref).max() <= 1e-14 * np.abs(v_ref).max()


@pytest.mark.parametrize("d, n", [(1, 100_000), (2, 40_000)])
def test_affine_scan_peak_memory_is_bounded(d, n):
    """The scan works in place on the maps and the state table: its
    traced peak (its step products over whole recursion levels) stays
    within a quarter of the tables it is given."""
    rng = np.random.default_rng(d)
    D = 1e-3 * _random_complex(rng, d, d, n)
    x = _random_complex(rng, d, n + 1)
    tracemalloc.start()
    try:
        _affine_scan(D, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * (D.nbytes + x.nbytes)


@pytest.mark.parametrize("d, n", [(1, 100_000), (2, 40_000)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_affine_scan_holds_one_step_product_at_a_time(d, n, dtype):
    """The block ends are scanned in place as strided views of the
    tables, never copied: the traced peak is one step product over the
    blocks of the top level, d^2 n / _RADIX entries, and a few kB of
    views and Python objects."""
    rng = np.random.default_rng(d)
    D = 1e-3 * rng.normal(size=(d, d, n)).astype(dtype)
    x = rng.normal(size=(d, n + 1)).astype(dtype)
    tracemalloc.start()
    try:
        _affine_scan(D, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= D.itemsize * d * d * (n // _RADIX) + 8192


def _chunk_boundaries(chunk):
    return [chunk - 1, chunk, chunk + 1, 2 * chunk + 1]


@pytest.mark.parametrize("n, d", [
    (n, d) for d in (1, 2)
    for n in sorted(set(_chunk_boundaries(_CHUNK)
                        + _chunk_boundaries(_MAP_CHUNK // (d * d))))])
def test_chunked_map_build_matches_one_whole_array_scan(n, d):
    """simulate_adiabatic (d = 1) and simulate_full (d = 2) build their
    RK4 maps _MAP_CHUNK / d^2 steps at a time.  Their states equal, bit
    for bit, one scan of maps built from whole-array tables, written here
    as the models define J and f, for step counts on either side of one
    and two chunks of each model, and of _CHUNK steps.  The write has an
    input, decay and a detuning that covers part of the grid."""
    p = CavityParams(KAPPA, 1e4)
    grid = TimeGrid(0.0, 5e-8, n + 1)
    span = grid.t_end
    g = Schedule.gaussian(3e5, 0.5 * span, 0.2 * span)
    delta = Schedule.square(2e5, 0.3 * span, 0.7 * span)
    rng = np.random.default_rng(n + d)
    e_in = FieldEnvelope(grid, _random_complex(rng, grid.n))
    t = grid.times()
    tm = t[:-1] + 0.5 * grid.dt
    gv, gm, dv, dm = g.eval(t), g.eval(tm), delta.eval(t), delta.eval(tm)
    s = e_in.samples
    s_m = 0.5 * (s[:-1] + s[1:])
    if d == 1:
        drive = 1j * np.sqrt(2.0 / p.kappa)
        loss, loss_m = (p.gamma + gv * gv / p.kappa,
                        p.gamma + gm * gm / p.kappa)
        tables = [x[None, None] for x in (-(1j * dv + loss),
                                          -(1j * dm + loss_m),
                                          drive * gv * s, drive * gm * s_m)]
        x0 = 0.3 - 0.2j
        res = simulate_adiabatic(e_in, g, delta, p, grid, sigma0=x0)
        states = res.sigma[None]
    else:
        def model(gg, dd, ss):
            j = np.empty((2, 2) + gg.shape, dtype=complex)
            j[0, 0], j[1, 1] = -(1j * dd + p.gamma), -p.kappa
            j[0, 1] = j[1, 0] = 1j * gg
            f = np.zeros((2, 1) + ss.shape, dtype=complex)
            f[1, 0] = np.sqrt(2.0 * p.kappa) * ss
            return j, f

        (j, f), (jm, fm) = model(gv, dv, s), model(gm, dm, s_m)
        tables = [j, jm, f, fm]
        x0 = [0.3 - 0.2j, 0.0]
        res = simulate_full(e_in, g, delta, p, grid, sigma0=x0[0])
        states = np.stack([res.sigma, res.e_cav])
    ref = _scan(*_rk4_maps(*tables, grid.dt), x0)
    assert states.tobytes() == ref.tobytes()


def _record_table_dtypes(monkeypatch):
    """The dtype of every `_solve` call's tables (that of its x0), in
    call order."""
    dtypes = []
    solve = cavity._solve

    def recording(n, d, h, coefficients, x0):
        dtypes.append(x0.dtype)
        return solve(n, d, h, coefficients, x0)

    monkeypatch.setattr(cavity, "_solve", recording)
    return dtypes


@pytest.mark.parametrize("model", ["adiabatic", "full"])
@pytest.mark.parametrize("unit", [1.0, 1j], ids=["p=1", "p=i"])
def test_float_tables_match_complex_tables_bit_for_bit(monkeypatch, model,
                                                       unit):
    """Without detuning, an input on the line p R and sigma0 on i p R
    make a run one real system: it is solved on float tables and scaled
    by its unit phase.  The same run forced onto complex tables gives
    the same bits in sigma, E_cav and E_out, with decay, an input and
    sigma0 together, over two chunks of steps."""
    p = CavityParams(KAPPA, 1e4)
    grid = TimeGrid(0.0, 5e-8, 2 * _CHUNK + 2)
    g = Schedule.gaussian(3e5, 0.5 * grid.t_end, 0.2 * grid.t_end)
    rng = np.random.default_rng(7)
    e_in = FieldEnvelope(grid, unit * rng.normal(size=grid.n))
    sim = simulate_adiabatic if model == "adiabatic" else simulate_full
    dtypes = _record_table_dtypes(monkeypatch)
    real = sim(e_in, g, ZERO, p, grid, sigma0=0.3j * unit)
    monkeypatch.setattr(cavity, "_real_system",
                        lambda dv, dm, s_in, sigma0: (None, s_in))
    ref = sim(e_in, g, ZERO, p, grid, sigma0=0.3j * unit)
    assert dtypes == [np.dtype(float), np.dtype(complex)]
    pairs = [(real.sigma, ref.sigma), (real.e_out.samples, ref.e_out.samples)]
    if model == "full":
        pairs.append((real.e_cav, ref.e_cav))
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert real.eta_w == ref.eta_w and real.eta_r == ref.eta_r


@pytest.mark.parametrize("model", ["adiabatic", "full"])
def test_which_runs_get_float_tables(monkeypatch, model):
    """A run is solved on float tables only where its data make it one
    real system: no detuning, the input on a line p R (p = 1 or i) and
    sigma0 on i p R.  The optimal-input write and the sigma = 1 read
    qualify; a detuning, an input with both parts live, or a sigma0 off
    i p R keep complex tables."""
    p = CavityParams(KAPPA, 1e3)
    grid = TimeGrid.from_span(-2e-6, 0.0, 2001)
    g = Schedule.square(np.sqrt(KAPPA / 2e-6), -2e-6, 0.0)
    delta = Schedule.square(1e5, -1.5e-6, -0.5e-6)
    e_opt = optimal_write_input(g, p, grid)
    gauss = FieldEnvelope.gaussian(grid, -1e-6, 2e-7)
    both = FieldEnvelope(grid, (1.0 + 1.0j) * gauss.samples)
    cases = {
        "detuned write": (optimal_write_input(g, p, grid, delta), delta, 0.0),
        "input with both parts live": (both, ZERO, 0.0),
        "sigma0 on the input's own line": (e_opt, ZERO, 0.5),
        "sigma0 on neither line": (e_opt, ZERO, 0.5 + 0.5j),
        "optimal-input write": (e_opt, ZERO, 0.0),
        "sigma = 1 read": (None, ZERO, 1.0),
        "imaginary input, sigma0 on its i-line": (
            FieldEnvelope(grid, -1j * gauss.samples), ZERO, 0.5),
    }
    sim = simulate_adiabatic if model == "adiabatic" else simulate_full
    dtypes = _record_table_dtypes(monkeypatch)
    for e_in, det, sigma0 in cases.values():
        sim(e_in, g, det, p, grid, sigma0=sigma0)
    assert dict(zip(cases, (dt.kind for dt in dtypes))) == {
        "detuned write": "c",
        "input with both parts live": "c",
        "sigma0 on the input's own line": "c",
        "sigma0 on neither line": "c",
        "optimal-input write": "f",
        "sigma = 1 read": "f",
        "imaginary input, sigma0 on its i-line": "f",
    }


def test_adiabatic_solve_holds_at_most_eight_grid_arrays():
    """A 100,001-point detuned write with decay, output and ledger
    included, peaks at no more than 8 complex arrays of the grid: the
    maps are built in chunks and the scan works in place."""
    grid = TimeGrid.from_span(-2e-6, 0.0, 100_001)
    g = Schedule.square(np.sqrt(KAPPA / 2e-6), -2e-6, 0.0)
    delta = Schedule.square(1e5, -1.5e-6, -0.5e-6)
    p = CavityParams(KAPPA, 1e3)
    e_in = optimal_write_input(g, p, grid, delta)
    tracemalloc.start()
    try:
        simulate_adiabatic(e_in, g, delta, p, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * grid.n


# ---------------------------------------------------------------------------
# adiabatic elimination quality
# ---------------------------------------------------------------------------

def test_full_model_converges_to_adiabatic_law():
    """Error against the effective-time law falls off at least linearly
    in the small parameter (g/kappa)^2."""
    tt = np.linspace(0.0, 2e-6, 4001)
    prof = np.exp(-((tt - 1e-6) ** 2) / (2 * (0.3e-6) ** 2))
    prof *= np.clip(tt / 1e-7, 0, 1) * np.clip((2e-6 - tt) / 1e-7, 0, 1)
    W = np.trapezoid(prof ** 2, tt)
    tau_r = 1.0
    errs, mus = [], []
    for m in (12.0, 24.0, 48.0):
        gpk = tau_r * m / W
        kap = m * gpk
        g = Schedule.tabulated(tt, gpk * prof)
        n = max(20001, int(np.ceil(2e-6 * kap / 0.05)) + 1)
        grid = TimeGrid.from_span(0.0, 2e-6, n)
        tau_end = effective_time(g, kap, grid)[-1]
        target = 1.0 - np.exp(-2.0 * tau_end)
        res = _read_run(g, grid, p=CavityParams(kap), model="full")
        errs.append(abs(res.output_energy - target))
        mus.append(1.0 / (m * m))
    order = np.polyfit(np.log(mus), np.log(errs), 1)[0]
    assert order >= 0.9
    assert errs[-1] < errs[0] / 10.0


# ---------------------------------------------------------------------------
# effective-time equation of motion
# ---------------------------------------------------------------------------

def test_effective_time_dynamics():
    """In (tau, scaled-field) variables the write stage obeys
    dsigma/dtau = -sigma + i sqrt(2) E_in."""
    p = CavityParams(KAPPA)
    grid = TimeGrid.from_span(-2e-6, 0.0, 40001)
    g = Schedule.gaussian(8e5, center=-1e-6, width=0.25e-6,
                          support=(-1.9e-6, -0.1e-6))
    e_in = optimal_write_input(g, p, grid)
    res = simulate_adiabatic(e_in, g, ZERO, p, grid)
    eff = effective_fields(e_in, g, KAPPA)
    core = g.eval(grid.times()) > 0.05 * g.max_abs()
    tau, sig, ein = res.tau[core], res.sigma[core], eff.values[core]
    dsig = np.gradient(sig, tau, edge_order=2)
    resid = np.abs(dsig + sig - 1j * np.sqrt(2.0) * ein)
    scale = np.abs(ein).max()
    assert resid.max() / scale < 1e-3


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_stability_guard_trips():
    grid = TimeGrid.from_span(0.0, 1e-3, 101)    # dt = 1e-5 s, far too coarse
    g = Schedule.square(1e6, 0.0, 1e-3)
    with pytest.raises(StabilityError):
        simulate_adiabatic(None, g, ZERO, CavityParams(KAPPA), grid,
                           sigma0=1.0)
    with pytest.raises(StabilityError):
        simulate_full(None, g, ZERO, CavityParams(KAPPA), grid, sigma0=1.0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        CavityParams(-1.0)
    with pytest.raises(ParameterError):
        CavityParams(1e6, gamma=-1.0)
    with pytest.raises(ParameterError):
        CavityParams(1e6).cooperativity(1e5)
    grid = TimeGrid.from_span(0.0, 1e-6, 101)
    with pytest.raises(ParameterError):
        simulate_adiabatic(None, Schedule.square(-1e5, 0.0, 1e-6), ZERO,
                           CavityParams(KAPPA), grid, sigma0=1.0)
