"""Propagating-medium solvers, kernels, transforms, depth sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from dipolemem import (FieldEnvelope, FreeSpaceTransform, GaussianSegment,
                       MediumParams, ParameterError, ResolutionError,
                       Schedule, SingularTransformError, TimeGrid,
                       analytic_evolution, entire_bessel_kernel,
                       numeric_evolution, reduced_continuity_residual,
                       storage_retrieval_sweep, thin_medium_cavity_coupling)
from dipolemem.freespace import (_kernel_series, _window_theta_map,
                                 theta_nodes)
from dipolemem.schedules import cumtrapz0, effective_fields, effective_time

GAMMA = 2 * np.pi * 5e4


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernels_match_bessel_forms():
    a = np.array([-100.0, -25.0, -3.0, -0.37, 0.0, 0.4, 7.0, 40.0])
    neg, pos = a < 0, a > 0
    want0 = np.empty_like(a)
    want1 = np.empty_like(a)
    want0[neg] = special.j0(2 * np.sqrt(-a[neg]))
    want0[pos] = special.i0(2 * np.sqrt(a[pos]))
    want1[neg] = special.j1(2 * np.sqrt(-a[neg])) / np.sqrt(-a[neg])
    want1[pos] = special.i1(2 * np.sqrt(a[pos])) / np.sqrt(a[pos])
    want0[a == 0] = 1.0
    want1[a == 0] = 1.0
    np.testing.assert_allclose(entire_bessel_kernel(a, 0), want0, rtol=1e-12)
    np.testing.assert_allclose(entire_bessel_kernel(a, 1), want1, rtol=1e-12)


def _k1_prime_series(a: float) -> float:
    # termwise derivative of sum a^k / (k! (k+1)!)
    total = 0.0
    for k in range(1, 80):
        total += k * a ** (k - 1) / (math.factorial(k)
                                     * math.factorial(k + 1))
    return total


def test_kernel_derivative_identity(rng):
    """The two kernel orders are tied: k0(a) = k1(a) + a k1'(a)."""
    a = rng.uniform(-25.0, 25.0, size=20)
    k0 = entire_bessel_kernel(a, 0)
    k1 = entire_bessel_kernel(a, 1)
    k1p = np.array([_k1_prime_series(v) for v in a])
    resid = np.abs(k0 - (k1 + a * k1p)) / np.maximum(1.0, np.abs(k0))
    assert resid.max() < 1e-10


def test_kernel_rejects_unknown_order():
    with pytest.raises(ParameterError):
        entire_bessel_kernel(np.array([0.0]), 2)


@pytest.mark.parametrize("order", [0, 1])
def test_kernel_returns_nan_for_nan(order):
    got = entire_bessel_kernel(np.array([np.nan, 1.0, -40.0, np.nan]), order)
    assert np.isnan(got[[0, 3]]).all()
    np.testing.assert_array_equal(
        got[1:3], entire_bessel_kernel(np.array([1.0, -40.0]), order))
    assert math.isnan(entire_bessel_kernel(np.nan, order))


@pytest.mark.parametrize("a_max", [0.5, 3.35, 30.0])
def test_kernel_series_stops_at_negligible_terms(a_max):
    """The series sums terms only while the next one's bound at max |a|
    is >= 2^-60, so small tables (the preset's |a| <= 3.35) take about
    16 terms.  It matches the fixed 48-term sum to 1e-15 of the kernel
    scale, max(1, |K|) (K(0) = 1)."""
    a = np.linspace(-a_max, a_max, 20001)
    for order in (0, 1):
        acc, term = np.ones_like(a), np.ones_like(a)
        for k in range(1, 49):
            term = term * (a / (k * (k + order)))
            acc += term
        err = np.abs(_kernel_series(a, order) - acc)
        assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(acc))), order


# ---------------------------------------------------------------------------
# reduced-system solvers
# ---------------------------------------------------------------------------

def _fixed_case():
    tau = np.linspace(0.0, 3.0, 601)
    z = np.linspace(0.0, 1.0, 201)
    bc = np.exp(-((tau - 1.0) / 0.3) ** 2) * (1.0 + 0.3j)
    ic = 0.5 * np.sin(np.pi * z) * np.exp(0.4j * z)
    return bc, ic, tau, z


def test_solver_routes_agree():
    bc, ic, tau, z = _fixed_case()
    fa = analytic_evolution(bc, ic, tau, z)
    fn = numeric_evolution(bc, ic, tau, z)
    np.testing.assert_allclose(fn.e_end, fa.e_end,
                               atol=1e-4 * np.abs(fa.e_end).max(), rtol=0)
    np.testing.assert_allclose(fn.s_final, fa.s_final,
                               atol=1e-4 * np.abs(fa.s_final).max(), rtol=0)
    np.testing.assert_allclose(fn.s_norm2, fa.s_norm2,
                               atol=1e-4 * fa.s_norm2.max(), rtol=0)
    assert np.abs(fa.e - fn.e).max() < 1e-4 * np.abs(fa.e).max()


def test_solvers_satisfy_flux_continuity():
    bc, ic, tau, z = _fixed_case()
    for solve in (analytic_evolution, numeric_evolution):
        fields = solve(bc, ic, tau, z)
        assert reduced_continuity_residual(fields, bc) < 1e-3


def test_march_is_linear():
    bc, ic, tau, z = _fixed_case()
    one = numeric_evolution(bc, ic, tau, z)
    two = numeric_evolution(2.0 * bc, 2.0 * ic, tau, z)
    np.testing.assert_allclose(two.e_end, 2.0 * one.e_end, rtol=1e-14)
    np.testing.assert_allclose(two.s_final, 2.0 * one.s_final, rtol=1e-14)
    np.testing.assert_allclose(two.s_norm2, 4.0 * one.s_norm2, rtol=1e-14)


def _loop_conv(f, krow, h):
    n = f.size
    full = np.convolve(f, krow[:n])[:n]
    full = full - 0.5 * f[0] * krow[:n] - 0.5 * f * krow[0]
    return h * full


def _loop_analytic(bc, ic, tau, z):
    """The kernel solution as one np.convolve per table line: the
    reference for the FFT convolutions of analytic_evolution."""
    h_t, h_z = tau[1] - tau[0], z[1] - z[0]
    arg = -np.outer(tau, h_z * np.arange(z.size))
    k0 = entire_bessel_kernel(arg, 0)
    k1 = entire_bessel_kernel(arg, 1)
    e = np.empty(arg.shape, dtype=complex)
    s = np.empty(arg.shape, dtype=complex)
    for m in range(tau.size):
        e[m] = bc[m] + _loop_conv(ic, k0[m], h_z)
        s[m] = ic - tau[m] * _loop_conv(ic, k1[m], h_z)
    for j in range(z.size):
        e[:, j] -= z[j] * _loop_conv(bc, k1[:, j], h_t)
        s[:, j] -= _loop_conv(bc, k0[:, j], h_t)
    return e, s


@pytest.mark.parametrize("n_t,n_z", [(801, 201), (2, 2), (7, 5), (33, 17),
                                     (5, 40)])
def test_fft_convolutions_match_the_line_loop(n_t, n_z, rng):
    # extents at the resolution guard's limit, theta_total h_z = 0.5
    tau = np.linspace(0.0, min(8.0, 0.5 * (n_z - 1)), n_t)
    z = np.linspace(0.0, min(1.0, 0.5 * (n_t - 1) / tau[-1]), n_z)
    bc = rng.normal(size=n_t) + 1j * rng.normal(size=n_t)
    ic = rng.normal(size=n_z) + 1j * rng.normal(size=n_z)
    got = analytic_evolution(bc, ic, tau, z)
    e, s = _loop_analytic(bc, ic, tau, z)
    for name, field, want in (("e", got.e, e), ("s", got.s, s)):
        assert np.abs(field - want).max() <= 1e-13 * np.abs(want).max(), name
    # a real boundary trace and spin wave stay exactly real
    real = analytic_evolution(bc.real, ic.real, tau, z)
    assert not real.e.imag.any() and not real.s.imag.any()


def _clustered_case():
    """_fixed_case with the same tau span squeezed through a smooth
    non-uniform map."""
    _bc, ic, tau, z = _fixed_case()
    u = np.linspace(0.0, 1.0, tau.size)
    tau_nu = 3.0 * (u + 0.25 * u * (1.0 - u))
    bc_nu = np.exp(-((tau_nu - 1.0) / 0.3) ** 2) * (1.0 + 0.3j)
    return bc_nu, ic, tau_nu, z


def test_march_accepts_clustered_tau():
    bc, ic, tau, z = _fixed_case()
    bc_nu, _ic, tau_nu, _z = _clustered_case()
    ref = analytic_evolution(bc, ic, tau, z)
    got = numeric_evolution(bc_nu, ic, tau_nu, z)
    end = np.interp(tau, tau_nu, got.e_end.real) \
        + 1j * np.interp(tau, tau_nu, got.e_end.imag)
    assert np.abs(end - ref.e_end).max() < 2e-4 * np.abs(ref.e_end).max()
    assert np.abs(got.s_final - ref.s_final).max() < 2e-4


@pytest.mark.parametrize("case", [_fixed_case, _clustered_case])
def test_stored_fields_agree_with_traces(case):
    bc, ic, tau, z = case()
    full = numeric_evolution(bc, ic, tau, z)
    lean = numeric_evolution(bc, ic, tau, z, store_fields=False)
    assert lean.e is None and lean.s is None
    for name in ("e_end", "s_final", "s_norm2"):
        np.testing.assert_array_equal(getattr(lean, name),
                                      getattr(full, name), err_msg=name)
    # the matrices hold the boundary data and the traces exactly
    np.testing.assert_array_equal(full.e[:, 0], bc)
    np.testing.assert_array_equal(full.s[0], ic)
    np.testing.assert_array_equal(full.e[:, -1], full.e_end)
    np.testing.assert_array_equal(full.s[-1], full.s_final)
    np.testing.assert_allclose(np.trapezoid(np.abs(full.s) ** 2, z, axis=1),
                               full.s_norm2, rtol=1e-13, atol=0.0)


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 31))
def test_stored_excitation_never_exceeds_input(seed):
    r = np.random.default_rng(seed)
    tau = np.linspace(0.0, 4.0, 801)
    z = np.linspace(0.0, 1.0, 101)
    bc = np.zeros(tau.size, dtype=complex)
    for _ in range(3):
        c, w = r.uniform(0.5, 3.5), r.uniform(0.2, 0.8)
        bc += (r.normal() + 1j * r.normal()) * np.exp(-((tau - c) / w) ** 2)
    flux_in = cumtrapz0(np.abs(bc) ** 2, tau[1] - tau[0])
    if flux_in[-1] == 0.0:
        return
    bc /= np.sqrt(flux_in[-1])
    fields = numeric_evolution(bc, np.zeros(z.size, dtype=complex), tau, z,
                               store_fields=False)
    assert fields.s_norm2.max() <= 1.0 + 1e-4
    # pointwise: can't hold more than has arrived
    assert np.all(fields.s_norm2 <= flux_in / flux_in[-1] + 1e-4)


def test_axis_validation():
    bc, ic, tau, z = _fixed_case()
    with pytest.raises(ParameterError):
        analytic_evolution(bc, ic, tau + 0.1, z)       # must start at 0
    with pytest.raises(ParameterError):
        analytic_evolution(bc, ic, tau[::-1], z)
    with pytest.raises(ParameterError):
        analytic_evolution(bc[:-5], ic, tau, z)        # length mismatch
    tau_nu = tau.copy()
    tau_nu[300] += 1e-3
    with pytest.raises(ParameterError):
        analytic_evolution(bc, ic, tau_nu, z)          # kernel route: uniform
    numeric_evolution(np.interp(tau_nu, tau, bc.real).astype(complex),
                      ic, tau_nu, z)                   # march: allowed


def test_coarse_grid_is_refused():
    tau = np.linspace(0.0, 40.0, 41)
    z = np.linspace(0.0, 1.0, 11)
    bc = np.exp(-((tau - 5.0) / 2.0) ** 2).astype(complex)
    with pytest.raises(ResolutionError):
        numeric_evolution(bc, np.zeros(11, dtype=complex), tau, z)


def test_batched_march_equals_single_rows(rng):
    """Rows of a batch march bit for bit as they would alone, each on
    its own (here non-uniform) theta axis."""
    z = np.linspace(0.0, 1.0, 101)
    taus, bcs, ics = [], [], []
    for _ in range(3):
        u = np.sort(rng.uniform(0.0, 1.0, 401))
        tau = rng.uniform(2.0, 4.0) * (u - u[0]) / (u[-1] - u[0])
        taus.append(tau)
        bcs.append(np.exp(-((tau - rng.uniform(0.5, 1.5)) / 0.4) ** 2)
                   * np.exp(1j * rng.uniform(0.0, 3.0) * tau))
        ics.append(rng.normal(size=z.size) + 1j * rng.normal(size=z.size))
    batch = numeric_evolution(bcs, ics, taus, z)
    assert batch.e.shape == (3, 401, 101)
    for i in range(3):
        one = numeric_evolution(bcs[i], ics[i], taus[i], z)
        for name in ("tau", "e_end", "s_final", "s_norm2", "e", "s"):
            np.testing.assert_array_equal(getattr(batch, name)[i],
                                          getattr(one, name), err_msg=name)


def test_batched_march_checks_every_row():
    bc, ic, tau, z = _fixed_case()
    coarse = np.linspace(0.0, 150.0, tau.size)         # too coarse in z
    with pytest.raises(ResolutionError):
        numeric_evolution([bc, bc], [ic, ic], [tau, coarse], z)
    with pytest.raises(ParameterError):
        numeric_evolution([bc, bc], [ic, ic], [tau, tau[::-1]], z)
    with pytest.raises(ParameterError):                 # ic off the z axis
        numeric_evolution([bc, bc], [ic[:-1], ic[1:]], [tau, tau], z)
    with pytest.raises(ParameterError):                 # row counts differ
        numeric_evolution([bc, bc], [ic], [tau, tau], z)


@pytest.mark.parametrize("arg", [0, 1, 2])
def test_batched_march_names_a_short_row(arg):
    """A batch given as lists whose rows differ in length fails as a
    ParameterError naming the argument and the row."""
    *rows, z = _fixed_case()
    name, n = ("bc", "ic", "tau")[arg], rows[arg].size
    batch = [[r, r[:-1] if i == arg else r] for i, r in enumerate(rows)]
    with pytest.raises(ParameterError, match=f"{name} row 1 has {n - 1} "
                       f"samples but row 0 has {n}"):
        numeric_evolution(*batch, z)


def test_medium_guards():
    with pytest.raises(ParameterError):
        MediumParams(0.0)
    with pytest.raises(ParameterError):
        MediumParams(0.01, gamma=-1.0)
    with pytest.raises(ParameterError):
        MediumParams(0.01, c=0.0)


# ---------------------------------------------------------------------------
# lab frame <-> reduced frame
# ---------------------------------------------------------------------------

def _transform_setup():
    grid = TimeGrid.from_span(-1e-6, 1e-6, 4001)
    g = Schedule.gaussian(6e7, center=0.0, width=0.3e-6,
                          support=(-0.9e-6, 0.9e-6))
    delta = Schedule.square(1e5, -1e-6, 1e-6)
    medium = MediumParams(0.01, gamma=GAMMA)
    return FreeSpaceTransform(g, delta, medium, grid), grid


def test_transform_round_trip():
    tr, grid = _transform_setup()
    t = grid.times()
    samples = np.exp(-(t / 0.25e-6) ** 2) * np.exp(0.7j)
    samples[np.abs(t) > 0.85e-6] = 0.0
    env = FieldEnvelope(grid, samples).normalized()
    back = tr.field_from_reduced(tr.boundary_to_reduced(env))
    np.testing.assert_allclose(back.samples, env.samples, rtol=0,
                               atol=1e-12 * np.abs(env.samples).max())


def test_transform_theta_is_cumulative_depth():
    tr, grid = _transform_setup()
    assert tr.theta[0] == 0.0
    assert np.all(np.diff(tr.theta) >= 0.0)
    want = cumtrapz0(tr.gv ** 2 * 0.01 / tr.medium.c, grid.dt)
    np.testing.assert_allclose(tr.theta, want, rtol=1e-12)
    # theta is the cavity's effective time at kappa = c/L
    kappa = tr.medium.c / tr.medium.length
    np.testing.assert_array_equal(tr.theta,
                                  effective_time(tr.g, kappa, grid))
    w = tr.decay_weight()
    assert w[0] == 1.0 and abs(w[-1] - np.exp(-2 * GAMMA * 2e-6)) < 1e-12


def test_transform_evaluates_the_coupling_once(monkeypatch):
    tr, grid = _transform_setup()
    calls = []
    eval_ = Schedule.eval

    def spy(self, t):
        if self is tr.g:
            calls.append(t.size)
        return eval_(self, t)
    monkeypatch.setattr(Schedule, "eval", spy)
    again = FreeSpaceTransform(tr.g, tr.delta, tr.medium, grid)
    assert calls == [grid.n]
    # theta comes from the samples it holds, bit for bit
    assert np.array_equal(again.theta, tr.theta)
    assert np.array_equal(again.gv, tr.gv)


def test_transform_rejects_uncovered_field():
    tr, grid = _transform_setup()
    kappa = tr.medium.c / tr.medium.length
    # the boundary map is the effective field at kappa = c/L, turned by
    # e^{i chi} / i
    t = grid.times()
    covered = FieldEnvelope(grid, np.where(
        np.abs(t) < 0.85e-6, np.exp(-(t / 0.25e-6) ** 2), 0.0)).normalized()
    np.testing.assert_array_equal(
        tr.boundary_to_reduced(covered),
        -1j * np.exp(1j * tr.chi)
        * effective_fields(covered, tr.g, kappa).values)
    env = FieldEnvelope.gaussian(grid, center=0.95e-6,
                                 width=0.05e-6).normalized()
    with pytest.raises(SingularTransformError) as got:
        tr.boundary_to_reduced(env)
    with pytest.raises(SingularTransformError) as want:
        effective_fields(env, tr.g, kappa)
    assert str(got.value) == str(want.value)


def test_thin_medium_mapping():
    medium = MediumParams(0.01)
    kappa = 1e6
    got = thin_medium_cavity_coupling(5e7, medium, kappa)
    assert abs(got - 5e7 * np.sqrt(kappa * 0.01 / (2 * medium.c))) < 1e-6
    assert thin_medium_cavity_coupling(0.0, medium, kappa) == 0.0
    with pytest.raises(ParameterError):
        thin_medium_cavity_coupling(5e7, medium, 0.0)
    with pytest.raises(ParameterError):
        thin_medium_cavity_coupling(-1.0, medium, kappa)


# ---------------------------------------------------------------------------
# depth sweep
# ---------------------------------------------------------------------------

# input amplitude Gaussian of 300 ns full width at a tenth of its peak
SIGMA_IN = 300e-9 / (2.0 * np.sqrt(2.0 * np.log(10.0)))


def _sweep(d_values, gamma=GAMMA, **kw):
    """Columns d, eta_write, eta_forward, eta_backward, theta_total of a
    sweep with a 100 ns coupling pulse peaking 50 ns before the input."""
    args = dict(medium=MediumParams(0.01, gamma=gamma),
                coupling=GaussianSegment(-1e-6, 1e-6, 1.0, -50e-9, 100e-9),
                input_center=0.0, input_sigma=SIGMA_IN, read_gap=0.0,
                space_points=201)
    args.update(kw)
    return storage_retrieval_sweep(d_values, **args).T


def test_window_theta_map_inverts_the_depth_integral():
    d, sig, tc = 60.0, 100e-9, -50e-9
    theta, t_of, rho = _window_theta_map(d, GAMMA, sig, tc, 801)
    # the window ends where the profile falls to its cut, 1e-3 of peak
    np.testing.assert_allclose(rho[[0, -1]], d * GAMMA * 1e-3, rtol=1e-9)
    np.testing.assert_allclose(rho, d * GAMMA
                               * np.exp(-((t_of - tc) / sig) ** 2))
    # reference: trapezoid quadrature of the profile on a dense uniform
    # grid over the same window, read at the returned times
    t_dense = np.linspace(t_of[0], t_of[-1], 8192)
    th_dense = cumtrapz0(d * GAMMA * np.exp(-((t_dense - tc) / sig) ** 2),
                         t_dense[1] - t_dense[0])
    np.testing.assert_allclose(np.interp(t_of, t_dense, th_dense), theta,
                               rtol=0.0, atol=1e-6 * theta[-1])


def test_depth_sweep_matches_kernel_solver():
    """Marching rows against the exact kernel solver on the same erf
    theta grids, at the largest preset depth.  Both are second order in
    the kernel-argument change per cell a = theta_total h_x."""
    d, sig, tc = 150.0, 100e-9, -50e-9
    _d, _w, [eta_f], [eta_b], [theta_total] = _sweep([d])
    n_theta = theta_nodes(d * GAMMA * sig * np.sqrt(np.pi))
    x = np.linspace(0.0, 1.0, 201)
    # write: the unit-photon Gaussian input enters at x = 0
    theta, t_w, rho = _window_theta_map(d, GAMMA, sig, tc, n_theta)
    e_in = np.exp(-t_w ** 2 / (2.0 * SIGMA_IN ** 2)) \
        / np.sqrt(SIGMA_IN * np.sqrt(np.pi))
    bc = e_in * np.exp(GAMMA * t_w) / (1j * np.sqrt(rho))
    stored = analytic_evolution(bc, np.zeros(x.size, complex), theta,
                                x).s_final
    # read: the same pulse, starting where the write window ends
    _theta, t_r, _rho = _window_theta_map(d, GAMMA, sig, 2.0 * t_w[-1] - tc,
                                          n_theta)
    weight = np.exp(-2.0 * GAMMA * t_r)
    a2 = (theta_total / (x.size - 1)) ** 2
    for got, ic in ((eta_f, stored), (eta_b, stored[::-1].copy())):
        e_end = analytic_evolution(np.zeros(theta.size, complex), ic, theta,
                                   x).e_end
        want = np.trapezoid(np.abs(e_end) ** 2 * weight, x=theta)
        assert abs(got / want - 1.0) <= a2, (got, want, a2)


def test_sweep_zero_depth_is_transparent():
    d, eta_w, eta_f, eta_b, theta = _sweep([0.0])
    assert eta_w[0] == eta_f[0] == eta_b[0] == 0.0
    assert theta[0] == 0.0


def test_sweep_rejects_bad_depths():
    for bad in ([10.0, -1.0], [], [float("nan")], [float("inf")]):
        with pytest.raises(ParameterError):
            _sweep(bad)


def test_sweep_point_order_is_irrelevant():
    a = _sweep([20.0, 60.0])
    b = _sweep([60.0, 20.0])
    np.testing.assert_array_equal(a[3], b[3][::-1])
    np.testing.assert_array_equal(a[1], b[1][::-1])


def test_sweep_batches_equal_single_depths():
    """Depths march in one batch per theta node count (40: 801 nodes,
    150: 837); rows come back in input order, bit for bit as if each
    depth were swept alone."""
    depths = [0.0, 40.0, 150.0, 40.0]
    batched = _sweep(depths)
    for i, d in enumerate(depths):
        np.testing.assert_array_equal(batched[:, i], _sweep([d])[:, 0])


def test_sweep_efficiencies_grow_with_depth():
    _d, eta_w, _f, eta_b, theta = _sweep([10.0, 60.0])
    assert eta_w[1] > eta_w[0]
    assert eta_b[1] > eta_b[0]
    assert np.all(eta_w <= 1.0 + 1e-6)
    # window-integrated depth: d gamma sigma sqrt(pi) up to the window cut
    sig = 100e-9
    np.testing.assert_allclose(theta,
                               np.array([10.0, 60.0]) * GAMMA * sig
                               * np.sqrt(np.pi), rtol=1e-3)


def test_sweep_detuning_paths():
    base = _sweep([60.0])
    silent = _sweep([60.0], detuning=Schedule.zero())
    spun = _sweep([60.0], detuning=Schedule.square(1e7, -2e-6, 4e-6))
    assert silent[1][0] == base[1][0]
    assert silent[3][0] == base[3][0]
    # an uncompensated chirp across the input spoils the mode matching
    assert spun[1][0] < base[1][0] - 0.05


def test_scenario_guards():
    with pytest.raises(ParameterError):
        _sweep([10.0], gamma=0.0)        # d is measured in units of gamma
    with pytest.raises(ParameterError):
        _sweep([10.0], read_gap=-1e-9)
    with pytest.raises(ParameterError):
        _sweep([10.0], input_sigma=0.0)
