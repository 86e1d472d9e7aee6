"""Grids, envelopes, control schedules and the effective-time map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolemem import (FieldEnvelope, ParameterError, Schedule,
                       SingularTransformError, TimeGrid, effective_fields,
                       effective_time)
from dipolemem.schedules import (DipolePhysical, GaussianSegment,
                                 SquareSegment, coupling_from_dipole,
                                 cumtrapz0)


# ---------------------------------------------------------------------------
# TimeGrid
# ---------------------------------------------------------------------------

def test_grid_from_span_endpoints():
    g = TimeGrid.from_span(-2e-6, 3e-6, 1001)
    t = g.times()
    assert t.size == 1001
    assert t[0] == -2e-6
    assert abs(t[-1] - 3e-6) < 1e-18
    assert abs(g.span - 5e-6) < 1e-18


def test_grid_index_round_trip():
    g = TimeGrid.from_span(0.0, 1e-6, 501)
    for k in (0, 1, 250, 500):
        assert g.index_of(g.times()[k]) == k


def test_grid_rejects_degenerate():
    with pytest.raises(ParameterError):
        TimeGrid.from_span(1e-6, 1e-6, 100)
    with pytest.raises(ParameterError):
        TimeGrid(0.0, 1e-9, 1)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

@given(st.integers(0, 2**31 - 1))
def test_normalized_envelope_has_unit_norm(seed):
    r = np.random.default_rng(seed)
    grid = TimeGrid.from_span(0.0, 1e-6, 257)
    samples = r.standard_normal(257) + 1j * r.standard_normal(257)
    env = FieldEnvelope(grid, samples).normalized()
    assert abs(env.norm2() - 1.0) < 1e-12


def test_zero_envelope_cannot_be_normalized():
    grid = TimeGrid.from_span(0.0, 1e-6, 64)
    with pytest.raises(ParameterError):
        FieldEnvelope.zero(grid).normalized()


def test_envelope_shape_mismatch():
    grid = TimeGrid.from_span(0.0, 1e-6, 64)
    with pytest.raises(ParameterError):
        FieldEnvelope(grid, np.zeros(63, dtype=complex))


def test_cumtrapz0_matches_trapezoid():
    r = np.random.default_rng(3)
    y = r.standard_normal(400)
    c = cumtrapz0(y, 0.01)
    assert c[0] == 0.0
    assert abs(c[-1] - np.trapezoid(y, dx=0.01)) < 1e-14
    # a non-uniform axis passes its cell widths
    x = np.cumsum(r.uniform(0.001, 0.02, size=400))
    c = cumtrapz0(y, np.diff(x))
    assert c[0] == 0.0
    np.testing.assert_allclose(
        c[1:], [np.trapezoid(y[:k + 1], x=x[:k + 1]) for k in range(1, 400)],
        rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_square_schedule_values():
    g = Schedule.square(2.5e5, 1e-6, 3e-6)
    t = np.array([0.5e-6, 1e-6, 2e-6, 3e-6, 3.5e-6])
    v = g.eval(t)
    assert v[0] == 0.0 and v[-1] == 0.0
    np.testing.assert_allclose(v[1:4], 2.5e5)


def test_gaussian_schedule_peak_and_trim():
    g = Schedule.gaussian(1e6, center=0.0, width=1e-7, support=(-3e-7, 3e-7))
    assert g.eval(np.array([0.0]))[0] == 1e6
    # outside the declared support the schedule is exactly zero even
    # though the gaussian itself is not
    assert g.eval(np.array([5e-7]))[0] == 0.0


def test_overlapping_segments_rejected():
    with pytest.raises(ParameterError):
        Schedule([SquareSegment(0.0, 2e-6, 1.0),
                  SquareSegment(1e-6, 3e-6, 1.0)])


def test_empty_support_rejected():
    with pytest.raises(ParameterError):
        Schedule([SquareSegment(1e-6, 1e-6, 1.0)])


@pytest.mark.parametrize("build", [
    lambda: Schedule.square(np.nan, 0.0, 1e-6),
    lambda: Schedule.square(np.inf, 0.0, 1e-6),
    lambda: Schedule.square(1.0, 0.0, np.inf),
    lambda: SquareSegment(-np.inf, 0.0, 1.0),
    lambda: GaussianSegment(-1e-6, 1e-6, 1.0, np.nan, 1e-7),
    lambda: GaussianSegment(-1e-6, 1e-6, -np.inf, 0.0, 1e-7),
    lambda: GaussianSegment(-1e-6, 1e-6, 1.0, 0.0, np.inf),
    lambda: Schedule.gaussian(1.0, center=np.nan, width=1e-7),
], ids=["square-nan-amp", "square-inf-amp", "square-inf-end",
        "square-inf-start", "gaussian-nan-center", "gaussian-inf-amp",
        "gaussian-inf-width", "gaussian-nan-support"])
def test_non_finite_segment_rejected(build):
    with pytest.raises(ParameterError, match="must be finite"):
        build()


def test_windows_are_support_clipped_to_grid():
    g = Schedule([SquareSegment(-1.0, 1.0, 1.0), SquareSegment(2.0, 3.0, 0.0),
                  SquareSegment(4.0, 5.0, 1.0), SquareSegment(9.0, 12.0, 1.0)])
    grid = TimeGrid.from_span(0.0, 10.0, 11)
    assert g.windows(grid) == [(0.0, 1.0), (4.0, 5.0), (9.0, 10.0)]
    assert g.windows(TimeGrid.from_span(6.0, 8.0, 3)) == []


@given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0), st.floats(0.05, 0.5))
def test_eval_vanishes_outside_support(amp, c0, w):
    g = Schedule.gaussian(amp, center=c0, width=w)
    (lo, hi), = g.support_intervals()
    t = np.array([lo - 3 * w, lo - 0.1 * w, hi + 0.1 * w, hi + 3 * w])
    assert np.all(g.eval(t) == 0.0)


def test_support_intervals_merge_adjacent():
    g = Schedule([SquareSegment(0.0, 1.0, 1.0), SquareSegment(1.0, 2.0, 2.0),
                  SquareSegment(3.0, 4.0, 1.0)])
    assert g.support_intervals() == [(0.0, 2.0), (3.0, 4.0)]


def test_tabulated_reproduces_nodes(rng):
    tt = np.linspace(0.0, 1e-6, 41)
    vv = np.abs(rng.standard_normal(41))
    g = Schedule.tabulated(tt, vv)
    np.testing.assert_allclose(g.eval(tt), vv, rtol=0, atol=1e-9 * vv.max())


def test_tabulated_interpolant_stays_nonnegative(rng):
    # monotone cubic: a non-negative table cannot overshoot below zero
    tt = np.linspace(0.0, 1.0, 17)
    vv = np.abs(rng.standard_normal(17))
    vv[5] = 0.0
    g = Schedule.tabulated(tt, vv)
    fine = np.linspace(0.0, 1.0, 4001)
    assert g.eval(fine).min() >= 0.0


def test_piecewise_linear_midpoints():
    g = Schedule.piecewise_linear([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    np.testing.assert_allclose(g.eval(np.array([0.5, 1.5])), [1.0, 1.0])


def test_unsorted_knots_rejected():
    with pytest.raises(ParameterError):
        Schedule.tabulated([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# effective time / effective fields
# ---------------------------------------------------------------------------

def test_effective_time_square_closed_form():
    kappa = 1e6
    g0 = 7e5
    grid = TimeGrid.from_span(0.0, 2e-6, 20001)
    g = Schedule.square(g0, 0.0, 2e-6)
    tau = effective_time(g, kappa, grid)
    assert np.all(np.diff(tau) >= 0.0)
    np.testing.assert_allclose(tau[-1], g0 * g0 / kappa * 2e-6, rtol=1e-12)


def test_effective_time_rejects_negative_coupling():
    grid = TimeGrid.from_span(0.0, 1e-6, 101)
    with pytest.raises(ParameterError):
        effective_time(Schedule.square(-1.0, 0.0, 1e-6), 1e6, grid)


def test_effective_fields_preserve_norm():
    kappa = 1e6
    grid = TimeGrid.from_span(-1e-6, 0.0, 8001)
    g = Schedule.gaussian(8e5, center=-0.5e-6, width=0.12e-6,
                          support=(-1e-6, 0.0))
    t = grid.times()
    env = FieldEnvelope(grid, g.eval(t) * np.exp(1j * 3e6 * t))
    eff = effective_fields(env, g, kappa)
    assert abs(eff.norm2_tau() - env.norm2()) < 1e-9 * env.norm2()


def test_effective_fields_singular_off_support():
    kappa = 1e6
    grid = TimeGrid.from_span(-1e-6, 0.0, 2001)
    g = Schedule.gaussian(8e5, center=-0.5e-6, width=0.05e-6,
                          support=(-0.7e-6, -0.3e-6))
    env = FieldEnvelope(grid, np.ones(2001, dtype=complex))
    with pytest.raises(SingularTransformError):
        effective_fields(env, g, kappa)


# ---------------------------------------------------------------------------
# physical dipole table
# ---------------------------------------------------------------------------

def test_coupling_from_dipole_scalings():
    tt = np.linspace(0.0, 1e-6, 11)
    pp = np.full(11, 1e-32)   # C*m, switchable moment
    base = DipolePhysical(omega0=2 * np.pi * 2e14, volume=1e-12,
                          dipole_times=tt, dipole_values=pp)
    g1 = coupling_from_dipole(base).eval(tt)
    # collective enhancement: sqrt(N)
    many = DipolePhysical(omega0=2 * np.pi * 2e14, volume=1e-12,
                          dipole_times=tt, dipole_values=pp, atom_count=400.0)
    np.testing.assert_allclose(coupling_from_dipole(many).eval(tt), 20.0 * g1,
                               rtol=1e-12)
    # doubling the moment doubles the rate
    twice = DipolePhysical(omega0=2 * np.pi * 2e14, volume=1e-12,
                           dipole_times=tt, dipole_values=2.0 * pp)
    np.testing.assert_allclose(coupling_from_dipole(twice).eval(tt), 2.0 * g1,
                               rtol=1e-12)


def test_dipole_rejects_negative_moment():
    tt = np.linspace(0.0, 1e-6, 5)
    with pytest.raises(ParameterError):
        DipolePhysical(omega0=1e15, volume=1e-12, dipole_times=tt,
                       dipole_values=np.array([1, 1, -1, 1, 1.0]) * 1e-32)
