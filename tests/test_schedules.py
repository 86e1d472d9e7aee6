"""Grids, envelopes, control schedules and the effective-time map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolemem import (FieldEnvelope, ParameterError, Schedule,
                       SingularTransformError, TimeGrid, effective_fields,
                       effective_time)
from dipolemem.schedules import (_EPSILON_0, _HBAR, ZERO_LEVEL,
                                 DipolePhysical, GaussianSegment,
                                 PiecewiseLinearSegment, SquareSegment,
                                 TabulatedSegment, _samples_before,
                                 coupling_from_dipole, cumtrapz0,
                                 interp_rows)


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


def test_grid_rejects_degenerate():
    with pytest.raises(ParameterError):
        TimeGrid.from_span(1e-6, 1e-6, 100)
    with pytest.raises(ParameterError):
        TimeGrid(0.0, 1e-9, 1)
    # a bad point count is named before any division by n - 1
    for n in (1, 0, -3, 2.5, 3.0, True, "3"):
        with pytest.raises(ParameterError, match="TimeGrid.n"):
            TimeGrid.from_span(0.0, 1.0, n)
        with pytest.raises(ParameterError, match="TimeGrid.n"):
            TimeGrid(0.0, 0.5, n)
    assert TimeGrid.from_span(0.0, 1.0, np.int64(3)).t_end == 1.0


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
    # each window is the (first, last) grid-sample span of a merged
    # support: zero-amplitude segments make no window, touching segments
    # (zero on one side of the junction) merge, supports past the grid
    # are clipped to its samples
    ramp = PiecewiseLinearSegment(np.array([4.0, 5.0]), np.array([0.0, 1.0]))
    g = Schedule([SquareSegment(-1.0, 1.0, 1.0), SquareSegment(2.0, 3.0, 0.0),
                  SquareSegment(3.0, 4.0, 2.0), ramp,
                  SquareSegment(9.0, 12.0, 1.0)])
    grid = TimeGrid.from_span(0.0, 10.0, 11)
    assert g.windows(grid) == [(0, 1), (3, 5), (9, 10)]
    assert all(type(i) is int for w in g.windows(grid) for i in w)
    assert g.windows(TimeGrid.from_span(6.0, 8.0, 3)) == []
    # a support between two samples has none; edges that miss a sample
    # by rounding still hold it, as in `evaluate`
    h = Schedule.square(1.0, 0.3, 0.7)
    assert h.windows(grid) == []
    fine = TimeGrid.from_span(0.0, 1.0, 11)
    on = np.flatnonzero(h.eval(fine.times()))
    assert h.windows(fine) == [(on[0], on[-1])] == [(3, 7)]
    assert Schedule.square(1.0, 0.25, 0.75).windows(fine) == [(3, 7)]


@settings(max_examples=300)
@given(st.floats(-1e3, 1e3), st.floats(1e-9, 10.0), st.integers(2, 3000),
       st.lists(st.tuples(st.floats(-0.2, 1.2), st.sampled_from(
           ["near", "on", "below", "above"])), min_size=2, max_size=8))
def test_window_edges_match_searchsorted(t0, dt, n, marks):
    """Window edges come from the grid's closed form; they are the
    indices `np.searchsorted` gives on `TimeGrid.times`, bit for bit,
    for edges between samples, on samples and one ulp either side."""
    grid = TimeGrid(t0, dt, n)
    t = grid.times()
    edges = []
    for frac, kind in marks:
        s = t[min(max(int(frac * (n - 1)), 0), n - 1)]
        edges.append({"near": t0 + frac * (n - 1) * dt, "on": s,
                      "below": np.nextafter(s, -np.inf),
                      "above": np.nextafter(s, np.inf)}[kind])
    for edge in edges:
        for closed, side in ((False, "left"), (True, "right")):
            assert _samples_before(grid, float(edge), closed) \
                == np.searchsorted(t, edge, side)
    a, b = sorted(float(x) for x in edges[:2])
    if b > a:
        g = Schedule([SquareSegment(a, b, 1.0)])
        lo, hi = g.segments[0].bounds()
        i = int(np.searchsorted(t, lo, "left"))
        j = int(np.searchsorted(t, hi, "right")) - 1
        assert g.windows(grid) == ([(i, j)] if i <= j else [])


@given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0), st.floats(0.05, 0.5))
def test_eval_vanishes_outside_support(amp, c0, w):
    g = Schedule.gaussian(amp, center=c0, width=w)
    seg, = g.segments
    lo, hi = seg.start, seg.end
    t = np.array([lo - 3 * w, lo - 0.1 * w, hi + 0.1 * w, hi + 3 * w])
    assert np.all(g.eval(t) == 0.0)


def test_support_intervals_merge_adjacent():
    ramp = PiecewiseLinearSegment(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    g = Schedule([ramp, SquareSegment(1.0, 2.0, 2.0),
                  SquareSegment(3.0, 4.0, 1.0)])
    # touching supports make one window; a gap keeps them apart
    assert g.windows(TimeGrid.from_span(0.0, 4.0, 9)) == [(0, 4), (6, 8)]


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


@st.composite
def _segment_chain(draw):
    """One to three adjacent segments of random kinds with non-negative
    amplitudes or knots over many scales, exact zeros included, and
    sample times: random ones, the knots and their float neighbours, and
    the widened window edges.  Each junction is zero on one side, drawn
    at random, as `Schedule` requires."""
    t0 = draw(st.floats(-1e-5, 1e-5))
    specs, knots = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["square", "gaussian", "linear", "pchip"]))
        n = 2 if kind in ("square", "gaussian") else draw(st.integers(2, 12))
        gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1,
                             max_size=n - 1))
        tt = t0 + np.concatenate([[0.0], np.cumsum(gaps)]) * 1e-6
        value = st.sampled_from([0.0, 1e-15, 1e-6, 1.0, 1e6]) \
            | st.floats(0.0, 1e6)
        vv = np.array(draw(st.lists(value, min_size=n, max_size=n)))
        if specs and draw(st.booleans()):
            vv[0] = 0.0                  # this segment's start (amplitude)
        elif specs:
            prev_kind, _, prev_vv, _ = specs[-1]
            prev_vv[0 if prev_kind in ("square", "gaussian") else -1] = 0.0
        extra = ()
        if kind == "gaussian":
            extra = (draw(st.floats(t0 - 1e-6, t0 + 2e-6)),
                     draw(st.floats(1e-9, 1e-6)))
        specs.append((kind, tt, vv, extra))
        knots.append(tt)
        t0 = tt[-1]
    segs = []
    for kind, tt, vv, extra in specs:
        if kind == "square":
            segs.append(SquareSegment(tt[0], tt[-1], vv[0]))
        elif kind == "gaussian":
            segs.append(GaussianSegment(tt[0], tt[-1], vv[0], *extra))
        elif kind == "linear":
            segs.append(PiecewiseLinearSegment(tt, vv))
        else:
            segs.append(TabulatedSegment(tt, vv))
    knots = np.concatenate(knots)
    lo, hi = knots[0], knots[-1]
    rand = np.array(draw(st.lists(st.floats(2 * lo - hi, 2 * hi - lo),
                                  min_size=1, max_size=200)))
    edges = np.ravel([seg.bounds() for seg in segs])
    t = np.concatenate([rand, knots, np.nextafter(knots, -np.inf),
                        np.nextafter(knots, np.inf), edges,
                        np.linspace(lo, hi, draw(st.integers(2, 3001)))])
    return Schedule(segs), t


@settings(max_examples=300)
@given(_segment_chain())
def test_nonnegative_knots_give_nonnegative_values(case):
    # is_nonnegative reads only amplitudes and knots; it must imply
    # eval >= 0 anywhere, knot times and their float neighbours included
    g, t = case
    if g.is_nonnegative():
        assert np.all(g.eval(t) >= 0.0)


def test_pchip_takes_subnormal_steps_without_overflow_warnings():
    # w / m overflows for a secant slope of 5e-324 / 1e-6; the harmonic
    # mean's limit is a zero knot slope, and the table stays nonnegative
    t = np.linspace(0.0, 1e-5, 11)
    v = np.zeros(11)
    v[-1] = 5e-324
    seg = TabulatedSegment(t, v)
    assert np.all(seg.evaluate(np.linspace(0.0, 1e-5, 1001)) >= 0.0)


def _pchip_tables(rng):
    """(name, knot times, knot values) of the tables the numpy PCHIP is
    held to scipy's on."""
    n = 60
    uniform = np.linspace(-1e-6, 2e-6, n)
    ragged = np.cumsum(rng.uniform(0.01, 3.0, n)) * 1e-8
    runs = rng.standard_normal(n)
    runs[10:20] = 0.0
    runs[30:36] = runs[30]
    runs[40:] = -np.abs(runs[40:])
    yield "random", uniform, rng.standard_normal(n)
    yield "monotone", ragged, np.cumsum(np.abs(rng.standard_normal(n)))
    yield "flat runs and sign changes", ragged, runs
    yield "scales", ragged, rng.standard_normal(n) * 10.0 ** rng.integers(
        -6, 7, n)
    yield "2 knots", np.array([0.0, 3e-7]), np.array([1.5, -0.5])
    yield "3 knots", np.array([0.0, 1e-7, 4e-7]), np.array([0.0, 2.0, 1.0])
    # the end slopes' two shape rules: capped at 3 secants, and zeroed
    yield "3 knots, end slope capped", np.array([0.0, 1.0, 1.1]), \
        np.array([0.0, 1.0, 0.0])
    yield "3 knots, end slope zeroed", np.array([0.0, 1.0, 2.0]), \
        np.array([0.0, 1.0, 5.0])


def test_tabulated_matches_scipy_pchip_exactly(rng):
    from scipy.interpolate import PchipInterpolator

    for name, tt, vv in _pchip_tables(rng):
        span = tt[-1] - tt[0]
        inside = np.concatenate([tt, rng.uniform(tt[0], tt[-1], 2000)])
        outside = np.concatenate([tt[0] - span * rng.uniform(1e-6, 2.0, 50),
                                  tt[-1] + span * rng.uniform(1e-6, 2.0, 50)])
        ref = PchipInterpolator(tt, vv)(inside)
        # Schedule.eval snaps values below ZERO_LEVEL of the peak to zero
        ref[np.abs(ref) < ZERO_LEVEL * np.abs(vv).max()] = 0.0
        g = Schedule.tabulated(tt, vv)
        assert np.array_equal(g.eval(inside), ref), name
        assert np.array_equal(g.eval(outside), np.zeros(outside.size)), name


def test_piecewise_linear_midpoints():
    g = Schedule.piecewise_linear([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    np.testing.assert_allclose(g.eval(np.array([0.5, 1.5])), [1.0, 1.0])


def test_unsorted_knots_rejected():
    with pytest.raises(ParameterError):
        Schedule.tabulated([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# effective time / effective fields
# ---------------------------------------------------------------------------

def test_interp_rows_is_np_interp_of_every_column(rng):
    """interp_rows gives, bit for bit (signed zeros included), np.interp
    of the real and imaginary parts of each column: clamped to the end
    rows outside the nodes and exact on them."""
    xp = np.cumsum(rng.uniform(0.1, 2.0, 30))
    x = np.concatenate([rng.uniform(xp[0] - 3.0, xp[-1] + 3.0, 200), xp,
                        [xp[0] - 1.0, xp[-1], xp[-1] + 1.0],
                        np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf)])
    rows = (rng.standard_normal((30, 5))
            + 1j * rng.standard_normal((30, 5)))
    rows[3, 1] = complex(-0.0, -0.0)
    rows[7] = 0.0
    for data in (rows, rows[:, 2], rows.real.copy(), rows[:, 1].imag.copy()):
        got = interp_rows(x, xp, data)
        cols = data.reshape(30, -1)
        want = np.empty((x.size, cols.shape[1]), dtype=data.dtype)
        for j in range(cols.shape[1]):
            if np.iscomplexobj(data):
                want.real[:, j] = np.interp(x, xp, cols[:, j].real)
                want.imag[:, j] = np.interp(x, xp, cols[:, j].imag)
            else:
                want[:, j] = np.interp(x, xp, cols[:, j])
        assert got.shape == x.shape + data.shape[1:]
        assert got.tobytes() == want.reshape(got.shape).tobytes()


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


def test_effective_fields_evaluates_the_coupling_once(monkeypatch):
    grid = TimeGrid.from_span(-1e-6, 0.0, 801)
    g = Schedule.gaussian(8e5, center=-0.5e-6, width=0.12e-6,
                          support=(-1e-6, 0.0))
    env = FieldEnvelope(grid, g.eval(grid.times()).astype(complex))
    calls = []
    eval_ = Schedule.eval

    def spy(self, t):
        calls.append(t.size)
        return eval_(self, t)
    monkeypatch.setattr(Schedule, "eval", spy)
    eff = effective_fields(env, g, 1e6)
    assert calls == [grid.n]
    # tau is the effective_time of the same samples, bit for bit
    assert np.array_equal(eff.tau, effective_time(g, 1e6, grid))


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

def test_physical_constants_match_scipy():
    # scipy 1.13 still carries CODATA 2018's epsilon_0 (8.8541878128e-12),
    # 6.8e-10 from the CODATA 2022 value
    from scipy import constants
    np.testing.assert_allclose([_EPSILON_0, _HBAR],
                               [constants.epsilon_0, constants.hbar],
                               rtol=1e-9)


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
