"""Time grids, control schedules and field envelopes.

Everything downstream runs on a uniform time grid.  Controls (coupling
g(t), detuning Delta(t)) are `Schedule` objects: sorted, non-overlapping
segments that evaluate to exactly zero outside their supports.  Light
fields are `FieldEnvelope` objects with complex samples in units of
s^(-1/2), so that the trapezoidal norm integral(|E|^2 dt) is a
dimensionless (mean photon) number.

There is one support rule, `_Segment.evaluate`: a sample belongs to a
segment's closed window when it lies within `_edge_tol` of it, so a
grid sample meant to land on a window edge counts however it rounds.
Coupling windows (`Schedule.windows`) and the square and tabulated
inputs use the same rule.

The memory dynamics become universal in the effective time

    tau(t) = integral_0^t g(t')^2 / kappa dt'

and the correspondingly rescaled fields; `effective_time` and
`effective_fields` implement that change of variables.  Because tau
stalls wherever g vanishes, effective-field samples always travel with
their own tau coordinates rather than being re-interpolated onto a
uniform tau grid.

`ledger` is the photon-number bookkeeping that both memory models (cavity
and free space) share: efficiencies, leakage, decay and the
normalization drift of a run, measured against its coupling windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ParameterError, SingularTransformError

# Values below this fraction of a schedule's peak are snapped to exactly
# zero, so "where the coupling vanishes" is a well-defined set.
ZERO_LEVEL = 1e-12


# ---------------------------------------------------------------------------
# grids and envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: n samples t0, t0+dt, ..., t0+(n-1)*dt."""

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        _check_point_count(self.n)
        if not (self.dt > 0.0) or not np.isfinite(self.dt):
            raise ParameterError(f"TimeGrid.dt must be positive, got {self.dt}")
        if not np.isfinite(self.t0):
            raise ParameterError(f"TimeGrid.t0 must be finite, got {self.t0}")

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n - 1) * self.dt

    @property
    def span(self) -> float:
        return (self.n - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @classmethod
    def from_span(cls, t0: float, t1: float, n: int) -> "TimeGrid":
        _check_point_count(n)
        if not t1 > t0:
            raise ParameterError(f"need t1 > t0, got [{t0}, {t1}]")
        return cls(t0, (t1 - t0) / (n - 1), n)


def _samples_before(grid: TimeGrid, t: float, closed: bool) -> int:
    """The number of samples of `grid` below t, or at or below t when
    `closed`: `np.searchsorted(grid.times(), t, "right" if closed else
    "left")` without the array.  The estimate ceil((t - t0)/dt) is
    stepped while the sample t0 + dt*i, formed by the same IEEE
    operations as `TimeGrid.times`, is on the wrong side of t."""
    def below(i):
        s = grid.t0 + grid.dt * i
        return s <= t if closed else s < t
    q = (t - grid.t0) / grid.dt
    i = grid.n if not q < grid.n else math.ceil(q) if q > 0.0 else 0
    while i < grid.n and below(i):
        i += 1
    while i > 0 and not below(i - 1):
        i -= 1
    return i


def _check_point_count(n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"TimeGrid.n must be an integer >= 2, got {n!r}")


@dataclass(eq=False)
class FieldEnvelope:
    """Complex field samples on a TimeGrid, units s^(-1/2)."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != (self.grid.n,):
            raise ParameterError(
                f"envelope has {s.shape} samples for a grid of {self.grid.n}"
            )
        if not np.all(np.isfinite(s.view(float))):
            raise ParameterError("envelope samples must be finite")
        self.samples = s

    def norm2(self) -> float:
        """Trapezoidal integral of |E|^2 dt (photon number)."""
        return float(np.trapezoid(np.abs(self.samples) ** 2, dx=self.grid.dt))

    def normalized(self) -> "FieldEnvelope":
        n2 = self.norm2()
        if n2 <= 0.0:
            raise ParameterError("cannot normalize a zero envelope")
        return FieldEnvelope(self.grid, self.samples / np.sqrt(n2))

    @classmethod
    def zero(cls, grid: TimeGrid) -> "FieldEnvelope":
        return cls(grid, np.zeros(grid.n, dtype=complex))

    @classmethod
    def gaussian(cls, grid: TimeGrid, center: float, width: float,
                 amplitude: complex = 1.0) -> "FieldEnvelope":
        t = grid.times()
        return cls(grid, amplitude * np.exp(-((t - center) ** 2) / (2.0 * width ** 2)))


@dataclass(eq=False)
class EffectiveField:
    """Field samples re-indexed to effective time.

    tau is non-uniform (it stalls where g = 0), so the samples carry
    their tau coordinates explicitly alongside the original real-time
    coordinates they came from.
    """

    tau: np.ndarray
    t: np.ndarray
    values: np.ndarray
    grid: TimeGrid

    def norm2_tau(self) -> float:
        """Trapezoidal integral of |value|^2 dtau."""
        return float(np.trapezoid(np.abs(self.values) ** 2, x=self.tau))


# ---------------------------------------------------------------------------
# schedule segments
# ---------------------------------------------------------------------------

def _edge_tol(start: float, end: float) -> float:
    """Absolute slack for support-edge comparisons.

    Grid times are built as t0 + k*dt, so a point meant to land exactly
    on a segment edge can miss it by a few ulp of the magnitudes
    involved.  That distance is physically meaningless but would flip
    the closed-support membership test, so edges are fuzzy at a scale
    far below any usable time step (1e-9 of the span) yet far above
    float rounding.
    """
    scale = max(abs(start), abs(end))
    return 1e-9 * (end - start) + 32.0 * np.finfo(float).eps * scale


class _Segment:
    """The one support rule of the package: a segment is its `shape` on
    the closed interval [start, end], widened on each side by
    `_edge_tol`, and exactly 0.0 outside it.  Couplings, detunings and
    the square and tabulated inputs all decide window membership here."""

    def bounds(self) -> tuple[float, float]:
        tol = _edge_tol(self.start, self.end)
        return self.start - tol, self.end + tol

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        # the shape is computed on the samples inside the support only,
        # as one slice where they are contiguous (as on a grid).  The
        # output is allocated after it, when the shape's temporaries are
        # free to be reused, and is zeroed only where it has gaps
        a, b = self.bounds()
        inside = (t >= a) & (t <= b)
        flat = inside.reshape(-1)
        count = np.count_nonzero(flat)
        if not count:
            return np.zeros(inside.shape)
        i, j = flat.argmax(), flat.size - flat[::-1].argmax()
        on = slice(i, j) if j - i == count else flat
        values = self.shape(t.reshape(-1)[on])
        out = (np.empty if count == flat.size else np.zeros)(inside.shape)
        out.reshape(-1)[on] = values
        return out


@dataclass(frozen=True)
class SquareSegment(_Segment):
    """Constant amplitude on the closed interval [start, end]."""

    start: float
    end: float
    amplitude: float

    def __post_init__(self):
        _check_finite(self, "square")

    def shape(self, t: np.ndarray) -> float:
        return self.amplitude

    def peak_abs(self) -> float:
        return abs(self.amplitude)

    def scaled(self, s: float) -> "SquareSegment":
        return replace(self, amplitude=self.amplitude * s)


@dataclass(frozen=True)
class GaussianSegment(_Segment):
    """amplitude * exp(-(t-center)^2 / (2 width^2)) on [start, end]."""

    start: float
    end: float
    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        _check_finite(self, "Gaussian")
        if not self.width > 0.0:
            raise ParameterError("Gaussian segment needs width > 0")

    def shape(self, t: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-((t - self.center) ** 2)
                                       / (2.0 * self.width ** 2))

    def peak_abs(self) -> float:
        # peak within the support window
        tc = min(max(self.center, self.start), self.end)
        return abs(self.amplitude * np.exp(-((tc - self.center) ** 2)
                                           / (2.0 * self.width ** 2)))

    def scaled(self, s: float) -> "GaussianSegment":
        return replace(self, amplitude=self.amplitude * s)

    @classmethod
    def around(cls, amplitude, center, width, support=None):
        """On `support`, by default center +- 8 widths (tails < 1.3e-14)."""
        if support is None:
            support = (center - 8.0 * width, center + 8.0 * width)
        return cls(support[0], support[1], amplitude, center, width)


@dataclass(eq=False)
class PiecewiseLinearSegment(_Segment):
    """Linear interpolation through (times, values) knots; support is
    [times[0], times[-1]]."""

    times: np.ndarray
    values: np.ndarray
    kind = "piecewise-linear"       # names the kind in error messages

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        _check_knots(self.times, self.values, self.kind)

    @property
    def start(self) -> float:
        return float(self.times[0])

    @property
    def end(self) -> float:
        return float(self.times[-1])

    def shape(self, t: np.ndarray) -> np.ndarray:
        return np.interp(np.clip(t, self.start, self.end), self.times,
                         self.values)

    def peak_abs(self) -> float:
        # linear and PCHIP extrema sit at the knots
        return float(np.max(np.abs(self.values)))

    def scaled(self, s: float) -> "PiecewiseLinearSegment":
        return type(self)(self.times, self.values * s)


class TabulatedSegment(PiecewiseLinearSegment):
    """Sampled control interpolated with a monotone piecewise cubic
    (PCHIP).  The knot slopes follow Fritsch & Carlson, SIAM J. Numer.
    Anal. 17, 238 (1980): zero at a local extremum or flat side, else the
    weighted harmonic mean of the two adjacent secants; the end slopes are
    the shape-preserving three-point rule of Moler, *Numerical Computing
    with MATLAB*, sec. 3.6.  Coefficients and evaluation repeat scipy's
    `PchipInterpolator` operation for operation, so the values are the
    same doubles.  The interpolant never overshoots the tabulated range,
    so a non-negative table stays non-negative."""

    kind = "tabulated"

    def __post_init__(self):
        super().__post_init__()
        self._coef = _pchip_coefficients(self.times, self.values)

    def shape(self, t: np.ndarray) -> np.ndarray:
        tc = np.clip(t, self.start, self.end)
        i = np.clip(np.searchsorted(self.times, tc, "right") - 1,
                    0, self.times.size - 2)
        s = tc - self.times[i]
        c0, c1, c2, c3 = self._coef[:, i]
        return ((c3 + c2 * s) + c1 * (s * s)) + c0 * (s * s * s)


def _pchip_coefficients(x, y):
    """(c0, c1, c2, c3) per interval, highest power first in s = t - x[i],
    of the cubic Hermite spline through (x, y) with the PCHIP knot slopes
    d (see `TabulatedSegment`)."""
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if y.size == 2:
        d = np.array([m[0], m[0]])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        d = np.zeros_like(y)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _pchip_end_slope(h0, h1, m0, m1):
    # one-sided three-point slope, zeroed or capped to keep the shape
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _check_finite(seg, kind):
    for name, v in vars(seg).items():
        if not np.isfinite(v):
            raise ParameterError(
                f"{kind} segment {name} must be finite, got {v}")


def _check_knots(times, values, kind):
    if times.ndim != 1 or times.shape != values.shape or times.size < 2:
        raise ParameterError(f"{kind} segment needs matching 1-d knot arrays (>=2)")
    if not np.all(np.diff(times) > 0):
        raise ParameterError(f"{kind} segment knot times must be strictly increasing")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ParameterError(f"{kind} segment knots must be finite")


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Schedule:
    """A control waveform: sorted, non-overlapping segments.

    Evaluation returns exactly 0.0 outside all supports, and values
    below ZERO_LEVEL * (schedule peak) are snapped to exactly zero so
    that the singular set of the effective-field transform is
    well-defined.  Segment supports are closed intervals; adjacent
    segments may meet (within `_Segment.bounds`) only where one of them
    is zero, below ZERO_LEVEL * peak, since their values would add at a
    shared sample.
    """

    segments: list

    def __post_init__(self):
        segs = sorted(self.segments, key=lambda s: (s.start, s.end))
        for seg in segs:
            if not seg.end > seg.start:
                raise ParameterError(
                    f"segment support [{seg.start}, {seg.end}] is empty")
        level = ZERO_LEVEL * max((s.peak_abs() for s in segs), default=0.0)
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                raise ParameterError(
                    f"segment supports overlap: [{a.start}, {a.end}] and "
                    f"[{b.start}, {b.end}]")
            junction = min(abs(a.shape(a.end)), abs(b.shape(b.start)))
            if b.bounds()[0] <= a.bounds()[1] and junction >= level > 0.0:
                raise ParameterError(
                    f"segments [{a.start}, {a.end}] and [{b.start}, {b.end}] "
                    "meet where both are nonzero; their values would add "
                    "at the shared sample")
        self.segments = segs

    # -- evaluation ---------------------------------------------------------

    def max_abs(self) -> float:
        if not self.segments:
            return 0.0
        return max(s.peak_abs() for s in self.segments)

    def eval(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=float)
        for seg in self.segments:
            out += seg.evaluate(t)
        peak = self.max_abs()
        if peak > 0.0:
            out[np.abs(out) < ZERO_LEVEL * peak] = 0.0
        return out

    # -- structure ----------------------------------------------------------

    def windows(self, grid: TimeGrid) -> list[tuple[int, int]]:
        """The coupling windows a run on this grid sees, in time order:
        each merged support interval as the indices (first, last) of
        its grid samples, which are exactly the samples where a segment
        can evaluate nonzero (edges from `_Segment.bounds`).  An
        interval with no sample on the grid is dropped."""
        merged: list[list[float]] = []
        for seg in self.segments:
            if seg.peak_abs() == 0.0:
                continue
            a, b = seg.bounds()
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(b, merged[-1][1])
            else:
                merged.append([a, b])
        spans = [(_samples_before(grid, a, False),
                  _samples_before(grid, b, True) - 1) for a, b in merged]
        return [(i, j) for i, j in spans if i <= j]

    def scaled(self, s: float) -> "Schedule":
        return Schedule([seg.scaled(s) for seg in self.segments])

    def is_nonnegative(self) -> bool:
        """Non-negativity from the amplitudes and knots alone.  No grid
        is needed: piecewise-linear values are convex combinations of
        their knots, PCHIP never overshoots its knots, and `eval` snaps
        rounding-level values below ZERO_LEVEL * peak to exactly 0."""
        for seg in self.segments:
            if isinstance(seg, (SquareSegment, GaussianSegment)):
                if seg.amplitude < 0.0:
                    return False
            else:
                if np.any(seg.values < 0.0):
                    return False
        return True

    # -- convenience constructors -------------------------------------------

    @classmethod
    def zero(cls) -> "Schedule":
        return cls([])

    @classmethod
    def square(cls, amplitude, start, end) -> "Schedule":
        return cls([SquareSegment(start, end, amplitude)])

    @classmethod
    def gaussian(cls, amplitude, center, width, support=None) -> "Schedule":
        return cls([GaussianSegment.around(amplitude, center, width, support)])

    @classmethod
    def piecewise_linear(cls, times, values) -> "Schedule":
        return cls([PiecewiseLinearSegment(np.asarray(times), np.asarray(values))])

    @classmethod
    def tabulated(cls, times, values) -> "Schedule":
        return cls([TabulatedSegment(np.asarray(times), np.asarray(values))])


# ---------------------------------------------------------------------------
# physical dipole -> coupling
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DipolePhysical:
    """Physical inputs for the coupling rate.

    The transition dipole moment is controllable in time and supplied
    as a table (times in s, moments in C*m); omega0 is the transition
    angular frequency (rad/s), volume the mode volume (m^3) and
    atom_count the number of atoms sharing the mode (the collective
    coupling scales with its square root).
    """

    omega0: float
    volume: float
    dipole_times: np.ndarray
    dipole_values: np.ndarray
    atom_count: float = 1.0

    def __post_init__(self):
        if not self.omega0 > 0.0:
            raise ParameterError("omega0 must be positive")
        if not self.volume > 0.0:
            raise ParameterError("mode volume must be positive")
        if not self.atom_count >= 1.0:
            raise ParameterError("atom_count must be >= 1")
        self.dipole_times = np.asarray(self.dipole_times, dtype=float)
        self.dipole_values = np.asarray(self.dipole_values, dtype=float)
        _check_knots(self.dipole_times, self.dipole_values, "dipole")
        if np.any(self.dipole_values < 0.0):
            raise ParameterError("dipole moment table must be non-negative")


# vacuum permittivity (F/m, CODATA 2022) and the reduced Planck constant
# (J s, exact: h / 2 pi with the SI's exact h)
_EPSILON_0 = 8.8541878188e-12
_HBAR = 1.0545718176461565e-34


def coupling_from_dipole(phys: DipolePhysical) -> Schedule:
    """Coupling-rate schedule g(t) = sqrt(N) sqrt(omega0/(2 eps0 hbar V)) * p(t).

    p(t) is the tabulated dipole moment; the returned schedule is
    tabulated on the same knots (PCHIP in between, zero outside).
    """
    factor = np.sqrt(phys.atom_count) * np.sqrt(
        phys.omega0 / (2.0 * _EPSILON_0 * _HBAR * phys.volume))
    return Schedule.tabulated(phys.dipole_times, factor * phys.dipole_values)


# ---------------------------------------------------------------------------
# effective time and effective fields
# ---------------------------------------------------------------------------

def cumtrapz0(y: np.ndarray, dx) -> np.ndarray:
    """Cumulative trapezoid with a leading zero (same length as y).

    dx is the uniform step, or the y.shape[0] - 1 cell widths of a
    non-uniform axis."""
    out = np.empty(y.shape[0], dtype=np.result_type(y.dtype, float))
    out[0] = 0.0
    np.cumsum(0.5 * dx * (y[1:] + y[:-1]), out=out[1:])
    return out


def interp_rows(x, xp, rows) -> np.ndarray:
    """Linear interpolation at x of data with one row per node of the
    increasing axis xp (or of 1-d data): `np.interp` of each real and
    imaginary column, so clamped to the end rows and exact at nodes."""
    rows = np.asarray(rows)
    cols = np.ascontiguousarray(rows).reshape(len(xp), -1).view(float)
    out = np.stack([np.interp(x, xp, c) for c in cols.T], axis=-1)
    return out.view(rows.dtype).reshape(np.shape(x) + rows.shape[1:])


def effective_time(g: Schedule, kappa: float, grid: TimeGrid) -> np.ndarray:
    """tau(t) = integral g^2/kappa dt' from the start of the grid.

    Trapezoidal quadrature on the grid; tau is non-decreasing and
    dimensionless.  kappa must be positive and g non-negative.
    """
    return _effective_time(g.eval(grid.times()), kappa, grid.dt)


def _effective_time(gv: np.ndarray, kappa: float, dt: float) -> np.ndarray:
    """tau from the coupling samples gv on a grid of step dt."""
    if not (kappa > 0.0 and np.isfinite(kappa)):
        raise ParameterError(f"kappa must be positive, got {kappa}")
    if np.any(gv < 0.0):
        raise ParameterError("coupling schedule must be non-negative")
    return cumtrapz0(gv * gv / kappa, dt)


def effective_fields(field: FieldEnvelope, g: Schedule,
                     kappa: float) -> EffectiveField:
    """Re-index a real-time input/output envelope to effective time.

    The samples are scaled by sqrt(kappa)/g(t), which preserves the
    photon number, and carry their non-uniform tau coordinates.
    Samples where g = 0 must have zero field (tau carries no measure
    there); otherwise the map is singular and SingularTransformError is
    raised.
    """
    t = field.grid.times()
    gv = g.eval(t)
    tau = _effective_time(gv, kappa, field.grid.dt)
    values = _effective_values(field.samples, gv, kappa, t)
    return EffectiveField(tau=tau, t=t, values=values, grid=field.grid)


def _effective_values(samples: np.ndarray, gv: np.ndarray, kappa: float,
                      t: np.ndarray) -> np.ndarray:
    """The samples at times t scaled by sqrt(kappa)/g, g sampled as gv;
    zero where g = 0, where the samples must vanish too."""
    absval = np.abs(samples)
    on = gv > 0.0
    bad = (~on) & (absval > ZERO_LEVEL * absval.max())
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularTransformError(
            f"field is nonzero at t={t[k]:g} where the coupling vanishes; "
            "the effective-field map is singular there")
    factor = np.zeros_like(gv)
    factor[on] = np.sqrt(kappa) / gv[on]
    return np.where(on, samples * factor, 0.0 + 0.0j)


# ---------------------------------------------------------------------------
# photon-number ledger
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Ledger:
    """Photon bookkeeping of one run against its coupling windows.

    All energies are photon numbers: the integrals of |E_in|^2 and
    |E_out|^2, the stored energy at the ends of the grid, and the decay
    loss.  eta_w is the excitation at the last grid sample of the first
    coupling window (the write window) over the input; eta_r is the
    share of the energy stored at the first sample of the second window
    (the read window) that the read releases (see `ledger`);
    eta_tot is the output from there on over the input.  write_end and
    read_start are the times of those two samples.  Entries that do not
    apply to a run (e.g. eta_w for a pure read) are None.
    """

    input_energy: float
    output_energy: float
    stored_initial: float
    stored_final: float
    decay: float
    normalization_drift: float
    eta_w: Optional[float]
    eta_r: Optional[float]
    eta_tot: Optional[float]
    leakage: Optional[float]
    write_end: Optional[float]
    read_start: Optional[float]


def ledger(grid: TimeGrid, windows: list[tuple[int, int]],
           n: np.ndarray, out2: np.ndarray, input_energy: float,
           gamma: float, *, total: Optional[np.ndarray] = None) -> Ledger:
    """The photon-number ledger of one run, for every memory model.

    n is the stored excitation N(t) that decays at rate 2 gamma
    (|sigma|^2 in a cavity, the spin-wave norm in free space), out2 the
    output flux |E_out|^2 on the grid and windows the coupling windows
    of `Schedule.windows`, as grid-sample spans.  total is the whole
    stored energy where it exceeds N (|sigma|^2 + |E_cav|^2 in the full
    cavity model); the normalization drift is the relative residual of
    E_in + total(t0) = E_out + total(t_end) + decay.

    With input, the first window writes up to its last sample and the
    second reads from its first; with no window on the grid nothing is
    stored (eta_w = eta_tot = 0) and the whole output is leakage.
    Without input, stored excitation makes a pure read from the grid
    start with zero leakage.  eta_r, for every model, is the drop of
    total over the read less the decay of N there, over total at the
    read start: energy continuity, smooth in t across coupling edges,
    and at most 1 even when the full model's cavity still holds light
    there.
    """
    h = grid.dt
    total = n if total is None else total
    output_energy = float(np.trapezoid(out2, dx=h))
    decay = 2.0 * gamma * float(np.trapezoid(n, dx=h))
    norm = max(input_energy, float(total[0]))
    drift = 0.0
    if norm > 0.0:
        drift = abs(input_energy + float(total[0]) - output_energy
                    - float(total[-1]) - decay) / norm

    eta_w = eta_r = eta_tot = leakage = None
    write_end = read_start = i_r = None
    if input_energy > 0.0 and windows:
        i_w = windows[0][1]
        write_end = grid.t0 + grid.dt * i_w
        eta_w = float(n[i_w]) / input_energy
        leakage = float(np.trapezoid(out2[: i_w + 1], dx=h)) / input_energy
        if len(windows) > 1:
            i_r = windows[1][0]
            read_start = grid.t0 + grid.dt * i_r
    elif input_energy > 0.0:
        eta_w = eta_tot = 0.0
        leakage = output_energy / input_energy
    elif n[0] > 0.0:
        read_start, i_r, leakage = grid.t0, 0, 0.0
    if i_r is not None:
        if total[i_r] > 0.0:
            tail = 2.0 * gamma * np.trapezoid(n[i_r:], dx=h)
            eta_r = float((total[i_r] - total[-1] - tail) / total[i_r])
        if input_energy > 0.0:
            eta_tot = float(np.trapezoid(out2[i_r:], dx=h)) / input_energy

    return Ledger(
        input_energy=input_energy, output_energy=output_energy,
        stored_initial=float(total[0]), stored_final=float(total[-1]),
        decay=decay, normalization_drift=drift, eta_w=eta_w, eta_r=eta_r,
        eta_tot=eta_tot, leakage=leakage, write_end=write_end,
        read_start=read_start)
