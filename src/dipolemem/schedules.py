"""Time grids, control schedules and field envelopes.

Everything downstream runs on a uniform time grid.  Controls (coupling
g(t), detuning Delta(t)) are `Schedule` objects: sorted, non-overlapping
segments that evaluate to exactly zero outside their supports.  Light
fields are `FieldEnvelope` objects with complex samples in units of
s^(-1/2), so that the trapezoidal norm integral(|E|^2 dt) is a
dimensionless (mean photon) number.

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

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

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
        if not (self.dt > 0.0) or not np.isfinite(self.dt):
            raise ParameterError(f"TimeGrid.dt must be positive, got {self.dt}")
        if self.n < 2:
            raise ParameterError(f"TimeGrid.n must be >= 2, got {self.n}")
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
        if not t1 > t0:
            raise ParameterError(f"need t1 > t0, got [{t0}, {t1}]")
        return cls(t0, (t1 - t0) / (n - 1), n)

    def index_of(self, t: float) -> int:
        """Index of the grid point nearest to t (t must be on the grid
        to within 1e-9*dt for exact bookkeeping; no check here)."""
        return int(round((t - self.t0) / self.dt))


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


@dataclass(frozen=True)
class SquareSegment:
    """Constant amplitude on the closed interval [start, end]."""

    start: float
    end: float
    amplitude: float

    def __post_init__(self):
        _check_finite(self, "square")

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        tol = _edge_tol(self.start, self.end)
        return np.where((t >= self.start - tol) & (t <= self.end + tol),
                        self.amplitude, 0.0)

    def peak_abs(self) -> float:
        return abs(self.amplitude)

    def scaled(self, s: float) -> "SquareSegment":
        return SquareSegment(self.start, self.end, self.amplitude * s)


@dataclass(frozen=True)
class GaussianSegment:
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

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        tol = _edge_tol(self.start, self.end)
        v = self.amplitude * np.exp(-((t - self.center) ** 2) / (2.0 * self.width ** 2))
        return np.where((t >= self.start - tol) & (t <= self.end + tol), v, 0.0)

    def peak_abs(self) -> float:
        # peak within the support window
        tc = min(max(self.center, self.start), self.end)
        return abs(self.amplitude * np.exp(-((tc - self.center) ** 2)
                                           / (2.0 * self.width ** 2)))

    def scaled(self, s: float) -> "GaussianSegment":
        return GaussianSegment(self.start, self.end, self.amplitude * s,
                               self.center, self.width)


@dataclass(eq=False)
class PiecewiseLinearSegment:
    """Linear interpolation through (times, values) knots; support is
    [times[0], times[-1]]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        _check_knots(self.times, self.values, "piecewise-linear")

    @property
    def start(self) -> float:
        return float(self.times[0])

    @property
    def end(self) -> float:
        return float(self.times[-1])

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        tol = _edge_tol(self.start, self.end)
        v = np.interp(np.clip(t, self.start, self.end), self.times, self.values)
        return np.where((t >= self.start - tol) & (t <= self.end + tol), v, 0.0)

    def peak_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def scaled(self, s: float) -> "PiecewiseLinearSegment":
        return PiecewiseLinearSegment(self.times, self.values * s)


@dataclass(eq=False)
class TabulatedSegment:
    """Sampled control interpolated with a monotone piecewise cubic
    (PCHIP).  The interpolant never overshoots the tabulated range, so
    a non-negative table stays non-negative."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        _check_knots(self.times, self.values, "tabulated")
        self._interp = PchipInterpolator(self.times, self.values, extrapolate=False)

    @property
    def start(self) -> float:
        return float(self.times[0])

    @property
    def end(self) -> float:
        return float(self.times[-1])

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        tol = _edge_tol(self.start, self.end)
        v = self._interp(np.clip(t, self.start, self.end))
        v = np.where(np.isnan(v), 0.0, v)
        return np.where((t >= self.start - tol) & (t <= self.end + tol), v, 0.0)

    def peak_abs(self) -> float:
        # PCHIP extrema sit at the knots
        return float(np.max(np.abs(self.values)))

    def scaled(self, s: float) -> "TabulatedSegment":
        return TabulatedSegment(self.times, self.values * s)


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


Segment = SquareSegment | GaussianSegment | PiecewiseLinearSegment | TabulatedSegment


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
    segments may share an endpoint but should not both be nonzero
    there (contributions add).
    """

    segments: list

    def __post_init__(self):
        segs = sorted(self.segments, key=lambda s: (s.start, s.end))
        for seg in segs:
            if not seg.end > seg.start:
                raise ParameterError(
                    f"segment support [{seg.start}, {seg.end}] is empty")
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                raise ParameterError(
                    f"segment supports overlap: [{a.start}, {a.end}] and "
                    f"[{b.start}, {b.end}]")
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

    def __call__(self, t):
        return self.eval(t)

    # -- structure ----------------------------------------------------------

    def support_intervals(self) -> list[tuple[float, float]]:
        """Merged closed intervals on which the schedule can be nonzero."""
        ivals = [(s.start, s.end) for s in self.segments if s.peak_abs() > 0.0]
        merged: list[tuple[float, float]] = []
        for a, b in ivals:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(b, merged[-1][1]))
            else:
                merged.append((a, b))
        return merged

    def windows(self, grid: TimeGrid) -> list[tuple[float, float]]:
        """The support intervals that overlap the grid, clipped to it:
        the coupling windows a run on this grid sees, in time order."""
        return [(max(a, grid.t0), min(b, grid.t_end))
                for a, b in self.support_intervals()
                if b > grid.t0 and a < grid.t_end]

    def scaled(self, s: float) -> "Schedule":
        return Schedule([seg.scaled(s) for seg in self.segments])

    def is_nonnegative(self, grid: TimeGrid | None = None) -> bool:
        """Cheap non-negativity check (knot/amplitude based; optionally
        verified on a grid)."""
        for seg in self.segments:
            if isinstance(seg, (SquareSegment, GaussianSegment)):
                if seg.amplitude < 0.0:
                    return False
            else:
                if np.any(seg.values < 0.0):
                    return False
        if grid is not None and self.segments:
            if np.any(self.eval(grid.times()) < 0.0):
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
        if support is None:
            support = (center - 8.0 * width, center + 8.0 * width)
        return cls([GaussianSegment(support[0], support[1], amplitude,
                                    center, width)])

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


def coupling_from_dipole(phys: DipolePhysical) -> Schedule:
    """Coupling-rate schedule g(t) = sqrt(N) sqrt(omega0/(2 eps0 hbar V)) * p(t).

    p(t) is the tabulated dipole moment; the returned schedule is
    tabulated on the same knots (PCHIP in between, zero outside).
    """
    from scipy.constants import epsilon_0, hbar

    factor = np.sqrt(phys.atom_count) * np.sqrt(
        phys.omega0 / (2.0 * epsilon_0 * hbar * phys.volume))
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


def effective_time(g: Schedule, kappa: float, grid: TimeGrid) -> np.ndarray:
    """tau(t) = integral g^2/kappa dt' from the start of the grid.

    Trapezoidal quadrature on the grid; tau is non-decreasing and
    dimensionless.  kappa must be positive and g non-negative.
    """
    if not (kappa > 0.0 and np.isfinite(kappa)):
        raise ParameterError(f"kappa must be positive, got {kappa}")
    gv = g.eval(grid.times())
    if np.any(gv < 0.0):
        raise ParameterError("coupling schedule must be non-negative")
    return cumtrapz0(gv * gv / kappa, grid.dt)


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
    tau = effective_time(g, kappa, field.grid)
    absval = np.abs(field.samples)
    fmax = absval.max() if absval.size else 0.0
    on = gv > 0.0
    bad = (~on) & (absval > ZERO_LEVEL * fmax)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularTransformError(
            f"field is nonzero at t={t[k]:g} where the coupling vanishes; "
            "the effective-field map is singular there")
    factor = np.zeros_like(gv)
    factor[on] = np.sqrt(kappa) / gv[on]
    values = np.where(on, field.samples * factor, 0.0 + 0.0j)
    return EffectiveField(tau=tau, t=t, values=values, grid=field.grid)


# ---------------------------------------------------------------------------
# photon-number ledger
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Ledger:
    """Photon bookkeeping of one run against its coupling windows.

    All energies are photon numbers: the integrals of |E_in|^2 and
    |E_out|^2, the stored energy at the ends of the grid, and the decay
    loss (also as a fraction of the budget: the input, or the initial
    excitation of a pure read).  eta_w is evaluated at the end of the
    first coupling window (the write window); eta_r relates the output
    from the start of the second window (the read window) to the
    excitation stored there; eta_tot is that read output over the input.
    Entries that do not apply to a run (e.g. eta_w for a pure read) are
    None.  Note the units of the two decay entries: `decay` is in
    photons, `decay_loss` is that over the budget (a fraction), while
    the `decay_loss` a run writes to result.json is `decay`, in photons.
    """

    input_energy: float
    output_energy: float
    stored_initial: float
    stored_final: float
    decay: float
    decay_loss: float
    normalization_drift: float
    eta_w: Optional[float]
    eta_r: Optional[float]
    eta_tot: Optional[float]
    leakage: Optional[float]
    read_energy: Optional[float]
    write_end: Optional[float]
    read_start: Optional[float]


def ledger(grid: TimeGrid, windows: list[tuple[float, float]],
           n: np.ndarray, out2: np.ndarray, input_energy: float,
           gamma: float, *,
           total: Optional[np.ndarray] = None,
           read_by_continuity: bool = False) -> Ledger:
    """The photon-number ledger of one run, for every memory model.

    n is the stored excitation N(t) that decays at rate 2 gamma
    (|sigma|^2 in a cavity, the spin-wave norm in free space), out2 the
    output flux |E_out|^2 on the grid and windows the coupling windows
    of `Schedule.windows`.  total is the whole stored energy where it
    exceeds N (|sigma|^2 + |E_cav|^2 in the full cavity model); the
    normalization drift is the relative residual of
    E_in + total(t0) = E_out + total(t_end) + decay.

    With input, the first window writes and the second reads; with no
    window on the grid nothing is stored (eta_w = eta_tot = 0) and the
    whole output is leakage.  Without input, stored excitation makes a
    pure read from the grid start with zero leakage.  eta_r is the read
    output over the stored excitation, or with read_by_continuity the
    drop of N over the read minus its decay, which stays smooth in t
    across coupling edges.
    """
    h = grid.dt
    total = n if total is None else total
    output_energy = float(np.trapezoid(out2, dx=h))
    decay = 2.0 * gamma * float(np.trapezoid(n, dx=h))
    budget = input_energy if input_energy > 0.0 else float(n[0])
    norm = max(input_energy, float(total[0]))
    drift = 0.0
    if norm > 0.0:
        drift = abs(input_energy + float(total[0]) - output_energy
                    - float(total[-1]) - decay) / norm

    eta_w = eta_r = eta_tot = leakage = read_energy = None
    write_end = read_start = i_r = None
    if input_energy > 0.0 and windows:
        write_end = windows[0][1]
        i_w = grid.index_of(write_end)
        eta_w = float(n[i_w]) / input_energy
        leakage = float(np.trapezoid(out2[: i_w + 1], dx=h)) / input_energy
        if len(windows) > 1:
            read_start = windows[1][0]
            i_r = grid.index_of(read_start)
    elif input_energy > 0.0:
        eta_w = eta_tot = 0.0
        leakage = output_energy / input_energy
    elif n[0] > 0.0:
        read_start, i_r, leakage = grid.t0, 0, 0.0
    if i_r is not None:
        stored = float(n[i_r])
        read_energy = float(np.trapezoid(out2[i_r:], dx=h))
        if stored > 0.0:
            if read_by_continuity:
                tail = 2.0 * gamma * float(np.trapezoid(n[i_r:], dx=h))
                eta_r = (stored - float(n[-1]) - tail) / stored
            else:
                eta_r = read_energy / stored
        if input_energy > 0.0:
            eta_tot = read_energy / input_energy

    return Ledger(
        input_energy=input_energy, output_energy=output_energy,
        stored_initial=float(total[0]), stored_final=float(total[-1]),
        decay=decay, decay_loss=decay / budget if budget > 0.0 else 0.0,
        normalization_drift=drift, eta_w=eta_w, eta_r=eta_r,
        eta_tot=eta_tot, leakage=leakage, read_energy=read_energy,
        write_end=write_end, read_start=read_start)
