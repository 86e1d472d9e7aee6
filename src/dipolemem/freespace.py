"""Free-space / waveguide propagation with a time-controlled coupling.

Lab frame (co-moving with the pulse, slowly varying envelopes):

    dsigma/dt = -(gamma + i Delta(t)) sigma + i g(t) E
    dE/dz     = i (g(t)/c) sigma

With S = e^{i chi} sigma, curly-E = (c E / (i g)) e^{i chi},
chi(t) = integral (Delta - i gamma) dt', and the effective time
tau(t) = integral g^2/c dt' (units 1/length), the system collapses to
the parameter-free pair

    dS/dtau = -curly-E,        dcurly-E/dz = S.

Its exact solution is a pair of causal convolutions against the entire
kernels

    K0(a) = sum_k a^k / (k!)^2        (= I0(2 sqrt(a)) for a >= 0,
                                         J0(2 sqrt(-a)) for a < 0)
    K1(a) = sum_k a^k / (k! (k+1)!)

namely (primes are integration variables; all kernel arguments are
non-positive in the causal region):

    E(z,t) = E(0,t) + int_0^z S(z',0) K0(t (z'-z)) dz'
                    - z int_0^t E(0,t') K1((t'-t) z) dt'
    S(z,t) = S(z,0) - int_0^t E(0,t') K0(z (t'-t)) dt'
                    - t int_0^z S(z',0) K1(t (z'-z)) dz'

(with E for curly-E and t for tau).  `analytic_evolution` evaluates
these on uniform grids; `numeric_evolution` marches the reduced system
directly and is the cross-check (and the workhorse for sweeps, where
only boundary traces are kept).

Scaled variables: for a medium of length L, x = z/L, theta = tau*L,
A = curly-E/sqrt(L) and S_hat = sqrt(L)*S satisfy the same system on
x in [0,1], with photon-exact bookkeeping:

    photons in/out at an end  = integral |A|^2 e^{-2 gamma t(theta)} dtheta
    excitations stored        = e^{-2 gamma t} integral |S_hat|^2 dx

`storage_retrieval_sweep` uses these to scan storage + retrieval
efficiency against the peak optical depth of the coupling pulse, for
forward and backward retrieval.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate, special

from .errors import (ParameterError, ResolutionError, SingularTransformError)
from .schedules import (FieldEnvelope, Schedule, TimeGrid, ZERO_LEVEL,
                        cumtrapz0)

# Largest kernel-argument change across one grid cell before the
# trapezoid quadrature of the kernel convolutions degrades.
MAX_CELL_ARG = 0.5

_SERIES_CUT = 30.0
_SERIES_TERMS = 48


@dataclass(frozen=True)
class MediumParams:
    """Uniform atomic medium of physical length (m) with a spin decay
    rate gamma (rad/s).  c is the signal group velocity."""

    length: float
    gamma: float = 0.0
    c: float = 299792458.0

    def __post_init__(self):
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ParameterError(f"medium length must be positive, got {self.length}")
        if self.gamma < 0.0 or not np.isfinite(self.gamma):
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}")
        if not (self.c > 0.0 and np.isfinite(self.c)):
            raise ParameterError(f"group velocity must be positive, got {self.c}")


@dataclass(eq=False)
class SpinWave:
    """Spin-wave amplitude samples on a uniform grid of positions."""

    z: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.z.ndim != 1 or self.z.shape != self.values.shape or self.z.size < 2:
            raise ParameterError("SpinWave needs matching 1-d z/value arrays (>=2)")
        dz = np.diff(self.z)
        if not np.all(dz > 0) or not np.allclose(dz, dz[0], rtol=1e-9):
            raise ParameterError("SpinWave positions must be uniform and increasing")

    def excitation(self) -> float:
        """integral |S|^2 dz."""
        return float(np.trapezoid(np.abs(self.values) ** 2, x=self.z))

    def flipped(self) -> "SpinWave":
        """Spatially mirrored wave (backward retrieval geometry)."""
        return SpinWave(self.z, self.values[::-1].copy())


# ---------------------------------------------------------------------------
# entire kernels
# ---------------------------------------------------------------------------

def _kernel_series(a: np.ndarray, order: int) -> np.ndarray:
    acc = np.ones_like(a)
    term = np.ones_like(a)
    for k in range(1, _SERIES_TERMS + 1):
        term = term * (a / (k * (k + order)))
        acc += term
    return acc


def entire_bessel_kernel(a, order: int = 0):
    """K0(a) = sum a^k/(k!)^2 or K1(a) = sum a^k/(k!(k+1)!), entire in a.

    Power series on |a| <= 30; modified/ordinary Bessel forms
    I_n(2 sqrt(a)), J_n(2 sqrt(-a)) outside, where the series would
    lose digits to cancellation (a < 0) or cost extra terms (a > 0).
    """
    if order not in (0, 1):
        raise ParameterError(f"kernel order must be 0 or 1, got {order}")
    a_arr = np.asarray(a, dtype=float)
    out = np.empty_like(a_arr)
    small = np.abs(a_arr) <= _SERIES_CUT
    if np.any(small):
        out[small] = _kernel_series(a_arr[small], order)
    pos = a_arr > _SERIES_CUT
    if np.any(pos):
        ap = a_arr[pos]
        x = 2.0 * np.sqrt(ap)
        out[pos] = special.i0(x) if order == 0 else special.i1(x) / np.sqrt(ap)
    neg = a_arr < -_SERIES_CUT
    if np.any(neg):
        an = -a_arr[neg]
        x = 2.0 * np.sqrt(an)
        out[neg] = special.j0(x) if order == 0 else special.j1(x) / np.sqrt(an)
    if np.isscalar(a) or a_arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# reduced-system solvers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FreeSpaceFields:
    """Solution record of the reduced system on a (tau, z) rectangle.

    e/s are (n_tau, n_z) field and spin-wave matrices (None when a
    solver ran in trace-only mode); e_end is the field at the far end
    of the medium for each tau, s_final the spin wave at the last tau,
    and s_norm2 the running integral |S|^2 dz.
    """

    tau: np.ndarray
    z: np.ndarray
    e: Optional[np.ndarray]
    s: Optional[np.ndarray]
    e_end: np.ndarray
    s_final: np.ndarray
    s_norm2: np.ndarray

    def final_spinwave(self) -> SpinWave:
        return SpinWave(self.z, self.s_final)


def _check_axes(bc, ic, tau, z, *, uniform_tau=True):
    tau = np.asarray(tau, dtype=float)
    z = np.asarray(z, dtype=float)
    for name, ax, need_uniform in (("tau", tau, uniform_tau), ("z", z, True)):
        if ax.ndim != 1 or ax.size < 2:
            raise ParameterError(f"{name} axis must be 1-d with >= 2 points")
        d = np.diff(ax)
        if not np.all(d > 0):
            raise ParameterError(f"{name} axis must be strictly increasing")
        if need_uniform and not np.allclose(d, d[0], rtol=1e-9):
            raise ParameterError(f"{name} axis must be uniform")
        if abs(ax[0]) > 1e-12 * ax[-1]:
            raise ParameterError(f"{name} axis must start at 0")
    bc = np.asarray(bc, dtype=complex)
    ic = np.asarray(ic, dtype=complex)
    if bc.shape != tau.shape:
        raise ParameterError("boundary trace must be sampled on the tau axis")
    if ic.shape != z.shape:
        raise ParameterError("initial spin wave must be sampled on the z axis")
    return bc, ic, tau, z


def _check_resolution(tau, z):
    h_t = np.diff(tau).max()
    h_z = z[1] - z[0]
    worst = max(tau[-1] * h_z, z[-1] * h_t)
    if worst > MAX_CELL_ARG:
        raise ResolutionError(
            f"kernel argument changes by {worst:.3g} per grid cell "
            f"(limit {MAX_CELL_ARG}); refine the tau/z grids")


def _causal_conv(f: np.ndarray, krow: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid integral int_0^{x_j} f(x') k(x'-x_j) dx' for all j,
    with krow[i] = k(-i h)."""
    n = f.size
    full = np.convolve(f, krow[:n])[:n]
    full = full - 0.5 * f[0] * krow[:n] - 0.5 * f * krow[0]
    return h * full


def analytic_evolution(bc, ic, tau, z) -> FreeSpaceFields:
    """Exact kernel-convolution solution of the reduced system.

    bc: field at z = 0 sampled on the tau axis; ic: spin wave at tau = 0
    sampled on the z axis.  Both axes must be uniform and start at 0.
    Quadrature is trapezoidal, so the overall accuracy is second order;
    the kernels are exact (entire series / Bessel forms).
    """
    bc, ic, tau, z = _check_axes(bc, ic, tau, z)
    _check_resolution(tau, z)
    n_t, n_z = tau.size, z.size
    h_t = tau[1] - tau[0]
    h_z = z[1] - z[0]

    # kernel tables; all causal arguments are <= 0.  On uniform axes from
    # 0, tau_m z_j = (m h_t)(j h_z): row m is the kernel along z at tau_m,
    # column j the kernel along tau at z_j
    arg = -np.outer(tau, h_z * np.arange(n_z))   # (n_t, n_z)
    k0 = entire_bessel_kernel(arg, 0)
    k1 = entire_bessel_kernel(arg, 1)

    e = np.empty((n_t, n_z), dtype=complex)
    s = np.empty((n_t, n_z), dtype=complex)
    for m in range(n_t):                 # spin-wave sources, along z
        e[m] = bc[m] + _causal_conv(ic, k0[m], h_z)
        s[m] = ic - tau[m] * _causal_conv(ic, k1[m], h_z)
    for j in range(n_z):                 # boundary sources, along tau
        e[:, j] -= z[j] * _causal_conv(bc, k1[:, j], h_t)
        s[:, j] -= _causal_conv(bc, k0[:, j], h_t)

    s_norm2 = np.trapezoid(np.abs(s) ** 2, x=z, axis=1)
    return FreeSpaceFields(tau=tau, z=z, e=e, s=s, e_end=e[:, -1].copy(),
                           s_final=s[-1].copy(), s_norm2=s_norm2)


def numeric_evolution(bc, ic, tau, z, *, store_fields: bool = True,
                      check_resolution: bool = True) -> FreeSpaceFields:
    """March the reduced system in tau (midpoint rule, second order),
    integrating dE/dz = S by running trapezoid at each stage.

    Independent of the kernel solution; with store_fields=False only
    the boundary traces and the final spin wave are kept, which is what
    the efficiency sweeps need.  Unlike the kernel route, the tau axis
    may be non-uniform (the step is taken per cell), which lets callers
    cluster nodes where the boundary trace has structure.
    """
    bc, ic, tau, z = _check_axes(bc, ic, tau, z, uniform_tau=False)
    if check_resolution:
        _check_resolution(tau, z)
    n_t = tau.size
    h_z = z[1] - z[0]

    s_now = ic.copy()
    e_mat = np.empty((n_t, z.size), dtype=complex) if store_fields else None
    s_mat = np.empty((n_t, z.size), dtype=complex) if store_fields else None
    e_end = np.empty(n_t, dtype=complex)
    s_norm2 = np.empty(n_t)

    for m in range(n_t):
        e_now = bc[m] + cumtrapz0(s_now, h_z)
        e_end[m] = e_now[-1]
        s_norm2[m] = np.trapezoid(np.abs(s_now) ** 2, dx=h_z)
        if store_fields:
            e_mat[m] = e_now
            s_mat[m] = s_now
        if m == n_t - 1:
            break
        h_t = tau[m + 1] - tau[m]
        s_half = s_now - (0.5 * h_t) * e_now
        e_half = 0.5 * (bc[m] + bc[m + 1]) + cumtrapz0(s_half, h_z)
        s_now = s_now - h_t * e_half

    return FreeSpaceFields(tau=tau, z=z, e=e_mat, s=s_mat, e_end=e_end,
                           s_final=s_now, s_norm2=s_norm2)


def reduced_continuity_residual(fields: FreeSpaceFields, bc) -> float:
    """Max residual of d/dtau int |S|^2 dz = |E(0)|^2 - |E(end)|^2,
    normalized to the peak boundary/end flux.  Exact for the reduced
    system at any gamma/Delta (they live in the transform, not here)."""
    bc = np.asarray(bc, dtype=complex)
    lhs = np.gradient(fields.s_norm2, fields.tau, edge_order=2)
    rhs = np.abs(bc) ** 2 - np.abs(fields.e_end) ** 2
    scale = max(np.abs(rhs).max(), np.abs(lhs).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(lhs - rhs).max() / scale)


# ---------------------------------------------------------------------------
# lab frame <-> reduced variables
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FreeSpaceTransform:
    """Tables mapping lab-frame quantities to the scaled reduced system.

    Built on a TimeGrid for a coupling schedule g(t) (rad/s), detuning
    schedule Delta(t) and a medium.  Holds theta(t) = L * integral
    g^2/c dt (dimensionless effective time), the complex exponent
    chi(t) = integral (Delta - i gamma) dt, and converts:

        boundary field  A(0, theta(t)) = sqrt(c/L) E~(t) e^{i chi} / (i g(t))
        output field    E~(t) = i g(t) sqrt(L/c) A e^{-i chi}
        spin wave       sigma(x,t) = S_hat(x, theta(t)) e^{-i chi} / sqrt(L)

    E~ envelopes are the package-wide photon-flux-normalized fields
    (FieldEnvelope).  theta stalls where g = 0; boundary samples there
    must be zero or the map is singular.
    """

    g: Schedule
    delta: Schedule
    medium: MediumParams
    grid: TimeGrid

    def __post_init__(self):
        t = self.grid.times()
        gv = self.g.eval(t)
        if np.any(gv < 0.0):
            raise ParameterError("coupling schedule must be non-negative")
        self.t = t
        self.gv = gv
        self.rho = gv * gv * self.medium.length / self.medium.c
        self.theta = cumtrapz0(self.rho, self.grid.dt)
        dv = self.delta.eval(t) if self.delta is not None else np.zeros_like(t)
        self.chi = cumtrapz0(dv, self.grid.dt) \
            - 1j * self.medium.gamma * (t - t[0])

    @property
    def theta_total(self) -> float:
        return float(self.theta[-1])

    def boundary_to_reduced(self, e_in: FieldEnvelope) -> np.ndarray:
        """A(0, theta(t_k)) on the time grid (zero where g = 0)."""
        if e_in.grid != self.grid:
            raise ParameterError("envelope grid differs from transform grid")
        absval = np.abs(e_in.samples)
        fmax = absval.max() if absval.size else 0.0
        on = self.gv > 0.0
        bad = (~on) & (absval > ZERO_LEVEL * fmax)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise SingularTransformError(
                f"field is nonzero at t={self.t[k]:g} where the coupling "
                "vanishes; the reduced boundary map is singular there")
        scale = np.sqrt(self.medium.c / self.medium.length)
        out = np.zeros(self.grid.n, dtype=complex)
        out[on] = scale * e_in.samples[on] * np.exp(1j * self.chi[on]) \
            / (1j * self.gv[on])
        return out

    def field_from_reduced(self, values: np.ndarray) -> FieldEnvelope:
        """Lab-frame envelope from reduced field samples on the grid."""
        scale = np.sqrt(self.medium.length / self.medium.c)
        samples = 1j * self.gv * scale * np.asarray(values, dtype=complex) \
            * np.exp(-1j * self.chi)
        return FieldEnvelope(self.grid, samples)

    def decay_weight(self) -> np.ndarray:
        """e^{-2 gamma (t - t0)}: photon-flux weight for reduced traces."""
        return np.exp(-2.0 * self.medium.gamma * (self.t - self.t[0]))


def thin_medium_cavity_coupling(g_value: float, medium: MediumParams,
                                kappa: float) -> float:
    """Cavity coupling equivalent to a thin free-space medium.

    Matching the pulse-consumption rate g^2/kappa of the single-mode
    model against the thin-slab limit of propagation gives
    g_cav^2 / kappa = g^2 L / (2 c), i.e. g_cav = g sqrt(kappa L / (2c)).
    """
    if not kappa > 0.0:
        raise ParameterError("kappa must be positive")
    if g_value < 0.0:
        raise ParameterError("coupling must be non-negative")
    return g_value * np.sqrt(kappa * medium.length / (2.0 * medium.c))


# ---------------------------------------------------------------------------
# storage/retrieval sweep against optical depth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeSpaceScenario:
    """Gaussian-pulse storage/retrieval experiment, parameterized by the
    peak optical depth d of the coupling pulse.

    The input envelope is an amplitude Gaussian (fwtm = full width at
    tenth maximum of the amplitude).  The write coupling is a Gaussian
    g(t) of standard deviation coupling_sigma centered at write_center,
    with peak g_max = sqrt(d gamma c / L) so that the instantaneous
    depth profile rho(t) = g^2 L / c peaks at d * gamma.  The read
    coupling is the same Gaussian displaced so its active window starts
    read_gap after the write window ends.  Active windows keep
    rho >= window_cut * rho_max; outside them the medium is transparent
    and nothing needs simulating.

    The default displacement (coupling peaking slightly before the
    input peak) and width were tuned empirically: most of the effective
    time then elapses early, which turns the Gaussian input into a
    late-rising profile in effective time -- the shape that stores
    well.  Storage efficiency at d ~ 100 is then ~0.85 with backward
    retrieval ~0.74 at gamma = 2 pi * 50 kHz.
    """

    medium: MediumParams
    input_center: float = 0.0
    input_fwtm: float = 300e-9
    coupling_sigma: float = 100e-9
    write_center: float = -50e-9
    read_gap: float = 0.0
    window_cut: float = 1e-3
    n_theta: int = 801
    n_x: int = 201
    # Optional uniform detuning schedule.  In the reduced frame it is
    # equivalent to chirping the input, so it degrades the write
    # efficiency unless the input carries the compensating chirp; the
    # read windows are source-free and only pick up an overall phase.
    detuning: Optional[Schedule] = None

    def __post_init__(self):
        if not (self.input_fwtm > 0 and self.coupling_sigma > 0):
            raise ParameterError("input_fwtm and coupling_sigma must be positive")
        if not (0 < self.window_cut < 1):
            raise ParameterError("window_cut must lie in (0, 1)")
        if self.read_gap < 0:
            raise ParameterError("read_gap must be >= 0")
        if self.n_theta < 16 or self.n_x < 16:
            raise ParameterError("sweep grids need at least 16 points per axis")
        if not self.medium.gamma > 0.0:
            raise ParameterError("the depth sweep needs gamma > 0 "
                                 "(d is measured in units of gamma)")

    @property
    def input_sigma(self) -> float:
        """Amplitude-Gaussian standard deviation from the FWTM."""
        return self.input_fwtm / (2.0 * np.sqrt(2.0 * np.log(10.0)))

    @property
    def window_radius(self) -> float:
        """Half-width of the active coupling window: where the depth
        profile rho ~ exp(-(t-tc)^2/sigma^2) crosses window_cut."""
        return self.coupling_sigma * np.sqrt(np.log(1.0 / self.window_cut))


@dataclass(eq=False)
class SweepResult:
    """Efficiencies against peak optical depth."""

    d: np.ndarray
    eta_write: np.ndarray
    eta_forward: np.ndarray
    eta_backward: np.ndarray
    theta_total: np.ndarray

    def rows(self):
        for k in range(self.d.size):
            yield (self.d[k], self.eta_write[k], self.eta_forward[k],
                   self.eta_backward[k])


def _window_theta_map(scn: FreeSpaceScenario, d: float, center: float,
                      n_theta: int):
    """Uniform theta grid over one active coupling window.

    Returns (theta, t_of_theta, rho_of_theta).  rho(t) =
    d*gamma*exp(-(t-center)^2/sigma^2); theta = cumulative integral.
    """
    gam = scn.medium.gamma
    R = scn.window_radius
    n_dense = 8192
    t_dense = np.linspace(center - R, center + R, n_dense)
    rho_dense = d * gam * np.exp(-((t_dense - center) / scn.coupling_sigma) ** 2)
    th_dense = cumtrapz0(rho_dense, t_dense[1] - t_dense[0])
    theta = np.linspace(0.0, th_dense[-1], n_theta)
    t_of = np.interp(theta, th_dense, t_dense)
    rho_of = d * gam * np.exp(-((t_of - center) / scn.coupling_sigma) ** 2)
    return theta, t_of, rho_of


def _sweep_point(scn: FreeSpaceScenario, d: float):
    if d < 0.0:
        raise ParameterError(f"optical depth must be >= 0, got {d}")
    if d == 0.0:
        # no coupling: the medium is transparent, nothing is stored
        return 0.0, 0.0, 0.0, 0.0
    gam = scn.medium.gamma
    R = scn.window_radius
    sig_e = scn.input_sigma
    # input photons normalized to 1: |E~|^2 = exp(-t^2/sig_e^2)/(sig_e sqrt(pi))
    norm = (sig_e * np.sqrt(np.pi)) ** -0.5

    theta_tot_est = d * gam * scn.coupling_sigma * np.sqrt(np.pi)
    n_theta = max(scn.n_theta, int(np.ceil(theta_tot_est / 0.01)) + 1)
    x = np.linspace(0.0, 1.0, scn.n_x)

    # ---- write ----
    theta_w, t_w, rho_w = _window_theta_map(scn, d, scn.write_center, n_theta)
    e_amp = norm * np.exp(-((t_w - scn.input_center) ** 2)
                          / (2.0 * sig_e ** 2))
    bc_w = e_amp * np.exp(gam * t_w) / (1j * np.sqrt(rho_w))
    if scn.detuning is not None:
        # accumulated detuning phase over the write window (the phase
        # reference is arbitrary: a constant offset cancels in |.|^2).
        # t_w is non-uniform (uniform in theta), so integrate against it.
        phi = integrate.cumulative_trapezoid(scn.detuning(t_w).real, t_w,
                                             initial=0.0)
        bc_w = bc_w * np.exp(1j * phi)
    wr = numeric_evolution(bc_w, np.zeros(scn.n_x, dtype=complex),
                           theta_w, x, store_fields=False,
                           check_resolution=False)
    t_wend = t_w[-1]
    eta_write = float(np.exp(-2.0 * gam * t_wend)
                      * np.trapezoid(np.abs(wr.s_final) ** 2, x=x))

    # ---- read (forward and backward) ----
    read_center = t_wend + scn.read_gap + R
    theta_r, t_r, _ = _window_theta_map(scn, d, read_center, n_theta)
    bc_zero = np.zeros_like(theta_r, dtype=complex)
    weight = np.exp(-2.0 * gam * t_r)
    etas = {}
    for tag, ic in (("forward", wr.s_final),
                    ("backward", wr.s_final[::-1].copy())):
        rd = numeric_evolution(bc_zero, ic, theta_r, x, store_fields=False,
                               check_resolution=False)
        out = np.trapezoid(np.abs(rd.e_end) ** 2 * weight, x=theta_r)
        etas[tag] = float(out)
    return eta_write, etas["forward"], etas["backward"], float(theta_w[-1])


def _sweep_point_args(args):
    return _sweep_point(*args)


def storage_retrieval_sweep(scn: FreeSpaceScenario, d_values,
                            workers: Optional[int] = None) -> SweepResult:
    """Storage + retrieval efficiency against peak optical depth.

    For each d: store the Gaussian input with the write coupling pulse,
    then retrieve with an identical coupling pulse, reading the emitted
    photon number at the far end (forward) and, with the spin wave
    spatially mirrored, at the input end (backward).  All efficiencies
    are photon-number fractions of the (unit) input.  Serial by
    default; workers > 1 fans the depth points out to processes.
    """
    d_arr = np.atleast_1d(np.asarray(d_values, dtype=float))
    if d_arr.ndim != 1 or d_arr.size == 0:
        raise ParameterError("d_values must be a non-empty 1-d collection")
    args = [(scn, float(d)) for d in d_arr]
    if workers is not None and workers > 1 and d_arr.size > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point_args, args))
    else:
        rows = [_sweep_point(*a) for a in args]
    ew, ef, eb, th = (np.array(col) for col in zip(*rows))
    return SweepResult(d=d_arr, eta_write=ew, eta_forward=ef,
                       eta_backward=eb, theta_total=th)
