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
these on uniform grids.  `numeric_evolution` is the cross-check and the
workhorse for runs and sweeps: the system treats z and tau alike, so it
marches along z, n_z - 1 midpoint steps each on the whole tau axis
(any increasing one), keeping only the boundary traces when asked.

Scaled variables: for a medium of length L, x = z/L, theta = tau*L,
A = curly-E/sqrt(L) and S_hat = sqrt(L)*S satisfy the same system on
x in [0,1], with photon-exact bookkeeping:

    photons in/out at an end  = integral |A|^2 e^{-2 gamma t(theta)} dtheta
    excitations stored        = e^{-2 gamma t} integral |S_hat|^2 dx

`storage_retrieval_sweep` uses these to scan storage + retrieval
efficiency against the peak optical depth of a scenario's Gaussian
coupling pulse, for forward and backward retrieval; it solves each
coupling window with `numeric_evolution` on the window's own uniform
theta grid, where theta(t) is an erf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .errors import (ParameterError, ResolutionError, SingularTransformError)
from .schedules import (FieldEnvelope, GaussianSegment, Schedule, TimeGrid,
                        ZERO_LEVEL, cumtrapz0)

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


def numeric_evolution(bc, ic, tau, z, *,
                      store_fields: bool = True) -> FreeSpaceFields:
    """March the reduced system along z (midpoint rule, second order),
    integrating dS/dtau = -E by running trapezoid over the whole tau
    axis at each stage.

    Takes n_z - 1 steps, each on whole tau arrays, so the cost in
    Python steps does not grow with the tau node count.  Independent of
    the kernel solution; with store_fields=False only the boundary
    traces and the final spin wave are kept, which is what the
    efficiency sweeps need.  Unlike the kernel route, the tau axis may
    be any increasing axis (the trapezoid takes the cell widths), which
    lets callers cluster nodes where the boundary trace has structure.
    """
    bc, ic, tau, z = _check_axes(bc, ic, tau, z, uniform_tau=False)
    _check_resolution(tau, z)
    n_z = z.size
    h_z = z[1] - z[0]
    d_tau = np.diff(tau)

    e_mat = np.empty((tau.size, n_z), dtype=complex) if store_fields else None
    s_mat = np.empty((tau.size, n_z), dtype=complex) if store_fields else None
    s_final = np.empty(n_z, dtype=complex)
    s_norm2 = np.zeros(tau.size)

    e_now = bc.copy()
    for j in range(n_z):
        s_now = ic[j] - cumtrapz0(e_now, d_tau)
        s_final[j] = s_now[-1]
        weight = 0.5 * h_z if j in (0, n_z - 1) else h_z
        s_norm2 += weight * np.abs(s_now) ** 2
        if store_fields:
            e_mat[:, j] = e_now
            s_mat[:, j] = s_now
        if j == n_z - 1:
            break
        e_half = e_now + (0.5 * h_z) * s_now
        s_half = 0.5 * (ic[j] + ic[j + 1]) - cumtrapz0(e_half, d_tau)
        e_now = e_now + h_z * s_half

    return FreeSpaceFields(tau=tau, z=z, e=e_mat, s=s_mat, e_end=e_now,
                           s_final=s_final, s_norm2=s_norm2)


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

# The sweep simulates each coupling pulse only where its depth profile
# rho(t) = d gamma exp(-(t - t_c)^2 / sigma^2) is at least this fraction
# of its peak; outside that window the medium is transparent.  Moving
# the cut moves every sweep row, and with them the numbers the
# benchmark's kernel check pins, so it is fixed.
_WINDOW_CUT = 1e-3
# half-width of the active window in units of sigma
_WINDOW_RADIUS = float(np.sqrt(np.log(1.0 / _WINDOW_CUT)))

# theta step used when the reduced grid size is chosen automatically
_AUTO_THETA_STEP = 0.01
_MIN_AUTO_THETA_POINTS = 801


def theta_nodes(theta_total: float, theta_points: Optional[int] = None) -> int:
    """Reduced-time node count: theta_points when given, else enough
    nodes for a theta step of 0.01 (at least 801)."""
    if theta_points is not None:
        return theta_points
    return max(_MIN_AUTO_THETA_POINTS,
               int(np.ceil(theta_total / _AUTO_THETA_STEP)) + 1)


def _window_theta_map(d: float, gamma: float, sigma: float, center: float,
                      n_theta: int):
    """Uniform theta grid over one active coupling window.

    Returns (theta, t_of_theta, rho_of_theta).  For rho(t) =
    d*gamma*exp(-(t-center)^2/sigma^2) on |t - center| <= R the
    effective time is theta(t) = (full/2) (erf((t-center)/sigma) +
    erf(R/sigma)) with full = d*gamma*sigma*sqrt(pi), inverted exactly.
    """
    full = d * gamma * sigma * np.sqrt(np.pi)
    edge = special.erf(_WINDOW_RADIUS)
    theta = np.linspace(0.0, full * edge, n_theta)
    t_of = center + sigma * special.erfinv(2.0 * theta / full - edge)
    rho_of = d * gamma * np.exp(-((t_of - center) / sigma) ** 2)
    return theta, t_of, rho_of


def _sweep_point(d, medium, coupling, input_center, input_sigma, read_gap,
                 x, detuning, theta_points):
    """(eta_write, eta_forward, eta_backward, theta_total) at depth d: the
    write and both reads each z-marched over its window's theta grid."""
    if d == 0.0:
        # no coupling: the medium is transparent, nothing is stored
        return 0.0, 0.0, 0.0, 0.0
    gam = medium.gamma
    sigma = coupling.width
    # input photons normalized to 1: |E~|^2 = exp(-t^2/sig^2)/(sig sqrt(pi))
    norm = (input_sigma * np.sqrt(np.pi)) ** -0.5
    n_theta = theta_nodes(d * gam * sigma * np.sqrt(np.pi), theta_points)

    # ---- write ----
    theta_w, t_w, rho_w = _window_theta_map(d, gam, sigma, coupling.center,
                                            n_theta)
    e_amp = norm * np.exp(-((t_w - input_center) ** 2)
                          / (2.0 * input_sigma ** 2))
    bc_w = e_amp * np.exp(gam * t_w) / (1j * np.sqrt(rho_w))
    if detuning is not None:
        # accumulated detuning phase over the write window (the phase
        # reference is arbitrary: a constant offset cancels in |.|^2).
        # t_w is non-uniform (uniform in theta), so integrate against it.
        # The read windows are source-free and only pick up an overall
        # phase.
        phi = cumtrapz0(detuning(t_w).real, np.diff(t_w))
        bc_w = bc_w * np.exp(1j * phi)
    wr = numeric_evolution(bc_w, np.zeros(x.size, dtype=complex),
                           theta_w, x, store_fields=False)
    t_wend = t_w[-1]
    eta_write = float(np.exp(-2.0 * gam * t_wend)
                      * np.trapezoid(np.abs(wr.s_final) ** 2, x=x))

    # ---- read (forward, and backward with the spin wave mirrored) ----
    read_center = t_wend + read_gap + _WINDOW_RADIUS * sigma
    theta_r, t_r, _ = _window_theta_map(d, gam, sigma, read_center, n_theta)
    bc_zero = np.zeros_like(theta_r, dtype=complex)
    weight = np.exp(-2.0 * gam * t_r)
    etas = []
    for ic in (wr.s_final, wr.s_final[::-1].copy()):
        rd = numeric_evolution(bc_zero, ic, theta_r, x, store_fields=False)
        etas.append(float(np.trapezoid(np.abs(rd.e_end) ** 2 * weight,
                                       x=theta_r)))
    return eta_write, etas[0], etas[1], float(theta_w[-1])


def storage_retrieval_sweep(d_values, medium: MediumParams,
                            coupling: GaussianSegment, input_center: float,
                            input_sigma: float, read_gap: float,
                            space_points: int,
                            detuning: Optional[Schedule] = None,
                            theta_points: Optional[int] = None) -> np.ndarray:
    """Storage + retrieval efficiency against peak optical depth d.

    For each d the write coupling is the Gaussian `coupling` (its centre
    and width; the amplitude is set to g_max = sqrt(d gamma c / L), so
    the depth profile g^2 L / c peaks at d gamma).  It stores an
    amplitude-Gaussian input of unit photon number (centre
    `input_center`, standard deviation `input_sigma`).  An identical
    pulse, whose active window starts `read_gap` after the write window
    ends, retrieves the spin wave: forward at the far end, and backward
    at the input end with the spin wave spatially mirrored (Gorshkov,
    Andre, Lukin & Sorensen, PRA 76, 033805 (2007)).  Each window is
    solved by the z-march `numeric_evolution` in `space_points` - 1
    steps, each over the window's own uniform theta grid (`theta_nodes`
    nodes).  A detuning schedule chirps the write boundary trace.

    Returns one row (d, eta_write, eta_forward, eta_backward,
    theta_total) per depth; efficiencies are photon-number fractions.
    """
    if not medium.gamma > 0.0:
        raise ParameterError("the depth sweep needs gamma > 0 "
                             "(d is measured in units of gamma)")
    if not (input_sigma > 0.0 and read_gap >= 0.0):
        raise ParameterError("the depth sweep needs input_sigma > 0 and "
                             "read_gap >= 0")
    d_arr = np.atleast_1d(np.asarray(d_values, dtype=float))
    if d_arr.ndim != 1 or d_arr.size == 0:
        raise ParameterError("d_values must be a non-empty 1-d collection")
    bad = ~(np.isfinite(d_arr) & (d_arr >= 0.0))
    if np.any(bad):
        raise ParameterError(f"optical depth must be finite and >= 0, "
                             f"got {d_arr[bad][0]}")
    x = np.linspace(0.0, 1.0, space_points)
    return np.array([(d, *_sweep_point(d, medium, coupling, input_center,
                                       input_sigma, read_gap, x, detuning,
                                       theta_points))
                     for d in d_arr.tolist()])
