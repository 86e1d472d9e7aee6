"""Single-mode cavity memory dynamics.

Two models of one atom/ensemble dipole coupled to a one-sided cavity:

* ``simulate_full`` integrates the coupled pair
      d sigma/dt = -(i Delta(t) + gamma) sigma + i g(t) E
      d E/dt     =  i g(t) sigma - kappa E + sqrt(2 kappa) E_in
      E_out      = -E_in + sqrt(2 kappa) E
  (E is the intracavity field, kappa its amplitude decay rate).

* ``simulate_adiabatic`` eliminates the cavity field in the bad-cavity
  limit, E = (i g sigma + sqrt(2 kappa) E_in)/kappa, leaving
      d sigma/dt = -(i Delta + gamma + g^2/kappa) sigma
                   + i sqrt(2/kappa) g E_in
      E_out      =  E_in + i sqrt(2/kappa) g sigma.

Both are linear, x' = J(t) x + f(t) with x = sigma or (sigma, E), and
use one classical fixed-step RK4 scheme on the TimeGrid (reproducible;
no adaptivity).  `_rk4_maps` writes each step as an affine map
x_{k+1} = x_k + D_k x_k + v_k from the stage values (schedules at the
exact stage times, input samples linearly interpolated at the half
step), and `_affine_scan` composes the maps with a blocked prefix scan,
so Python loops run O(sqrt(n)) times instead of once per step.

Efficiencies are defined through the photon-number ledger
(`schedules.ledger`): at any detuning the dynamics obey
dN/dt = |E_in|^2 - |E_out|^2 - 2 gamma |sigma|^2, so a normalized input
pulse splits into stored excitation, leaked (reflected/transmitted)
energy and, for gamma > 0, dipole decay loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, StabilityError
from .schedules import (FieldEnvelope, Ledger, Schedule, TimeGrid,
                        _effective_time, ledger)

# Explicit RK4 is stable for |rate * dt| up to ~2.8, but accuracy (and the
# spirit of a fixed-step scheme) wants a hard guard well below that.
MAX_RATE_STEP = 0.1


@dataclass(frozen=True)
class CavityParams:
    """kappa: cavity field amplitude decay rate (rad/s), gamma: dipole
    amplitude decay rate (rad/s)."""

    kappa: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.kappa > 0.0 and np.isfinite(self.kappa)):
            raise ParameterError(f"kappa must be positive, got {self.kappa}")
        if not (self.gamma >= 0.0 and np.isfinite(self.gamma)):
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}")

    def cooperativity(self, g0: float) -> float:
        """C = g0^2 / (kappa * gamma); requires gamma > 0."""
        if self.gamma <= 0.0:
            raise ParameterError("cooperativity is undefined for gamma = 0")
        return g0 * g0 / (self.kappa * self.gamma)


@dataclass(eq=False)
class SimResult(Ledger):
    """Trajectories plus the photon-number ledger (`Ledger`, N = |sigma|^2)
    of one run; e_cav is None where the model slaves the field to sigma."""

    grid: TimeGrid
    params: CavityParams
    g: Schedule
    sigma: np.ndarray
    e_cav: Optional[np.ndarray]
    e_in: Optional[FieldEnvelope]
    e_out: FieldEnvelope
    tau: np.ndarray


# ---------------------------------------------------------------------------
# integrator cores
# ---------------------------------------------------------------------------

def _mul(a, b):
    """Matrix product over the two leading axes, batched over the trailing
    (step) axes; an (n, d, d) `@` is an order of magnitude slower."""
    return np.einsum("ij...,jk...->ik...", a, b)


def _rk4_maps(j, jm, f, fm, h):
    """One classical RK4 step of x' = J(t) x + f(t) as the affine map
    x_{k+1} = x_k + D_k x_k + v_k, for every step at once.

    j (d, d, n+1) and f (d, 1, n+1) are J and f at the grid points; jm
    and fm, with n on the last axis, at the half steps (used by both
    middle stages).  Returns D (d, d, n) and v (d, 1, n).  The map is
    kept as its increment D = M - I: rounding M, which is within h*rate
    of I, would bias a run of equal steps the same way every step.
    """
    j1, j4, f1, f4 = j[..., :-1], j[..., 1:], f[..., :-1], f[..., 1:]

    def increment(x, f1, fm, f4):
        # h/6 (k1 + 2 k2 + 2 k3 + k4), summed stage by stage to save memory
        k = _mul(j1, x) + f1
        total = k.copy()
        k = _mul(jm, x + (0.5 * h) * k) + fm
        total += 2.0 * k
        k = _mul(jm, x + (0.5 * h) * k) + fm
        total += 2.0 * k
        k = _mul(j4, x + h * k) + f4
        total += k
        return (h / 6.0) * total

    d = j.shape[0]
    return (increment(np.eye(d)[:, :, None], 0.0, 0.0, 0.0),
            increment(np.zeros((d, 1, 1)), f1, fm, f4))


def _affine_scan(D, v, x0) -> np.ndarray:
    """States x_0 = x0, x_{k+1} = x_k + D_k x_k + v_k of the maps D
    (d, d, n), v (d, 1, n); returns (d, n+1).

    Blocked prefix scan (Blelloch, CMU-CS-90-190, 1990) over blocks of
    about sqrt(n) steps: running products (as increments Q = P - I) and
    zero-start recurrences of all blocks at once, a loop carrying the
    state across blocks, one fix-up product.  Nothing divides by a
    running product, so strong decay cannot overflow.
    """
    def apply(Q, x, w):                 # (I + Q) x + w
        return x + _mul(Q, x) + w

    d, n = v.shape[0], v.shape[-1]
    x0 = np.asarray(x0, dtype=complex).reshape(d, 1)
    block = math.isqrt(n - 1) + 1          # ceil(sqrt(n)) for n >= 1
    nb = -(-n // block)
    pad = nb * block - n
    # pad with identity maps (zero increments); the copies are overwritten
    Q = np.concatenate([D, np.zeros((d, d, pad))],
                       axis=-1).reshape(d, d, nb, block)
    w = np.concatenate([v, np.zeros((d, 1, pad))],
                       axis=-1).reshape(d, 1, nb, block)
    for i in range(1, block):
        w[..., i] = apply(Q[..., i], w[..., i - 1], w[..., i])
        Q[..., i] = apply(Q[..., i], Q[..., i - 1], Q[..., i])
    c = np.empty((d, 1, nb), dtype=complex)
    c[..., 0] = x0
    for b in range(1, nb):
        c[..., b] = apply(Q[..., b - 1, -1], c[..., b - 1], w[..., b - 1, -1])
    x = apply(Q, c[..., None], w)
    return np.concatenate([x0, x.reshape(d, nb * block)[:, :n]], axis=1)


def _stage_values(e_in: Optional[FieldEnvelope], g: Schedule,
                  delta: Schedule, grid: TimeGrid):
    """Checks shared by both models, then g and Delta at the grid points
    and half steps and the input samples (the half-step input is the
    midpoint of its neighbours, the best available with sampled data)."""
    if e_in is not None and e_in.grid != grid:
        raise ParameterError("input envelope grid differs from the run grid")
    if not g.is_nonnegative():
        raise ParameterError("coupling schedule must be non-negative")
    t = grid.times()
    tm = t[:-1] + 0.5 * grid.dt
    s_in = (e_in.samples if e_in is not None
            else np.zeros(grid.n, dtype=complex))
    return (g.eval(t), g.eval(tm), delta.eval(t), delta.eval(tm),
            s_in, 0.5 * (s_in[:-1] + s_in[1:]))


def simulate_adiabatic(e_in: Optional[FieldEnvelope], g: Schedule,
                       delta: Schedule, p: CavityParams, grid: TimeGrid,
                       sigma0: complex = 0.0) -> SimResult:
    """Integrate the bad-cavity (adiabatically eliminated) model.

    e_in may be None (pure retrieval from an initial dipole amplitude
    sigma0).  The step guard is dt * max(g^2/kappa + gamma + |Delta|)
    <= 0.1, the stiffest retained rate.
    """
    gv, gm, dv, dm, s_in, s_m = _stage_values(e_in, g, delta, grid)
    h = grid.dt
    rate = gv * gv / p.kappa + p.gamma + np.abs(dv)
    rate_m = gm * gm / p.kappa + p.gamma + np.abs(dm)
    rmax = max(rate.max(), rate_m.max())
    if h * rmax > MAX_RATE_STEP:
        raise StabilityError(
            f"dt*max(g^2/kappa+gamma+|Delta|) = {h * rmax:.3g} exceeds "
            f"{MAX_RATE_STEP}; refine the grid")

    drive = 1j * np.sqrt(2.0 / p.kappa)
    a = -(1j * dv + p.gamma + gv * gv / p.kappa)
    a_m = -(1j * dm + p.gamma + gm * gm / p.kappa)
    D, v = _rk4_maps(*(x[None, None] for x in
                       (a, a_m, drive * gv * s_in, drive * gm * s_m)), h)
    sigma = _affine_scan(D, v, sigma0)[0]

    e_out = FieldEnvelope(grid, s_in + drive * gv * sigma)
    tau = _effective_time(gv, p.kappa, h)
    return _with_ledger(p, g, sigma, e_in, e_out, tau)


def simulate_full(e_in: Optional[FieldEnvelope], g: Schedule, delta: Schedule,
                  p: CavityParams, grid: TimeGrid,
                  sigma0: complex = 0.0) -> SimResult:
    """Integrate the full two-mode model (dipole + intracavity field).

    The step must resolve the cavity pole: dt * kappa <= 0.1 enforced.
    """
    gv, gm, dv, dm, s_in, s_m = _stage_values(e_in, g, delta, grid)
    h = grid.dt
    stiff = max(p.kappa, p.gamma + float(np.abs(dv).max(initial=0.0)),
                float(gv.max(initial=0.0)))
    if h * stiff > MAX_RATE_STEP:
        raise StabilityError(
            f"dt*kappa (or dt*max rate) = {h * stiff:.3g} exceeds "
            f"{MAX_RATE_STEP}; the full model must resolve 1/kappa")

    root2k = np.sqrt(2.0 * p.kappa)

    def tables(g, d, s):                # J and f of x = (sigma, E)
        return (np.array([[-(1j * d + p.gamma), 1j * g],
                          [1j * g, np.full(g.shape, -p.kappa)]]),
                np.array([np.zeros_like(s), root2k * s])[:, None])

    (j, f), (jm, fm) = tables(gv, dv, s_in), tables(gm, dm, s_m)
    sigma, ecav = _affine_scan(*_rk4_maps(j, jm, f, fm, h), [sigma0, 0.0])

    e_out = FieldEnvelope(grid, -s_in + root2k * ecav)
    tau = _effective_time(gv, p.kappa, h)
    return _with_ledger(p, g, sigma, e_in, e_out, tau, ecav)


def read_analytic(sigma0: complex, g: Schedule, p: CavityParams,
                  grid: TimeGrid) -> SimResult:
    """Closed-form retrieval in the adiabatic model (Delta = 0).

    sigma(t) = sigma0 exp(-tau(t) - gamma (t - t0)),
    E_out(t) = i sqrt(2/kappa) g(t) sigma(t).

    For gamma = 0 the retrieval efficiency depends on the coupling
    shape only through tau: eta_r = 1 - exp(-2 tau_r).
    """
    if sigma0 == 0.0:
        raise ParameterError("read_analytic needs a nonzero initial amplitude")
    if not g.is_nonnegative():
        raise ParameterError("coupling schedule must be non-negative")
    t = grid.times()
    gv = g.eval(t)
    tau = _effective_time(gv, p.kappa, grid.dt)
    sigma = sigma0 * np.exp(-tau - p.gamma * (t - grid.t0))
    e_out = FieldEnvelope(grid, 1j * np.sqrt(2.0 / p.kappa) * gv * sigma)
    return _with_ledger(p, g, sigma, None, e_out, tau)


def square_pulse_efficiency(g0: float, duration: float, p: CavityParams) -> float:
    """Write/read efficiency of a constant coupling of strength g0 held
    for `duration`, with dipole decay:

        eta = [(g0^2/kappa) / (g0^2/kappa + gamma)]
              * (1 - exp(-2 (g0^2/kappa + gamma) * duration)).

    Monotone in duration with asymptote C/(C+1), C = g0^2/(kappa gamma).
    """
    if g0 < 0.0:
        raise ParameterError("coupling amplitude must be non-negative")
    if duration < 0.0:
        raise ParameterError("duration must be non-negative")
    r = g0 * g0 / p.kappa
    total = r + p.gamma
    if total == 0.0 or r == 0.0:
        return 0.0
    return (r / total) * (1.0 - np.exp(-2.0 * total * duration))


# ---------------------------------------------------------------------------
# ledger and diagnostics
# ---------------------------------------------------------------------------

def _stored(sigma, e_cav):
    """|sigma|^2 and the stored energy, which adds |E_cav|^2 if given."""
    spin = np.abs(sigma) ** 2
    return spin, spin if e_cav is None else spin + np.abs(e_cav) ** 2


def _with_ledger(p, g, sigma, e_in, e_out, tau, e_cav=None) -> SimResult:
    grid = e_out.grid
    spin, total = _stored(sigma, e_cav)
    led = ledger(grid, g.windows(grid), spin, np.abs(e_out.samples) ** 2,
                 e_in.norm2() if e_in is not None else 0.0, p.gamma,
                 total=total)
    return SimResult(**vars(led), grid=grid, params=p, g=g, sigma=sigma,
                     e_cav=e_cav, e_in=e_in, e_out=e_out, tau=tau)


def continuity_residual(result: SimResult) -> float:
    """Photon-number continuity diagnostic:

        max_t | dN/dt - |E_in|^2 + |E_out|^2 + 2 gamma |sigma|^2 | / peak flux,

    where N = |sigma|^2, plus |E_cav|^2 when the result carries a cavity
    field.  The detuning turns sigma's phase only and does not enter.
    The derivative is taken by centered differences of the stored
    trajectory, so the residual scales as O(dt^2) under grid refinement.
    The samples at and next to the first and last sample of each
    coupling window (`Schedule.windows`) are excluded: the difference
    straddles the edge's kink there, an artifact of differentiation.
    """
    grid = result.grid
    spin, stored = _stored(result.sigma, result.e_cav)
    in2 = 0.0 if result.e_in is None else np.abs(result.e_in.samples) ** 2
    out2 = np.abs(result.e_out.samples) ** 2
    resid = np.abs(np.gradient(stored, grid.dt, edge_order=2) - in2 + out2
                   + 2.0 * result.params.gamma * spin)
    mask = np.ones(grid.n, dtype=bool)
    for window in result.g.windows(grid):
        for k in window:
            mask[max(k - 1, 0):k + 2] = False
    denom = max(np.max(in2, initial=0.0), out2.max(initial=0.0))
    if denom == 0.0:
        return 0.0
    if not mask.any():
        raise ParameterError("no grid points left after edge exclusion")
    return float(resid[mask].max() / denom)
