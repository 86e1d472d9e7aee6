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

Both use a classical fixed-step 4th-order Runge-Kutta scheme on the
TimeGrid (reproducible; no adaptivity).  Schedules are evaluated at the
exact stage times; input-field samples are linearly interpolated at the
half step, which is the best available with sampled data.

Efficiencies are defined through the photon-number ledger
(`schedules.ledger`): for gamma = Delta = 0 the dynamics obey
d|sigma|^2/dt = |E_in|^2 - |E_out|^2, so a normalized input pulse splits
into stored excitation, leaked (reflected/transmitted) energy and, for
gamma > 0, dipole decay loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, StabilityError
from .schedules import (FieldEnvelope, Ledger, Schedule, TimeGrid,
                        cumtrapz0, effective_time, ledger)

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
    """Trajectories plus the photon-number ledger of one run (the
    inherited `Ledger` entries, with N = |sigma|^2)."""

    grid: TimeGrid
    model: str
    params: CavityParams
    g: Schedule
    delta: Schedule
    sigma: np.ndarray
    e_cav: np.ndarray
    e_in: Optional[FieldEnvelope]
    e_out: FieldEnvelope
    tau: np.ndarray

    @property
    def tau_total(self) -> float:
        return float(self.tau[-1])


# ---------------------------------------------------------------------------
# integrator cores
# ---------------------------------------------------------------------------

def _stage_tables(grid: TimeGrid, sched: Schedule):
    """Schedule values at stage times: (t_k, t_k + dt/2) for every step,
    plus the grid samples themselves."""
    t = grid.times()
    v = sched.eval(t)
    vm = sched.eval(t[:-1] + 0.5 * grid.dt)
    return v, vm


def _rk4_affine_scan(a1, am, a4, b1, bm, b4, h, y0, out):
    """Scan y_{k+1} = A_k y_k + B_k for the scalar linear ODE
    y' = a(t) y + b(t), with A_k, B_k the exact RK4 one-step affine map
    built from stage values (a2 = a3 = am at the half step).

    Algebraically identical to evaluating the four stages; precomputing
    A and B keeps the Python loop down to one multiply-add per step.
    """
    h2 = h * h
    A = 1.0 + (h / 6.0) * ((a1 + 4.0 * am + a4)
                           + h * (am * a1 + am * am + a4 * am)
                           + (h2 / 2.0) * (am * am * (a1 + a4))
                           + (h2 * h / 4.0) * (a4 * am * am * a1))
    B = (h / 6.0) * ((b1 + 4.0 * bm + b4)
                     + h * (am * b1 + am * bm + a4 * bm)
                     + (h2 / 2.0) * (am * am * b1 + a4 * am * bm)
                     + (h2 * h / 4.0) * (a4 * am * am * b1))
    Al = A.tolist()
    Bl = B.tolist()
    y = complex(y0)
    out[0] = y
    for k in range(len(Al)):
        y = Al[k] * y + Bl[k]
        out[k + 1] = y
    return out


def _midpoint_samples(s: np.ndarray) -> np.ndarray:
    return 0.5 * (s[:-1] + s[1:])


def simulate_adiabatic(e_in: Optional[FieldEnvelope], g: Schedule,
                       delta: Schedule, p: CavityParams,
                       grid: Optional[TimeGrid] = None,
                       sigma0: complex = 0.0) -> SimResult:
    """Integrate the bad-cavity (adiabatically eliminated) model.

    e_in may be None (pure retrieval from an initial dipole amplitude
    sigma0).  The step guard is dt * max(g^2/kappa + gamma + |Delta|)
    <= 0.1, the stiffest retained rate.
    """
    if e_in is None and grid is None:
        raise ParameterError("need a grid when no input envelope is given")
    grid = grid if grid is not None else e_in.grid
    if e_in is not None and e_in.grid != grid:
        raise ParameterError("input envelope grid differs from the run grid")
    if not g.is_nonnegative(grid):
        raise ParameterError("coupling schedule must be non-negative")
    t = grid.times()
    h = grid.dt
    gv, gm = _stage_tables(grid, g)
    dv, dm = _stage_tables(grid, delta)
    rate = gv * gv / p.kappa + p.gamma + np.abs(dv)
    rate_m = gm * gm / p.kappa + p.gamma + np.abs(dm)
    rmax = max(rate.max(), rate_m.max() if rate_m.size else 0.0)
    if h * rmax > MAX_RATE_STEP:
        raise StabilityError(
            f"dt*max(g^2/kappa+gamma+|Delta|) = {h * rmax:.3g} exceeds "
            f"{MAX_RATE_STEP}; refine the grid")

    a = -(1j * dv + p.gamma + gv * gv / p.kappa)
    a_m = -(1j * dm + p.gamma + gm * gm / p.kappa)
    drive = 1j * np.sqrt(2.0 / p.kappa)
    if e_in is not None:
        s_in = e_in.samples
        b = drive * gv * s_in
        b_m = drive * gm * _midpoint_samples(s_in)
    else:
        s_in = np.zeros(grid.n, dtype=complex)
        b = np.zeros(grid.n, dtype=complex)
        b_m = np.zeros(grid.n - 1, dtype=complex)

    sigma = np.empty(grid.n, dtype=complex)
    _rk4_affine_scan(a[:-1], a_m, a[1:], b[:-1], b_m, b[1:], h, sigma0, sigma)

    e_out = FieldEnvelope(grid, s_in + drive * gv * sigma)
    e_cav = (1j * gv * sigma + np.sqrt(2.0 * p.kappa) * s_in) / p.kappa
    tau = cumtrapz0(gv * gv / p.kappa, h)
    return _with_ledger("adiabatic", p, g, delta, sigma, e_cav, e_in, e_out,
                        tau, read_by_continuity=True)


def simulate_full(e_in: Optional[FieldEnvelope], g: Schedule, delta: Schedule,
                  p: CavityParams, grid: Optional[TimeGrid] = None,
                  sigma0: complex = 0.0, e_cav0: complex = 0.0) -> SimResult:
    """Integrate the full two-mode model (dipole + intracavity field).

    The step must resolve the cavity pole: dt * kappa <= 0.1 enforced.
    """
    if e_in is None and grid is None:
        raise ParameterError("need a grid when no input envelope is given")
    grid = grid if grid is not None else e_in.grid
    if e_in is not None and e_in.grid != grid:
        raise ParameterError("input envelope grid differs from the run grid")
    if not g.is_nonnegative(grid):
        raise ParameterError("coupling schedule must be non-negative")
    h = grid.dt
    gv, gm = _stage_tables(grid, g)
    dv, dm = _stage_tables(grid, delta)
    stiff = max(p.kappa, p.gamma + float(np.abs(dv).max(initial=0.0)),
                float(gv.max(initial=0.0)))
    if h * stiff > MAX_RATE_STEP:
        raise StabilityError(
            f"dt*kappa (or dt*max rate) = {h * stiff:.3g} exceeds "
            f"{MAX_RATE_STEP}; the full model must resolve 1/kappa")

    if e_in is not None:
        s_in = e_in.samples
    else:
        s_in = np.zeros(grid.n, dtype=complex)
    root2k = np.sqrt(2.0 * p.kappa)

    # per-stage coefficient tables, converted to Python scalars for the loop
    as1 = (-(1j * dv + p.gamma))[:-1].tolist()
    asm = (-(1j * dm + p.gamma)).tolist()
    as4 = (-(1j * dv + p.gamma))[1:].tolist()
    ig1 = (1j * gv)[:-1].tolist()
    igm = (1j * gm).tolist()
    ig4 = (1j * gv)[1:].tolist()
    f1 = (root2k * s_in)[:-1].tolist()
    fm = (root2k * _midpoint_samples(s_in)).tolist()
    f4 = (root2k * s_in)[1:].tolist()

    n = grid.n
    sigma = np.empty(n, dtype=complex)
    ecav = np.empty(n, dtype=complex)
    s = complex(sigma0)
    e = complex(e_cav0)
    sigma[0] = s
    ecav[0] = e
    kap = p.kappa
    h2 = 0.5 * h
    h6 = h / 6.0
    for k in range(n - 1):
        ks1 = as1[k] * s + ig1[k] * e
        ke1 = ig1[k] * s - kap * e + f1[k]
        s2 = s + h2 * ks1
        e2 = e + h2 * ke1
        ks2 = asm[k] * s2 + igm[k] * e2
        ke2 = igm[k] * s2 - kap * e2 + fm[k]
        s3 = s + h2 * ks2
        e3 = e + h2 * ke2
        ks3 = asm[k] * s3 + igm[k] * e3
        ke3 = igm[k] * s3 - kap * e3 + fm[k]
        s4 = s + h * ks3
        e4 = e + h * ke3
        ks4 = as4[k] * s4 + ig4[k] * e4
        ke4 = ig4[k] * s4 - kap * e4 + f4[k]
        s = s + h6 * (ks1 + 2.0 * (ks2 + ks3) + ks4)
        e = e + h6 * (ke1 + 2.0 * (ke2 + ke3) + ke4)
        sigma[k + 1] = s
        ecav[k + 1] = e

    e_out = FieldEnvelope(grid, -s_in + root2k * ecav)
    tau = cumtrapz0(gv * gv / p.kappa, h)
    return _with_ledger("full", p, g, delta, sigma, ecav, e_in, e_out, tau,
                        total=np.abs(sigma) ** 2 + np.abs(ecav) ** 2)


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
    if not g.is_nonnegative(grid):
        raise ParameterError("coupling schedule must be non-negative")
    t = grid.times()
    tau = effective_time(g, p.kappa, grid)
    gv = g.eval(t)
    sigma = sigma0 * np.exp(-tau - p.gamma * (t - grid.t0))
    e_out = FieldEnvelope(grid, 1j * np.sqrt(2.0 / p.kappa) * gv * sigma)
    e_cav = 1j * gv * sigma / p.kappa
    res = _with_ledger("analytic-read", p, g, Schedule.zero(), sigma, e_cav,
                       None, e_out, tau, read_by_continuity=True)
    if p.gamma == 0.0:
        res.eta_r = float(1.0 - np.exp(-2.0 * tau[-1]))
    return res


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

def _with_ledger(model, p, g, delta, sigma, e_cav, e_in, e_out, tau,
                 **kw) -> SimResult:
    grid = e_out.grid
    led = ledger(grid, g.windows(grid), np.abs(sigma) ** 2,
                 np.abs(e_out.samples) ** 2,
                 e_in.norm2() if e_in is not None else 0.0, p.gamma, **kw)
    return SimResult(**vars(led), grid=grid, model=model, params=p, g=g,
                     delta=delta, sigma=sigma, e_cav=e_cav, e_in=e_in,
                     e_out=e_out, tau=tau)


def continuity_residual(result: SimResult) -> float:
    """Photon-number continuity diagnostic for gamma = Delta = 0 runs:

        max_t | dN/dt - |E_in|^2 + |E_out|^2 |  /  peak flux,

    where N = |sigma|^2 for the adiabatic model (the cavity field is
    slaved there and carries no independent energy) and
    N = |sigma|^2 + |E_cav|^2 for the full model.  The derivative is
    taken by centered differences of the stored trajectory and the
    residual scales as O(dt^2) under grid refinement.  Grid points
    within one step of a coupling-segment boundary are excluded (the
    finite difference straddles a kink there, which is an artifact of
    differentiation, not of the solution).
    """
    if result.params.gamma != 0.0:
        raise ParameterError("continuity residual is defined for gamma = 0")
    if result.delta.max_abs() != 0.0:
        raise ParameterError("continuity residual is defined for Delta = 0")
    grid = result.grid
    t = grid.times()
    stored = np.abs(result.sigma) ** 2
    if result.model == "full":
        stored = stored + np.abs(result.e_cav) ** 2
    in2 = (np.abs(result.e_in.samples) ** 2 if result.e_in is not None
           else np.zeros(grid.n))
    out2 = np.abs(result.e_out.samples) ** 2
    resid = np.abs(np.gradient(stored, grid.dt, edge_order=2) - in2 + out2)
    mask = np.ones(grid.n, dtype=bool)
    for seg in result.g.segments:
        for edge in (seg.start, seg.end):
            mask &= np.abs(t - edge) > 1.5 * grid.dt
    denom = max(in2.max(initial=0.0), out2.max(initial=0.0))
    if denom == 0.0:
        return 0.0
    if not mask.any():
        raise ParameterError("no grid points left after edge exclusion")
    return float(resid[mask].max() / denom)
