"""Pulse and coupling design for the cavity memory.

In the adiabatic model the write is a linear functional: the amplitude
stored at the write end t_w (the last grid sample of the coupling's
first window) is sigma(t_w) = integral k(t) E_in(t) dt, with the kernel

    k(t) = i sqrt(2/kappa) g(t) exp(R(t) - R(t_w))  for t <= t_w, else 0,
    R(t) = integral (g^2/kappa + gamma + i Delta) dt'.

By Cauchy-Schwarz the input that maximises the write efficiency
|sigma(t_w)|^2 / integral |E_in|^2 dt is the conjugated kernel
conj(k)/||k||, the time-reversed read (Gorshkov, Andre, Lukin &
Sorensen, PRL 98, 123601 (2007)), for any coupling, decay and detuning.
That is the one optimal-input rule here.  Its closed-form cases are
gamma = Delta = 0, E_in(t) ~ g(t) e^{tau(t) - tau_w} with optimum
eta_w = 1 - exp(-2 tau_w), the mirror of the read law, and a square
coupling g0 with decay, E_in(t) ~ exp((g0^2/kappa + gamma) t) on the
window.  A detuning only adds the phase exp(-i integral Delta dt'), so
the optimal efficiency does not change.

The module also solves the inverse problem: given a target input and
output shape, synthesize the write/read coupling schedules that realise
E_out(t) = -sqrt(eta_w eta_r) E_in(t - T).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cavity import CavityParams
from .errors import ParameterError
from .schedules import FieldEnvelope, Schedule, TimeGrid, cumtrapz0


def _write_kernel(g_w: Schedule, delta: Optional[Schedule], p: CavityParams,
                  grid: TimeGrid) -> np.ndarray:
    """The write kernel's shape g(t) exp(R(t) - R(t_w)) on the grid, so
    that k = i sqrt(2/kappa) times it; zero past the write end t_w, the
    last sample of the first window of `Schedule.windows`.  g and Delta
    are the schedules' kept samples (`Schedule._samples`), which the run
    that stores this input reads too."""
    gv = g_w._samples(grid, False)
    if np.any(gv < 0.0):
        raise ParameterError("write coupling must be non-negative")
    if gv.max(initial=0.0) == 0.0:
        raise ParameterError("write coupling vanishes on the whole grid; "
                             "no write window")
    rate = gv * gv
    rate /= p.kappa
    rate += p.gamma
    if delta is not None and delta.max_abs() > 0.0:
        rate = rate + 1j * delta._samples(grid, False)
    R = cumtrapz0(rate, grid.dt)
    del rate
    i = g_w.windows(grid)[0][1]
    # past t_w the gamma term keeps growing, so the exponential is only
    # evaluated up to the window end, in place in R
    R = R[:i + 1]
    R -= R[i]
    np.exp(R, out=R)
    R *= gv[:i + 1]
    k = np.zeros(grid.n, dtype=complex)
    k[:i + 1] = R
    return k


def write_efficiency_of(e_in: FieldEnvelope, g_w: Schedule,
                        p: CavityParams) -> float:
    """Write efficiency of an arbitrary input envelope against the first
    window of a coupling (adiabatic model, Delta = 0).

    Evaluated through the effective-time functional; no time stepping.
    The integrand g(t) E(t) e^{tau - tau_w} stays finite even where the
    coupling vanishes, so arbitrary schedules are safe.
    """
    n2 = e_in.norm2()
    if n2 <= 0.0:
        raise ParameterError("input envelope has zero norm")
    k = _write_kernel(g_w, None, p, e_in.grid)
    overlap = np.trapezoid(k * e_in.samples, dx=e_in.grid.dt)
    return float(2.0 / p.kappa * abs(overlap) ** 2 / n2)


def optimal_write_input(g_w: Schedule, p: CavityParams, grid: TimeGrid,
                        delta: Optional[Schedule] = None) -> FieldEnvelope:
    """Unit-norm input envelope that maximises the excitation stored by
    the first window of the coupling (the write window) in the adiabatic
    model, for any coupling shape, decay and detuning.

    It is the conjugated write kernel, E_in(t) ~ g(t) exp(conj(R(t) -
    R(t_w))), with t_w the last grid sample of the write window, and 0
    after it.  The global phase makes E_in real and positive at t_w;
    without detuning the envelope is real everywhere.  With
    gamma = Delta = 0 this is g(t) e^{tau(t) - tau_w}.
    """
    k = _write_kernel(g_w, delta, p, grid)
    env = FieldEnvelope(grid, np.conj(k, out=k))
    n2 = env.norm2()
    if n2 <= 0.0:
        raise ParameterError("cannot normalize a zero envelope")
    np.divide(k, np.sqrt(n2), out=k)    # env.samples is k
    return env


def variational_optimize(g_w: Schedule, delta: Optional[Schedule],
                         p: CavityParams, grid: TimeGrid) -> FieldEnvelope:
    """Same as optimal_write_input(g_w, p, grid, delta); kept because
    the benchmark's tracer (perfbench/tracing.py) looks this name up."""
    return optimal_write_input(g_w, p, grid, delta)


def synthesize_couplings(e_in: FieldEnvelope, T: float, eta_w: float,
                         eta_r: float, p: CavityParams
                         ) -> tuple[Schedule, Schedule]:
    """Couplings that absorb e_in and re-emit its delayed replica.

    For a normalized input envelope with cumulative energy F(t):

        g_w(t)^2 = kappa eta_w |E_in(t)|^2 / (2 (1 - eta_w + eta_w F(t)))
        g_r(t)^2 = kappa eta_r |E_in(t-T)|^2 / (2 (1 - eta_r F(t-T)))

    give E_out(t) = -sqrt(eta_w eta_r) E_in(t - T) in the adiabatic
    model (gamma = 0).  Both are returned as tabulated schedules on the
    input grid (read schedule shifted by T).
    """
    if not (0.0 < eta_w < 1.0 and 0.0 < eta_r < 1.0):
        raise ParameterError("target efficiencies must lie strictly in (0, 1)")
    if not T > 0.0:
        raise ParameterError("delay T must be positive")
    n2 = e_in.norm2()
    if abs(n2 - 1.0) > 1e-6:
        raise ParameterError(
            f"input envelope must be normalized (norm^2 = {n2:.8g}); "
            "its support must lie inside the grid")
    grid = e_in.grid
    t = grid.times()
    p2 = np.abs(e_in.samples) ** 2
    F = cumtrapz0(p2, grid.dt) / n2   # cumulative energy, F[-1] = 1 exactly
    gw = np.sqrt(p.kappa * eta_w * p2 / (2.0 * (1.0 - eta_w + eta_w * F)))
    gr = np.sqrt(p.kappa * eta_r * p2 / (2.0 * (1.0 - eta_r * F)))
    return Schedule.tabulated(t, gw), Schedule.tabulated(t + T, gr)


def total_efficiency(tau_w: float, tau_r: float) -> float:
    """eta_tot = (1 - exp(-2 tau_w)) (1 - exp(-2 tau_r))."""
    if tau_w < 0.0 or tau_r < 0.0:
        raise ParameterError("effective times must be non-negative")
    return float((1.0 - np.exp(-2.0 * tau_w)) * (1.0 - np.exp(-2.0 * tau_r)))


def cooperativity_from_depth(d: float, finesse: float) -> tuple[float, float]:
    """Cavity cooperativity from single-pass depth and finesse.

    C = d * finesse; the long-pulse efficiency bound is C/(C+1).
    """
    if d < 0.0:
        raise ParameterError("optical depth must be non-negative")
    if not finesse > 0.0:
        raise ParameterError("finesse must be positive")
    C = d * finesse
    return C, C / (C + 1.0)
