"""Pulse and coupling design for the cavity memory.

The write stage is a linear functional: in effective time the stored
amplitude is sigma(0) = i sqrt(2) * integral e^{tau'} E_in(tau') dtau'
over the write window, so the write efficiency

    eta_w = |sigma(0)|^2 / integral |E_in|^2 dtau

is a Rayleigh quotient.  Its maximiser is the exponential envelope
E_in(tau) ~ e^{tau} (in real time: E_in(t) ~ g(t) e^{tau(t)}), with
optimum eta_w = 1 - exp(-2 tau_w) — the exact mirror of the read law.

This module provides the closed-form optimum, the general functional,
its maximiser for any coupling, decay and detuning (the normalized
adjoint of the write kernel), and the inverse problem: given a target
input and output shape, synthesize the write/read coupling schedules
that realise E_out(t) = -sqrt(eta_w eta_r) E_in(t - T).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cavity import CavityParams
from .errors import ParameterError, UnsupportedCaseError
from .schedules import (FieldEnvelope, Schedule, SquareSegment, TimeGrid,
                        cumtrapz0, effective_time)


def _write_kernel(g_w: Schedule, delta: Optional[Schedule], p: CavityParams,
                  grid: TimeGrid) -> np.ndarray:
    """k(t) such that sigma(t_end) = integral k(t) E_in(t) dt for the
    adiabatic model.  k(t) = i sqrt(2/kappa) g(t) exp(-(R(t_end)-R(t)))
    with R = integral (i Delta + gamma + g^2/kappa) dt'."""
    t = grid.times()
    gv = g_w.eval(t)
    if np.any(gv < 0.0):
        raise ParameterError("write coupling must be non-negative")
    if gv.max(initial=0.0) == 0.0:
        raise ParameterError("write coupling vanishes on the whole grid; "
                             "no write window")
    rate = gv * gv / p.kappa + p.gamma
    if delta is not None and delta.max_abs() > 0.0:
        rate = rate + 1j * delta.eval(t)
    R = cumtrapz0(rate, grid.dt)
    return 1j * np.sqrt(2.0 / p.kappa) * gv * np.exp(R - R[-1])


def write_efficiency_of(e_in: FieldEnvelope, g_w: Schedule,
                        p: CavityParams) -> float:
    """Write efficiency of an arbitrary input envelope against a given
    write coupling (adiabatic model, Delta = 0).

    Evaluated through the effective-time functional; no time stepping.
    The integrand g(t) E(t) e^{tau - tau_w} stays finite even where the
    coupling vanishes, so arbitrary schedules are safe.
    """
    n2 = e_in.norm2()
    if n2 <= 0.0:
        raise ParameterError("input envelope has zero norm")
    k = _write_kernel(g_w, None, p, e_in.grid)
    sigma_end = np.trapezoid(k * e_in.samples, dx=e_in.grid.dt)
    return float(abs(sigma_end) ** 2 / n2)


def optimal_write_input(g_w: Schedule, p: CavityParams, grid: TimeGrid,
                        delta: Optional[Schedule] = None) -> FieldEnvelope:
    """Normalized input envelope that maximises the write efficiency.

    gamma = 0: E_in(t) ~ g(t) exp(tau(t)) for any coupling shape.
    gamma > 0: closed form known for a single square coupling segment,
    E_in(t) ~ g0 exp((g0^2/kappa + gamma) t) on the segment; any other
    shape raises UnsupportedCaseError (use variational_optimize).

    A detuning schedule, if given, multiplies on the compensating phase
    exp(-i integral_{t_ref}^t Delta) with t_ref the end of the write
    window, which restores the Delta = 0 efficiency exactly.
    """
    t = grid.times()
    gv = g_w.eval(t)
    if np.any(gv < 0.0):
        raise ParameterError("write coupling must be non-negative")
    if gv.max(initial=0.0) == 0.0:
        raise ParameterError("write coupling vanishes on the whole grid; "
                             "no write window")
    if p.gamma == 0.0:
        tau = effective_time(g_w, p.kappa, grid)
        raw = gv * np.exp(tau - tau[-1])
    else:
        segs = [s for s in g_w.segments if s.peak_abs() > 0.0]
        if len(segs) != 1 or not isinstance(segs[0], SquareSegment):
            raise UnsupportedCaseError(
                "with gamma > 0 the closed-form optimum exists for a single "
                "square coupling segment only; use variational_optimize")
        seg = segs[0]
        rate = seg.amplitude ** 2 / p.kappa + p.gamma
        raw = gv * np.exp(rate * (t - min(seg.end, grid.t_end)))
    env = FieldEnvelope(grid, raw.astype(complex)).normalized()
    if delta is not None and delta.max_abs() > 0.0:
        windows = g_w.windows(grid)
        t_ref = windows[0][1] if windows else grid.t_end
        env = compensate_detuning(env, delta, t_ref=t_ref)
    return env


def compensate_detuning(e_in: FieldEnvelope, delta: Schedule,
                        t_ref: Optional[float] = None) -> FieldEnvelope:
    """Multiply an envelope by exp(-i integral_{t_ref}^t Delta dt').

    In a frame rotating with the detuning this turns a Delta(t) run into
    the Delta = 0 one, so an optimal envelope stays optimal.  t_ref
    defaults to the end of the grid (the natural write-window end).
    """
    grid = e_in.grid
    t = grid.times()
    phi = cumtrapz0(delta.eval(t), grid.dt)
    if t_ref is None:
        t_ref = grid.t_end
    phi_ref = float(np.interp(t_ref, t, phi))
    return FieldEnvelope(grid, e_in.samples * np.exp(-1j * (phi - phi_ref)))


def variational_optimize(g_w: Schedule, delta: Optional[Schedule],
                         p: CavityParams, grid: TimeGrid) -> FieldEnvelope:
    """Unit-norm input that maximises |sigma(t_end)|^2, for any coupling
    shape, decay and detuning.

    The map E_in -> sigma(t_end) = <k, E_in> is a linear functional, so
    by Cauchy-Schwarz its maximiser is exactly conj(k)/||k||: the
    time-reversed write kernel (Gorshkov, Andre, Lukin & Sorensen,
    PRL 98, 123601 (2007)).  The global phase is fixed by making the
    largest sample real.
    """
    x = np.conj(_write_kernel(g_w, delta, p, grid))
    i = int(np.argmax(np.abs(x)))
    return FieldEnvelope(grid, x * np.exp(-1j * np.angle(x[i]))).normalized()


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
