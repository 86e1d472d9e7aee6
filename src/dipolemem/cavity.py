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
share one run pipeline, `_run`: a model gives only its equations (its
stiffest rate, J and f, and its output map), and `_run` reads the
samples that g and Delta keep for the grid (`Schedule._samples`),
guards the step, picks the tables, solves with one classical fixed-step
RK4 scheme on the TimeGrid (reproducible; no adaptivity), checks that
the states are finite and returns a `SimResult`.  The result computes
E_out, tau and each ledger entry on its first read and keeps it, so a
sweep row that reads one efficiency pays for the solve and that number
only.  `_solve` builds each step's
affine map x_{k+1} = x_k + D_k x_k + v_k with `_rk4_maps` in cache-sized
chunks of steps, sized by the model's d^2 table entries per step
(schedules at the exact stage times, input samples linearly interpolated
at the half step), writing D and v into tables allocated once; then one
`_affine_scan` composes the maps in place with a blocked prefix scan of
a small fixed radix that recurses in place on its block ends, so Python
loops run O(log n) times, each over whole slices of a recursion level,
instead of once per step.  The chunks do not change the arithmetic of
any step, so the states do not depend on them.

With Delta = 0 at every grid point and half step, an input on the line
p R (p = 1 or i) drives the cavity field on p R and the dipole on i p R
with real rates.  A run whose input samples lie on p R and whose sigma0
lies on i p R (the optimal write, a read of sigma = 1) is therefore
solved as one real system u on float tables, (sigma, E) = (i p u_1,
p u_2), with J = [[-gamma, g], [-g, -kappa]] and f = (0, sqrt(2 kappa)
E_in/p) in the full model and u' = -(gamma + g^2/kappa) u +
sqrt(2/kappa) g E_in/p in the adiabatic one.  Scaling by a unit phase
only copies or negates, and the complex arithmetic on such a state
computes the same products and sums, so both routes give the same
bits.  Every other run uses complex tables; the data alone decide.

Efficiencies are defined through the photon-number ledger
(`schedules.Ledger`): at any detuning the dynamics obey
dN/dt = |E_in|^2 - |E_out|^2 - 2 gamma |sigma|^2, so a normalized input
pulse splits into stored excitation, leaked (reflected/transmitted)
energy and, for gamma > 0, dipole decay loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, StabilityError
from .schedules import (FieldEnvelope, Ledger, Schedule, TimeGrid,
                        _effective_time, _entry)

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


class SimResult(Ledger):
    """Trajectories plus the photon-number ledger (`Ledger`, N = |sigma|^2)
    of one run; e_cav is None where the model slaves the field to sigma.
    e_out, tau and each ledger entry are computed on their first read
    and then kept, each by the one formula it always has: a sweep row
    that reads eta_w computes |sigma|^2 and the input energy, and one
    that reads eta_r the stored energy and the read's decay."""

    def __init__(self, grid: TimeGrid, params: CavityParams, g: Schedule,
                 sigma: np.ndarray, e_cav: Optional[np.ndarray],
                 e_in: Optional[FieldEnvelope], output):
        super().__init__(grid, params.gamma)
        self.params, self.g, self.sigma, self.e_cav, self.e_in = (
            params, g, sigma, e_cav, e_in)
        self._output = output           # () -> the E_out samples

    @_entry
    def e_out(self) -> FieldEnvelope:
        return FieldEnvelope(self.grid, self._output())

    @_entry
    def tau(self) -> np.ndarray:
        return _effective_time(self.g._samples(self.grid, False),
                               self.params.kappa, self.grid.dt)

    @_entry
    def input_energy(self) -> float:
        return self.e_in.norm2() if self.e_in is not None else 0.0

    @_entry
    def _windows(self):
        return self.g.windows(self.grid)

    @_entry
    def _n(self) -> np.ndarray:
        return np.abs(self.sigma) ** 2

    @_entry
    def _total(self) -> np.ndarray:
        """The stored energy: |sigma|^2, plus |E_cav|^2 if the model
        keeps the field."""
        if self.e_cav is None:
            return self._n
        return self._n + np.abs(self.e_cav) ** 2

    @_entry
    def _out2(self) -> np.ndarray:
        return np.abs(self.e_out.samples) ** 2


# ---------------------------------------------------------------------------
# integrator cores
# ---------------------------------------------------------------------------

def _mul(a, b):
    """Matrix product over the two leading axes, batched and broadcast over
    the trailing (step) axes: a plain product when the contracted axis has
    length 1 (the scalar model), else einsum; an (n, d, d) `@` is an order
    of magnitude slower."""
    if a.shape[1] == 1:
        return a * b
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
    j4 = j[..., 1:]

    def stage(jj, k, step, add):        # jj (x + step k) + f, add = jj x + f
        k = _mul(jj, k)
        k *= step
        k += add
        return k

    def increment(k1, add_m, add_4):
        # h/6 (k1 + 2 k2 + 2 k3 + k4), summed in place from the first
        # stage: the stages of x = I start at J1 and add Jm and J4 (J x at
        # x = I), those of x = 0 start at f1 and add fm and f4, so neither
        # part multiplies by I or by a zero state
        k2 = stage(jm, k1, 0.5 * h, add_m)
        k3 = stage(jm, k2, 0.5 * h, add_m)
        total = k2                      # k2 is not read again
        total += k3
        total *= 2.0
        total += k1
        total += stage(j4, k3, h, add_4)
        total *= h / 6.0
        return total

    return (increment(j[..., :-1], jm, j4),
            increment(f[..., :-1], fm, f[..., 1:]))


# the map build takes chunks of _MAP_CHUNK table entries, d^2 per step:
# 4 _CHUNK steps of the scalar model, _CHUNK of the 2x2 one, so the
# stage tables of a chunk stay in cache (the scan takes whole tables)
_CHUNK = 8192
_MAP_CHUNK = 4 * _CHUNK

# block length of the scan at every level of its recursion
_RADIX = 4


def _step_loop(D, x, a, b):
    """The steps a..b-1 of the maps one at a time, in place on x."""
    for k in range(a, b):
        x[:, k + 1] = (x[:, k] + _mul(D[..., k], x[:, k, None])[:, 0]
                       + x[:, k + 1])


def _add_product(acc, q, y):
    """acc += y + q y in place, with one temporary."""
    t = _mul(q, y)
    t += y
    acc += t


def _affine_scan(D, x) -> np.ndarray:
    """States of the maps x_{k+1} = x_k + D_k x_k + v_k, in place: x
    (d, n+1) holds x_0 and then v (v_k in column k+1) and is overwritten
    with x_0..x_n; D (d, d, n) is overwritten too.  Returns x.

    Recursive blocked prefix scan (Blelloch, CMU-CS-90-190, 1990) of
    radix r = _RADIX.  Over the whole blocks of r steps it forms the
    running products (as increments Q = P - I, in place of D) and the
    zero-start recurrences w (in place of v) of all blocks at once, in
    r - 1 numpy steps over slices of n/r blocks.  With full = r
    floor(n/r), the block ends are strided views of the same tables,
    D[..., r-1:full:r] and x[:, 0:full+1:r] (x_0, then each block's
    last w), and this function
    scans them in place: that leaves each block-end state where it
    belongs and the state c at each block start just before its block.
    The fix-up x = w + c + Q c then touches only the r - 1 steps before
    each block end, again in r - 1 numpy steps.  The fewer than r steps
    after the last whole block, and every run under 64 steps, are the
    step loop.  So nothing is copied, the largest temporary is one
    product over the top level's blocks (d^2 n / r entries), and the
    Python loops run 2 (r - 1) times per level plus the step loops: 68
    times at n = 100,001 steps (6 levels) and 113 at 4,000,001 (8).
    Nothing divides by a running product, so strong decay cannot
    overflow.
    """
    d, n = D.shape[0], D.shape[-1]
    if n < 64:
        _step_loop(D, x, 0, n)
        return x
    r = _RADIX
    nb = n // r
    full = nb * r
    Q = D[..., :full].reshape(d, d, nb, r)
    w = x[:, None, 1:1 + full].reshape(d, 1, nb, r)
    for i in range(1, r):
        _add_product(w[..., i], Q[..., i], w[..., i - 1])
        _add_product(Q[..., i], Q[..., i], Q[..., i - 1])
    _affine_scan(Q[..., -1], x[:, 0:full + 1:r])
    c = x[:, None, 0:full:r]            # the state at each block start
    for i in range(r - 1):
        _add_product(w[..., i], Q[..., i], c)
    _step_loop(D, x, full, n)
    return x


def _solve(n, d, h, coefficients, x0) -> np.ndarray:
    """States (d, n+1) of x' = J(t) x + f(t) over n steps from x0.

    The RK4 maps are built _MAP_CHUNK / d^2 steps at a time into D and
    into the state table, both allocated once with the dtype of x0
    (float or complex, which the tables must share); coefficients(a, b)
    gives J (d, d, .) and f (d, 1, .) of the steps a..b-1 at the grid
    points a..b and at the half steps, as `_rk4_maps` takes them.
    """
    D = np.empty((d, d, n), dtype=x0.dtype)
    x = np.empty((d, n + 1), dtype=x0.dtype)
    x[:, 0] = x0
    chunk = _MAP_CHUNK // (d * d)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        D[..., a:b], x[:, None, 1 + a:1 + b] = _rk4_maps(*coefficients(a, b),
                                                        h)
    return _affine_scan(D, x)


def _real_system(dv, dm, s_in, sigma0):
    """The unit p (1 or 1j) that makes the run one real system, with the
    input's real coordinates s_in / p; (None, s_in) if no p does.

    With Delta = 0 at every grid point and half step both models have
    real coefficients up to fixed phases: an input on the line p R
    drives a cavity field on p R and a dipole on i p R.  So if the input
    samples lie on p R and sigma0 on i p R, the state is
    (sigma, E) = (i p u_1, p u_2) with u real."""
    if not (dv.any() or dm.any()):
        sigma0 = complex(sigma0)
        for p, on, off, s0_off in ((1.0, s_in.real, s_in.imag, sigma0.real),
                                   (1j, s_in.imag, s_in.real, sigma0.imag)):
            if s0_off == 0.0 and not off.any():
                return p, on
    return None, s_in


def _states(n, h, coefficients, x0, p):
    """The complex states (d, n+1) of the run from x0 = (sigma0[, E0]):
    on complex tables if p is None, else as the real u of
    (sigma, E) = (i p u_1, p u_2) on float tables.  Scaling u by a unit
    only copies or negates it, so both routes give the same bits."""
    if p is None:
        return _solve(n, len(x0), h, coefficients, np.array(x0, dtype=complex))
    units = (1j * p, p)[:len(x0)]
    u = _solve(n, len(x0), h, coefficients,
               np.array([(z * q.conjugate()).real for z, q in zip(x0, units)]))
    x = np.zeros(u.shape, dtype=complex)
    for xk, uk, q in zip(x, u, units):
        np.multiply(uk, q.real or q.imag,
                    out=xk.real if q.imag == 0.0 else xk.imag)
    x[:, 0] = x0                        # as given, signed zeros included
    return x


def _run(e_in, g, delta, p, grid, x0, rate, guard, tables, output):
    """A run of either model from x0 = (sigma0[, E0]), all but the
    model's equations: rate(g, Delta) gives its stiffest rate on a set of
    samples and guard its StabilityError text, with hr = dt * that rate
    and bound = MAX_RATE_STEP; tables(g, Delta, s) gives J (d, d, .) and
    f (d, 1, .) at samples, of u if s is real; output(x, s_in, g) gives
    E_out, computed when the result's e_out is first read.  The state is
    sigma, then E_cav where the model keeps it.  The half-step input is
    the midpoint."""
    if e_in is not None and e_in.grid != grid:
        raise ParameterError("input envelope grid differs from the run grid")
    if not g.is_nonnegative():
        raise ParameterError("coupling schedule must be non-negative")
    h = grid.dt
    gv, gm, dv, dm = (sched._samples(grid, half) for sched in (g, delta)
                      for half in (False, True))
    hr = h * max(rate(gv, dv), rate(gm, dm))
    if hr > MAX_RATE_STEP:
        raise StabilityError(guard.format(hr=hr, bound=MAX_RATE_STEP))
    s_in = (e_in.samples if e_in is not None
            else np.zeros(grid.n, dtype=complex))
    unit, s_x = _real_system(dv, dm, s_in, x0[0])

    def coefficients(a, b):
        s = s_x[a:b + 1]
        (j, f), (jm, fm) = (tables(gv[a:b + 1], dv[a:b + 1], s),
                            tables(gm[a:b], dm[a:b], 0.5 * (s[:-1] + s[1:])))
        return j, jm, f, fm

    x = _states(grid.n - 1, h, coefficients, x0, unit)
    if not np.isfinite(x.view(float)).all():
        raise ParameterError("the run's states must be finite; its input "
                             "or initial excitation overflows the solve")
    return SimResult(grid, p, g, x[0], x[1] if len(x) > 1 else None, e_in,
                     lambda: output(x, s_in, gv))


def simulate_adiabatic(e_in: Optional[FieldEnvelope], g: Schedule,
                       delta: Schedule, p: CavityParams, grid: TimeGrid,
                       sigma0: complex = 0.0) -> SimResult:
    """Integrate the bad-cavity (adiabatically eliminated) model.

    e_in may be None (pure retrieval from an initial dipole amplitude
    sigma0).  The step guard is dt * max(g^2/kappa + gamma + |Delta|)
    <= 0.1, the stiffest retained rate.
    """
    drive = 1j * np.sqrt(2.0 / p.kappa)

    def loss(g):                        # -Re J, also in the step guard
        return p.gamma + g * g / p.kappa

    def tables(g, d, s):                # J = -loss - i Delta, f = drive g s
        if s.dtype.kind == "f":         # of u, sigma = i unit u
            return -loss(g)[None, None], (drive.imag * g * s)[None, None]
        j = np.empty((1, 1, g.size), dtype=complex)
        j.real, j.imag = -loss(g), -d
        return j, (drive * g * s)[None, None]

    return _run(e_in, g, delta, p, grid, (sigma0,),
                lambda g, d: (loss(g) + np.abs(d)).max(),
                "dt*max(g^2/kappa+gamma+|Delta|) = {hr:.3g} exceeds "
                "{bound}; refine the grid", tables,
                lambda x, s_in, g: s_in + drive * g * x[0])


def simulate_full(e_in: Optional[FieldEnvelope], g: Schedule, delta: Schedule,
                  p: CavityParams, grid: TimeGrid,
                  sigma0: complex = 0.0) -> SimResult:
    """Integrate the full two-mode model (dipole + intracavity field).

    The step must resolve the cavity pole: the step guard is
    dt * max(kappa, gamma + |Delta|, g) <= 0.1 at the grid points and
    the half steps, where RK4's middle stages read the rates.
    """
    root2k = np.sqrt(2.0 * p.kappa)

    def tables(g, d, s):                # J and f of x = (sigma, E), or of
        j = np.empty((2, 2) + g.shape, dtype=s.dtype)   # u if s is real
        j[0, 0], j[1, 1] = -p.gamma, -p.kappa
        if s.dtype.kind == "c":
            j[0, 0].imag = -d
            j[0, 1] = j[1, 0] = 1j * g
        else:                           # (sigma, E) = (i unit u_1, unit u_2)
            j[0, 1], j[1, 0] = g, -g
        f = np.zeros((2, 1) + s.shape, dtype=s.dtype)
        f[1, 0] = root2k * s
        return j, f

    return _run(e_in, g, delta, p, grid, (sigma0, 0.0),
                lambda g, d: max(p.kappa, p.gamma + np.abs(d).max(initial=0.0),
                                 g.max(initial=0.0)),
                "dt*kappa (or dt*max rate) = {hr:.3g} exceeds {bound}; "
                "the full model must resolve 1/kappa", tables,
                lambda x, s_in, g: -s_in + root2k * x[1])


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
    gv = g._samples(grid, False)
    tau = _effective_time(gv, p.kappa, grid.dt)
    sigma = sigma0 * np.exp(-tau - p.gamma * (t - grid.t0))
    res = SimResult(grid, p, g, sigma, None, None,
                    lambda: 1j * np.sqrt(2.0 / p.kappa) * gv * sigma)
    res.tau = tau
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
# diagnostics
# ---------------------------------------------------------------------------

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
    spin, stored, out2 = result._n, result._total, result._out2
    in2 = 0.0 if result.e_in is None else np.abs(result.e_in.samples) ** 2
    resid = np.abs(np.gradient(stored, grid.dt, edge_order=2) - in2 + out2
                   + 2.0 * result.params.gamma * spin)
    mask = np.ones(grid.n, dtype=bool)
    for window in result._windows:
        for k in window:
            mask[max(k - 1, 0):k + 2] = False
    denom = max(np.max(in2, initial=0.0), out2.max(initial=0.0))
    if denom == 0.0:
        return 0.0
    if not mask.any():
        raise ParameterError("no grid points left after edge exclusion")
    return float(resid[mask].max() / denom)
