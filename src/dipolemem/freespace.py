"""Free-space / waveguide propagation with a time-controlled coupling.

Lab frame (co-moving with the pulse, slowly varying envelopes):

    dsigma/dt = -(gamma + i Delta(t)) sigma + i g(t) E
    dE/dz     = i (g(t)/c) sigma

With S = e^{i chi} sigma, curly-E = (c E / (i g)) e^{i chi},
chi(t) = integral (Delta - i gamma) dt', and the effective time
tau(t) = integral g^2/c dt' (units 1/length), the system collapses to
the parameter-free pair

    dS/dtau = -curly-E,        dcurly-E/dz = S.

For a medium of length L this is the cavity's change of variables at
kappa = c/L (Gorshkov, Andre, Lukin & Sorensen, PRA 76, 033805 (2007)):
theta = tau*L (below) is the effective time integral g^2/kappa dt, and
the boundary field sqrt(c/L) E e^{i chi} / (i g) is the effective field
sqrt(kappa) E / g turned by e^{i chi} / i.  `FreeSpaceTransform` is
`effective_time` and `effective_fields` at that kappa, with the inverse
factor i g sqrt(L/c) e^{-i chi} held on the same lab grid.

Its exact solution is a pair of causal convolutions against the entire
kernels

    K0(a) = sum_k a^k / (k!)^2        (= I0(2 sqrt(a)) for a >= 0,
                                         J0(2 sqrt(-a)) for a < 0)
    K1(a) = sum_k a^k / (k! (k+1)!)   (= I1(2 sqrt(a)) / sqrt(a),
                                         J1(2 sqrt(-a)) / sqrt(-a))

namely (primes are integration variables; all kernel arguments are
non-positive in the causal region):

    E(z,t) = E(0,t) + int_0^z S(z',0) K0(t (z'-z)) dz'
                    - z int_0^t E(0,t') K1((t'-t) z) dt'
    S(z,t) = S(z,0) - int_0^t E(0,t') K0(z (t'-t)) dt'
                    - t int_0^z S(z',0) K1(t (z'-z)) dz'

(with E for curly-E and t for tau).  `analytic_evolution` evaluates
these by the trapezoid rule on any increasing tau axis, in tau slabs
that keep t z <= 30 for the kernels' power series.  Each series term
is separable, as in (t (z'-z))^k = (-t)^k (z-z')^k, so running
trapezoid moments convolve the sources with the monomials t^k and z^k,
and matrix products with the series coefficients sum them: no kernel
is tabulated.  `entire_bessel_kernel` evaluates the kernels by their
Bessel forms at any argument; no solver calls it, and `verify` holds
both solvers to the exact read of a uniform spin wave that it gives.
`numeric_evolution` is the cross-check and the workhorse for runs and
sweeps: the system treats z and tau alike, so it marches a batch of
systems along z, in n_z - 1 midpoint steps each on whole tau axes (any
increasing ones).  Its coefficients are real, so each complex row is
two real systems; the march packs them two per complex lane and drops
those with all-zero data, whose solution is zero.

Scaled variables: for a medium of length L, x = z/L, theta = tau*L,
A = curly-E/sqrt(L) and S_hat = sqrt(L)*S satisfy the same system on
x in [0,1], with photon-exact bookkeeping:

    photons in/out at an end  = integral |A|^2 e^{-2 gamma t(theta)} dtheta
    excitations stored        = e^{-2 gamma t} integral |S_hat|^2 dx

`storage_retrieval_sweep` uses these to scan storage + retrieval
efficiency against the peak optical depth of a scenario's Gaussian
coupling pulse, for forward and backward retrieval, on each window's
uniform theta grid (theta(t) is an erf, inverted by the standard
library's normal quantile): one `numeric_evolution` march writes all
depths of one node count, and one more reads them all.
Without detuning their boundary traces and spin waves are imaginary,
so each lane of those marches carries two of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, ResolutionError
from .schedules import (FieldEnvelope, GaussianSegment, Schedule, TimeGrid,
                        _effective_time, _effective_values, cumtrapz0)

# Largest kernel-argument change across one grid cell before the
# trapezoid quadrature of the kernel convolutions degrades.
MAX_CELL_ARG = 0.5

_SERIES_CUT = 30.0
_SERIES_TERMS = 48          # cap; |a| <= 30 stops at 29 terms


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

def _series_terms(amax: float, order: int) -> int:
    """Terms the kernel series sums for |a| <= amax: k = 0, 1, ... up to
    the first whose size at amax, amax^k / (k! (k+order)!), is below
    2^-60 (at most _SERIES_TERMS + 1)."""
    bound = 1.0
    for k in range(1, _SERIES_TERMS + 1):
        bound *= amax / (k * (k + order))
        if bound < 2.0 ** -60:
            return k
    return _SERIES_TERMS + 1


def entire_bessel_kernel(a, order: int = 0):
    """K0(a) = sum a^k/(k!)^2 or K1(a) = sum a^k/(k!(k+1)!), entire in a.

    The exact Bessel forms at every argument: with r = sqrt|a| and
    x = 2r, K0 is I0(x) for a > 0 and J0(x) for a < 0, K1 is I1(x)/r or
    J1(x)/r, each by the midpoint rule on its integral over [0, pi]:

        I0(x) = mean e^{x cos t}        I1(x) = mean cos t sinh(x cos t)
        J0(x) = mean cos(x sin t)       J1(x) = mean sin t sin(x sin t)

    The integrands are smooth, even and periodic, so ceil(r) + 40 nodes
    reach round-off, and the K1 forms cancel nothing as a -> 0.  Entries
    of one node count go in blocks of about 2^16 integrand samples.
    K(0) = 1 and non-finite a gives NaN.  The kernel solver sums the
    series itself (`analytic_evolution`); this is the exact read that
    `verify` holds both propagation solvers to.
    """
    if order not in (0, 1):
        raise ParameterError(f"kernel order must be 0 or 1, got {order}")
    a_arr = np.asarray(a, dtype=float)
    out = np.where(a_arr == 0.0, 1.0, np.nan)
    live = np.flatnonzero(np.isfinite(a_arr) & (a_arr != 0.0))
    a_live = a_arr.ravel()[live]
    r = np.sqrt(np.abs(a_live))
    nodes = np.ceil(r).astype(int) + 40
    for m in sorted(set(nodes.tolist())):  # np.unique loads numpy.ma
        t = (np.arange(m) + 0.5) * (np.pi / m)
        idx = np.flatnonzero(nodes == m)
        for sel in np.array_split(idx, idx.size * m // (1 << 16) + 1):
            pos = a_live[sel, None] > 0.0
            c = np.where(pos, np.cos(t), np.sin(t))
            u = 2.0 * r[sel, None] * c
            with np.errstate(over="ignore"):        # I_n beyond 1e308
                f = (np.where(pos, np.exp(u), np.cos(u)) if order == 0
                     else c * np.where(pos, np.sinh(u), np.sin(u)))
            out.flat[live[sel]] = f.mean(axis=1) / r[sel] ** order
    return float(out) if out.ndim == 0 else out


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


def _check_axes(bc, ic, tau, z):
    tau = np.asarray(tau, dtype=float)
    z = np.asarray(z, dtype=float)
    for name, ax in (("tau", tau), ("z", z)):
        if ax.ndim != 1 or ax.size < 2:
            raise ParameterError(f"{name} axis must be 1-d with >= 2 points")
        d = np.diff(ax)
        if not np.all(d > 0):
            raise ParameterError(f"{name} axis must be strictly increasing")
        if name == "z" and not np.allclose(d, d[0], rtol=1e-9):
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


def _moments(f: np.ndarray, x: np.ndarray, terms: int) -> np.ndarray:
    """Running trapezoid moments int_0^{x_l} f(x') ((x_l - x')/x_s)^p dx'
    at every node l of the increasing axis x, for p < terms (x_s = x[-1]
    - x[0]), as a (terms, x.size) array.  With w = (x - x_0)/x_s - 1/2
    in [-1/2, 1/2] the monomial is (w_l - w')^p, so the moments are sums
    of C(p, j) w_l^(p-j) (-1)^j times the running trapezoid of f w^j,
    and no term exceeds the monomial's own bound of 1."""
    w = (x - x[0]) / (x[-1] - x[0]) - 0.5
    wp = w ** np.arange(terms)[:, None]                     # (P, n)
    fw = f * wp
    run = np.zeros(fw.shape, dtype=complex)
    np.cumsum(0.5 * np.diff(x) * (fw[:, 1:] + fw[:, :-1]), axis=1,
              out=run[:, 1:])
    out = np.zeros_like(run)
    for j in range(terms):
        c = [(-1) ** j * math.comb(p, j) for p in range(j, terms)]
        out[j:] += np.array(c, dtype=float)[:, None] * wp[:terms - j] * run[j]
    return out


def analytic_evolution(bc, ic, tau, z) -> FreeSpaceFields:
    """Exact kernel-convolution solution of the reduced system.

    bc: field at z = 0 on the tau axis (any increasing one); ic: spin
    wave at tau = 0 on the uniform z axis; both axes start at 0.  The
    trapezoid rule on the given nodes makes it second order.  Causal in
    tau, it is solved in slabs that share end nodes, each the longest
    run with (tau - tau_0) z[-1] <= 30: there each kernel is a sum of P
    separable series terms c_p u^p v^p (u = tau/tau_s, v = z/z_s in
    [0, 1], s the slab's last nodes), so `_moments` convolves bc and the
    slab's initial spin wave with the monomials, and matrix products
    with the coefficients assemble the fields.  No kernel is tabulated.
    """
    bc, ic, tau, z = _check_axes(bc, ic, tau, z)
    _check_resolution(tau, z)

    e, s = (np.empty((tau.size, z.size), dtype=complex) for _ in range(2))
    s0 = ic
    lo = 0
    while lo < tau.size - 1:
        t = tau[lo:] - tau[lo]
        n = np.count_nonzero(t * z[-1] <= _SERIES_CUT)
        t = t[:n]
        # K_o(a) = sum_p coef[o, p] u_m^p v_l^p at a = -t_m (z_l - z')
        amax = t[-1] * z[-1]
        p = np.arange(_series_terms(amax, 0))
        fact = np.array([math.factorial(k) for k in range(p.size + 1)], float)
        coef = (-amax) ** p / (fact[p] * fact[np.stack([p, p + 1])])  # (2, P)
        u = (t / t[-1]) ** p[:, None]                       # (P, n)
        v = (z / z[-1]) ** p[:, None]                       # (P, n_z)
        b, e_k, s_k = bc[lo:lo + n], e[lo:lo + n], s[lo:lo + n]
        g = _moments(s0, z, p.size)                # spin-wave sources, along z
        h = _moments(b, tau[lo:lo + n], p.size).T  # boundary sources, along tau
        # e = b + [u^T coef0 | H^T] [G; -z coef1 v] and
        # s = s0 + [-t u^T coef1 | H^T] [G; -coef0 v]
        np.matmul(np.hstack([u.T * coef[0], h]),
                  np.vstack([g, -z * v * coef[1, :, None]]), out=e_k)
        e_k += b[:, None]
        np.matmul(np.hstack([-t[:, None] * u.T * coef[1], h]),
                  np.vstack([g, -v * coef[0, :, None]]), out=s_k)
        s_k += s0
        s0 = s_k[-1].copy()
        lo += n - 1

    # trapezoid of |s|^2 over z, read as (re, im) pairs: no grid temporary
    wz = np.repeat(np.diff(z, prepend=z[0]) + np.diff(z, append=z[-1]), 2)
    s_norm2 = np.einsum("ij,ij,j->i", s.view(float), s.view(float), 0.5 * wz)
    return FreeSpaceFields(tau=tau, z=z, e=e, s=s, e_end=e[:, -1].copy(),
                           s_final=s[-1].copy(), s_norm2=s_norm2)


def _batch_rows(v, dtype, name) -> np.ndarray:
    """v as a C-ordered array (the march works along rows), naming the
    first row of a ragged batch."""
    try:
        return np.ascontiguousarray(v, dtype=dtype)
    except ValueError:
        n = [np.size(row) for row in v]
        bad = [i for i in range(len(n)) if n[i] != n[0]]
        if not bad:
            raise
        raise ParameterError(f"{name} row {bad[0]} has {n[bad[0]]} samples "
                             f"but row 0 has {n[0]}") from None


def _parts(a: np.ndarray) -> np.ndarray:
    """The float view of a C-ordered complex array, with (real,
    imaginary) as a trailing axis of two."""
    return a.view(float).reshape(a.shape + (2,))


def _lanes(bc: np.ndarray, ic: np.ndarray):
    """Pair the real systems of a batch into complex march lanes.

    The reduced system has real coefficients, so row i of a batch is
    two independent real systems: its real parts (part 0) and its
    imaginary parts (part 1).  A system whose bc and ic parts are all
    zero has the zero solution and is dropped.  A row with both systems
    live keeps a lane of its own; the lone systems of the other rows
    share lanes two by two in row order, the last with a zero partner
    when they are odd in number.  Returns the number w of whole-row
    lanes, which come first, and the row and part each lane component
    marches, as arrays in lane order (entry 2l + c is lane l's
    component c); a zero partner has part -1 and its partner's row.
    """
    live = np.column_stack([bc.real.any(axis=1) | ic.real.any(axis=1),
                            bc.imag.any(axis=1) | ic.imag.any(axis=1)])
    both = live.all(axis=1)
    whole = np.flatnonzero(both)
    rows, parts = np.nonzero(live & ~both[:, None])
    if rows.size % 2:
        rows, parts = np.append(rows, rows[-1]), np.append(parts, -1)
    return whole.size, (np.concatenate([np.repeat(whole, 2), rows]),
                        np.concatenate([np.tile([0, 1], whole.size), parts]))


def numeric_evolution(bc, ic, tau, z, *,
                      store_fields: bool = True) -> FreeSpaceFields:
    """March the reduced system along z (midpoint rule, second order),
    integrating dS/dtau = -E by running trapezoid over the whole tau
    axis at each stage.

    bc and tau (k, n_tau) and ic (k, n_z) are k systems on one z axis,
    each row checked as if alone; results gain that leading batch axis
    (a 1-d call is a batch of one).  The coefficients are real, so each
    row is two real systems, its real and its imaginary parts, and the
    march runs on complex lanes that hold two of them (`_lanes`): a row
    with both parts live keeps its own lane, the systems of rows with
    one live part share lanes two by two, and a system with all-zero
    data is not marched (its parts stay exactly zero).  Each lane
    component integrates on its own tau axis, and every real
    coefficient multiplies the lanes' float view, so no system's
    arithmetic depends on its partner: a row gives the same bits in any
    batch.  The n_z - 1 steps reuse (lanes, n_tau) work buffers, so the
    Python step count grows with neither k nor n_tau.  Independent of
    the kernel solution; store_fields=False keeps only the boundary
    traces and the final spin wave, as the sweeps need.  The tau axes
    may be any increasing ones (the trapezoid takes the cell widths),
    to cluster nodes where the trace has structure.
    """
    bc, ic, tau = (_batch_rows(v, t, name) for v, t, name in
                   ((bc, complex, "bc"), (ic, complex, "ic"),
                    (tau, float, "tau")))
    single = tau.ndim == 1
    bc, ic, tau = (np.atleast_2d(v) for v in (bc, ic, tau))
    if not len(bc) == len(ic) == len(tau):
        raise ParameterError("bc, ic and tau need one row per system")
    for row in zip(bc, ic, tau):
        z = _check_axes(*row, z)[3]
        _check_resolution(row[2], z)
    k, n_t = tau.shape
    n_z = z.size
    h_z = z[1] - z[0]

    w, (row, part) = _lanes(bc, ic)
    m = row.size // 2
    live = np.flatnonzero(part >= 0)
    lane, side = np.divmod(live, 2)           # lane side of each system
    row_l, part_l = row[live], part[live]     # batch side
    bc_l, ic_l = np.zeros((m, n_t), complex), np.zeros((m, n_z), complex)
    _parts(bc_l)[lane, :, side] = _parts(bc)[row_l, :, part_l]
    _parts(ic_l)[lane, :, side] = _parts(ic)[row_l, :, part_l]
    half_dtau = np.ascontiguousarray(
        (0.5 * np.diff(tau))[row].reshape(m, 2, n_t - 1).transpose(0, 2, 1))

    e_mat, s_mat = (np.zeros((k, n_t, n_z), dtype=complex) if store_fields
                    else None for _ in range(2))
    s_final = np.empty((m, n_z), dtype=complex)
    norm_whole = np.zeros((w, n_t))          # |S|^2 of whole-row lanes
    norm_lone = np.zeros((m - w, n_t, 2))    # S^2 of each lone system
    e_now = bc_l
    s_now, e_half, s_half = (np.empty_like(bc_l) for _ in range(3))
    cells = np.empty((m, n_t - 1), dtype=complex)
    s_whole, s_lone = s_now[:w], _parts(s_now[w:])
    cells_f, e_now_f, s_now_f, e_half_f, s_half_f = (
        _parts(a) for a in (cells, e_now, s_now, e_half, s_half))

    def spin(e, s0, out):
        # out = s0 - running trapezoid of e, component by component
        np.add(e[:, 1:], e[:, :-1], out=cells)
        np.multiply(cells_f, half_dtau, out=cells_f)
        out[:, 0] = s0
        np.subtract(s0[:, None], np.cumsum(cells, axis=1, out=cells),
                    out=out[:, 1:])

    for j in range(n_z):
        spin(e_now, ic_l[:, j], s_now)
        s_final[:, j] = s_now[:, -1]
        weight = 0.5 * h_z if j in (0, n_z - 1) else h_z
        norm_whole += weight * np.abs(s_whole) ** 2
        norm_lone += weight * s_lone ** 2
        if store_fields:
            _parts(e_mat)[row_l, :, j, part_l] = e_now_f[lane, :, side]
            _parts(s_mat)[row_l, :, j, part_l] = s_now_f[lane, :, side]
        if j == n_z - 1:
            break
        np.multiply(0.5 * h_z, s_now_f, out=e_half_f)
        e_half += e_now
        spin(e_half, 0.5 * (ic_l[:, j] + ic_l[:, j + 1]), s_half)
        s_half_f *= h_z
        e_now += s_half

    def unpack(lanes, n):
        out = np.zeros((k, n), dtype=complex)
        _parts(out)[row_l, :, part_l] = _parts(lanes)[lane, :, side]
        return out

    s_norm2 = np.zeros((k, n_t))
    s_norm2[row[:2 * w:2]] = norm_whole
    lone = live[live >= 2 * w]
    s_norm2[row[lone]] = norm_lone[lone // 2 - w, :, lone % 2]
    r = 0 if single else slice(None)
    e_mat, s_mat = (f if f is None else f[r] for f in (e_mat, s_mat))
    return FreeSpaceFields(tau=tau[r], z=z, e=e_mat, s=s_mat,
                           e_end=unpack(e_now, n_t)[r],
                           s_final=unpack(s_final, n_z)[r],
                           s_norm2=s_norm2[r])


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
    schedule Delta(t) and a medium.  The map is the cavity's
    effective-time change of variables (`effective_time`,
    `effective_fields`) with kappa = c/L: theta(t) = L * integral
    g^2/c dt is the effective time (dimensionless), and with the
    complex exponent chi(t) = integral (Delta - i gamma) dt it converts

        boundary field  A(0, theta(t)) = sqrt(c/L) E~(t) e^{i chi} / (i g(t))
        output field    E~(t) = lab(t) A,  lab = i g(t) sqrt(L/c) e^{-i chi}
        spin wave       sigma(x,t) = S_hat(x, theta(t)) e^{-i chi} / sqrt(L)

    All tables, `lab` included, hold the grid samples of one g(t).  E~
    envelopes are the package-wide photon-flux-normalized fields
    (FieldEnvelope).  theta stalls where g = 0; boundary samples there
    must be zero or the map is singular.
    """

    g: Schedule
    delta: Schedule
    medium: MediumParams
    grid: TimeGrid

    def __post_init__(self):
        t = self.grid.times()
        self.kappa = self.medium.c / self.medium.length
        self.t = t
        self.gv = self.g.eval(t)
        self.rho = self.gv * self.gv / self.kappa
        self.theta = _effective_time(self.gv, self.kappa, self.grid.dt)
        self.chi = cumtrapz0(self.delta.eval(t), self.grid.dt) \
            - 1j * self.medium.gamma * (t - t[0])
        scale = np.sqrt(self.medium.length / self.medium.c)
        self.lab = 1j * self.gv * scale * np.exp(-1j * self.chi)

    @property
    def theta_total(self) -> float:
        return float(self.theta[-1])

    def boundary_to_reduced(self, e_in: FieldEnvelope) -> np.ndarray:
        """A(0, theta(t_k)) on the time grid (zero where g = 0)."""
        if e_in.grid != self.grid:
            raise ParameterError("envelope grid differs from transform grid")
        values = _effective_values(e_in.samples, self.gv, self.kappa, self.t)
        return -1j * np.exp(1j * self.chi) * values

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


def _window_theta_map(d, gamma: float, sigma: float, center: float,
                      n_theta: int):
    """Uniform theta grids over one active coupling window.

    Returns (theta, t_of_theta, rho_of_theta).  For rho(t) =
    d*gamma*exp(-(t-center)^2/sigma^2) on |t - center| <= R the
    effective time is theta(t) = (full/2) (erf((t-center)/sigma) +
    erf(R/sigma)) with full = d*gamma*sigma*sqrt(pi), inverted in closed
    form by the normal quantile: erfinv(y) = sign(y) |Phi^-1((1-|y|)/2)|
    / sqrt(2), with (1-|y|)/2 exact where Phi^-1 is steep (|y| >= 1/2).
    The times depend on the node count only, so a 1-d array of depths
    shares them: theta and rho then hold one row per depth.
    """
    from statistics import NormalDist   # imported here: only a sweep pays
    edge = math.erf(_WINDOW_RADIUS)
    y = np.linspace(-edge, edge, n_theta)
    inv_cdf = NormalDist().inv_cdf
    q = np.array([inv_cdf(p) for p in ((1.0 - np.abs(y)) / 2.0).tolist()])
    u = np.copysign(q, y) / math.sqrt(2.0)
    d = np.asarray(d, dtype=float)
    theta = np.linspace(0.0, d * gamma * sigma * math.sqrt(math.pi) * edge,
                        n_theta, axis=-1)
    rho_of = np.multiply.outer(d * gamma, np.exp(-u * u))
    return theta, center + sigma * u, rho_of


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
    Andre, Lukin & Sorensen, PRA 76, 033805 (2007)).  Depths with one
    `theta_nodes` count share a z-march (`numeric_evolution`, with
    `space_points` - 1 steps) for the writes and one for both reads, each
    row on its window's uniform theta grid.  A detuning chirps the write.

    The sweep's windows are its own: each ends where the depth profile
    falls to `_WINDOW_CUT` of its peak, and eta_write is read there, not
    at the last sample of the coupling support as in `run`; between the
    two ends the spin wave only decays, by exp(-2 gamma dt).  eta_write
    is the write march's own norm, its `s_norm2` at the window end.

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
    gam, sigma = medium.gamma, coupling.width
    # input photons normalized to 1: |E~|^2 = exp(-t^2/sig^2)/(sig sqrt(pi))
    norm = (input_sigma * np.sqrt(np.pi)) ** -0.5
    rows = np.column_stack([d_arr, np.zeros((d_arr.size, 4))])
    nodes = np.array([theta_nodes(d * gam * sigma * np.sqrt(np.pi),
                                  theta_points) for d in d_arr.tolist()])
    # one write and one read march per node count; d = 0 has no coupling,
    # so the medium is transparent and its row stays zero
    for n_theta in np.unique(nodes[d_arr > 0.0]).tolist():
        idx = np.flatnonzero((nodes == n_theta) & (d_arr > 0.0))
        theta, t_w, rho_w = _window_theta_map(d_arr[idx], gam, sigma,
                                              coupling.center, n_theta)
        e_amp = norm * np.exp(-((t_w - input_center) ** 2)
                              / (2.0 * input_sigma ** 2))
        bc_w = e_amp * np.exp(gam * t_w) / (1j * np.sqrt(rho_w))
        if detuning is not None:
            # detuning phase over the write window (against its uneven
            # t_w); the source-free reads only gain an overall phase
            bc_w = bc_w * np.exp(1j * cumtrapz0(detuning.eval(t_w),
                                                np.diff(t_w)))
        wr = numeric_evolution(bc_w, np.zeros((idx.size, x.size), complex),
                               theta, x, store_fields=False)
        rows[idx, 1] = np.exp(-2.0 * gam * t_w[-1]) * wr.s_norm2[:, -1]
        # read with the same pulse once the write window has passed (same
        # theta grids, times shifted): the spin waves as stored (forward)
        # and mirrored (backward), together
        t_r = t_w + (t_w[-1] + read_gap + _WINDOW_RADIUS * sigma
                     - coupling.center)
        theta_r = np.concatenate([theta, theta])
        ic_r = np.concatenate([wr.s_final, wr.s_final[:, ::-1]])
        rd = numeric_evolution(np.zeros_like(theta_r, dtype=complex), ic_r,
                               theta_r, x, store_fields=False)
        rows[idx, 2:4] = np.trapezoid(np.abs(rd.e_end) ** 2
                                      * np.exp(-2.0 * gam * t_r),
                                      x=theta_r).reshape(2, -1).T
        rows[idx, 4] = theta[:, -1]
    return rows
