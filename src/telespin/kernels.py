"""Noise-averaged memory kernels on a uniform time grid.

Eight single-time kernels (g11 g12 g21 g22 g51 g52 g61 g62) are
cumulative integrals of a bath integrand times a dichotomous-noise
propagator,

    G_{i,1}(t) = pre_i \\int_0^t E_i(u) S0(u) du,
    G_{i,2}(t) = pre_i (i) \\int_0^t E_i'(u) S1(u) du   (i factor on rows 1-2),

reduced to O(N) total work by the substitution u = t - tau.  The two-time
families G_{3,j}, G_{4,j} keep both time arguments,

    G_{3,j}(t1, t2) = V^2 \\int_0^{t2} E_{f+}(t1 - tau) e^{+i e0 (t2 - tau)}
                      S_j(t2 - tau) dtau,

and are evaluated lazily per (t1, t2) by trapezoid on the shared grid.

The table also carries the Monte Carlo oracle's fixed lag sequences
K_c e^{i e0 u}, K_s e^{i e0 u} and E_f e^{+-i e0 u}, formed from the same
exponents on the same grid and zero from the support cut m_cut on, so the
oracle and the averaged solver read one set of bath kernels.

Prefactors follow the per-trajectory equations: 4 V^2 on the sigma_z-sector
kernels (families 1 and 2), 2 V^2 on the coherence-damping families 5 and 6,
V^2 on the two-time correction families 3 and 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import (Q2_SUPPORT_CUT, BathSpec, reorganization_energy, support_cut_index,
                   xi_coefficient)
from .noise import NoiseSpec, propagators

#: grid step must resolve the fastest dynamical scale by this factor
GRID_GUARD_FACTOR = 0.02


def resolution_bound(xi: float, epsilon0: float, omega_n: float, nu: float) -> float:
    """Largest admissible grid step: 0.02 min(1/(|e0|+Omega), 1/sqrt(xi), 1/nu),
    where |e0| + Omega is the fastest phase rate e0 + alpha Omega can reach."""
    scales = []
    if abs(epsilon0) + omega_n > 0:
        scales.append(1.0 / (abs(epsilon0) + omega_n))
    if xi > 0:
        scales.append(1.0 / math.sqrt(xi))
    scales.append(1.0 / nu)
    return GRID_GUARD_FACTOR * min(scales)


class _Column:
    """Read-only view of one column of a kernel stack."""

    def __init__(self, stack: str, k: int):
        self.stack, self.k = stack, k

    def __get__(self, table, owner=None):
        if table is None:
            return self
        view = getattr(table, self.stack)[:, self.k]
        view.flags.writeable = False
        return view


@dataclass(frozen=True)
class KernelTable:
    """Immutable kernel tables on a uniform grid: plain data, so a table
    pickles and can be shipped to worker processes.  ``e_r`` and ``xi`` are
    the bath exponent's coefficients, Q1 = e_r t and Q2 = xi t^2."""

    ts: np.ndarray
    dt: float
    epsilon0: float
    v2: float
    nu: float
    omega_n: float
    e_r: float
    xi: float
    # the single-time kernels, stored once: columns g11, g21 (real) and
    # g12, g22, g51, g52, g61, g62 (complex)
    real_kernels: np.ndarray = field(repr=False)
    complex_kernels: np.ndarray = field(repr=False)
    # e^{+-i e0 u} S_j(u) factors of the two-time integrands
    _ep0: np.ndarray = field(repr=False)
    _ep1: np.ndarray = field(repr=False)
    _em0: np.ndarray = field(repr=False)
    _em1: np.ndarray = field(repr=False)
    # the oracle's lag sequences K_c e^{i e0 u}, K_s e^{i e0 u},
    # E_f e^{+i e0 u}, E_f e^{-i e0 u}, zero from m_cut on
    a_c: np.ndarray = field(repr=False)
    a_s: np.ndarray = field(repr=False)
    d_p: np.ndarray = field(repr=False)
    d_m: np.ndarray = field(repr=False)
    m_cut: int = field(repr=False)

    g11 = _Column("real_kernels", 0)
    g21 = _Column("real_kernels", 1)
    g12 = _Column("complex_kernels", 0)
    g22 = _Column("complex_kernels", 1)
    g51 = _Column("complex_kernels", 2)
    g52 = _Column("complex_kernels", 3)
    g61 = _Column("complex_kernels", 4)
    g62 = _Column("complex_kernels", 5)

    @property
    def support_cut(self) -> float:
        """Where e^{-Q2} is numerically dead, or the horizon if nowhere."""
        return float(self.ts[self.m_cut])

    def node_index(self, t: float) -> int:
        """Index of the grid node at the anchor time t."""
        k = int(round(t / self.dt))
        if not 0 <= k < len(self.ts) or abs(k * self.dt - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"t2 = {t} must coincide with a grid node")
        return k

    def single_time_at(self, t: float):
        """Linear interpolation of the eight single-time kernels at t, as
        Python numbers: floats g11, g21 and complex g12, g22, g51, g52, g61,
        g62.  Each value rounds as g * row_j + f * row_{j+1} does in numpy,
        and the real kernels stay real, so exact zeros keep their sign."""
        x = float(t) / self.dt
        j = min(max(int(x), 0), len(self.ts) - 2)
        f = x - j
        g = 1.0 - f
        (r0, r1), (s0, s1) = self.real_kernels[j:j + 2].tolist()
        (c0, c1, c2, c3, c4, c5), (d0, d1, d2, d3, d4, d5) = \
            self.complex_kernels[j:j + 2].tolist()
        return (g * r0 + f * s0, g * c0 + f * d0, g * r1 + f * s1, g * c1 + f * d1,
                g * c2 + f * d2, g * c3 + f * d3, g * c4 + f * d4, g * c5 + f * d5)

    def two_time_pair(self, t1: float, t2: float):
        """(G31, G32, G41, G42) at (t1, t2); t2 must lie on the grid."""
        if t1 < t2:
            raise ValueError(f"two-time kernels require t1 >= t2 (got {t1} < {t2})")
        k = self.node_index(t2)
        if k == 0:
            return 0j, 0j, 0j, 0j
        s = t1 - t2
        if s >= self.support_cut:
            return 0j, 0j, 0j, 0j
        # integrand support: e^{-Q2(s+u)} alive only for s+u < support_cut
        m = min(k, int(math.ceil((self.support_cut - s) / self.dt)))
        x = s + self.ts[: m + 1]
        q1, q2 = self.e_r * x, self.xi * x * x
        ef = np.exp(-q2 + 1j * q1)
        rot = np.exp(1j * self.epsilon0 * x)
        fp = ef * rot
        fm = ef / rot
        w = np.full(m + 1, self.dt)
        w[0] *= 0.5
        if m == k:
            w[-1] *= 0.5
        # else: truncated interior where the integrand is numerically dead
        g31 = self.v2 * np.dot(w, fp * self._ep0[: m + 1])
        g32 = self.v2 * np.dot(w, fp * self._ep1[: m + 1])
        g41 = self.v2 * np.dot(w, fm * self._em0[: m + 1])
        g42 = self.v2 * np.dot(w, fm * self._em1[: m + 1])
        return g31, g32, g41, g42


def build_single_time(
    ts: np.ndarray,
    bath: BathSpec,
    system,
    noise: NoiseSpec,
    s1_denominator: str = "eta",
) -> KernelTable:
    """Tabulate all single-time kernels and the two-time integrand factors.

    ts must be a uniform grid of at least two nodes starting at 0 whose step
    satisfies the resolution guard dt <= 0.02 min(1/(|e0|+Omega),
    1/sqrt(xi), 1/nu).  S1 has one form (``noise.propagators``), so
    s1_denominator accepts only "eta".
    """
    if s1_denominator != "eta":
        raise ValueError(f"s1_denominator must be 'eta', got {s1_denominator!r}")
    ts = np.asarray(ts, dtype=float)
    if ts.size < 2:
        raise ValueError(f"kernel grid needs at least two nodes, got {ts.size}")
    if ts[0] != 0.0:
        raise ValueError("kernel grid must start at t=0")
    steps = np.diff(ts)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("kernel grid must be uniform")
    e_r = reorganization_energy(bath)
    xi = xi_coefficient(bath)
    bound = resolution_bound(xi, system.epsilon0, noise.omega_n, noise.nu)
    if dt > bound * (1.0 + 1e-9):
        raise ValueError(
            f"grid step {dt:.3e} exceeds resolution bound {bound:.3e}"
        )

    e0 = system.epsilon0
    v2 = system.v * system.v
    q1, q2 = e_r * ts, xi * ts * ts
    env = np.exp(-q2)
    kc = env * np.cos(q1)
    ks = env * np.sin(q1)
    cos_e = np.cos(e0 * ts)
    sin_e = np.sin(e0 * ts)
    rot = np.exp(1j * e0 * ts)
    s0c, s1 = propagators(ts, noise)
    s0 = s0c.real
    m_cut = support_cut_index(q2)
    alive = q2 < Q2_SUPPORT_CUT
    ef = np.where(alive, env, 0.0) * np.exp(1j * q1)

    def cum(y):
        # cumulative trapezoid from 0, the same terms as scipy's
        return np.concatenate(([0.0], np.cumsum(steps * (y[1:] + y[:-1]) / 2.0)))

    # filled one column at a time, so no second copy of a kernel is held
    real = np.empty((len(ts), 2))
    real[:, 0] = 4.0 * v2 * cum(kc * cos_e * s0)
    real[:, 1] = 4.0 * v2 * cum(ks * sin_e * s0)
    cplx = np.empty((len(ts), 6), dtype=complex)
    cplx[:, 0] = 1j * 4.0 * v2 * cum(kc * sin_e * s1)
    cplx[:, 1] = 1j * 4.0 * v2 * cum(ks * cos_e * s1)
    cplx[:, 2] = 2.0 * v2 * cum(kc * np.conj(rot) * s0)
    cplx[:, 3] = 2.0 * v2 * cum(kc * np.conj(rot) * s1)
    cplx[:, 4] = 2.0 * v2 * cum(kc * rot * s0)
    cplx[:, 5] = 2.0 * v2 * cum(kc * rot * s1)

    return KernelTable(
        ts=ts,
        dt=dt,
        epsilon0=e0,
        v2=v2,
        nu=noise.nu,
        omega_n=noise.omega_n,
        e_r=e_r,
        xi=xi,
        real_kernels=real,
        complex_kernels=cplx,
        _ep0=rot * s0,
        _ep1=rot * s1,
        _em0=np.conj(rot) * s0,
        _em1=np.conj(rot) * s1,
        a_c=np.where(alive, kc, 0.0) * rot,
        a_s=np.where(alive, ks, 0.0) * rot,
        d_p=ef * rot,
        d_m=ef * np.conj(rot),
        m_cut=m_cut,
    )
