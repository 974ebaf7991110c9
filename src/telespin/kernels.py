"""Noise-averaged memory kernels on a uniform time grid.

Ten single-time kernels are cumulative integrals of a bath
integrand times a dichotomous-noise propagator,

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

from .bath import Q2_SUPPORT_CUT, BathSpec, exponent_fn, support_cut_index, xi_coefficient
from .noise import NoiseSpec, propagators

#: grid step must resolve the fastest dynamical scale by this factor
GRID_GUARD_FACTOR = 0.02


class GridResolutionError(ValueError):
    """The grid step does not resolve the fastest dynamical scale."""


def resolution_bound(xi: float, epsilon0: float, omega_n: float, nu: float) -> float:
    """Largest admissible grid step: 0.02 min(1/(e0+Omega), 1/sqrt(xi), 1/nu)."""
    scales = []
    if epsilon0 + omega_n > 0:
        scales.append(1.0 / (epsilon0 + omega_n))
    if xi > 0:
        scales.append(1.0 / math.sqrt(xi))
    scales.append(1.0 / nu)
    return GRID_GUARD_FACTOR * min(scales)


@dataclass(frozen=True)
class KernelTable:
    """Immutable kernel tables on a uniform grid (shareable across workers)."""

    ts: np.ndarray
    dt: float
    epsilon0: float
    v2: float
    nu: float
    omega_n: float
    g11: np.ndarray
    g12: np.ndarray
    g21: np.ndarray
    g22: np.ndarray
    g51: np.ndarray
    g52: np.ndarray
    g61: np.ndarray
    g62: np.ndarray
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
    exponents: object = field(repr=False)

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
        """Linear interpolation of the eight single-time kernels at t."""
        x = t / self.dt
        j = min(max(int(x), 0), len(self.ts) - 2)
        f = x - j
        g = 1.0 - f
        return (
            g * self.g11[j] + f * self.g11[j + 1],
            g * self.g12[j] + f * self.g12[j + 1],
            g * self.g21[j] + f * self.g21[j + 1],
            g * self.g22[j] + f * self.g22[j + 1],
            g * self.g51[j] + f * self.g51[j + 1],
            g * self.g52[j] + f * self.g52[j + 1],
            g * self.g61[j] + f * self.g61[j + 1],
            g * self.g62[j] + f * self.g62[j + 1],
        )

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
        us = self.ts[: m + 1]
        q1, q2 = self.exponents(s + us)
        ef = np.exp(-q2 + 1j * q1)
        rot = np.exp(1j * self.epsilon0 * (s + us))
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

    ts must be a uniform grid starting at 0 whose step satisfies the
    resolution guard dt <= 0.02 min(1/(e0+Omega), 1/sqrt(xi), 1/nu).
    """
    ts = np.asarray(ts, dtype=float)
    if ts[0] != 0.0:
        raise ValueError("kernel grid must start at t=0")
    steps = np.diff(ts)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("kernel grid must be uniform")
    bound = resolution_bound(
        xi_coefficient(bath), system.epsilon0, noise.omega_n, noise.nu
    )
    if dt > bound * (1.0 + 1e-9):
        raise GridResolutionError(
            f"grid step {dt:.3e} exceeds resolution bound {bound:.3e}"
        )
    exponents = exponent_fn(bath)

    e0 = system.epsilon0
    v2 = system.v * system.v
    q1, q2 = exponents(ts)
    env = np.exp(-q2)
    kc = env * np.cos(q1)
    ks = env * np.sin(q1)
    cos_e = np.cos(e0 * ts)
    sin_e = np.sin(e0 * ts)
    rot = np.exp(1j * e0 * ts)
    s0c, s1 = propagators(ts, noise, s1_denominator)
    s0 = s0c.real
    m_cut = support_cut_index(q2)
    alive = q2 < Q2_SUPPORT_CUT
    alive[m_cut + 1:] = False
    ef = np.where(alive, env, 0.0) * np.exp(1j * q1)

    def cum(y):
        # cumulative trapezoid from 0, the same terms as scipy's
        return np.concatenate(([0.0], np.cumsum(steps * (y[1:] + y[:-1]) / 2.0)))

    return KernelTable(
        ts=ts,
        dt=dt,
        epsilon0=e0,
        v2=v2,
        nu=noise.nu,
        omega_n=noise.omega_n,
        g11=4.0 * v2 * cum(kc * cos_e * s0),
        g12=1j * 4.0 * v2 * cum(kc * sin_e * s1),
        g21=4.0 * v2 * cum(ks * sin_e * s0),
        g22=1j * 4.0 * v2 * cum(ks * cos_e * s1),
        g51=2.0 * v2 * cum(kc * np.conj(rot) * s0),
        g52=2.0 * v2 * cum(kc * np.conj(rot) * s1),
        g61=2.0 * v2 * cum(kc * rot * s0),
        g62=2.0 * v2 * cum(kc * rot * s1),
        _ep0=rot * s0,
        _ep1=rot * s1,
        _em0=np.conj(rot) * s0,
        _em1=np.conj(rot) * s1,
        a_c=np.where(alive, kc, 0.0) * rot,
        a_s=np.where(alive, ks, 0.0) * rot,
        d_p=ef * rot,
        d_m=ef * np.conj(rot),
        m_cut=m_cut,
        exponents=exponents,
    )
