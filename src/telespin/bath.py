"""Structured-bath spectral density and bath-correlation exponents.

The environment is a single damped harmonic mode (frequency ``omega0``,
level broadening ``gamma``) coupled to the two-level system with strength
``kappa``, described by the spectral density

    J(w) = 8 kappa^2 gamma omega0 w / ((w^2 - omega0^2)^2 + 4 gamma^2 w^2).

All bath-correlation integrals carry a 1/(2 pi) normalization so that the
reorganization energy E_r = (1/2 pi) \\int J(w)/w dw equals kappa^2/omega0
exactly, and the short-time forms Q1(t) = E_r t, Q2(t) = xi t^2 are the
t -> 0 limits of the exact quadrature expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

TWO_PI = 2.0 * math.pi

#: e^{-Q2} below exp(-Q2_SUPPORT_CUT) is treated as numerically dead.
Q2_SUPPORT_CUT = 46.0


def support_cut_index(q2) -> int:
    """m_cut: the first grid index (at least 1) where Q2 reaches the cut, or
    the last index when the kernel stays alive over the whole grid."""
    dead = np.flatnonzero(np.asarray(q2) >= Q2_SUPPORT_CUT)
    return max(int(dead[0]), 1) if dead.size else len(q2) - 1


class QuadratureError(RuntimeError):
    """Adaptive quadrature of a bath integral failed to converge."""


@dataclass(frozen=True)
class BathSpec:
    """Parameters of the structured bath (hbar = 1 units).

    kappa   coupling magnitude (energy)
    omega0  central oscillator frequency (energy)
    gamma   oscillator level broadening (energy)
    beta    inverse temperature (1/energy)
    """

    kappa: float
    omega0: float
    gamma: float
    beta: float

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.gamma >= self.omega0:
            # sqrt(omega0^2 - gamma^2) must stay real for xi_coefficient
            raise ValueError(
                f"gamma must be < omega0 (got gamma={self.gamma}, omega0={self.omega0})"
            )


def spectral_density(omega, bath: BathSpec):
    """J(omega) for the damped-oscillator bath; vectorized over omega."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("spectral_density requires omega >= 0")
    num = 8.0 * bath.kappa**2 * bath.gamma * bath.omega0 * w
    den = (w * w - bath.omega0**2) ** 2 + 4.0 * bath.gamma**2 * w * w
    out = num / den
    return out if out.ndim else float(out)


def reorganization_energy(bath: BathSpec) -> float:
    """E_r = kappa^2 / omega0 (closed form for this spectral density)."""
    return bath.kappa**2 / bath.omega0


def xi_coefficient(bath: BathSpec) -> float:
    """Curvature of Q2 at short times: Q2(t) -> xi t^2.

    xi = E_r/beta
         + kappa^2 omega0 / (pi sqrt(omega0^2 - gamma^2))
           * Im psi(1 + beta (gamma + i sqrt(omega0^2 - gamma^2)) / (2 pi))

    with psi the digamma function.  Equals (1/4 pi) \\int J(w) coth(beta w/2) dw.
    """
    if bath.gamma >= bath.omega0:
        raise ValueError("xi_coefficient requires gamma < omega0")
    if bath.kappa == 0.0:
        return 0.0
    e_r = reorganization_energy(bath)
    lam = math.sqrt(bath.omega0**2 - bath.gamma**2)
    z = 1.0 + bath.beta * (bath.gamma + 1j * lam) / TWO_PI
    term = bath.kappa**2 * bath.omega0 / (math.pi * lam) * float(np.imag(digamma(z)))
    return e_r / bath.beta + term


def _coth(x):
    """coth(x) stable near 0 (series 1/x + x/3 - x^3/45)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    out = np.where(small, 1.0 / np.where(x == 0, 1.0, x) + x / 3.0, 1.0 / np.tanh(xs))
    return out


def _oscillatory_quad(f, t, a, b, rtol):
    """Integrate f over [a, b] splitting panels on the sin/cos period.

    Panels are no wider than half an oscillation period of e^{i w t} and no
    wider than the Lorentzian structure scale, so each sub-quadrature sees a
    well-behaved integrand.
    """
    from scipy.integrate import quad

    period_cap = math.pi / max(t, 1e-12)
    width = min(period_cap, (b - a) / 8.0)
    n_panels = max(8, int(math.ceil((b - a) / width)))
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(f, lo, hi, limit=60, epsrel=rtol, epsabs=1e-14)
        total += val
    return total


def _tail_doubled_quad(f, t, bath, rtol, label):
    """Panel quadrature over [0, w_max], doubling w_max until the tail dies."""
    w_max = bath.omega0 + 40.0 * bath.gamma
    total = _oscillatory_quad(f, t, 0.0, w_max, rtol)
    for _ in range(30):
        tail = _oscillatory_quad(f, t, w_max, 2.0 * w_max, rtol)
        total += tail
        w_max *= 2.0
        if abs(tail) < 1e-8 * max(abs(total), 1e-30):
            return total
    raise QuadratureError(f"{label} quadrature did not converge at t={t}")


def _exact_q1(t, bath, rtol=1e-9):
    if t == 0.0 or bath.kappa == 0.0:
        return 0.0

    def f(w):
        return spectral_density(w, bath) / (w * w) * math.sin(w * t)

    return _tail_doubled_quad(f, t, bath, rtol, "Q1") / TWO_PI


def _exact_q2(t, bath, rtol=1e-9):
    if t == 0.0 or bath.kappa == 0.0:
        return 0.0
    beta = bath.beta

    def f(w):
        if w == 0.0:
            return 0.0
        jw = spectral_density(w, bath)
        return jw / (w * w) * float(_coth(0.5 * beta * w)) * (1.0 - math.cos(w * t))

    return _tail_doubled_quad(f, t, bath, rtol, "Q2") / TWO_PI


def exponent_fn(bath: BathSpec, mode: str = "short-time"):
    """Vectorized (q1, q2) evaluator used by the kernel builders.

    q1 is the phase and q2 the decay of the bath-correlation exponent;
    ``exp(-q2 + i*q1)`` multiplies the memory kernels.
    mode="short-time": Q1 = E_r t, Q2 = +xi t^2.  The displayed short-time
    decay is implemented with a positive sign so that e^{-Q2} decays, which
    positivity of xi requires.
    mode="exact": adaptive quadrature of the defining integrals
    Q1 = (1/2 pi) \\int J/w^2 sin(w t) dw,
    Q2 = (1/2 pi) \\int J/w^2 coth(beta w/2)(1 - cos w t) dw.
    """
    if mode == "short-time":
        e_r = reorganization_energy(bath)
        xi = xi_coefficient(bath)

        def short(ts):
            ts = np.asarray(ts, dtype=float)
            return e_r * ts, xi * ts * ts

        return short
    if mode == "exact":

        def exact(ts):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            q1 = np.array([_exact_q1(float(t), bath) for t in ts])
            q2 = np.array([_exact_q2(float(t), bath) for t in ts])
            return q1, q2

        return exact
    raise ValueError(f"unknown bath exponent mode: {mode!r}")
