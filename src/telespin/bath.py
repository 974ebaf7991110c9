"""Structured-bath parameters and bath-correlation exponents.

The environment is a single damped harmonic mode (frequency ``omega0``,
level broadening ``gamma``) coupled to the two-level system with strength
``kappa``, described by the spectral density

    J(w) = 8 kappa^2 gamma omega0 w / ((w^2 - omega0^2)^2 + 4 gamma^2 w^2).

All bath-correlation integrals carry a 1/(2 pi) normalization, so the
reorganization energy E_r = (1/2 pi) \\int J(w)/w dw equals kappa^2/omega0
exactly.  The exponents are

    Q1(t) = (1/2 pi) \\int J/w^2 sin(w t) dw,
    Q2(t) = (1/2 pi) \\int J/w^2 coth(beta w/2) (1 - cos w t) dw,

and the library uses their short-time forms Q1 = E_r t, Q2 = xi t^2 in
closed form.  J and the defining integrals of E_r, Q1 and Q2 live in the
tests, as quadrature references for those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

#: e^{-Q2} below exp(-Q2_SUPPORT_CUT) is treated as numerically dead.
Q2_SUPPORT_CUT = 46.0


def support_cut_index(q2) -> int:
    """m_cut: the first grid index (at least 1) where Q2 reaches the cut, or
    the last index when the kernel stays alive over the whole grid."""
    dead = np.flatnonzero(np.asarray(q2) >= Q2_SUPPORT_CUT)
    return max(int(dead[0]), 1) if dead.size else len(q2) - 1


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
    z = 1.0 + bath.beta * (bath.gamma + 1j * lam) / (2.0 * math.pi)
    term = bath.kappa**2 * bath.omega0 / (math.pi * lam) * float(np.imag(digamma(z)))
    return e_r / bath.beta + term


def exponent_fn(bath: BathSpec):
    """Vectorized (q1, q2) evaluator used by the kernel builders.

    q1 is the phase and q2 the decay of the bath-correlation exponent;
    ``exp(-q2 + i*q1)`` multiplies the memory kernels.  These are the
    short-time forms Q1 = E_r t and Q2 = +xi t^2: the displayed short-time
    decay is implemented with a positive sign so that e^{-Q2} decays, which
    positivity of xi requires.
    """
    e_r = reorganization_energy(bath)
    xi = xi_coefficient(bath)

    def short(ts):
        ts = np.asarray(ts, dtype=float)
        return e_r * ts, xi * ts * ts

    return short
