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
closed form: Q1 is the phase and Q2 the decay of the factor exp(-Q2 + i Q1)
that multiplies the memory kernels, and Q2 carries the positive sign so
that e^{-Q2} decays, which positivity of xi requires.  The kernel table
stores the two coefficients E_r and xi.  J and the defining integrals of
E_r, Q1 and Q2 live in the tests, as quadrature references for those
closed forms.

xi needs the digamma function at one complex point.  It is evaluated here,
in pure Python, by the branches and operation order of scipy.special.digamma
(Taylor series at the positive root, backward recurrence, asymptotic
series), which keeps xi bit for bit what scipy gives without importing
scipy at start-up.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

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


#: the positive root of psi, and psi there in double precision
_PSI_ROOT = 1.4616321449683622
_PSI_ROOT_VALUE = -9.2412655217294275e-17
#: |z| beyond which the asymptotic series alone is accurate
_PSI_LARGE = 16.0
#: Bernoulli numbers B_2k, k = 1..16 (DLMF 5.11.2)
_BERNOULLI_2K = (
    0.166666666666666667, -0.0333333333333333333, 0.0238095238095238095,
    -0.0333333333333333333, 0.0757575757575757576, -0.253113553113553114,
    1.16666666666666667, -7.09215686274509804, 54.9711779448621554,
    -529.124242424242424, 6192.12318840579710, -86580.2531135531136,
    1425517.16666666667, -27298231.0678160920, 601580873.900642368,
    -15116315767.0921569,
)
#: (2k)! / B_2k, the Euler-Maclaurin coefficients of cephes' zeta
_ZETA_EM = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17,
    -7.1661652561756670113e18,
)
_MACHEP = 2.0**-53
_EPS = 2.0**-52


def _hurwitz_zeta(x: float, q: float) -> float:
    """zeta(x, q) for x > 1, q > 0 by cephes' Euler-Maclaurin summation."""
    s = q**-x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coefficient in _ZETA_EM:
        a *= x + k
        b /= w
        t = a * b / coefficient
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _psi_asymptotic(z: complex) -> complex:
    """ln z - 1/2z - sum B_2k / (2k z^2k) (DLMF 5.11.2), cut at machine
    precision."""
    rzz = 1.0 / z / z
    zfac = 1.0 + 0j
    res = cmath.log(z) - 0.5 / z
    for k, b2k in enumerate(_BERNOULLI_2K, start=1):
        zfac *= rzz
        term = -b2k * zfac / (2.0 * k)
        res += term
        if abs(term) < _EPS * abs(res):
            break
    return res


def _digamma(z: complex) -> complex:
    """psi(z) for Re z >= 1/2, as scipy.special.digamma computes it.

    Near the positive root the Taylor series with Hurwitz-zeta coefficients
    (DLMF 5.7.4); for |z| > 16 the asymptotic series; otherwise the
    asymptotic series at z + n, brought back by psi(z) = psi(z + 1) - 1/z
    (DLMF 5.5.2).  Python's complex arithmetic divides and multiplies as
    C's does, so each branch repeats scipy's rounding.
    """
    absz = abs(z)
    if abs(z - _PSI_ROOT) < 0.5:
        res = complex(_PSI_ROOT_VALUE)
        coeff = -1.0 + 0j
        dz = z - _PSI_ROOT
        for n in range(1, 100):
            coeff *= -dz
            term = coeff * _hurwitz_zeta(n + 1.0, _PSI_ROOT)
            res += term
            if abs(term) < _EPS * abs(res):
                break
        return res
    if absz > _PSI_LARGE:
        return _psi_asymptotic(z)
    n = int(_PSI_LARGE - absz) + 1
    z = z + n
    res = _psi_asymptotic(z)
    for k in range(1, n + 1):
        res -= 1.0 / (z - k)
    return res


def reorganization_energy(bath: BathSpec) -> float:
    """E_r = kappa^2 / omega0 (closed form for this spectral density)."""
    return bath.kappa**2 / bath.omega0


@functools.cache
def xi_coefficient(bath: BathSpec) -> float:
    """Curvature of Q2 at short times: Q2(t) -> xi t^2.

    xi = E_r/beta
         + kappa^2 omega0 / (pi sqrt(omega0^2 - gamma^2))
           * Im psi(1 + beta (gamma + i sqrt(omega0^2 - gamma^2)) / (2 pi))

    with psi the digamma function.  Equals (1/4 pi) \\int J(w) coth(beta w/2) dw.
    Cached per (frozen, hashable) bath: a run evaluates the digamma once.
    """
    if bath.gamma >= bath.omega0:
        raise ValueError("xi_coefficient requires gamma < omega0")
    if bath.kappa == 0.0:
        return 0.0
    e_r = reorganization_energy(bath)
    lam = math.sqrt(bath.omega0**2 - bath.gamma**2)
    z = 1.0 + bath.beta * (bath.gamma + 1j * lam) / (2.0 * math.pi)
    term = bath.kappa**2 * bath.omega0 / (math.pi * lam) * _digamma(z).imag
    return e_r / bath.beta + term

