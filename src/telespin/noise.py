"""Random telegraph noise: exact propagators and seeded path sampling.

The driving signal alpha(t) jumps between +1 and -1 with flip rate nu/2 per
unit time, which gives zero mean and the stationary autocorrelation
<alpha(t) alpha(t')> = exp(-nu |t - t'|).

The dichotomous-noise propagators

    S0(t) = <exp(-i Omega \\int_{t'}^{t} alpha)>            (t - t' = t)
    S1(t) = <alpha(t) exp(-i Omega \\int_{t'}^{t} alpha)>

are the conditional moments that close the noise-averaged equations.  S0 is
real and S1 purely imaginary for every (nu, Omega).  The closed forms carry
eta = sqrt(nu^2 - 4 Omega^2); for 2 Omega > nu eta is imaginary and both are
evaluated in complex arithmetic.  S1 is the eta form (the sinh(z)/z factor
below); the printed Omega/nu form misses the path average by orders of
magnitude, as the tests show.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_UINT64 = np.uint64


@dataclass(frozen=True)
class NoiseSpec:
    """Telegraph noise parameters.

    omega_n  noise amplitude Omega (energy)
    nu       switching frequency (1/time); flip rate is nu/2 per direction
    seed     64-bit reproducibility seed for path sampling
    """

    omega_n: float
    nu: float
    seed: int = 0

    def __post_init__(self):
        if self.omega_n < 0:
            raise ValueError(f"omega_n must be >= 0, got {self.omega_n}")
        if self.nu <= 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")


def _sinhc(z):
    """sinh(z)/z, series near 0, complex-safe."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z * z / 6.0, np.sinh(zs) / zs)


def propagators(t, noise: NoiseSpec):
    """(S0, S1) at time(s) t >= 0.

    Returns complex arrays; Im S0 and Re S1 are zero to rounding.  The
    nu = 2 Omega degeneracy (eta -> 0) is handled by the sinh(z)/z limit,
    which reproduces S0 = e^{-nu t/2}(1 + nu t/2) exactly.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("propagators require t >= 0")
    nu, om = noise.nu, noise.omega_n
    eta = np.sqrt(complex(nu * nu - 4.0 * om * om))
    z = eta * t / 2.0
    damp = np.exp(-nu * t / 2.0)
    s0 = damp * (np.cosh(z) + (nu * t / 2.0) * _sinhc(z))
    s1 = -1j * om * t * damp * _sinhc(z)
    if s0.ndim == 0:
        return complex(s0), complex(s1)
    return s0, s1


@dataclass(frozen=True)
class NoisePath:
    """One telegraph realization.

    alpha(t) starts at initial_sign and changes sign at each flip time;
    flip_times is positive and strictly increasing.
    """

    flip_times: np.ndarray
    initial_sign: int
    #: \int_0^t alpha at each flip time t, set from the flips
    flip_cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.initial_sign not in (-1, 1):
            raise ValueError("initial_sign must be +1 or -1")
        flips = np.asarray(self.flip_times, dtype=float)
        if flips.size and (np.any(np.diff(flips) <= 0) or flips[0] <= 0):
            raise ValueError("flip_times must be positive and strictly increasing")
        segs = np.diff(np.concatenate(([0.0], flips)))
        signs = self.initial_sign * (-1.0) ** np.arange(flips.size)
        object.__setattr__(self, "flip_cum", np.cumsum(segs * signs))


def sample_path(noise: NoiseSpec, horizon: float, stream_index: int = 0) -> NoisePath:
    """Draw one path with its flips in (0, horizon); fully determined by
    (noise.seed, stream_index).

    Uses a counter-based generator keyed on the pair, so any subset of
    streams can be produced independently and in any order.
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    mask = (1 << 64) - 1
    key = np.array([noise.seed & mask, stream_index & mask], dtype=_UINT64)
    rng = np.random.Generator(np.random.Philox(key=key))
    initial_sign = 1 if rng.random() < 0.5 else -1
    scale = 2.0 / noise.nu  # waiting times Exp(rate nu/2)
    batch = max(16, int(horizon / scale * 1.5) + 8)
    chunks = []
    total = 0.0
    while total < horizon:
        waits = rng.exponential(scale, size=batch)
        times = total + np.cumsum(waits)
        chunks.append(times)
        total = times[-1]
    flips = np.concatenate(chunks)
    flips = flips[flips < horizon]
    return NoisePath(flip_times=flips, initial_sign=initial_sign)

