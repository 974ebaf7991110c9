import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from telespin.bath import (
    BathSpec,
    exponent_fn,
    reorganization_energy,
    xi_coefficient,
)

STRONG = BathSpec(kappa=2.0, omega0=1.0, gamma=0.5, beta=0.02)
COLD = BathSpec(kappa=2.0, omega0=1.0, gamma=0.5, beta=50.0)

# frozen from the independent digamma-series / coth-quadrature oracles
XI_HOT = 200.0066511595
XI_COLD = 1.5412788795


def digamma_series(z, terms=200000):
    """Independent digamma oracle: psi(z) = -gamma_E + sum 1/(n+1) - 1/(n+z),
    with the integral tail ln((N+z)/(N+1)) folded in for O(1/N^2) accuracy."""
    n = np.arange(terms)
    partial = np.sum(1.0 / (n + 1.0) - 1.0 / (n + z))
    tail = np.log((terms + z) / (terms + 1.0))
    return -0.5772156649015328606 + partial + tail


def spectral_density(w, bath: BathSpec):
    """J(w) = 8 kappa^2 gamma omega0 w / ((w^2 - omega0^2)^2 + 4 gamma^2 w^2)."""
    w = np.asarray(w, dtype=float)
    return (8.0 * bath.kappa**2 * bath.gamma * bath.omega0 * w
            / ((w * w - bath.omega0**2) ** 2 + 4.0 * bath.gamma**2 * w * w))


def bath_quad(integrand, bath: BathSpec, t: float = 0.0, rtol: float = 1e-9) -> float:
    """(1/2 pi) \\int_0^inf integrand(w) dw by adaptive quadrature.

    Panels are no wider than half a period of e^{i w t}, and the cutoff
    doubles until the tail stops contributing.
    """

    def panels(a, b):
        width = min(math.pi / t if t > 0 else math.inf, (b - a) / 8.0)
        edges = np.linspace(a, b, int(math.ceil((b - a) / width)) + 1)
        return sum(quad(integrand, lo, hi, limit=200, epsrel=rtol, epsabs=1e-14)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]))

    w_max = bath.omega0 + 40.0 * bath.gamma
    total = panels(0.0, w_max)
    for _ in range(40):
        tail = panels(w_max, 2.0 * w_max)
        total += tail
        w_max *= 2.0
        if abs(tail) <= 1e-8 * abs(total):
            return total / (2 * math.pi)
    raise AssertionError(f"bath quadrature tail did not converge at t={t}")


def reorganization_energy_quadrature(bath: BathSpec, rtol: float = 1e-9) -> float:
    """E_r = (1/2 pi) \\int_0^inf J(w)/w dw, the independent cross-check of
    :func:`reorganization_energy`."""
    return bath_quad(lambda w: spectral_density(w, bath) / w, bath, rtol=rtol)


def exact_exponents(bath: BathSpec, ts):
    """Q1 and Q2 at each time from their defining integrals,
    Q1 = (1/2 pi) \\int J/w^2 sin(w t) dw and
    Q2 = (1/2 pi) \\int J/w^2 coth(beta w/2)(1 - cos w t) dw; 1 - cos w t is
    evaluated as 2 sin^2(w t/2), which does not cancel at small w t."""
    q1, q2 = [], []
    for t in np.atleast_1d(np.asarray(ts, dtype=float)):
        q1.append(bath_quad(
            lambda w: spectral_density(w, bath) / (w * w) * math.sin(w * t),
            bath, t))
        q2.append(bath_quad(
            lambda w: (spectral_density(w, bath) / (w * w)
                       / math.tanh(0.5 * bath.beta * w)
                       * 2.0 * math.sin(0.5 * w * t) ** 2),
            bath, t))
    return np.array(q1), np.array(q2)


def xi_series_oracle(bath):
    lam = math.sqrt(bath.omega0**2 - bath.gamma**2)
    z = 1.0 + bath.beta * (bath.gamma + 1j * lam) / (2 * math.pi)
    term = bath.kappa**2 * bath.omega0 / (math.pi * lam) * digamma_series(z).imag
    return bath.kappa**2 / bath.omega0 / bath.beta + term


class TestSpectralDensity:
    def test_zero_frequency(self):
        assert spectral_density(0.0, STRONG) == 0.0

    def test_on_resonance_value(self):
        # denominator reduces to 4 gamma^2 omega0^2 = 1
        assert spectral_density(1.0, STRONG) == pytest.approx(16.0, rel=1e-14)

    def test_off_resonance_value(self):
        assert spectral_density(2.0, STRONG) == pytest.approx(32.0 / 13.0, rel=1e-14)

    def test_positive(self):
        w = np.linspace(0.01, 30.0, 500)
        assert np.all(spectral_density(w, STRONG) > 0)

    @given(s=st.floats(0.1, 8.0), w=st.floats(0.05, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_coupling_scaling(self, s, w):
        base = BathSpec(1.3, 1.0, 0.5, 1.0)
        scaled = BathSpec(s * 1.3, 1.0, 0.5, 1.0)
        ratio = spectral_density(w, scaled) / spectral_density(w, base)
        assert ratio == pytest.approx(s * s, rel=1e-12)


class TestReorganizationEnergy:
    def test_paper_point(self):
        assert reorganization_energy(STRONG) == pytest.approx(4.0, rel=1e-15)

    def test_decoupled(self):
        assert reorganization_energy(BathSpec(0.0, 1.0, 0.5, 1.0)) == 0.0

    def test_quadrature_oracle(self):
        bath = BathSpec(1.0, 2.0, 0.5, 1.0)
        assert reorganization_energy(bath) == pytest.approx(0.5, rel=1e-15)
        assert reorganization_energy_quadrature(bath) == pytest.approx(0.5, rel=1e-6)

    def test_quadrature_matches_closed_form_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            bath = BathSpec(
                kappa=rng.uniform(0.2, 3.0),
                omega0=rng.uniform(0.5, 3.0),
                gamma=rng.uniform(0.05, 0.45),
                beta=rng.uniform(0.02, 50.0),
            )
            quad = reorganization_energy_quadrature(bath)
            assert quad == pytest.approx(reorganization_energy(bath), rel=1e-6)


class TestXiCoefficient:
    def test_high_temperature_point(self):
        xi = xi_coefficient(STRONG)
        assert xi == pytest.approx(XI_HOT, rel=1e-9)
        # E_r / beta dominates at high temperature
        assert xi == pytest.approx(200.0, rel=1e-4)
        assert xi == pytest.approx(xi_series_oracle(STRONG), rel=1e-7)

    def test_low_temperature_point(self):
        xi = xi_coefficient(COLD)
        assert xi > 0
        assert xi == pytest.approx(XI_COLD, rel=1e-9)
        assert xi == pytest.approx(xi_series_oracle(COLD), rel=1e-7)

    def test_decoupled(self):
        assert xi_coefficient(BathSpec(0.0, 1.0, 0.5, 1.0)) == 0.0

    def test_matches_short_time_curvature_of_exact_q2(self):
        bath = BathSpec(2.0, 1.0, 0.5, 1.0)
        t = 1e-3
        _, (q2,) = exact_exponents(bath, t)
        assert q2 / t**2 == pytest.approx(xi_coefficient(bath), rel=1e-3)


class TestBathExponents:
    def test_zero_time(self):
        for exponents in (exponent_fn(STRONG), lambda ts: exact_exponents(STRONG, ts)):
            (q1,), (q2,) = exponents(np.array([0.0]))
            assert q1 == 0.0 and q2 == 0.0

    def test_short_time_q1(self):
        q1, _ = exponent_fn(BathSpec(2.0, 1.0, 0.5, 1.0))(0.1)
        assert q1 == pytest.approx(0.4, rel=1e-14)

    def test_exact_agrees_with_short_time_at_small_t(self):
        bath = BathSpec(2.0, 1.0, 0.5, 1.0)
        ts = np.array([0.01, 0.03, 0.05])
        exact_q1, exact_q2 = exact_exponents(bath, ts)
        short_q1, short_q2 = exponent_fn(bath)(ts)
        assert exact_q2 == pytest.approx(short_q2, rel=0.10)
        assert exact_q1 == pytest.approx(short_q1, rel=0.10)

    def test_q2_nondecreasing_short_time(self):
        f = exponent_fn(COLD)
        ts = np.linspace(0.0, 20.0, 400)
        _, q2 = f(ts)
        assert np.all(np.diff(q2) >= 0)

    def test_q2_nondecreasing_exact(self):
        ts = np.linspace(0.0, 6.0, 9)
        _, q2 = exact_exponents(BathSpec(1.0, 1.0, 0.5, 2.0), ts)
        assert np.all(np.diff(q2) >= -1e-12)


class TestBathSpecValidation:
    def test_gamma_must_stay_below_omega0(self):
        with pytest.raises(ValueError):
            BathSpec(kappa=1.0, omega0=1.0, gamma=1.0, beta=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kappa=-1.0, omega0=1.0, gamma=0.5, beta=1.0),
            dict(kappa=1.0, omega0=0.0, gamma=0.5, beta=1.0),
            dict(kappa=1.0, omega0=1.0, gamma=0.0, beta=1.0),
            dict(kappa=1.0, omega0=1.0, gamma=0.5, beta=0.0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            BathSpec(**kwargs)
