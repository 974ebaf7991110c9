import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from telespin.analysis import (
    SpectrumResult,
    delta_measure,
    detect_peaks,
    fit_damped_cosines,
    fit_exponential,
    power_spectrum,
)


def lorentzian_series(omega0, eta, horizon=120.0, dt=0.02):
    """Correlator rotating at omega0 with decay eta.

    Under the shipped convention S(w) = Re \\int_0^inf e^{+i w tau} C(tau)
    dtau, a correlator e^{-i omega0 tau} produces its Lorentzian line at
    +omega0 (this is how the absorption correlator carries its frequency).
    """
    tau = np.arange(0.0, horizon, dt)
    return tau, np.exp((-1j * omega0 - eta) * tau)


class TestPowerSpectrum:
    def test_lorentzian_line(self):
        tau, c = lorentzian_series(1.3, 0.08)
        spec = power_spectrum(tau, c, window="none")
        peaks = detect_peaks(spec)
        assert len(peaks) == 1
        assert peaks[0].omega == pytest.approx(1.3, abs=spec.bin_width)
        # half width at half maximum ~ eta
        half = peaks[0].power / 2.0
        above = spec.freq_grid[spec.power > half]
        hwhm = 0.5 * (above.max() - above.min())
        assert hwhm == pytest.approx(0.08, abs=2 * spec.bin_width)

    def test_zero_series(self):
        tau = np.linspace(0.0, 10.0, 256)
        spec = power_spectrum(tau, np.zeros_like(tau, dtype=complex))
        assert np.allclose(spec.power, 0.0)
        assert detect_peaks(spec) == []

    def test_frequency_grid_symmetric(self):
        tau, c = lorentzian_series(0.7, 0.1, horizon=40.0)
        spec = power_spectrum(tau, c)
        w = spec.freq_grid
        assert w[0] < 0 < w[-1]
        assert np.allclose(w + w[::-1], w[0] + w[-1], atol=1e-12)

    def test_conjugate_reflection_identity(self):
        tau, c = lorentzian_series(0.9, 0.12, horizon=60.0)
        c = c + 0.3 * np.exp((-0.4j - 0.2) * tau)
        sa = power_spectrum(tau, c, window="none")
        sb = power_spectrum(tau, np.conj(c), window="none")
        # S_conj(w) = S(-w); fftfreq leaves the lone extreme bin unpaired
        assert np.allclose(sb.power[1:], sa.power[1:][::-1], atol=1e-10)

    def test_truncation_warning(self):
        tau = np.linspace(0.0, 5.0, 128)
        c = np.exp(1j * tau)  # undamped: never decays
        with pytest.warns(UserWarning):
            power_spectrum(tau, c)

    def test_nonuniform_grid_rejected(self):
        tau = np.array([0.0, 0.1, 0.25, 0.5])
        with pytest.raises(ValueError):
            power_spectrum(tau, np.zeros(4, dtype=complex))


class TestDetectPeaks:
    def test_two_separated_lines(self):
        tau, a = lorentzian_series(0.6, 0.05, horizon=200.0)
        _, b = lorentzian_series(1.6, 0.05, horizon=200.0)
        spec = power_spectrum(tau, a + b, window="none")
        peaks = detect_peaks(spec)
        assert len(peaks) == 2
        got = sorted(p.omega for p in peaks)
        assert got[0] == pytest.approx(0.6, abs=spec.bin_width)
        assert got[1] == pytest.approx(1.6, abs=spec.bin_width)

    def test_prominence_threshold_filters(self):
        tau, a = lorentzian_series(0.6, 0.05, horizon=200.0)
        _, b = lorentzian_series(1.6, 0.05, horizon=200.0)
        spec = power_spectrum(tau, a + 0.02 * b, window="none")
        assert len(detect_peaks(spec, prominence_frac=0.05)) == 1
        assert len(detect_peaks(spec, prominence_frac=0.005)) == 2

    @pytest.mark.filterwarnings("ignore:correlator magnitude at the horizon")
    @pytest.mark.parametrize("frac", [0.05, 0.01, 0.002, 0.0005])
    def test_ripple_heavy_spectrum_matches_plain_prominence_search(self, frac):
        # a line that has not decayed by the horizon: truncation ripple puts
        # ~10^4 local maxima into the spectrum, some of them above threshold
        tau, a = lorentzian_series(0.6, 0.002, horizon=200.0)
        _, b = lorentzian_series(1.6, 0.01, horizon=200.0)
        spec = power_spectrum(tau, a + 0.1 * b, window="none")
        s = spec.power
        assert len(find_peaks(s)[0]) > 5000
        idx, props = find_peaks(s, prominence=frac * np.max(s))
        peaks = detect_peaks(spec, prominence_frac=frac)
        assert [p.power for p in peaks] == s[idx].tolist()
        assert [p.prominence for p in peaks] == props["prominences"].tolist()

    def test_peak_just_above_threshold_from_the_floor(self):
        # the height cut must keep a line whose prominence over the global
        # minimum barely exceeds the threshold
        omega = np.linspace(-5.0, 5.0, 20001)
        power = (1.0 / (1.0 + ((omega - 1.0) / 0.05) ** 2)
                 + 0.052 / (1.0 + ((omega + 2.0) / 0.05) ** 2)
                 + 1e-3 * np.cos(300.0 * omega))
        spec = SpectrumResult(freq_grid=omega, power=power, window="none")
        idx, props = find_peaks(power, prominence=0.05 * np.max(power))
        peaks = detect_peaks(spec, prominence_frac=0.05)
        assert len(peaks) == 2
        assert [p.power for p in peaks] == power[idx].tolist()
        assert [p.prominence for p in peaks] == props["prominences"].tolist()


class TestFitExponential:
    def test_exact_model(self):
        t = np.linspace(0.0, 20.0, 300)
        y = 0.2 + 0.8 * np.exp(-0.5 * t)
        fit = fit_exponential(t, y)
        assert fit.p == pytest.approx(0.2, abs=1e-6)
        assert fit.k == pytest.approx(0.5, abs=1e-6)
        assert not fit.degenerate

    def test_constant_series(self):
        t = np.linspace(0.0, 10.0, 64)
        fit = fit_exponential(t, np.full_like(t, 0.37))
        assert fit.degenerate
        assert fit.k == 0.0
        assert fit.p == pytest.approx(0.37)

    def test_shifted_time_origin(self):
        t = np.linspace(5.0, 25.0, 300)
        y = -0.1 + 1.1 * np.exp(-0.33 * (t - t[0]))
        fit = fit_exponential(t, y)
        assert fit.k == pytest.approx(0.33, abs=1e-6)

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_exponential(np.linspace(0, 1, 5), np.zeros(5))


class TestFitDampedCosines:
    def test_exact_model(self):
        t = np.linspace(0.0, 30.0, 1200)
        y = np.exp(-0.3 * t) * (0.6 * np.cos(0.25 * t) + 0.4 * np.cos(1.75 * t))
        fit = fit_damped_cosines(t, y)
        assert fit.lam == pytest.approx(0.3, abs=1e-4)
        assert fit.a1 == pytest.approx(0.6, abs=1e-4)
        assert fit.w1 == pytest.approx(0.25, abs=1e-4)
        assert fit.a2 == pytest.approx(0.4, abs=1e-4)
        assert fit.w2 == pytest.approx(1.75, abs=1e-4)
        assert fit.w1 <= fit.w2

    def test_single_tone_flagged(self):
        t = np.linspace(0.0, 40.0, 1600)
        y = np.exp(-0.2 * t) * np.cos(0.9 * t)
        fit = fit_damped_cosines(t, y)
        assert fit.degenerate
        assert min(abs(fit.a1), abs(fit.a2)) < 0.02 * max(abs(fit.a1), abs(fit.a2))

    def test_recovery_under_noise(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 30.0, 900)
        ok = 0
        for _ in range(10):
            lam = rng.uniform(0.1, 0.4)
            w1, w2 = sorted(rng.uniform(0.2, 2.0, size=2))
            if w2 - w1 < 0.3:
                continue
            a1, a2 = rng.uniform(0.3, 1.0, size=2)
            clean = np.exp(-lam * t) * (a1 * np.cos(w1 * t) + a2 * np.cos(w2 * t))
            y = clean + 0.01 * np.max(np.abs(clean)) * rng.standard_normal(len(t))
            fit = fit_damped_cosines(t, y)
            if abs(fit.lam - lam) < 0.05 * lam and abs(fit.w1 - w1) < 0.05 * max(w1, 0.2):
                ok += 1
        assert ok >= 6


class TestDeltaMeasure:
    def test_identical(self):
        t = np.linspace(0.0, 10.0, 200)
        c = np.exp(-0.3 * t) * np.exp(1j * t)
        assert delta_measure(t, c, c).delta == 0.0

    def test_scaled_by_ten_percent(self):
        t = np.linspace(0.0, 10.0, 200)
        c = np.exp(-0.3 * t) * np.exp(1j * t)
        rep = delta_measure(t, c, 1.1 * c, "zz")
        assert rep.delta == pytest.approx(10.0, abs=1e-9)
        assert rep.correlator == "zz"

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_rescaling_invariance(self, scale):
        t = np.linspace(0.0, 10.0, 200)
        a = np.exp(-0.3 * t) * np.exp(1j * t)
        b = np.exp(-0.35 * t) * np.exp(0.9j * t)
        base = delta_measure(t, a, b).delta
        scaled = delta_measure(t, scale * a, scale * b).delta
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_undefined_reference(self):
        t = np.linspace(0.0, 10.0, 200)
        with pytest.raises(ValueError):
            delta_measure(t, np.zeros_like(t), np.ones_like(t))
