import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks, hilbert, peak_prominences

import telespin as ts
from telespin.analysis import (
    SpectrumResult,
    _damped_jacobian,
    _damped_model,
    _envelope_rate,
    _exp_jacobian,
    _exp_model,
    _find_peaks,
    delta_measure,
    detect_peaks,
    fit_damped_cosines,
    fit_exponential,
    power_spectrum,
)
from telespin.config import ExperimentConfig, GridConfig, RunConfig
from telespin.runner import run_spectrum


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
        spec = power_spectrum(tau, c)
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
        sa = power_spectrum(tau, c)
        sb = power_spectrum(tau, np.conj(c))
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
        spec = power_spectrum(tau, a + b)
        peaks = detect_peaks(spec)
        assert len(peaks) == 2
        got = sorted(p.omega for p in peaks)
        assert got[0] == pytest.approx(0.6, abs=spec.bin_width)
        assert got[1] == pytest.approx(1.6, abs=spec.bin_width)

    def test_prominence_threshold_filters(self):
        tau, a = lorentzian_series(0.6, 0.05, horizon=200.0)
        _, b = lorentzian_series(1.6, 0.05, horizon=200.0)
        spec = power_spectrum(tau, a + 0.02 * b)
        assert len(detect_peaks(spec, prominence_frac=0.05)) == 1
        assert len(detect_peaks(spec, prominence_frac=0.005)) == 2

    @pytest.mark.filterwarnings("ignore:correlator magnitude at the horizon")
    @pytest.mark.parametrize("frac", [0.05, 0.01, 0.002, 0.0005])
    def test_ripple_heavy_spectrum_matches_plain_prominence_search(self, frac):
        # a line that has not decayed by the horizon: truncation ripple puts
        # ~10^4 local maxima into the spectrum, some of them above threshold
        tau, a = lorentzian_series(0.6, 0.002, horizon=200.0)
        _, b = lorentzian_series(1.6, 0.01, horizon=200.0)
        spec = power_spectrum(tau, a + 0.1 * b)
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
        spec = SpectrumResult(freq_grid=omega, power=power)
        idx, props = find_peaks(power, prominence=0.05 * np.max(power))
        peaks = detect_peaks(spec, prominence_frac=0.05)
        assert len(peaks) == 2
        assert [p.power for p in peaks] == power[idx].tolist()
        assert [p.prominence for p in peaks] == props["prominences"].tolist()


def assert_matches_find_peaks(x, height, prominence):
    """_find_peaks gives scipy's indices and prominences, exactly."""
    idx, props = find_peaks(x, height=height, prominence=prominence)
    got_idx, got_prom = _find_peaks(x, height, prominence)
    assert got_idx.tolist() == idx.tolist()
    assert got_prom.tolist() == props["prominences"].tolist()


@st.composite
def cuts_at_candidates(draw, x):
    """(height, prominence) each either arbitrary or exactly one local
    maximum's height or prominence, where the cut is decided by ``<=``."""
    x = np.asarray(x, dtype=float)
    candidates, _ = find_peaks(x)
    heights = x[candidates].tolist()
    proms = peak_prominences(x, candidates)[0].tolist() if len(candidates) else []
    arbitrary = st.floats(-10.0, 10.0)
    height = draw(st.sampled_from(heights) if heights and draw(st.booleans())
                  else arbitrary)
    prominence = draw(st.sampled_from(proms) if proms and draw(st.booleans())
                      else st.floats(0.0, 10.0))
    return height, prominence


class TestFindPeaksMatchesScipy:
    """The numpy peak search against scipy.signal.find_peaks(x, height=h,
    prominence=p), the only arguments detect_peaks passes."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           x=st.lists(st.integers(-3, 3), max_size=40))
    def test_integer_valued(self, data, x):
        # few distinct values: plateaus, ties between peaks and bases
        x = np.array(x, dtype=float)
        assert_matches_find_peaks(x, *data.draw(cuts_at_candidates(x)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           x=st.lists(st.floats(-1e3, 1e3), max_size=60))
    def test_real_valued(self, data, x):
        x = np.array(x, dtype=float)
        assert_matches_find_peaks(x, *data.draw(cuts_at_candidates(x)))

    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(st.integers(-2, 2), max_size=3),
           height=st.integers(-3, 3), prominence=st.integers(0, 3))
    def test_short(self, x, height, prominence):
        assert_matches_find_peaks(np.array(x, dtype=float), height, prominence)

    @pytest.mark.parametrize("n", [100, 255, 256, 257, 1000, 4097])
    def test_random_walks(self, n):
        # long stretches: the tallest peaks' bases lie far out, up to the ends
        x = np.cumsum(np.random.default_rng(n).standard_normal(n))
        assert_matches_find_peaks(x, -np.inf, 0.0)

    @pytest.mark.parametrize("n", [1001, 4097, 50000])
    def test_random_walk_cut_at_its_median(self, n):
        # about half the maxima are kept, and a kept peak's bases lie past
        # many gaps between kept peaks, each holding cut maxima
        x = np.cumsum(np.random.default_rng(n).standard_normal(n))
        assert_matches_find_peaks(x, float(np.median(x)), 0.0)

    @pytest.mark.parametrize("x, height", [
        # the 2's nearest higher sample, the 3, lies on the 5's slope
        pytest.param([0, 5, 4, 3, 1, 2, 0], -np.inf, id="higher-on-a-slope"),
        pytest.param([0, 2, 1, 3, 4, 5, 0], -np.inf, id="higher-on-a-slope-right"),
        # runs at the ends are no peaks, but end the kept peak's stretch
        pytest.param([5, 5, 1, 3, 0], -np.inf, id="higher-run-at-start"),
        pytest.param([0, 3, 1, 5, 5], -np.inf, id="higher-run-at-end"),
        pytest.param([6, 1, 4, 2, 3, 0, 7], 3.5, id="higher-ends-ripple-cut"),
        # equal kept peaks see past each other, over the cut ripple
        pytest.param([0, 3, 1, 1.5, 1.2, 1.6, 1, 3, 0.5], 2.0, id="equal-peaks-ripple"),
        pytest.param([1, 3, 3, 0, 2, 0.5, 3, 1, 2.5, 3, 3, 3, 0], 2.8,
                     id="equal-plateaus-ripple"),
    ])
    def test_gaps_between_kept_peaks(self, x, height):
        x = np.array(x, dtype=float)
        assert_matches_find_peaks(x, height, 0.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10])
    @pytest.mark.parametrize("value", [-1.5, 0.0, 2.0])
    def test_flat(self, n, value):
        x = np.full(n, value)
        assert_matches_find_peaks(x, value, 0.0)
        assert _find_peaks(x, value, 0.0)[0].size == 0

    def test_plateaus_at_their_midpoints_and_not_at_the_ends(self):
        x = np.array([2.0, 2.0, 1.0, 3.0, 3.0, 3.0, 3.0, 0.0, 4.0, 4.0, 1.0, 5.0, 5.0])
        idx, prom = _find_peaks(x, -np.inf, 0.0)
        assert idx.tolist() == [4, 8]
        assert prom.tolist() == [2.0, 3.0]
        assert_matches_find_peaks(x, -np.inf, 0.0)

    def test_twin_lines_keep_scipy_prominences(self):
        # of two lines split by a dip, the one higher by a rounding step gets
        # its full height and the other only its height above the dip
        twin = np.nextafter(3.0, 4.0)
        x = np.array([0.0, 2.0, 3.0, 1.0, twin, 2.0, 0.0])
        idx, prom = _find_peaks(x, 0.0, 0.0)
        assert idx.tolist() == [2, 4]
        assert prom.tolist() == [2.0, twin]
        assert_matches_find_peaks(x, 0.0, 0.0)


def _hilbert_envelope_rate(t, y):
    """The envelope rate as formed with scipy.signal.hilbert."""
    env = np.abs(hilbert(y))
    n = len(y)
    lo, hi = n // 10, max(n // 10 + 3, 9 * n // 10)
    seg_t, seg_e = t[lo:hi], env[lo:hi]
    good = seg_e > 1e-12 * np.max(env)
    if np.count_nonzero(good) < 3:
        return 0.0
    slope = np.polyfit(seg_t[good], np.log(seg_e[good]), 1)[0]
    return max(-slope, 0.0)


class TestEnvelopeRate:
    @pytest.mark.parametrize("n", [50, 51, 400, 401, 1000, 1001])
    def test_matches_the_hilbert_form_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        t = np.linspace(0.0, 20.0, n)
        y = (np.exp(-0.3 * t) * (0.8 * np.cos(1.1 * t) - 0.2 * np.cos(2.3 * t))
             + 1e-3 * rng.standard_normal(n))
        rate = _envelope_rate(t, y)
        assert rate > 0.0
        assert rate == _hilbert_envelope_rate(t, y)


class TestKuboAndersonNarrowing:
    """The spectrum command's fixed estimator on the Kubo-Anderson line.

    At V = 0, e0 = 0, sz = -1 and t2 = 0 the absorption correlator is S0(tau),
    so Re F(w) = nu Omega^2 / ((Omega^2 - w^2)^2 + nu^2 w^2): one line at
    w = 0 for Omega < nu/sqrt(2), two at +-sqrt(Omega^2 - nu^2/2) above it.
    The Kubo numbers K = Omega/nu stay clear of the transition at 0.707,
    where the lower twin's prominence (its height over the central dip)
    crosses the 5% cut.
    """

    @pytest.mark.parametrize("kubo", [0.6, 0.85, 1.0])
    def test_peaks_where_the_line_shape_puts_them(self, tmp_path, kubo):
        omega, nu = 1.0, 1.0 / kubo
        cfg = ExperimentConfig(
            bath=ts.BathSpec(2.0, 1.0, 0.5, 50.0),
            noise=ts.NoiseSpec(omega_n=omega, nu=nu),
            system=ts.SystemSpec(epsilon0=0.0, v=0.0, initial_sz=-1.0),
            grid=GridConfig(horizon=60.0, t2=0.0),
            run=RunConfig(mode="qrt"),
        )
        absorption = run_spectrum(cfg, tmp_path)["report"]["absorption"]
        split = omega * omega - nu * nu / 2.0
        expected = [-np.sqrt(split), np.sqrt(split)] if split > 0 else [0.0]
        got = sorted(p["omega"] for p in absorption["peaks"])
        assert len(got) == len(expected)
        assert got == pytest.approx(expected, abs=absorption["bin_width"])


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

    @pytest.mark.parametrize("p, k, noise", [
        (0.2, 0.5, 0.0), (0.6, 0.05, 1e-3), (-0.3, 2.0, 1e-2), (0.9, 0.8, 3e-2),
    ])
    def test_one_least_squares_solve_from_the_log_linear_seed(self, monkeypatch,
                                                              p, k, noise):
        # the seed is p0 = y[-1] and k0 the negated slope of log((y - p0) /
        # (y[0] - p0)) over the samples where that ratio exceeds 1e-3
        import scipy.optimize

        t = np.linspace(1.0, 21.0, 400)
        y = (p + (1.0 - p) * np.exp(-k * (t - t[0]))
             + noise * np.random.default_rng(3).standard_normal(t.size))
        tt = t - t[0]
        z = (y - y[-1]) / (y[0] - y[-1])
        good = z > 1e-3
        seed = [y[-1], -np.polyfit(tt[good], np.log(z[good]), 1)[0]]
        ref = scipy.optimize.least_squares(
            lambda q: _exp_model(tt, *q) - y, seed,
            jac=lambda q: _exp_jacobian(tt, *q), bounds=([-np.inf, 0.0], np.inf))

        solves = []
        original = scipy.optimize.least_squares

        def counting(*args, **kwargs):
            solves.append(kwargs.get("x0"))
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "least_squares", counting)
        fit = fit_exponential(t, y)
        assert len(solves) == 1 and list(solves[0]) == seed
        assert (fit.p, fit.k) == (ref.x[0], ref.x[1])
        assert fit.rms_residual == np.sqrt(ref.fun @ ref.fun / len(y))
        assert fit.converged and not fit.degenerate

    @pytest.mark.parametrize("at", [0, 150, -1])
    def test_series_holding_nan_raises_runtime_error(self, at):
        # sweep_cell turns a RuntimeError into NaN columns
        t = np.linspace(0.0, 20.0, 300)
        y = 0.2 + 0.8 * np.exp(-0.5 * t)
        y[at] = np.nan
        with pytest.raises(RuntimeError):
            fit_exponential(t, y)


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

    def test_collapsed_frequency_flagged(self):
        # a non-oscillating component fits as w1 = 0 with a sizable
        # amplitude, which the amplitude test alone lets through
        t = np.linspace(0.0, 25.0, 600)
        y = np.exp(-0.2 * t) * (0.6 + 0.4 * np.cos(1.2 * t))
        fit = fit_damped_cosines(t, y)
        assert fit.converged
        assert fit.w1 == pytest.approx(0.0, abs=1e-6)
        assert fit.w2 == pytest.approx(1.2, abs=1e-4)
        assert min(abs(fit.a1), abs(fit.a2)) > 0.5 * max(abs(fit.a1), abs(fit.a2))
        assert fit.degenerate

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


def central_differences(model, params, rel_step=1e-6):
    """Jacobian of model(params) by central differences, one column per
    parameter, each stepped by rel_step times its size (at least rel_step)."""
    params = np.asarray(params, dtype=float)
    cols = []
    for i in range(len(params)):
        h = rel_step * max(abs(params[i]), 1.0)
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        cols.append((model(up) - model(down)) / (2.0 * h))
    return np.column_stack(cols)


class TestFitJacobians:
    """The fits pass analytic Jacobians to scipy; each must match central
    differences of its model to 1e-6 of the Jacobian's largest entry."""

    t = np.linspace(0.0, 6.0, 301)

    @pytest.mark.parametrize("p, k", [(0.2, 0.5), (-0.4, 3.0), (0.9, 1e-3)])
    def test_exponential(self, p, k):
        exact = _exp_jacobian(self.t, p, k)
        numeric = central_differences(lambda q: _exp_model(self.t, *q), [p, k])
        assert exact.shape == (len(self.t), 2)
        assert np.max(np.abs(exact - numeric)) <= 1e-6 * np.max(np.abs(exact))

    @pytest.mark.parametrize("params", [
        (0.3, 0.8, 1.1, -0.2, 2.3),
        (0.05, -0.5, 0.4, 1.5, 0.45),
        (0.7, 0.6, 1.4e-8, 0.3, 1.9),   # collapsed w1, as a degenerate fit ends
        (0.0, 1.0, 0.0, 0.0, 0.0),
    ])
    def test_damped_cosines(self, params):
        exact = _damped_jacobian(self.t, params)
        numeric = central_differences(lambda q: _damped_model(self.t, q), params)
        assert exact.shape == (len(self.t), 5)
        assert np.max(np.abs(exact - numeric)) <= 1e-6 * np.max(np.abs(exact))


class TestDeltaMeasure:
    def test_identical(self):
        t = np.linspace(0.0, 10.0, 200)
        c = np.exp(-0.3 * t) * np.exp(1j * t)
        assert delta_measure(t, c, c) == 0.0

    def test_scaled_by_ten_percent(self):
        t = np.linspace(0.0, 10.0, 200)
        c = np.exp(-0.3 * t) * np.exp(1j * t)
        assert delta_measure(t, c, 1.1 * c) == pytest.approx(10.0, abs=1e-9)

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_rescaling_invariance(self, scale):
        t = np.linspace(0.0, 10.0, 200)
        a = np.exp(-0.3 * t) * np.exp(1j * t)
        b = np.exp(-0.35 * t) * np.exp(0.9j * t)
        base = delta_measure(t, a, b)
        scaled = delta_measure(t, scale * a, scale * b)
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_undefined_reference(self):
        t = np.linspace(0.0, 10.0, 200)
        with pytest.raises(ValueError):
            delta_measure(t, np.zeros_like(t), np.ones_like(t))
