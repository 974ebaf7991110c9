import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telespin.noise import (
    NoisePath,
    NoiseSpec,
    propagators,
    sample_path,
)

# closed form at nu=1, Omega=0.25, t=1 (Monte Carlo cross-check below)
S0_REF = 0.9771185696452489


def exact_integral_on_refined_grid(path, a, b, dt=1e-4):
    """Independent left-sum on a grid refined with the exact flip times."""
    nodes = np.arange(a, b, dt)
    nodes = np.unique(np.concatenate([nodes, path.flip_times[
        (path.flip_times > a) & (path.flip_times < b)], [a, b]]))
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return float(np.sum(path.signs_at(mids) * np.diff(nodes)))


class TestPropagators:
    def test_zero_time(self):
        s0, s1 = propagators(0.0, NoiseSpec(0.4, 1.2))
        assert s0 == pytest.approx(1.0, abs=1e-15)
        assert s1 == pytest.approx(0.0, abs=1e-15)

    def test_no_noise(self):
        s0, s1 = propagators(np.linspace(0, 10, 50), NoiseSpec(0.0, 0.7))
        assert np.allclose(s0, 1.0, atol=1e-14)
        assert np.allclose(s1, 0.0, atol=1e-14)

    def test_reference_value(self):
        s0, s1 = propagators(1.0, NoiseSpec(0.25, 1.0))
        assert s0.real == pytest.approx(S0_REF, rel=1e-12)
        assert abs(s1.real) < 1e-14 and s1.imag < 0

    def test_reference_value_monte_carlo(self):
        noise = NoiseSpec(0.25, 1.0, seed=5)
        vals = []
        for k in range(5000):
            p = sample_path(noise, 1.0 + 1e-9, k)
            vals.append(np.exp(-1j * 0.25 * p.cumulative(1.0)))
        vals = np.asarray(vals)
        se = vals.real.std() / np.sqrt(len(vals))
        assert abs(vals.real.mean() - S0_REF) < 3.5 * se

    def test_degenerate_eta_limit(self):
        nu = 0.8
        noise = NoiseSpec(omega_n=nu / 2.0, nu=nu)  # eta = 0 exactly
        t = np.linspace(0.0, 8.0, 30)
        s0, _ = propagators(t, noise)
        assert np.allclose(s0.real, np.exp(-nu * t / 2) * (1 + nu * t / 2), rtol=1e-10)

    def test_s0_damped_oscillator_identity(self):
        rng = np.random.default_rng(3)
        dt = 1e-4
        for _ in range(50):
            nu = rng.uniform(0.05, 3.0)
            om = rng.uniform(0.0, 2.0)
            t = rng.uniform(0.2, 8.0)
            noise = NoiseSpec(om, nu)
            sm, s, sp = (propagators(x, noise)[0].real for x in (t - dt, t, t + dt))
            second = (sp - 2 * s + sm) / dt**2
            first = (sp - sm) / (2 * dt)
            resid = second + nu * first + om * om * s
            assert abs(resid) < 1e-5 * max(1.0, om * om)

    def test_s0_real_s1_imaginary(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            noise = NoiseSpec(rng.uniform(0, 2.5), rng.uniform(0.05, 3.0))
            s0, s1 = propagators(rng.uniform(0, 10.0), noise)
            assert abs(np.imag(s0)) < 1e-12
            assert abs(np.real(s1)) < 1e-12

    def test_initial_conditions_of_identity(self):
        # S0(0) = 1, S0'(0) = 0 by finite differences
        noise = NoiseSpec(0.9, 0.7)
        dt = 1e-5
        s0_0 = propagators(0.0, noise)[0].real
        deriv = (propagators(dt, noise)[0].real - s0_0) / dt
        assert s0_0 == pytest.approx(1.0, abs=1e-14)
        assert abs(deriv) < 1e-4


class TestPathSampling:
    def test_frozen_limit(self):
        path = sample_path(NoiseSpec(0.5, 1e-9, seed=1), 10.0, 0)
        assert len(path.flip_times) == 0

    def test_zero_mean(self):
        noise = NoiseSpec(0.5, 1.0, seed=12)
        t = 3.0
        signs = np.array(
            [sample_path(noise, 4.0, k).signs_at(t) for k in range(10000)]
        )
        assert abs(signs.mean()) < 3.0 / np.sqrt(len(signs))

    def test_autocorrelation(self):
        nu = 1.0
        noise = NoiseSpec(0.5, nu, seed=21)
        lag = 1.0 / nu
        t0 = 2.0
        prods = []
        for k in range(10000):
            p = sample_path(noise, t0 + lag + 0.1, k)
            prods.append(p.signs_at(t0) * p.signs_at(t0 + lag))
        prods = np.asarray(prods)
        se = prods.std() / np.sqrt(len(prods))
        assert abs(prods.mean() - np.exp(-1.0)) < 3 * se

    def test_bit_identical_resampling(self):
        noise = NoiseSpec(0.5, 1.3, seed=99)
        a = sample_path(noise, 25.0, 17)
        b = sample_path(noise, 25.0, 17)
        assert a.initial_sign == b.initial_sign
        assert np.array_equal(a.flip_times, b.flip_times)

    def test_streams_differ(self):
        noise = NoiseSpec(0.5, 1.3, seed=99)
        a = sample_path(noise, 25.0, 0)
        b = sample_path(noise, 25.0, 1)
        assert (a.initial_sign != b.initial_sign) or not np.array_equal(
            a.flip_times, b.flip_times
        )


def integrate_path(path, a, b):
    """Oriented integral of alpha over [a, b] from the exact cumulative."""
    return path.cumulative(b) - path.cumulative(a)


class TestIntegratePath:
    def test_empty_interval(self):
        path = sample_path(NoiseSpec(0.5, 1.0, seed=2), 5.0, 0)
        assert integrate_path(path, 1.7, 1.7) == 0.0

    def test_constant_path(self):
        path = NoisePath(flip_times=np.array([]), initial_sign=1, horizon=5.0)
        assert integrate_path(path, 0.0, 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_against_refined_riemann_sum(self):
        noise = NoiseSpec(0.5, 2.0, seed=8)
        for k in range(5):
            path = sample_path(noise, 6.0, k)
            ref = exact_integral_on_refined_grid(path, 0.3, 5.7)
            assert integrate_path(path, 0.3, 5.7) == pytest.approx(ref, abs=1e-10)

    @given(
        a=st.floats(0.0, 6.0),
        b=st.floats(0.0, 6.0),
        c=st.floats(0.0, 6.0),
        stream=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_orientation_and_additivity(self, a, b, c, stream):
        path = sample_path(NoiseSpec(1.0, 1.5, seed=4), 6.0, stream)
        assert integrate_path(path, a, b) == pytest.approx(
            -integrate_path(path, b, a), abs=1e-12
        )
        assert integrate_path(path, a, c) == pytest.approx(
            integrate_path(path, a, b) + integrate_path(path, b, c), abs=1e-12
        )

    def test_flip_cum_is_cumulative_at_the_flips(self):
        # the oracle reads flip_cum where it would evaluate the flips' W
        for nu in (0.05, 1.0, 5.0):
            noise = NoiseSpec(0.5, nu, seed=3)
            for k in range(20):
                path = sample_path(noise, 40.0, k)
                at_flips = path.cumulative(path.flip_times)
                assert path.flip_cum.tobytes() == at_flips.tobytes()
        with pytest.raises(TypeError):
            NoisePath(flip_times=np.array([1.0]), initial_sign=1, horizon=2.0,
                      flip_cum=np.array([1.0]))

    def test_out_of_horizon_access(self):
        path = sample_path(NoiseSpec(0.5, 1.0, seed=2), 5.0, 0)
        with pytest.raises(ValueError):
            integrate_path(path, 0.0, 5.5)
