import numpy as np
import pytest
from scipy.fft import next_fast_len

from telespin.bath import BathSpec, exponent_fn, xi_coefficient
from telespin.dynamics import SystemSpec, evolve_two_time
from telespin.kernels import build_single_time, resolution_bound
from telespin.noise import NoisePath, NoiseSpec, propagators, sample_path
from telespin.oracle import (
    BLOCK,
    MAP_CHUNK,
    _kernel_sequences,
    _path_node_arrays,
    _run_sigma_z,
    _run_two_time,
    _single_time_kernels,
    _two_time_kernels,
    evolve_trajectory,
    gamma_along_path,
    monte_carlo,
    standardized_deviation,
)

from test_kernels import make_grid

HOT = BathSpec(2.0, 1.0, 0.5, 0.02)
WARM = BathSpec(2.0, 1.0, 0.5, 1.0)


def even_anchor(ts, t):
    i = int(round(t / (ts[1] - ts[0])))
    i += i % 2
    return float(ts[i])


class TestBlockEngineAgainstReference:
    """The FFT block engine must reproduce the explicit kernel integrals."""

    def setup_method(self):
        self.system = SystemSpec(1.0, v=1.0)
        self.noise = NoiseSpec(0.75, 1.0, seed=42)
        self.ts = make_grid(WARM, self.system, self.noise, 8.0)
        self.h = self.ts[1] - self.ts[0]
        self.exps = exponent_fn(WARM, "short-time")
        self.seqs = _kernel_sequences(self.ts, self.exps, self.system.epsilon0)
        self.path = sample_path(self.noise, 8.0, 5)

    def test_single_time_families(self):
        signs, cum = _path_node_arrays([self.path], self.ts)
        fft_len = next_fast_len(len(self.ts) + self.seqs[4] + 1)
        z_c, z_s = _single_time_kernels(
            self.ts, cum, self.seqs[0], self.seqs[1], self.noise.omega_n,
            fft_len,
        )
        for t in (0.5, 2.0, 7.5):
            i = int(round(t / self.h))
            ref1 = gamma_along_path(1, self.ts[i], self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            ref2 = gamma_along_path(2, self.ts[i], self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            ref5 = gamma_along_path(5, self.ts[i], self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            assert 4.0 * z_c[0, i].real == pytest.approx(ref1.real, abs=1e-12)
            assert 4.0 * z_s[0, i].imag == pytest.approx(ref2.real, abs=1e-12)
            assert 2.0 * np.conj(z_c[0, i]) == pytest.approx(ref5, abs=1e-12)

    def test_two_time_families(self):
        signs, cum = _path_node_arrays([self.path], self.ts)
        i2 = int(round(3.0 / self.h))
        i2 += i2 % 2
        t2 = self.ts[i2]
        g3, g4, i_idx = _two_time_kernels(
            self.ts, cum, self.seqs[2], self.seqs[3], self.system.epsilon0,
            self.noise.omega_n, 1.0, i2, self.seqs[4],
        )
        for off in (0, 7, 40):
            t1 = self.ts[i2 + off]
            ref3 = gamma_along_path(3, (t1, t2), self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            ref4 = gamma_along_path(4, (t1, t2), self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            assert g3[0, off] == pytest.approx(ref3, abs=1e-12)
            assert g4[0, off] == pytest.approx(ref4, abs=1e-12)


def plain_rk4(rhs, y, i_start, n_steps, h):
    """Classic RK4, one step at a time, stages on nodes i, i+1, i+1, i+2."""
    out = [y]
    for m in range(n_steps):
        i = i_start + 2 * m
        k1 = rhs(i, y)
        k2 = rhs(i + 1, y + 0.5 * h * k1)
        k3 = rhs(i + 1, y + 0.5 * h * k2)
        k4 = rhs(i + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


class TestStepMapsAgainstPlainRK4:
    """Tabulated step maps plus the coupled window reproduce per-step RK4 of
    the full per-path equations."""

    def setup_method(self):
        self.system = SystemSpec(1.0, v=1.0)
        self.noise = NoiseSpec(0.75, 1.0, seed=4)
        self.ts = make_grid(HOT, self.system, self.noise, 3.0)
        self.n = len(self.ts)
        self.h = 2.0 * (self.ts[1] - self.ts[0])
        self.seqs = _kernel_sequences(self.ts, exponent_fn(HOT, "short-time"),
                                      self.system.epsilon0)
        # the sigma_z run and the decoupled two-time runs span several chunks
        assert (self.n - 1) // 2 > 2 * MAP_CHUNK

    def kernels(self, paths):
        a_c, a_s, _, _, m_cut = self.seqs
        signs, cum = _path_node_arrays(paths, self.ts)
        z_c, z_s = _single_time_kernels(
            self.ts, cum, a_c, a_s, self.noise.omega_n,
            next_fast_len(self.n + m_cut + 1),
        )
        return signs, cum, 4.0 * z_c.real, 4.0 * z_s.imag, 2.0 * np.conj(z_c)

    def two_time_kernels(self, cum, i2):
        _, _, d_p, d_m, m_cut = self.seqs
        g3, g4, _ = _two_time_kernels(self.ts, cum, d_p, d_m,
                                      self.system.epsilon0,
                                      self.noise.omega_n, 1.0, i2, m_cut)
        return g3, g4

    def reference(self, signs, gam1, gam2, gam5, g3, g4, i2):
        e0, om = self.system.epsilon0, self.noise.omega_n
        sz = plain_rk4(lambda i, g: -gam1[:, i] * g - gam2[:, i],
                       np.ones(len(signs)), 0, (self.n - 1) // 2, self.h)
        sz_t2 = sz[i2 // 2]
        width = 0 if g3 is None else g3.shape[1]

        def rhs(i, y):
            zz, pm, mp = y
            c3 = g3[:, i - i2] if i - i2 < width else 0.0
            c4 = g4[:, i - i2] if i - i2 < width else 0.0
            a = 1j * (e0 + om * signs[:, i]) - gam5[:, i]
            return np.array([
                -gam1[:, i] * zz - gam2[:, i] * sz_t2 - 4.0 * c3 * pm
                + 4.0 * c4 * mp,
                a * pm + c4 * zz,
                np.conj(a) * mp + c3 * zz,
            ])

        y0 = np.array([np.ones(len(signs)), (1.0 + sz_t2) / 2.0,
                       (1.0 - sz_t2) / 2.0], dtype=complex)
        two = plain_rk4(rhs, y0, i2, (self.n - 1 - i2) // 2, self.h)
        return sz.T, two[:, 0].T, two[:, 1].T, two[:, 2].T

    def check(self, n_paths, i2, mode, width=None):
        paths = [sample_path(self.noise, 3.0, s) for s in range(n_paths)]
        signs, cum, gam1, gam2, gam5 = self.kernels(paths)
        g3 = g4 = None
        if mode == "qrt+":
            g3, g4 = self.two_time_kernels(cum, i2)
            if width is not None:
                g3, g4 = g3[:, :width], g4[:, :width]
        sz = _run_sigma_z(self.ts, gam1, gam2, 1.0)
        got = (sz,) + _run_two_time(
            self.ts, i2, signs, gam1, gam2, gam5, g3, g4,
            self.system.epsilon0, self.noise.omega_n, sz[:, i2 // 2],
        )
        ref = self.reference(signs, gam1, gam2, gam5, g3, g4, i2)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.allclose(a, b, atol=1e-12, rtol=0)
        return g3

    def test_qrt(self):
        self.check(3, 708, "qrt")

    def test_qrt_plus(self):
        self.check(3, 708, "qrt+")

    @pytest.mark.parametrize("width", [41, 40])
    def test_qrt_plus_window_parity(self, width):
        # a window cut where the kernels are still large; at odd width the
        # last coupled step straddles its edge
        g3 = self.check(3, 708, "qrt+", width=width)
        assert np.min(np.abs(g3[:, -1])) > 1e-3

    def test_anchor_at_origin(self):
        g3 = self.check(3, 0, "qrt+")
        assert not np.any(g3)

    def test_window_past_last_node(self):
        i2 = self.n - 1 - 100
        g3 = self.check(3, i2, "qrt+")
        assert g3.shape[1] == self.n - i2 < self.seqs[4] + 1

    def test_ensemble_over_blocks(self):
        n_paths = BLOCK + 36
        i2 = 708
        mc = monte_carlo(self.ts, self.ts[i2], self.system, HOT, self.noise,
                         n_paths)
        paths = [sample_path(self.noise, 3.0, s) for s in range(n_paths)]
        signs, cum, gam1, gam2, gam5 = self.kernels(paths)
        g3, g4 = self.two_time_kernels(cum, i2)
        ref = self.reference(signs, gam1, gam2, gam5, g3, g4, i2)
        for key, series in zip(("sz", "zz", "pm", "mp"), ref):
            assert np.allclose(mc[key].mean, series.mean(axis=0), atol=1e-12,
                               rtol=0)


class TestGammaAlongPath:
    def test_vanish_at_zero(self):
        path = sample_path(NoiseSpec(0.75, 1.0, seed=2), 5.0, 0)
        system = SystemSpec(1.0)
        for fam in (1, 2, 5):
            assert gamma_along_path(fam, 0.0, path, WARM, system,
                                    NoiseSpec(0.75, 1.0)) == 0j
        for fam in (3, 4):
            assert gamma_along_path(fam, (1.0, 0.0), path, WARM, system,
                                    NoiseSpec(0.75, 1.0)) == 0j

    def test_frozen_noise_is_shifted_bias(self):
        # a zero-flip path shifts the effective bias by Omega * sign
        system = SystemSpec(epsilon0=1.0, v=1.0)
        noise = NoiseSpec(0.6, 1e-9)
        quiet = NoiseSpec(0.0, 1e-9)
        for sign in (+1, -1):
            path = NoisePath(flip_times=np.array([]), initial_sign=sign,
                             horizon=6.0)
            still = NoisePath(flip_times=np.array([]), initial_sign=1,
                              horizon=6.0)
            shifted = SystemSpec(epsilon0=1.0 + sign * 0.6, v=1.0)
            for fam in (1, 2, 5):
                frozen = gamma_along_path(fam, 3.0, path, WARM, system, noise,
                                          dt=2e-3)
                static = gamma_along_path(fam, 3.0, still, WARM, shifted, quiet,
                                          dt=2e-3)
                assert frozen == pytest.approx(static, rel=1e-10, abs=1e-12)

    def test_frozen_unbiased_sigma_z_source_is_noise_shifted(self):
        # with eps0 = 0 a frozen path acts as a static bias of size Omega, so
        # the sigma_z source kernel equals its shifted-bias value (nonzero)
        noise = NoiseSpec(0.6, 1e-9)
        path = NoisePath(flip_times=np.array([]), initial_sign=1, horizon=6.0)
        still = NoisePath(flip_times=np.array([]), initial_sign=1, horizon=6.0)
        val = gamma_along_path(2, 3.0, path, WARM, SystemSpec(0.0), noise,
                               dt=2e-3)
        ref = gamma_along_path(2, 3.0, still, WARM, SystemSpec(0.6),
                               NoiseSpec(0.0, 1e-9), dt=2e-3)
        assert val == pytest.approx(ref, rel=1e-10)
        assert abs(val) > 1e-3


class TestEvolveTrajectory:
    def test_equal_time_value(self):
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.75, 1.0, seed=3)
        ts = make_grid(WARM, system, noise, 6.0)
        t2 = even_anchor(ts, 2.0)
        run = evolve_trajectory(sample_path(noise, 6.0, 1), ts, t2, system,
                                WARM, noise)
        assert run.zz[0] == 1.0 + 0j

    def test_no_tunneling_static(self):
        system = SystemSpec(1.0, v=0.0)
        noise = NoiseSpec(0.75, 1.0, seed=3)
        ts = make_grid(WARM, system, noise, 6.0)
        run = evolve_trajectory(sample_path(noise, 6.0, 2), ts,
                                even_anchor(ts, 2.0), system, WARM, noise)
        assert np.allclose(run.sz, run.sz[0], atol=1e-12)

    def test_frozen_noise_matches_shifted_bias_dynamics(self):
        # zero-flip path in regression mode == averaged run at eps0 +- Omega
        system = SystemSpec(epsilon0=1.0, v=1.0)
        noise = NoiseSpec(0.6, 1e-9, seed=1)
        horizon = 10.0
        for sign in (+1, -1):
            shifted = SystemSpec(epsilon0=system.epsilon0 + sign * noise.omega_n,
                                 v=1.0)
            bound = resolution_bound(xi_coefficient(WARM), shifted.epsilon0,
                                     0.0, 1.0)
            dt = bound / 6.0
            n = int(np.ceil(horizon / dt))
            n += n % 2
            ts = np.linspace(0.0, horizon, n + 1)
            t2 = even_anchor(ts, 4.0)
            path = NoisePath(flip_times=np.array([]), initial_sign=sign,
                             horizon=horizon)
            run = evolve_trajectory(path, ts, t2, system, WARM, noise,
                                    mode="qrt")
            quiet = NoiseSpec(0.0, 1e-9)
            table = build_single_time(ts, WARM, shifted, quiet)
            series = evolve_two_time(table, shifted, mode="qrt", t2=t2)
            sub = series.qrt[::2]
            assert np.max(np.abs(run.zz - sub[:, 0])) < 1e-6
            assert np.max(np.abs(run.pm - sub[:, 2])) < 1e-6
            assert np.max(np.abs(run.mp - sub[:, 4])) < 1e-6
            assert np.max(np.abs(run.sz - series.g1[::2].real)) < 1e-6


class TestMonteCarlo:
    def test_degenerate_without_noise(self):
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.0, 1.0, seed=9)
        ts = make_grid(HOT, system, noise, 4.0)
        t2 = even_anchor(ts, 2.0)
        mc = monte_carlo(ts, t2, system, HOT, noise, 100)
        single = evolve_trajectory(sample_path(noise, 4.0, 0), ts, t2, system,
                                   HOT, noise)
        # identical paths up to pairwise-summation rounding of the reduction
        assert np.allclose(mc["zz"].mean, single.zz, atol=1e-12, rtol=0)
        assert np.max(mc["zz"].se_re) < 1e-7
        table = build_single_time(ts, HOT, system, noise)
        series = evolve_two_time(table, system, mode="qrt+", t2=t2)
        dev = standardized_deviation(mc["zz"], series.qrt_plus[::2, 0])
        assert np.max(dev) < 3.0

    def test_seeded_reproducibility(self):
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.75, 1.0, seed=31)
        ts = make_grid(HOT, system, noise, 3.0)
        t2 = even_anchor(ts, 1.5)
        a = monte_carlo(ts, t2, system, HOT, noise, 128)
        b = monte_carlo(ts, t2, system, HOT, noise, 128)
        for key in ("zz", "pm", "mp", "sz"):
            assert np.array_equal(a[key].mean, b[key].mean)
            assert np.array_equal(a[key].se_re, b[key].se_re)

    def test_standard_error_scaling(self):
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.75, 1.0, seed=13)
        ts = make_grid(HOT, system, noise, 3.0)
        t2 = even_anchor(ts, 1.5)
        small = monte_carlo(ts, t2, system, HOT, noise, 400)
        large = monte_carlo(ts, t2, system, HOT, noise, 1600)
        # quadrupling the ensemble halves the median standard error
        ratio = (np.median(small["pm"].se_re[10:])
                 / np.median(large["pm"].se_re[10:]))
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_minimum_ensemble(self):
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.75, 1.0, seed=13)
        ts = make_grid(HOT, system, noise, 2.0)
        with pytest.raises(ValueError):
            monte_carlo(ts, even_anchor(ts, 1.0), system, HOT, noise, 50)

    def test_single_time_matches_averaged_equations(self):
        # statistics-dominated regime: 2000 paths on a short horizon
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.75, 1.0, seed=20260810)
        ts = make_grid(HOT, system, noise, 6.0)
        t2 = even_anchor(ts, 3.0)
        mc = monte_carlo(ts, t2, system, HOT, noise, 2000)
        table = build_single_time(ts, HOT, system, noise)
        series = evolve_two_time(table, system, mode="qrt+", t2=t2)
        dev = standardized_deviation(mc["sz"], series.g1[::2])
        assert np.max(dev) < 3.0


class TestMutationCheck:
    def test_corrupted_generator_fails_validation(self):
        # flipping the coherence rotation sign is stable but wrong; the
        # ensemble comparison must flag it
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.75, 1.0, seed=6)
        ts = make_grid(HOT, system, noise, 6.0)
        t2 = even_anchor(ts, 2.0)
        table = build_single_time(ts, HOT, system, noise)

        def flip_rotation(A, b):
            A = A.copy()
            A[2, 2] = np.conj(A[2, 2])  # i e0 -> -i e0 on <s+ s->
            return A, b

        good = evolve_two_time(table, system, mode="qrt+", t2=t2)
        bad = evolve_two_time(table, system, mode="qrt+", t2=t2,
                              mutate=flip_rotation)
        mc = monte_carlo(ts, t2, system, HOT, noise, 400)
        dev_good = standardized_deviation(mc["pm"], good.qrt_plus[::2, 2])
        dev_bad = standardized_deviation(mc["pm"], bad.qrt_plus[::2, 2])
        assert np.max(dev_good) < 3.0
        assert np.max(dev_bad) > 10.0


class TestPropagatorAdjudication:
    """Path averaging decides the S1 denominator: eta passes, nu fails."""

    def test_eta_matches_and_nu_fails(self):
        noise = NoiseSpec(0.75, 1.0, seed=77)  # underdamped: eta imaginary
        t = 1.5
        n = 4000
        acc = np.empty(n, dtype=complex)
        for k in range(n):
            p = sample_path(noise, t + 1e-9, k)
            acc[k] = p.signs_at(t) * np.exp(-1j * noise.omega_n * p.cumulative(t))
        se = acc.imag.std() / np.sqrt(n)
        _, s1_eta = propagators(t, noise, s1_denominator="eta")
        _, s1_nu = propagators(t, noise, s1_denominator="nu")
        assert abs(acc.imag.mean() - s1_eta.imag) < 3.5 * se
        assert abs(acc.imag.mean() - s1_nu.imag) > 10 * se
