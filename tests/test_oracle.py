import numpy as np
import pytest

from telespin.bath import Q2_SUPPORT_CUT, BathSpec, xi_coefficient
import telespin.dynamics
import telespin.oracle
from telespin.dynamics import (SystemSpec, anchor_node, assemble_generator,
                               choose_t2, evolve_single_time)
from telespin.kernels import build_single_time, resolution_bound
from telespin.noise import NoisePath, NoiseSpec, propagators, sample_path
from telespin.oracle import (
    BLOCK,
    MAP_CHUNK,
    _evolve_block,
    _path_node_arrays,
    _run_sigma_z,
    _run_two_time,
    _single_time_kernels,
    _two_time_kernels,
    monte_carlo,
    standardized_deviation,
)

from test_bath import short_exponents
from test_dynamics import propagate
from test_kernels import make_grid, make_table
from test_noise import signs_and_cumulative

HOT = BathSpec(2.0, 1.0, 0.5, 0.02)
WARM = BathSpec(2.0, 1.0, 0.5, 1.0)
COLD = BathSpec(2.0, 1.0, 0.5, 50.0)


def gamma_along_path(i, times, path, bath, system, noise, dt=None):
    """Reference (slow, explicit) per-path kernel evaluation.

    i in 1..5 selects the kernel family; ``times`` is t for the single-time
    families and (t1, t2) for i in {3, 4}.  The block engine is checked
    against it.
    """
    if dt is None:
        dt = resolution_bound(
            xi_coefficient(bath), system.epsilon0, noise.omega_n, noise.nu
        )
    v2 = system.v * system.v
    e0 = system.epsilon0
    om = noise.omega_n
    if i in (1, 2, 5):
        t = float(times)
        if t == 0.0:
            return 0j
        n = max(2, int(round(t / dt)))
        taus = np.linspace(0.0, t, n + 1)
        u = t - taus
        q1, q2 = short_exponents(bath, u)
        w = signs_and_cumulative(path, t)[1] - signs_and_cumulative(path, taus)[1]
        f = e0 * u + om * w
        env = np.exp(-q2)
        if i == 1:
            return complex(4.0 * v2 * np.trapezoid(env * np.cos(q1) * np.cos(f), taus))
        if i == 2:
            return complex(4.0 * v2 * np.trapezoid(env * np.sin(q1) * np.sin(f), taus))
        return complex(2.0 * v2 * np.trapezoid(env * np.cos(q1) * np.exp(-1j * f), taus))
    if i in (3, 4):
        t1, t2 = (float(times[0]), float(times[1]))
        if t1 < t2:
            raise ValueError("two-time kernel requires t1 >= t2")
        if t2 == 0.0:
            return 0j
        n = max(2, int(round(t2 / dt)))
        taus = np.linspace(0.0, t2, n + 1)
        q1, q2 = short_exponents(bath, t1 - taus)
        w = signs_and_cumulative(path, t2)[1] - signs_and_cumulative(path, taus)[1]
        f2 = e0 * (t2 - taus) + om * w
        sign = 1.0 if i == 3 else -1.0
        # deterministic e0 phase on (t1 - tau), oriented fluctuating phase
        # f2 = f(t2, tau) on the anchor window; Q1 phase is never conjugated
        core = (np.exp(-q2 + 1j * q1)
                * np.exp(1j * sign * e0 * (t1 - taus))
                * np.exp(1j * sign * f2))
        return complex(v2 * np.trapezoid(core, taus))
    raise ValueError("kernel family index must be in 1..5")


def hot_case(omega_n, seed, horizon, t):
    """System, noise, hot-bath table at nu = 1 and the anchor node for t."""
    system, noise = SystemSpec(1.0, v=1.0), NoiseSpec(omega_n, 1.0, seed=seed)
    table = make_table(HOT, system, noise, horizon)
    return system, noise, table, anchor_node(table.ts, t)


def single_path(path, table, t2, mode="qrt+"):
    """sz, zz, pm, mp along one path from sz(0) = 1: the block engine on a
    block of one."""
    sz, zz, pm, mp = _evolve_block([path], table, table.node_index(t2), 1.0,
                                   mode)
    return sz[0], zz[0], pm[0], mp[0]


class TestBlockEngineAgainstReference:
    """The block engine must reproduce the explicit kernel integrals."""

    def setup_method(self):
        self.system = SystemSpec(1.0, v=1.0)
        self.noise = NoiseSpec(0.75, 1.0, seed=42)
        self.ts = make_grid(WARM, self.system, self.noise, 8.0)
        self.h = self.ts[1] - self.ts[0]
        self.table = build_single_time(self.ts, WARM, self.system, self.noise)
        self.path = sample_path(self.noise, 8.0, 5)

    def test_single_time_families(self):
        nodes = _path_node_arrays([self.path], self.ts)
        z_c, z_s = _single_time_kernels(nodes, self.table)
        for t in (0.5, 2.0, 7.5):
            i = int(round(t / self.h))
            ref1 = gamma_along_path(1, self.ts[i], self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            ref2 = gamma_along_path(2, self.ts[i], self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            ref5 = gamma_along_path(5, self.ts[i], self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            assert 4.0 * z_c[0, i].real == pytest.approx(ref1.real, abs=1e-12)
            assert 4.0 * z_s[0, i] == pytest.approx(ref2.real, abs=1e-12)
            assert 2.0 * np.conj(z_c[0, i]) == pytest.approx(ref5, abs=1e-12)

    def test_two_time_families(self):
        nodes = _path_node_arrays([self.path], self.ts)
        t2 = anchor_node(self.ts, 3.0)
        i2 = self.table.node_index(t2)
        g3, g4 = _two_time_kernels(nodes, self.table, i2)
        # the kernels live on node indices i2 .. min(n - 1, i2 + m_cut)
        width = min(len(self.ts) - 1, i2 + self.table.m_cut) - i2 + 1
        assert g3.shape == g4.shape == (1, width)
        for off in (0, 7, 40):
            t1 = self.ts[i2 + off]
            ref3 = gamma_along_path(3, (t1, t2), self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            ref4 = gamma_along_path(4, (t1, t2), self.path, WARM, self.system,
                                    self.noise, dt=self.h)
            assert g3[0, off] == pytest.approx(ref3, abs=1e-12)
            assert g4[0, off] == pytest.approx(ref4, abs=1e-12)


def lag_sum(ts, path, a, omega_n, m_cut):
    """Z_i = h sum_{m <= min(i, m_cut)} a[m] e^{i Omega (W_i - W_{i-m})}
    with trapezoid halves at m = 0 and at t = 0, summed lag by lag."""
    h = ts[1] - ts[0]
    w = signs_and_cumulative(path, ts)[1]
    m = np.arange(m_cut + 1)
    j = np.arange(len(ts))[:, None] - m
    weight = np.where(j >= 0, h, 0.0)
    weight[:, 0] -= 0.5 * h
    weight[j == 0] -= 0.5 * h
    phase = np.exp(1j * omega_n * (w[:, None] - w[np.maximum(j, 0)]))
    return (weight * a[m] * phase).sum(axis=1)


class TestFlipKernels:
    """The single-time kernels built from the flips equal a direct lag sum
    and the explicit reference integrals on hand-built paths."""

    def setup_method(self):
        self.system = SystemSpec(1.0, v=1.0)
        self.noise = NoiseSpec(0.75, 1.0)
        self.ts = make_grid(WARM, self.system, self.noise, 8.0)
        self.h = self.ts[1] - self.ts[0]
        self.table = build_single_time(self.ts, WARM, self.system, self.noise)
        self.m_cut = self.table.m_cut
        # the window spans a good part of the grid, so flips share windows
        assert 0.3 * len(self.ts) < self.m_cut < 0.5 * len(self.ts)

    def path(self, flips, sign=1):
        return NoisePath(flip_times=np.array(flips, dtype=float),
                         initial_sign=sign)

    def cases(self):
        h, ts, m_cut = self.h, self.ts, self.m_cut
        return {
            "no flip": self.path([], -1),
            "one flip": self.path([4.0 + 0.3 * h]),
            "several in one window": self.path(
                [4.1, 4.1 + 0.5 * h, 4.6, 5.05, 5.9], -1),
            "on a node": self.path([ts[400], ts[400 + m_cut // 3]]),
            "inside the first window": self.path(
                [0.25 * h, ts[7], 0.7, ts[m_cut - 1] + 0.5 * h]),
            "near the horizon": self.path(
                [6.5, ts[-2], ts[-1] - 0.25 * h], -1),
        }

    def kernels(self, paths):
        return _single_time_kernels(_path_node_arrays(paths, self.ts),
                                    self.table)

    def test_equal_direct_lag_sum(self):
        cases = self.cases()
        # one block holds every case, so a path's flips touch only its row
        z_c, z_s = self.kernels(list(cases.values()))
        om, m_cut = self.noise.omega_n, self.m_cut
        for k, (name, path) in enumerate(cases.items()):
            # only Im Z_s enters the kernels, so only it is built
            for got, ref in (
                (z_c[k], lag_sum(self.ts, path, self.table.a_c, om, m_cut)),
                (z_s[k], lag_sum(self.ts, path, self.table.a_s, om, m_cut).imag),
            ):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12,
                                           err_msg=name)

    def test_node_lookups_equal_path_values(self):
        cases = self.cases()
        nodes = _path_node_arrays(list(cases.values()), self.ts)
        cols = np.arange(len(self.ts))
        for k, (name, path) in enumerate(cases.items()):
            signs, cum = signs_and_cumulative(path, self.ts)
            assert np.array_equal(nodes.signs[k], signs), name
            assert np.array_equal(nodes.cum(k, cols), cum), name

    def test_equal_explicit_reference(self):
        n = len(self.ts)
        for name, path in self.cases().items():
            z_c, z_s = self.kernels([path])
            nodes = [0, 2, 5, self.m_cut - 1, self.m_cut, self.m_cut + 1,
                     n // 2, n - 2, n - 1]
            nodes += [int(np.searchsorted(self.ts, f)) + d
                      for f in path.flip_times for d in (0, 1, 2)]
            # the reference takes two half steps at t = h, so node 1 is left out
            for i in sorted(set(i for i in nodes if i < n and i != 1)):
                got = (4.0 * z_c[0, i].real, 4.0 * z_s[0, i],
                       2.0 * np.conj(z_c[0, i]))
                for fam, value in zip((1, 2, 5), got):
                    ref = gamma_along_path(fam, self.ts[i], path, WARM,
                                           self.system, self.noise, dt=self.h)
                    assert abs(value - ref) < 1e-12, (name, i, fam)


class TestSupportCut:
    """Both kernel engines sum lags up to m_cut only: the live part of the
    support must be a prefix, and every lag sequence of the kernel table
    zero past the cut.  The table's two-time support ends at the same
    node."""

    @pytest.mark.parametrize("bath, e0, nu", [(HOT, 1.0, 1.0), (WARM, 1.0, 1.0),
                                             (COLD, 0.0, 0.05)])
    def test_sequences_vanish_past_cut(self, bath, e0, nu):
        system = SystemSpec(e0, v=1.0)
        noise = NoiseSpec(0.75, nu)
        ts = make_grid(bath, system, noise, 8.0)
        table = build_single_time(ts, bath, system, noise)
        m_cut = table.m_cut
        _, q2 = short_exponents(bath, ts)
        assert m_cut < len(ts) - 1
        assert np.all(q2[:m_cut] < Q2_SUPPORT_CUT)
        assert np.all(q2[m_cut:] >= Q2_SUPPORT_CUT)
        for seq in (table.a_c, table.a_s, table.d_p, table.d_m):
            assert np.all(seq[m_cut:] == 0.0)
        assert table.support_cut == ts[m_cut]

    def test_horizon_shorter_than_support(self):
        # the cold support ends near t = 5.5, past a 3.0 horizon: no lag is
        # dead, and the cut is the last node
        system = SystemSpec(0.0, v=1.0)
        noise = NoiseSpec(0.75, 0.05)
        ts = make_grid(COLD, system, noise, 3.0)
        table = build_single_time(ts, COLD, system, noise)
        _, q2 = short_exponents(COLD, ts)
        assert np.all(q2 < Q2_SUPPORT_CUT)
        assert table.m_cut == len(ts) - 1
        for seq in (table.a_c, table.a_s, table.d_p, table.d_m):
            assert seq[-1] != 0.0
        assert table.support_cut == ts[-1]


class TestBlockPeers:
    """A path's series do not depend on the other paths of its block."""

    @pytest.mark.parametrize("mode, tol", [("qrt", 0.0), ("qrt+", 1e-15)])
    def test_alone_equals_in_block(self, mode, tol):
        system, noise, table, t2 = hot_case(0.75, 11, 3.0, 1.0)
        paths = [sample_path(noise, 3.0, s) for s in range(16)]
        sz, zz, pm, mp = _evolve_block(paths, table, table.node_index(t2),
                                       system.initial_sz, mode)
        for k, path in enumerate(paths):
            run = single_path(path, table, t2, mode)
            for alone, peer in zip(run, (sz[k], zz[k], pm[k], mp[k])):
                assert np.max(np.abs(alone - peer)) <= tol


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
        self.table = build_single_time(self.ts, HOT, self.system, self.noise)
        # the sigma_z run and the decoupled two-time runs span several chunks
        assert (self.n - 1) // 2 > 2 * MAP_CHUNK

    def kernels(self, paths):
        nodes = _path_node_arrays(paths, self.ts)
        z_c, z_s = _single_time_kernels(nodes, self.table)
        return nodes, 4.0 * z_c.real, 4.0 * z_s, 2.0 * np.conj(z_c)

    def two_time_kernels(self, nodes, i2):
        return _two_time_kernels(nodes, self.table, i2)

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
        nodes, gam1, gam2, gam5 = self.kernels(paths)
        signs = nodes.signs
        g3 = g4 = None
        if mode == "qrt+":
            g3, g4 = self.two_time_kernels(nodes, i2)
            if width is not None:
                g3, g4 = g3[:, :width], g4[:, :width]
        sz, a_steps = _run_sigma_z(self.ts, gam1, gam2, 1.0)
        got = (sz,) + _run_two_time(
            self.ts, i2, signs, gam1, gam2, gam5[:, i2:], g3, g4,
            self.system.epsilon0, self.noise.omega_n, sz, a_steps,
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
        assert g3.shape[1] == self.n - i2 < self.table.m_cut + 1

    def test_ensemble_over_blocks(self):
        n_paths = BLOCK + 36
        i2 = 708
        mc = monte_carlo(self.table, self.ts[i2], self.system.initial_sz,
                         self.noise.seed, n_paths)
        paths = [sample_path(self.noise, 3.0, s) for s in range(n_paths)]
        nodes, gam1, gam2, gam5 = self.kernels(paths)
        g3, g4 = self.two_time_kernels(nodes, i2)
        ref = self.reference(nodes.signs, gam1, gam2, gam5, g3, g4, i2)
        for key, series in zip(("sz", "zz", "pm", "mp"), ref):
            assert np.allclose(mc[key].mean, series.mean(axis=0), atol=1e-12,
                               rtol=0)



class TestChunkedScan:
    """The step maps are applied by a scan over chunks: where the chunks are
    cut moves results only by rounding, and a row whose running product
    would leave the floating-point range is split on its own."""

    def test_chunk_length(self, monkeypatch):
        system, noise, table, t2 = hot_case(0.75, 4, 3.0, 1.0)
        paths = [sample_path(noise, 3.0, s) for s in range(4)]
        i2 = table.node_index(t2)
        for mode in ("qrt", "qrt+"):
            ref = _evolve_block(paths, table, i2, system.initial_sz, mode)
            with monkeypatch.context() as patch:
                patch.setattr(telespin.oracle, "MAP_CHUNK", 7)
                got = _evolve_block(paths, table, i2, system.initial_sz, mode)
            for a, b in zip(got, ref):
                assert np.max(np.abs(a - b)) <= 1e-13

    def test_strong_damping_matches_plain_recurrence(self):
        # RK4 steps of dy/dt = -gam1 y - gam2 with gam1 h = 1 on even nodes
        # and 2 on odd ones shrink y - y_eq by about 1/6 per step
        n_steps, h, b = 3 * MAP_CHUNK + 5, 2.0, 3
        ts = np.linspace(0.0, h * n_steps, 2 * n_steps + 1)
        gam1 = np.where(np.arange(len(ts)) % 2 == 0, 1.0, 2.0) / h
        gam1 = np.outer(1.0 + 0.1 * np.arange(b), gam1)
        gam2 = np.full_like(gam1, 0.3)
        sz, a_steps = _run_sigma_z(ts, gam1, gam2, 1.0)
        # one chunk's running product underflows
        assert np.all(np.prod(a_steps[:, :MAP_CHUNK], axis=1) == 0.0)
        ref = plain_rk4(lambda i, g: -gam1[:, i] * g - gam2[:, i],
                        np.ones(b), 0, n_steps, h).T
        assert np.all(np.isfinite(sz))
        np.testing.assert_allclose(sz, ref, rtol=1e-12, atol=0)

        i2 = 20
        signs = np.ones_like(gam1)
        gam5 = np.zeros((b, len(ts) - i2), dtype=complex)
        zz, pm, mp = _run_two_time(ts, i2, signs, gam1, gam2, gam5, None,
                                   None, 0.2, 0.1, sz, a_steps)
        sz_t2 = sz[:, i2 // 2]
        ref_zz = plain_rk4(lambda i, y: -gam1[:, i] * y - gam2[:, i] * sz_t2,
                           np.ones(b), i2, (len(ts) - 1 - i2) // 2, h).T
        assert np.all(np.isfinite(zz))
        np.testing.assert_allclose(zz, ref_zz, rtol=1e-12, atol=0)


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
            path = NoisePath(flip_times=np.array([]), initial_sign=sign)
            still = NoisePath(flip_times=np.array([]), initial_sign=1)
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
        path = NoisePath(flip_times=np.array([]), initial_sign=1)
        still = NoisePath(flip_times=np.array([]), initial_sign=1)
        val = gamma_along_path(2, 3.0, path, WARM, SystemSpec(0.0), noise,
                               dt=2e-3)
        ref = gamma_along_path(2, 3.0, still, WARM, SystemSpec(0.6),
                               NoiseSpec(0.0, 1e-9), dt=2e-3)
        assert val == pytest.approx(ref, rel=1e-10)
        assert abs(val) > 1e-3


class TestEvolveTrajectory:
    """The per-path equations along a single path."""

    def test_equal_time_value(self):
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.75, 1.0, seed=3)
        table = make_table(WARM, system, noise, 6.0)
        _, zz, _, _ = single_path(sample_path(noise, 6.0, 1), table,
                                  anchor_node(table.ts, 2.0))
        assert zz[0] == 1.0 + 0j

    def test_no_tunneling_static(self):
        system = SystemSpec(1.0, v=0.0)
        noise = NoiseSpec(0.75, 1.0, seed=3)
        table = make_table(WARM, system, noise, 6.0)
        sz, _, _, _ = single_path(sample_path(noise, 6.0, 2), table,
                                  anchor_node(table.ts, 2.0))
        assert np.allclose(sz, sz[0], atol=1e-12)

    def test_frozen_noise_matches_shifted_bias_dynamics(self):
        # zero-flip path in regression mode == averaged run at eps0 +- Omega
        system = SystemSpec(epsilon0=1.0, v=1.0)
        noise = NoiseSpec(0.6, 1e-9, seed=1)
        horizon = 10.0
        for sign in (+1, -1):
            shifted = SystemSpec(epsilon0=system.epsilon0 + sign * noise.omega_n,
                                 v=1.0)
            ts = make_grid(WARM, shifted, NoiseSpec(0.0, 1.0), horizon, refine=6.0)
            t2 = anchor_node(ts, 4.0)
            path = NoisePath(flip_times=np.array([]), initial_sign=sign)
            sz, zz, pm, mp = single_path(
                path, build_single_time(ts, WARM, system, noise), t2, mode="qrt"
            )
            quiet = NoiseSpec(0.0, 1e-9)
            table = build_single_time(ts, WARM, shifted, quiet)
            series = propagate(table, shifted, "qrt", t2)
            sub = series.qrt[::2]
            assert np.max(np.abs(zz - sub[:, 0])) < 1e-6
            assert np.max(np.abs(pm - sub[:, 2])) < 1e-6
            assert np.max(np.abs(mp - sub[:, 4])) < 1e-6
            assert np.max(np.abs(sz - series.g1[::2].real)) < 1e-6


class TestMonteCarlo:
    def test_degenerate_without_noise(self):
        system, noise, table, t2 = hot_case(0.0, 9, 4.0, 2.0)
        mc = monte_carlo(table, t2, system.initial_sz, noise.seed, 100)
        _, zz, _, _ = single_path(sample_path(noise, 4.0, 0), table, t2)
        # identical paths up to pairwise-summation rounding of the reduction
        assert np.allclose(mc["zz"].mean, zz, atol=1e-12, rtol=0)
        assert np.max(mc["zz"].se_re) < 1e-7
        series = propagate(table, system, "qrt+", t2)
        dev = standardized_deviation(mc["zz"], series.qrt_plus[::2, 0])
        assert np.max(dev) < 3.0

    def test_seeded_reproducibility(self):
        system, noise, table, t2 = hot_case(0.75, 31, 3.0, 1.5)
        a = monte_carlo(table, t2, system.initial_sz, noise.seed, 128)
        b = monte_carlo(table, t2, system.initial_sz, noise.seed, 128)
        for key in ("zz", "pm", "mp", "sz"):
            assert np.array_equal(a[key].mean, b[key].mean)
            assert np.array_equal(a[key].se_re, b[key].se_re)

    def test_standard_error_scaling(self):
        system, noise, table, t2 = hot_case(0.75, 13, 3.0, 1.5)
        small = monte_carlo(table, t2, system.initial_sz, noise.seed, 400)
        large = monte_carlo(table, t2, system.initial_sz, noise.seed, 1600)
        # quadrupling the ensemble halves the median standard error
        ratio = (np.median(small["pm"].se_re[10:])
                 / np.median(large["pm"].se_re[10:]))
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_standard_error_matches_two_pass_std(self):
        # near the anchor zz spreads by ~1e-6 about a mean near 1, where a
        # one-pass sum-of-squares variance cancels; the block merge must
        # agree with a two-pass std over the same paths run one at a time
        system, noise, table, t2 = hot_case(0.75, 7, 3.0, 1.5)
        n = 2 * BLOCK
        mc = monte_carlo(table, t2, system.initial_sz, noise.seed, n)
        runs = [single_path(sample_path(noise, float(table.ts[-1]), p), table,
                            t2) for p in range(n)]
        for k, key in enumerate(("sz", "zz", "pm", "mp")):
            per_path = np.array([r[k] for r in runs]).real
            ref = per_path.std(axis=0, ddof=1) / np.sqrt(n)
            se = mc[key].se_re
            big = se > 1e-7
            assert big.any()
            np.testing.assert_allclose(se[big], ref[big], rtol=1e-10, atol=0,
                                       err_msg=key)

    def test_policy_anchor_reaches_the_oracle(self):
        # the README sketch at omega_n = 0.5: g1 settles on odd node 13 287
        system, noise, table, _ = hot_case(0.5, 7, 40.0, 0.0)
        g1, _ = evolve_single_time(table, system.initial_sz)
        t2 = choose_t2(table.ts, g1)
        assert table.node_index(t2) == 13288
        mc = monte_carlo(table, t2, system.initial_sz, noise.seed, 100)
        assert mc["t1"][0] == t2 and mc["zz"].mean[0] == 1.0

    def test_odd_anchor_rejected(self):
        system, noise, table, t2 = hot_case(0.75, 13, 2.0, 1.0)
        with pytest.raises(ValueError, match="an even one, as dynamics.anchor_node"):
            monte_carlo(table, t2 + table.dt, system.initial_sz, noise.seed, 100)

    def test_minimum_ensemble(self):
        system, noise, table, t2 = hot_case(0.75, 13, 2.0, 1.0)
        with pytest.raises(ValueError):
            monte_carlo(table, t2, system.initial_sz, noise.seed, 50)

    def test_single_time_matches_averaged_equations(self):
        # statistics-dominated regime: 2000 paths on a short horizon
        system, noise, table, t2 = hot_case(0.75, 20260810, 6.0, 3.0)
        mc = monte_carlo(table, t2, system.initial_sz, noise.seed, 2000)
        series = propagate(table, system, "qrt+", t2)
        dev = standardized_deviation(mc["sz"], series.g1[::2])
        assert np.max(dev) < 3.0


class TestMutationCheck:
    def test_corrupted_generator_fails_validation(self, monkeypatch):
        # flipping the coherence rotation sign is stable but wrong; the
        # ensemble comparison must flag it
        system, noise, table, t2 = hot_case(0.75, 6, 6.0, 2.0)

        def flip_rotation(*args):
            A, b = assemble_generator(*args)
            A[2, 2] = np.conj(A[2, 2])  # i e0 -> -i e0 on <s+ s->
            return A, b

        good = propagate(table, system, "qrt+", t2)
        monkeypatch.setattr(telespin.dynamics, "assemble_generator",
                            flip_rotation)
        bad = propagate(table, system, "qrt+", t2)
        mc = monte_carlo(table, t2, system.initial_sz, noise.seed, 400)
        dev_good = standardized_deviation(mc["pm"], good.qrt_plus[::2, 2])
        dev_bad = standardized_deviation(mc["pm"], bad.qrt_plus[::2, 2])
        assert np.max(dev_good) < 3.0
        assert np.max(dev_bad) > 10.0


def s1_printed_nu_form(t, noise):
    """The printed S1, with Omega/nu where the library's eta form has
    Omega/eta; kept only to be ruled out below."""
    nu, om = noise.nu, noise.omega_n
    z = np.sqrt(complex(nu * nu - 4.0 * om * om)) * t / 2.0
    return -2j * (om / nu) * np.exp(-nu * t / 2.0) * np.sinh(z)


class TestPropagatorAdjudication:
    """Path averaging decides the S1 denominator: eta passes, nu fails."""

    def test_eta_matches_and_nu_fails(self):
        noise = NoiseSpec(0.75, 1.0, seed=77)  # underdamped: eta imaginary
        t = 1.5
        n = 4000
        acc = np.empty(n, dtype=complex)
        for k in range(n):
            p = sample_path(noise, t + 1e-9, k)
            sign, w = signs_and_cumulative(p, t)
            acc[k] = sign * np.exp(-1j * noise.omega_n * w)
        se = acc.imag.std() / np.sqrt(n)
        _, s1_eta = propagators(t, noise)
        s1_nu = s1_printed_nu_form(t, noise)
        assert abs(acc.imag.mean() - s1_eta.imag) < 3.5 * se
        assert abs(acc.imag.mean() - s1_nu.imag) > 10 * se
