import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import telespin.dynamics
from telespin.analysis import fit_exponential
from telespin.bath import BathSpec
from telespin.dynamics import (
    ATOL,
    RTOL,
    IntegratorError,
    SystemSpec,
    assemble_generator,
    choose_t2,
    equal_time_initials,
    evolve_single_time,
    evolve_two_time,
)
from telespin.kernels import build_single_time
from telespin.noise import NoiseSpec, propagators

from test_kernels import (REFERENCE_TABLES, make_grid, make_table, node_or_any_time,
                          reference_single_time_at, reference_table)


def node_near(table, t):
    i = int(round(t / table.dt))
    i += i % 2
    return float(table.ts[i])


def propagate(table, system, mode, t2=None, rtol=RTOL, atol=ATOL):
    """Background solve, anchor (choose_t2 unless given), two-time solve;
    the tolerances reach both solves."""
    g1, g2 = evolve_single_time(table, system.initial_sz, rtol, atol)
    if t2 is None:
        t2 = choose_t2(table.ts, g1)
    return evolve_two_time(table, g1, g2, t2, mode, rtol, atol)


HOT = BathSpec(2.0, 1.0, 0.5, 0.02)
WARM = BathSpec(2.0, 1.0, 0.5, 1.0)
COLD = BathSpec(2.0, 1.0, 0.5, 50.0)


class TestEqualTimeInitials:
    def test_excited(self):
        y = equal_time_initials(1.0, 0.0)
        assert np.allclose(y, [1, 0, 1, 0, 0, 0])

    def test_mixed(self):
        y = equal_time_initials(0.0, 0.0)
        assert np.allclose(y, [1, 0, 0.5, 0, 0.5, 0])

    def test_linear(self):
        y = equal_time_initials(0.4, -0.1)
        assert np.allclose(y, [1, 0, 0.7, -0.05, 0.3, 0.05])

    def test_trace_identities(self):
        y = equal_time_initials(0.23, 0.04)
        assert y[2] + y[4] == pytest.approx(1.0, abs=1e-15)
        assert y[3] + y[5] == pytest.approx(0.0, abs=1e-15)

    def test_unphysical_rejected(self):
        with pytest.raises(ValueError):
            equal_time_initials(1.5, 0.0)


class TestSingleTime:
    def test_no_tunneling_is_static(self):
        system = SystemSpec(1.0, v=0.0)
        table = make_table(HOT, system, NoiseSpec(0.75, 1.0), 4.0)
        g1, g2 = evolve_single_time(table, 0.7)
        assert np.allclose(g1.real, 0.7, atol=1e-9)
        assert np.allclose(g2.real, 0.0, atol=1e-12)

    def test_no_noise_keeps_g2_zero(self):
        system = SystemSpec(1.0, v=1.0)
        table = make_table(HOT, system, NoiseSpec(0.0, 1.0), 6.0)
        g1, g2 = evolve_single_time(table, 1.0)
        assert np.max(np.abs(g2)) < 1e-12

    def test_physicality(self):
        system = SystemSpec(1.0, v=1.0)
        table = make_table(HOT, system, NoiseSpec(0.75, 1.0), 20.0)
        g1, _ = evolve_single_time(table, 1.0)
        assert np.max(np.abs(g1.real)) <= 1.0 + 1e-6


class TestChooseT2:
    def test_constant_series(self):
        ts = np.linspace(0.0, 10.0, 101)
        assert choose_t2(ts, np.ones_like(ts)) == 0.0

    def test_settled_exponential(self):
        ts = np.linspace(0.0, 40.0, 4001)
        g = np.exp(-0.25 * ts)
        t2 = choose_t2(ts, g)
        # |g - g(end)| < 0.01 |g(0) - g(end)| persistently
        scale = abs(g[0] - g[-1])
        i2 = np.searchsorted(ts, t2)
        assert np.all(np.abs(g[i2:] - g[-1]) < 0.01 * scale)
        assert np.any(np.abs(g[: i2 - 1] - g[-1]) >= 0.01 * scale)

    def test_unsettled_capped(self):
        ts = np.linspace(0.0, 10.0, 101)
        g = np.cos(2.0 * ts)  # never settles
        assert choose_t2(ts, g) <= 0.6 * ts[-1] + 1e-12


class TestGenerator:
    def setup_method(self):
        self.system = SystemSpec(1.0, v=1.0)
        self.noise = NoiseSpec(0.75, 1.0)
        self.table = make_table(HOT, self.system, self.noise, 6.0)
        self.t2 = float(self.table.ts[(len(self.table.ts) // 3 // 2) * 2])

    def test_qrt_zeroes_two_time_blocks(self):
        A, _ = assemble_generator(
            self.t2 + 0.5, self.t2, self.table, 0.5, 0.0, "qrt"
        )
        assert np.all(A[0:2, 2:6] == 0)
        assert np.all(A[2:6, 0:2] == 0)

    def test_zero_anchor_makes_modes_coincide(self):
        for t1 in (0.0, 0.7):
            Aq, bq = assemble_generator(t1, 0.0, self.table, 1.0, 0.0, "qrt")
            Ap, bp = assemble_generator(t1, 0.0, self.table, 1.0, 0.0, "qrt+")
            assert np.allclose(Aq, Ap, atol=1e-15)
            assert np.allclose(bq, bp, atol=1e-15)

    def test_no_noise_decouples_alpha_sector(self):
        table = make_table(HOT, self.system, NoiseSpec(0.0, 1.0), 6.0)
        A, _ = assemble_generator(self.t2 + 0.3, self.t2, table, 0.5, 0.0, "qrt+")
        plain, alpha = [0, 2, 4], [1, 3, 5]
        assert np.max(np.abs(A[np.ix_(plain, alpha)])) < 1e-12
        assert np.max(np.abs(A[np.ix_(alpha, plain)])) < 1e-12

    def test_time_order(self):
        with pytest.raises(ValueError):
            assemble_generator(self.t2 - 0.1, self.t2, self.table, 0.5, 0.0, "qrt")


def reference_generator(t1, t2, table, g1_t2, g2_t2, mode):
    """assemble_generator as a nested-list np.array on numpy scalars: the
    reference interpolation and g1(t2), g2(t2) as numpy complex."""
    g11, g12, g21, g22, g51, g52, g61, g62 = reference_single_time_at(table, t1)
    if mode == "qrt+":
        g31, g32, g41, g42 = table.two_time_pair(t1, t2)
    else:
        g31 = g32 = g41 = g42 = 0j
    nu = table.nu
    ie = 1j * table.epsilon0
    io = 1j * table.omega_n
    A = np.array(
        [
            [-g11, g12, -4 * g31, -4 * g32, 4 * g41, 4 * g42],
            [g12, -(nu + g11), 4 * g32, 4 * g31, -4 * g42, 4 * g41],
            [g41, -g42, ie - g51, io + g52, 0, 0],
            [-g42, g41, io + g52, -(nu - ie + g51), 0, 0],
            [g31, g32, 0, 0, -(ie + g61), -(io + g62)],
            [g32, g31, 0, 0, -(io + g62), -(nu + ie + g61)],
        ],
        dtype=complex,
    )
    decay = np.exp(-nu * (t1 - t2))
    b = np.zeros(6, dtype=complex)
    b[0] = -g21 * g1_t2 - decay * g22 * g2_t2
    b[1] = -g22 * g1_t2 - decay * g21 * g2_t2
    return A, b


@functools.lru_cache(maxsize=None)
def single_time_background(name):
    return evolve_single_time(reference_table(name), REFERENCE_TABLES[name][1].initial_sz)


def same_array_bits(a, b):
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


class TestGeneratorMatchesReference:
    """The flat-list assembly on Python numbers gives the reference's A and
    b bit for bit, signs of zero included, in both modes."""

    @pytest.mark.parametrize("mode", ["qrt", "qrt+"])
    @pytest.mark.parametrize("name", sorted(REFERENCE_TABLES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_nested_list_reference(self, name, mode, data):
        table = reference_table(name)
        g1, g2 = single_time_background(name)
        i2 = 2 * data.draw(st.integers(0, (len(table.ts) - 3) // 2))
        t2 = float(table.ts[i2])
        t1 = data.draw(node_or_any_time(table, i2))
        A, b = assemble_generator(t1, t2, table, complex(g1[i2]), complex(g2[i2]), mode)
        A_ref, b_ref = reference_generator(t1, t2, table, g1[i2], g2[i2], mode)
        assert same_array_bits(A, A_ref), (t1, t2)
        assert same_array_bits(b, b_ref), (t1, t2)


class TestEvolveTwoTime:
    def test_first_sample_is_equal_time_initials(self):
        system = SystemSpec(1.0, v=1.0)
        table = make_table(HOT, system, NoiseSpec(0.75, 1.0), 8.0)
        t2 = node_near(table, 4.0)
        series = propagate(table, system, "both", t2)
        i2 = int(round(t2 / table.dt))
        expected = equal_time_initials(series.g1[i2], series.g2[i2])
        assert np.allclose(series.qrt[0], expected, atol=1e-14)
        assert np.allclose(series.qrt_plus[0], expected, atol=1e-14)
        assert series.qrt[0][2] + series.qrt[0][4] == pytest.approx(1.0, abs=1e-12)
        assert series.qrt[0][3] + series.qrt[0][5] == pytest.approx(0.0, abs=1e-12)

    def test_no_tunneling_zz_constant(self):
        system = SystemSpec(1.0, v=0.0)
        table = make_table(HOT, system, NoiseSpec(0.75, 1.0), 6.0)
        series = propagate(table, system, "qrt", node_near(table, 2.0))
        # with V = 0 every kernel vanishes, so the zz row has no dynamics
        assert np.allclose(np.abs(series.qrt[:, 0]), 1.0, atol=1e-8)

    def test_no_tunneling_no_noise_coherence_modulus(self):
        system = SystemSpec(1.0, v=0.0)
        table = make_table(HOT, system, NoiseSpec(0.0, 1.0), 6.0)
        series = propagate(table, system, "qrt", node_near(table, 2.0))
        assert np.allclose(np.abs(series.qrt[:, 2]), np.abs(series.qrt[0, 2]),
                           atol=1e-8)

    def test_anchor_on_last_node_rejected(self):
        system = SystemSpec(1.0, v=1.0)
        table = make_table(HOT, system, NoiseSpec(0.75, 1.0), 2.0)
        g1, g2 = evolve_single_time(table, system.initial_sz)
        t2 = float(table.ts[-1])
        with pytest.raises(ValueError, match=f"t2 = {t2} is the last grid node"):
            evolve_two_time(table, g1, g2, t2)
        assert evolve_two_time(table, g1, g2, float(table.ts[-2])).qrt.shape == (2, 6)

    def test_zero_anchor_modes_identical(self):
        system = SystemSpec(1.0, v=1.0)
        table = make_table(HOT, system, NoiseSpec(0.75, 1.0), 6.0)
        series = propagate(table, system, "both", 0.0)
        assert np.max(np.abs(series.qrt - series.qrt_plus)) < 1e-10

    def test_no_noise_alpha_components_stay_zero(self):
        system = SystemSpec(1.0, v=1.0)
        table = make_table(HOT, system, NoiseSpec(0.0, 1.0), 8.0)
        series = propagate(table, system, "both")
        for y in (series.qrt, series.qrt_plus):
            assert np.max(np.abs(y[:, [1, 3, 5]])) < 1e-10

    def test_tolerance_halving(self):
        system = SystemSpec(1.0, v=1.0)
        table = make_table(HOT, system, NoiseSpec(0.75, 1.0), 8.0)
        t2 = node_near(table, 2.0)
        a = propagate(table, system, "qrt+", t2)
        b = propagate(table, system, "qrt+", t2, rtol=5e-9, atol=5e-11)
        assert np.max(np.abs(a.qrt_plus[:, 0].real - b.qrt_plus[:, 0].real)) < 1e-5

    # (1, 0.5) is 2 Omega = nu, where eta = 0 and S0 starts to oscillate in
    # time; the spectrum splits into two lines only at Omega = nu/sqrt(2)
    @pytest.mark.parametrize("nu, omega_n", [(1.0, 0.25), (1.0, 0.5),
                                             (1.0, 2.0), (0.05, 0.75)])
    def test_kubo_anderson_closed_form(self, nu, omega_n):
        # at V = 0 every kernel vanishes and, in both modes, the coherences
        # are the Kubo-Anderson moments of a spin in telegraph noise, which
        # do not depend on the signs the S1 kernels carry
        sz = 0.4
        system = SystemSpec(1.0, v=0.0, initial_sz=sz)
        noise = NoiseSpec(omega_n, nu)
        table = make_table(WARM, system, noise, 12.0)
        series = propagate(table, system, "both", node_near(table, 2.0))
        tau = series.t1 - series.t2
        s0, s1 = propagators(tau, noise)
        up = (1.0 + sz) / 2.0 * np.exp(1j * system.epsilon0 * tau)
        down = (1.0 - sz) / 2.0 * np.exp(-1j * system.epsilon0 * tau)
        expected = np.column_stack([np.ones_like(tau), np.zeros_like(tau),
                                    up * s0, -up * s1, down * s0, down * s1])
        for y in (series.qrt, series.qrt_plus):
            assert np.max(np.abs(y - expected)) < 1e-7

    def test_exponential_shape_low_temperature(self):
        # slow-noise unbiased cold regime decays near-exponentially
        system = SystemSpec(0.0, v=1.0)
        noise = NoiseSpec(0.75, 0.01)
        table = make_table(COLD, system, noise, 40.0)
        series = propagate(table, system, "qrt+")
        y = series.qrt_plus[:, 0].real
        fit = fit_exponential(series.t1, y)
        rng = np.max(y) - np.min(y)
        assert fit.rms_residual < 0.02 * rng

    def test_mutated_generator_detected(self, monkeypatch):
        system = SystemSpec(1.0, v=1.0)
        table = make_table(HOT, system, NoiseSpec(0.75, 1.0), 8.0)

        def flip_decay_sign(*args):
            A, b = assemble_generator(*args)
            A[0, 0] = -A[0, 0]  # growth instead of decay
            return A, b

        monkeypatch.setattr(telespin.dynamics, "assemble_generator",
                            flip_decay_sign)
        with pytest.raises(IntegratorError):
            propagate(table, system, "qrt", node_near(table, 2.0))


def reference_single_time(table, initial_sz):
    """evolve_single_time's equations solved by solve_ivp(t_eval=...)."""

    def rhs(t, y):
        g11, g12, g21, g22, *_ = table.single_time_at(t)
        return [-g11 * y[0] + g12 * y[1] - g21,
                -(table.nu + g11) * y[1] + g12 * y[0] - g22]

    sol = solve_ivp(rhs, (table.ts[0], table.ts[-1]),
                    np.array([initial_sz, 0.0], dtype=complex),
                    t_eval=table.ts, rtol=RTOL, atol=ATOL, method="RK45")
    assert sol.success
    return sol.y


def reference_two_time(table, g1, g2, t2, mode):
    """evolve_two_time's equations solved by solve_ivp(t_eval=...) to the
    horizon with no guard; the generator is looked up on the module at
    call time, like the package's own right-hand side."""
    i2 = table.node_index(t2)
    y0 = equal_time_initials(g1[i2], g2[i2])

    def rhs(t1, y):
        A, b = telespin.dynamics.assemble_generator(
            t1, t2, table, g1[i2], g2[i2], mode)
        return A @ y + b

    sol = solve_ivp(rhs, (t2, table.ts[-1]), y0, t_eval=table.ts[i2:],
                    rtol=RTOL, atol=ATOL, method="RK45")
    assert sol.success
    return sol.y.T


class TestStepperMatchesSolveIvp:
    """The stepping helper drives scipy's RK45 as solve_ivp(t_eval=) does;
    a solve that passes the guard must reproduce it bit for bit, in the same
    memory layout (downstream reductions then sum in the same order)."""

    @pytest.mark.parametrize("bath, system, noise, horizon", [
        (HOT, SystemSpec(1.0, v=1.0), NoiseSpec(0.75, 1.0), 6.0),
        (COLD, SystemSpec(0.0, v=1.0), NoiseSpec(0.75, 0.05), 8.0),
    ], ids=["hot", "cold"])
    def test_bit_identical(self, bath, system, noise, horizon):
        table = make_table(bath, system, noise, horizon)
        g1, g2 = evolve_single_time(table, system.initial_sz)
        ref = reference_single_time(table, system.initial_sz)
        assert np.array_equal(g1, ref[0]) and np.array_equal(g2, ref[1])
        t2 = node_near(table, 2.0)
        series = evolve_two_time(table, g1, g2, t2, "both")
        for mode, y in (("qrt", series.qrt), ("qrt+", series.qrt_plus)):
            ref = reference_two_time(table, g1, g2, t2, mode)
            assert np.array_equal(y, ref), mode
            assert y.strides == ref.strides, mode


class TestFailFast:
    """A qrt+ run that breaches the physicality bound stops at the first
    output node past it instead of integrating to the horizon."""

    def test_stops_at_first_breach(self, monkeypatch):
        system = SystemSpec(0.0, v=1.0)
        table = make_table(COLD, system, NoiseSpec(2.0, 0.01), 6.0)
        g1, g2 = evolve_single_time(table, system.initial_sz)
        t2 = node_near(table, 2.0)

        calls = [0]
        original = telespin.dynamics.assemble_generator

        def counting(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(telespin.dynamics, "assemble_generator", counting)
        ref = reference_two_time(table, g1, g2, t2, "qrt+")
        reference_calls, calls[0] = calls[0], 0
        size = np.abs(ref[:, 0])
        over = np.flatnonzero(size > 1.0 + 1e-3)
        assert over.size and over[0] < len(size) // 10
        k = over[0]
        t1 = table.ts[table.node_index(t2):]

        with pytest.raises(IntegratorError) as err:
            evolve_two_time(table, g1, g2, t2, "qrt+")
        assert f"|Y_1| = {size[k]:.6f} at t1 = {t1[k]:.6f}" in str(err.value)
        assert calls[0] < 0.1 * reference_calls


class TestStepperFailuresMatchSolveIvp:
    """Where the in-package stepper stops, scipy's RK45 stops too: at the
    same first unphysical node, or with the same failed step."""

    def test_single_time_breach_names_the_same_node(self, monkeypatch):
        system = SystemSpec(1.0, v=1.0)
        table = make_table(HOT, system, NoiseSpec(0.75, 1.0), 6.0)
        original = type(table).single_time_at

        def growing(self, t):
            g11, *rest = original(self, t)
            return (-g11, *rest)  # growth instead of decay

        monkeypatch.setattr(type(table), "single_time_at", growing)
        ref = reference_single_time(table, system.initial_sz)
        size = np.abs(ref[0].real)
        over = np.flatnonzero(size > 1.0 + 1e-6)
        assert over.size and over[0] > 0
        k = over[0]
        with pytest.raises(IntegratorError) as err:
            evolve_single_time(table, system.initial_sz)
        assert str(err.value) == (
            f"single-time solution violates |<sigma_z>| <= 1: "
            f"|Re g1| = {size[k]:.9f} at t = {table.ts[k]:.6f}")

    def test_too_small_step_fails_as_rk45_does(self):
        calls = [0]

        def blow_up(t, y):  # y' = y^2 leaves every bound at t = 1
            calls[0] += 1
            return y * y

        ts = np.linspace(0.0, 2.0, 21)
        y0 = np.array([1.0 + 0j])
        sol = solve_ivp(blow_up, (ts[0], ts[-1]), y0, t_eval=ts, rtol=RTOL, atol=ATOL,
                        method="RK45")
        assert sol.status == -1
        reference_calls, calls[0] = calls[0], 0
        with pytest.raises(IntegratorError) as err:
            telespin.dynamics._propagate(
                blow_up, y0, ts, RTOL, ATOL, "blow-up integration",
                lambda block: np.zeros(block.shape[1]), 1.0, None)
        assert str(err.value) == f"blow-up integration failed: {sol.message}"
        assert calls[0] == reference_calls
