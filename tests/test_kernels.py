import dataclasses
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from telespin.bath import BathSpec, reorganization_energy, xi_coefficient
from telespin.dynamics import SystemSpec, anchor_node
from telespin.kernels import build_single_time, resolution_bound
from telespin.noise import NoiseSpec, propagators

from test_bath import short_exponents

HOT = BathSpec(2.0, 1.0, 0.5, 0.02)
WARM = BathSpec(2.0, 1.0, 0.5, 1.0)


def make_grid(bath, system, noise, horizon, refine=1.0):
    dt = resolution_bound(
        xi_coefficient(bath), system.epsilon0, noise.omega_n, noise.nu
    ) / refine
    n = int(np.ceil(horizon / dt))
    n += n % 2
    return np.linspace(0.0, horizon, n + 1)


def make_table(bath, system, noise, horizon, refine=1.0, **kw):
    ts = make_grid(bath, system, noise, horizon, refine)
    return build_single_time(ts, bath, system, noise, **kw)


class TestElementary:
    """The bath integrands that build_single_time forms from E_r and xi."""

    def test_f_plus_at_zero(self):
        q1, q2 = short_exponents(WARM, 0.0)
        env = np.exp(-q2)
        assert env * np.exp(1j * q1) == pytest.approx(1.0, abs=1e-15)  # f+
        assert env * np.cos(q1) == pytest.approx(1.0, abs=1e-15)       # cc
        assert env * np.sin(q1) == pytest.approx(0.0, abs=1e-15)       # ss

    def test_ss_vanishes_without_bias(self):
        # g21 integrates the ss integrand, which carries sin(e0 t)
        table = make_table(WARM, SystemSpec(0.0), NoiseSpec(0.75, 1.0), 5.0)
        assert np.all(table.g21 == 0.0)

    def test_cc_value_from_frozen_xi(self):
        q1, q2 = short_exponents(HOT, 1.0)
        assert q1 == pytest.approx(reorganization_energy(HOT), rel=1e-15)
        assert q2 == pytest.approx(xi_coefficient(HOT), rel=1e-12)
        expected = np.exp(-xi_coefficient(HOT)) * np.cos(4.0) * np.cos(1.0)
        assert np.exp(-q2) * np.cos(q1) * np.cos(1.0) == pytest.approx(
            expected, rel=1e-12
        )


class TestSingleTimeKernels:
    def test_vanish_at_zero(self):
        table = make_table(WARM, SystemSpec(1.0), NoiseSpec(0.75, 1.0), 4.0)
        for name in ("g11", "g12", "g21", "g22", "g51", "g52", "g61", "g62"):
            assert getattr(table, name)[0] == 0.0

    def test_no_noise_kills_s1_kernels(self):
        table = make_table(WARM, SystemSpec(1.0), NoiseSpec(0.0, 1.0), 6.0)
        for name in ("g12", "g22", "g52", "g62"):
            assert np.max(np.abs(getattr(table, name))) < 1e-12

    def test_refinement_oracle(self):
        # A2 parameter point: 10x finer trapezoid agrees to 1e-6 relative
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.75, 1.0)
        coarse = make_table(HOT, system, noise, 2.0)
        fine = make_table(HOT, system, noise, 2.0, refine=10.0)
        val_c = coarse.g11[-1]
        val_f = fine.g11[-1]
        assert val_c == pytest.approx(val_f, rel=1e-6)

    def test_grid_doubling_convergence(self):
        system = SystemSpec(1.0, v=1.0)
        noise = NoiseSpec(0.75, 1.0)
        base = make_table(HOT, system, noise, 2.0)
        double = make_table(HOT, system, noise, 2.0, refine=2.0)
        for name in ("g11", "g12", "g21", "g22", "g51", "g52", "g61", "g62"):
            a = getattr(base, name)[-1]
            b = getattr(double, name)[-1]
            scale = max(abs(b), 1e-6)
            assert abs(a - b) / scale < 1e-4

    def test_boundedness(self):
        table = make_table(WARM, SystemSpec(1.0, v=1.0), NoiseSpec(0.75, 1.0), 6.0)
        q1, q2 = short_exponents(WARM, table.ts)
        from scipy.integrate import cumulative_trapezoid

        envelope = cumulative_trapezoid(np.exp(-q2), table.ts, initial=0.0)
        for name, pre in (("g11", 4.0), ("g21", 4.0), ("g51", 2.0), ("g61", 2.0)):
            assert np.all(np.abs(getattr(table, name)) <= pre * envelope + 1e-12)

    def test_resolution_guard(self):
        system = SystemSpec(1.0)
        noise = NoiseSpec(0.75, 1.0)
        ts = np.linspace(0.0, 4.0, 101)  # far too coarse for xi = 200
        with pytest.raises(ValueError, match="resolution bound"):
            build_single_time(ts, HOT, system, noise)


KERNELS = ("g11", "g12", "g21", "g22", "g51", "g52", "g61", "g62")


def reference_single_time_at(table, t):
    """single_time_at's interpolation on numpy scalars, one array per kernel."""
    x = t / table.dt
    j = min(max(int(x), 0), len(table.ts) - 2)
    f = x - j
    g = 1.0 - f
    return tuple(g * k[j] + f * k[j + 1]
                 for k in (getattr(table, name) for name in KERNELS))


#: a hot biased table, and a cold unbiased one whose kernels built on
#: sin(e0 t) = 0 hold exact zeros of either sign
REFERENCE_TABLES = {
    "hot": (HOT, SystemSpec(1.0, v=1.0), NoiseSpec(0.75, 1.0), 6.0),
    "cold-unbiased": (BathSpec(2.0, 1.0, 0.5, 50.0), SystemSpec(0.0, v=1.0),
                      NoiseSpec(0.75, 0.05), 8.0),
}


@functools.lru_cache(maxsize=None)
def reference_table(name):
    return make_table(*REFERENCE_TABLES[name])


def node_or_any_time(table, first=0):
    """Times in [ts[first], horizon]: anywhere, on a node, or at either end."""
    start, end = float(table.ts[first]), float(table.ts[-1])
    return st.one_of(
        st.floats(start, end),
        st.integers(first, len(table.ts) - 1).map(lambda k: float(table.ts[k])),
        st.sampled_from([start, end]),
    )


def same_bits(a, b):
    return (a == b and np.signbit(a.real) == np.signbit(b.real)
            and np.signbit(a.imag) == np.signbit(b.imag))


class TestSingleTimeAt:
    """The interpolation reads each stack row once and computes on Python
    numbers; every value, and the sign of every zero, matches the numpy
    scalar formula."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_TABLES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_numpy_scalar_reference(self, name, data):
        table = reference_table(name)
        t = data.draw(node_or_any_time(table))
        got = table.single_time_at(t)
        for kernel, a, b in zip(KERNELS, got, reference_single_time_at(table, t)):
            assert same_bits(a, b), (kernel, t, a, b)
        assert [type(v) for v in got] == [float, complex, float, complex,
                                          complex, complex, complex, complex]

    def test_columns_are_read_only_views_of_one_stack(self):
        table = reference_table("hot")
        for name in KERNELS:
            column = getattr(table, name)
            assert not column.flags.writeable, name
            stack = table.real_kernels if name in ("g11", "g21") else table.complex_kernels
            assert np.shares_memory(column, stack), name


class TestTwoTimeKernels:
    def setup_method(self):
        self.system = SystemSpec(1.0, v=1.0)
        self.noise = NoiseSpec(0.75, 1.0)
        self.table = make_table(WARM, self.system, self.noise, 6.0)

    def test_zero_anchor(self):
        assert self.table.two_time_pair(1.0, 0.0) == (0j, 0j, 0j, 0j)

    def test_no_noise_kills_s1_families(self):
        table = make_table(WARM, self.system, NoiseSpec(0.0, 1.0), 6.0)
        t2 = table.ts[len(table.ts) // 2]
        for t1 in (t2, t2 + 0.3, t2 + 1.1):
            _, g32, _, g42 = table.two_time_pair(t1, t2)
            assert abs(g32) < 1e-14
            assert abs(g42) < 1e-14

    def test_against_adaptive_quadrature(self):
        # sharp tolerance requires a grid well below the resolution guard
        table = make_table(WARM, self.system, self.noise, 6.0, refine=20.0)
        t2 = anchor_node(table.ts, 3.0)
        e0 = self.system.epsilon0
        e_r, xi = reorganization_energy(WARM), xi_coefficient(WARM)

        def integrand(tau, t1, j, part):
            u = t1 - tau
            ef = np.exp(-xi * u * u + 1j * (e_r * u + e0 * u))
            s0, s1 = propagators(t2 - tau, self.noise)
            s = s0 if j == 1 else s1
            val = ef * np.exp(1j * e0 * (t2 - tau)) * s
            return val.real if part == "re" else val.imag

        # 1e-6 agreement is measured against the kernel family scale
        scale = float(np.max(np.abs(table.g11)))
        for t1 in (t2, t2 + 0.37):
            for j in (1, 2):
                re, _ = quad(integrand, 0.0, t2, args=(t1, j, "re"), limit=300)
                im, _ = quad(integrand, 0.0, t2, args=(t1, j, "im"), limit=300)
                got = table.two_time_pair(t1, t2)[j - 1]  # G3j
                assert got.real == pytest.approx(re, rel=2e-6, abs=1e-6 * scale)
                assert got.imag == pytest.approx(im, rel=2e-6, abs=1e-6 * scale)

    def test_conjugation_with_real_elementary_pair(self):
        # E_f- = conj(E_f+) requires a vanishing Q1 phase; inject Q1 = 0
        # and check G41 = conj(G31) exactly (S0 real).
        table = dataclasses.replace(self.table, e_r=0.0)
        t2 = anchor_node(table.ts, 2.0)
        for t1 in (t2, t2 + 0.5):
            g31, _, g41, _ = table.two_time_pair(t1, t2)
            assert g41 == pytest.approx(np.conj(g31), abs=1e-12)

    def test_time_order_enforced(self):
        with pytest.raises(ValueError):
            self.table.two_time_pair(1.0, 2.0)


def test_table_pickles():
    # plain data: a table ships to worker processes and comes back equal
    table = make_table(BathSpec(2.0, 1.0, 0.5, 50.0), SystemSpec(0.0, v=1.0),
                       NoiseSpec(0.75, 0.05), 8.0)
    copy = pickle.loads(pickle.dumps(table))
    for f in dataclasses.fields(table):
        a, b = getattr(table, f.name), getattr(copy, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name
    t2 = anchor_node(table.ts, 8.0 / 3.0)
    for t1 in (t2, t2 + 0.5, float(table.ts[-1])):
        assert copy.two_time_pair(t1, t2) == table.two_time_pair(t1, t2)


def test_resolution_bound_scales():
    assert resolution_bound(100.0, 1.0, 1.0, 1.0) == pytest.approx(0.002)
    assert resolution_bound(0.0, 0.0, 0.0, 2.0) == pytest.approx(0.01)
    # cold bath at negative bias: |e0| + Omega sets the step, as at +e0
    xi = xi_coefficient(BathSpec(2.0, 1.0, 0.5, 50.0))
    assert resolution_bound(xi, -2.0, 0.25, 0.05) == pytest.approx(0.02 / 2.25)


@settings(max_examples=100, deadline=None)
@given(xi=st.floats(0.0, 100.0), epsilon0=st.floats(0.0, 5.0),
       omega_n=st.floats(0.0, 3.0), nu=st.floats(0.01, 10.0))
def test_resolution_bound_even_in_bias(xi, epsilon0, omega_n, nu):
    # the phase rate e0 + alpha Omega reaches |e0| + Omega on either side
    assert (resolution_bound(xi, -epsilon0, omega_n, nu)
            == resolution_bound(xi, epsilon0, omega_n, nu))


@pytest.mark.parametrize("ts", [[], [0.0]], ids=["empty", "one-node"])
def test_short_grid_rejected(ts):
    with pytest.raises(ValueError, match="at least two nodes"):
        build_single_time(np.array(ts), HOT, SystemSpec(1.0), NoiseSpec(0.75, 1.0))


def test_only_the_eta_form_of_s1():
    system, noise = SystemSpec(1.0), NoiseSpec(0.75, 1.0)
    ts = make_grid(HOT, system, noise, 1.0)
    with pytest.raises(ValueError, match="s1_denominator"):
        build_single_time(ts, HOT, system, noise, s1_denominator="nu")
