"""Acceptance suite: one test per criterion, one printed verdict line each.

One criterion, A5, is expected to fail with the equations as published (see
"Known-red acceptance criteria" in README.md); its test states the observed
values next to the required threshold rather than loosening it.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import telespin as ts
from telespin.config import ExperimentConfig, GridConfig, RunConfig
from telespin.runner import compute_series, run_sweep, sweep_cell

SEED = 20260810

HOT = ts.BathSpec(2.0, 1.0, 0.5, 0.02)
COLD = ts.BathSpec(2.0, 1.0, 0.5, 50.0)


def make_cfg(bath, eps0, nu, omega, horizon, t2="auto", seed=SEED,
             prominence=0.05, window="hann"):
    return ExperimentConfig(
        bath=bath,
        noise=ts.NoiseSpec(omega_n=omega, nu=nu, seed=seed),
        system=ts.SystemSpec(epsilon0=eps0, v=1.0, initial_sz=1.0),
        grid=GridConfig(horizon=horizon, t2=t2),
        run=RunConfig(prominence=prominence, window=window),
    )


def verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def absorption_spectrum(cfg, series):
    tau = series.t1 - series.t2
    return ts.power_spectrum(tau, series.qrt_plus[:, 4], window=cfg.run.window,
                             pad_factor=cfg.run.pad_factor)


class TestA1NoNoiseReduction:
    def test_criterion(self):
        start = time.time()
        cfg = make_cfg(HOT, eps0=1.0, nu=1.0, omega=0.0, horizon=40.0, t2=0.0)
        table_ts = cfg.resolve_ts()
        table = ts.build_single_time(table_ts, cfg.bath, cfg.system, cfg.noise)
        worst_kernel = max(
            float(np.max(np.abs(getattr(table, name))))
            for name in ("g12", "g22", "g52", "g62")
        )
        g1, g2 = ts.evolve_single_time(table, cfg.system.initial_sz)
        series = ts.evolve_two_time(table, g1, g2, 0.0, mode="both")
        worst_alpha = max(
            float(np.max(np.abs(series.qrt[:, [1, 3, 5]]))),
            float(np.max(np.abs(series.qrt_plus[:, [1, 3, 5]]))),
        )
        mode_gap = float(np.max(np.abs(series.qrt - series.qrt_plus)))
        elapsed = time.time() - start
        ok = worst_kernel < 1e-10 and worst_alpha < 1e-10 and mode_gap < 1e-10 \
            and elapsed < 10.0
        assert verdict(
            "A1",
            ok,
            f"S1 kernels {worst_kernel:.1e}, alpha components {worst_alpha:.1e}, "
            f"mode gap {mode_gap:.1e}, runtime {elapsed:.1f}s",
        )


class TestA2OracleEquivalence:
    def test_criterion(self):
        cfg = make_cfg(HOT, eps0=1.0, nu=1.0, omega=0.75, horizon=40.0)
        table, series = compute_series(cfg, mode="qrt+")
        mc = ts.monte_carlo(table, series.t2, cfg.system, cfg.noise, 10000,
                            mode="qrt+")
        exact = {
            "zz": series.qrt_plus[::2, 0],
            "pm": series.qrt_plus[::2, 2],
            "mp": series.qrt_plus[::2, 4],
        }
        devs = {
            key: float(np.max(ts.standardized_deviation(mc[key], exact[key])))
            for key in exact
        }
        ok = all(v < 3.0 for v in devs.values())
        assert verdict(
            "A2",
            ok,
            "max standardized deviation "
            + ", ".join(f"{k}={v:.2f}" for k, v in devs.items())
            + " (threshold 3, 10^4 paths)",
        )


class TestA3SpectralPeaks:
    def test_criterion(self):
        slow = make_cfg(HOT, eps0=1.0, nu=0.01, omega=0.75, horizon=40.0)
        _, series = compute_series(slow, mode="qrt+")
        spec = absorption_spectrum(slow, series)
        peaks = sorted(p.omega for p in ts.detect_peaks(spec, 0.05))
        two_bins = 2.0 * spec.bin_width
        ok_slow = (len(peaks) == 2
                   and abs(peaks[0] - 0.25) < two_bins
                   and abs(peaks[1] - 1.75) < two_bins)

        fast = make_cfg(HOT, eps0=1.0, nu=1.0, omega=0.75, horizon=40.0)
        _, series_f = compute_series(fast, mode="qrt+")
        spec_f = absorption_spectrum(fast, series_f)
        peaks_f = [p.omega for p in ts.detect_peaks(spec_f, 0.05)]
        ok_fast = len(peaks_f) == 1 and abs(peaks_f[0] - 1.0) < 2.0 * spec_f.bin_width

        ok = ok_slow and ok_fast
        assert verdict(
            "A3",
            ok,
            f"K=75 peaks {np.round(peaks, 4)} (bin {spec.bin_width:.3f}), "
            f"K=0.75 peaks {np.round(peaks_f, 4)}",
        )


class TestA4NarrowingTransition:
    KS = (0.65, 0.75, 0.85, 0.9, 0.95, 1.0)

    def _transition(self, bath):
        counts = []
        for K in self.KS:
            cfg = make_cfg(bath, eps0=0.0, nu=0.75 / K, omega=0.75,
                           horizon=60.0, prominence=0.03)
            _, series = compute_series(cfg, mode="qrt+")
            spec = absorption_spectrum(cfg, series)
            counts.append(len(ts.detect_peaks(spec, 0.03)))
        changes = [i for i in range(len(self.KS) - 1)
                   if counts[i] == 1 and counts[i + 1] == 2]
        if len(changes) != 1 or counts[0] != 1 or counts[-1] != 2:
            return None, counts
        i = changes[0]
        return 0.5 * (self.KS[i] + self.KS[i + 1]), counts

    def test_criterion(self):
        tr_hot, counts_hot = self._transition(HOT)
        tr_cold, counts_cold = self._transition(COLD)
        ok = (tr_hot is not None and 0.5 <= tr_hot <= 0.9
              and tr_cold is not None and 0.5 <= tr_cold <= 0.9)
        assert verdict(
            "A4",
            ok,
            f"transition K: beta=0.02 -> {tr_hot} {counts_hot}, "
            f"beta=50 -> {tr_cold} {counts_cold} (required within [0.5, 0.9])",
        )


class TestA5DeltaBoundHighTemperature:
    def test_criterion(self):
        rows = []
        worst = 0.0
        for eps0 in (0.0, 1.0):
            for nu in (0.01, 1.0):
                cfg = make_cfg(HOT, eps0=eps0, nu=nu, omega=0.75, horizon=40.0)
                _, series = compute_series(cfg, mode="both")
                deltas = {}
                for label, col in (("zz", 0), ("pm", 2), ("mp", 4)):
                    rep = ts.delta_measure(series.t1, series.qrt[:, col],
                                           series.qrt_plus[:, col], label)
                    deltas[label] = rep.delta
                    worst = max(worst, rep.delta)
                rows.append(f"eps0={eps0} nu={nu}: "
                            + ", ".join(f"D_{k}={v:.3f}" for k, v in deltas.items()))
        ok = worst < 0.25
        assert verdict(
            "A5", ok,
            f"worst Delta {worst:.3f} (required < 0.25); " + " | ".join(rows),
        )


class TestA6DestructionOfTunneling:
    """Slow telegraph noise on the bias suppresses the relaxation rate k.

    The kernels see Omega only through the noise propagators S0/S1 inside
    the bath memory window 1/sqrt(xi).  In the hot bath (beta = 0.02,
    xi = 200) that window is about 0.07, so k can move only by
    O(Omega^2/xi), about 1% for Omega <= 2: no ratio near 0.2 is reachable
    there at any Omega this scale allows.

    In the cold bath (beta = 50, xi = 1.54) the static-bias rate is a
    Gaussian line in the bias eps, centred at E_r = kappa^2/omega0 = 4 with
    variance 2 xi (forward plus backward transfer),

        k(eps) ~ exp(-(eps - E_r)^2 / 4 xi) + exp(-(eps + E_r)^2 / 4 xi).

    For slow noise (nu = 0.01, under one switch per horizon) each path keeps
    the bias eps0 + Omega or eps0 - Omega through the decay, so k(Omega) is
    about the mean of the static rates at the two biases.  At the line
    centre eps0 = E_r that falls as exp(-Omega^2 / 4 xi); at Omega = 2 no
    ratio can fall below about 0.52, so the scan runs up to Omega = 4.  The
    verdict prints this estimate next to the observed ratio.

    Rate fits use the regression propagation at the fit anchor t2 = 1;
    the corrected propagation trips the physicality guard at low
    temperature with this early anchor, and the decay rates themselves are
    regression-dominated."""

    EPS0 = 4.0  # the line centre E_r
    OMEGAS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)

    def _static_bias_estimate(self):
        xi = ts.xi_coefficient(COLD)
        e_r = ts.reorganization_energy(COLD)
        ends = np.array([self.OMEGAS[0], self.OMEGAS[-1]])[:, None]
        bias = self.EPS0 + ends * np.array([-1.0, 1.0])
        line = np.exp(-(bias - e_r) ** 2 / (4 * xi)) \
            + np.exp(-(bias + e_r) ** 2 / (4 * xi))
        rate = line.mean(axis=1)
        return rate[1] / rate[0]

    def test_criterion(self):
        ks = []
        for om in self.OMEGAS:
            cfg = make_cfg(COLD, eps0=self.EPS0, nu=0.01, omega=om,
                           horizon=40.0, t2=1.0)
            _, series = compute_series(cfg, mode="qrt")
            fit = ts.fit_exponential(series.t1, series.qrt[:, 0].real)
            ks.append(fit.k)
        decreasing = all(a > b for a, b in zip(ks, ks[1:]))
        ratio_ok = ks[-1] < 0.2 * ks[0]
        ok = decreasing and ratio_ok
        assert verdict(
            "A6", ok,
            f"k(Omega) = {np.round(ks, 5)} strictly decreasing: {decreasing}, "
            f"k({self.OMEGAS[-1]})/k({self.OMEGAS[0]}) = {ks[-1] / ks[0]:.3f} "
            f"(required < 0.2; static-bias estimate "
            f"{self._static_bias_estimate():.3f})",
        )


class TestA7TransportEnhancement:
    OMEGAS = (0.05, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

    def test_criterion(self):
        ks = []
        for om in self.OMEGAS:
            cfg = make_cfg(COLD, eps0=0.0, nu=0.05, omega=om, horizon=60.0,
                           t2=1.0)
            _, series = compute_series(cfg, mode="qrt")
            fit = ts.fit_exponential(series.t1, series.qrt[:, 0].real)
            ks.append(fit.k)
        arg = int(np.argmax(ks))
        ok = 0 < arg < len(self.OMEGAS) - 1
        assert verdict(
            "A7", ok,
            f"k(Omega) = {np.round(ks, 4)}; argmax at Omega = "
            f"{self.OMEGAS[arg]} (interior maximum required)",
        )


class TestA8NumericalHygiene:
    def test_kernel_refinement(self):
        from test_kernels import make_table

        system = ts.SystemSpec(1.0, v=1.0)
        noise = ts.NoiseSpec(0.75, 1.0)
        base = make_table(HOT, system, noise, 2.0)
        double = make_table(HOT, system, noise, 2.0, refine=2.0)
        worst = 0.0
        for name in ("g11", "g12", "g21", "g22", "g51", "g52", "g61", "g62"):
            a = getattr(base, name)[-1]
            b = getattr(double, name)[-1]
            worst = max(worst, abs(a - b) / max(abs(b), 1e-6))
        assert verdict("A8a", worst < 1e-4,
                       f"kernel grid-doubling relative change {worst:.2e}")

    def test_integrator_step_doubling(self):
        cfg = make_cfg(HOT, eps0=1.0, nu=1.0, omega=0.75, horizon=8.0, t2=2.0)
        ts_grid = cfg.resolve_ts()
        table = ts.build_single_time(ts_grid, cfg.bath, cfg.system, cfg.noise)
        i2 = int(round(2.0 / table.dt))
        t2 = float(table.ts[i2 + i2 % 2])
        # the halved tolerances reach the background solve too
        a = ts.evolve_two_time(
            table, *ts.evolve_single_time(table, cfg.system.initial_sz), t2,
            mode="qrt+",
        )
        b = ts.evolve_two_time(
            table,
            *ts.evolve_single_time(table, cfg.system.initial_sz, 5e-9, 5e-11),
            t2, mode="qrt+", rtol=5e-9, atol=5e-11,
        )
        gap = float(np.max(np.abs(a.qrt_plus[:, 0].real - b.qrt_plus[:, 0].real)))
        assert verdict("A8b", gap < 1e-5,
                       f"tolerance-halving change in Re zz {gap:.2e}")

    def test_fit_recovery_battery(self):
        rng = np.random.default_rng(17)
        t = np.linspace(0.0, 25.0, 600)
        failures = 0
        total = 0
        for _ in range(50):
            p, k = rng.uniform(-0.3, 0.5), rng.uniform(0.1, 1.0)
            clean = p + (1 - p) * np.exp(-k * t)
            y = clean + 0.01 * (np.max(clean) - np.min(clean)) \
                * rng.standard_normal(len(t))
            fit = ts.fit_exponential(t, y)
            total += 1
            if abs(fit.k - k) > 0.05 * k:
                failures += 1
        for _ in range(50):
            lam = rng.uniform(0.1, 0.35)
            w1 = rng.uniform(0.2, 0.8)
            w2 = w1 + rng.uniform(0.5, 1.2)
            a1, a2 = rng.uniform(0.4, 1.0, size=2)
            clean = np.exp(-lam * t) * (a1 * np.cos(w1 * t) + a2 * np.cos(w2 * t))
            y = clean + 0.01 * np.max(np.abs(clean)) * rng.standard_normal(len(t))
            fit = ts.fit_damped_cosines(t, y)
            total += 1
            if abs(fit.lam - lam) > 0.05 * lam or abs(fit.w1 - w1) > 0.05 * w1:
                failures += 1
        ok = failures <= int(0.05 * total)
        assert verdict("A8c", ok,
                       f"{total - failures}/{total} synthetic fits within 5% "
                       "under 1% noise")

    def test_propagator_identity(self):
        rng = np.random.default_rng(3)
        dt = 1e-4
        worst = 0.0
        for _ in range(50):
            nu = rng.uniform(0.05, 3.0)
            om = rng.uniform(0.0, 2.0)
            tt = rng.uniform(0.2, 8.0)
            noise = ts.NoiseSpec(om, nu)
            sm, s, sp = (ts.propagators(x, noise)[0].real
                         for x in (tt - dt, tt, tt + dt))
            resid = (sp - 2 * s + sm) / dt**2 + nu * (sp - sm) / (2 * dt) \
                + om * om * s
            worst = max(worst, abs(resid) / max(1.0, om * om))
        assert verdict("A8d", worst < 1e-5,
                       f"S0 damped-oscillator identity residual {worst:.2e}")

    def test_seeded_reproducibility_across_workers(self, tmp_path):
        from telespin.config import SweepConfig

        cfg = make_cfg(HOT, eps0=1.0, nu=1.0, omega=0.75, horizon=6.0, t2=2.0)
        sweep_cfg = ExperimentConfig(
            bath=cfg.bath, noise=cfg.noise, system=cfg.system, grid=cfg.grid,
            run=cfg.run, sweep=SweepConfig(nu=(0.5, 1.0), omega_n=(0.75,)),
        )
        bodies = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_sweep(replace(sweep_cfg, run=replace(cfg.run, workers=workers)), out)
            lines = (out / "sweep.csv").read_bytes().splitlines()
            # the header records the worker count each run used
            assert f"# run.workers = {workers}".encode() in lines
            bodies.append([l for l in lines if not l.startswith(b"# run.workers")])
        same_sweep = bodies[0] == bodies[1]

        grid = cfg.resolve_ts()
        i2 = int(round(2.0 / (grid[1] - grid[0])))
        t2 = float(grid[i2 + i2 % 2])
        table = ts.build_single_time(grid, cfg.bath, cfg.system, cfg.noise)
        mc1 = ts.monte_carlo(table, t2, cfg.system, cfg.noise, 128)
        mc2 = ts.monte_carlo(table, t2, cfg.system, cfg.noise, 128)
        same_mc = all(np.array_equal(mc1[k].mean, mc2[k].mean)
                      for k in ("zz", "pm", "mp", "sz"))
        assert verdict("A8e", same_sweep and same_mc,
                       f"sweep bytes identical but the worker count: {same_sweep}, "
                       f"MC rerun identical: {same_mc}")
