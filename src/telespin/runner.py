"""Experiment drivers behind the CLI subcommands.

Every run writes CSV results plus a resolved_config.json snapshot; sweep
cells run in a worker pool, all on one BLAS thread, but are emitted in
lexicographic grid order, and nothing in the output depends on the worker
count.
"""

from __future__ import annotations

import ctypes
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import analysis
from .config import ConfigError, ExperimentConfig
from .csvio import write_csv
from .dynamics import (
    IntegratorError,
    choose_t2,
    evolve_single_time,
    evolve_two_time,
)
from .kernels import build_single_time
from .oracle import monte_carlo, standardized_deviation

VALIDATION_THRESHOLD = 3.0

_COMPONENTS = ("zz", "azz", "pm", "apm", "mp", "amp")

#: single-time kernel tables written by --dump-kernels
_KERNELS = ("g11", "g12", "g21", "g22", "g51", "g52", "g61", "g62")


def _resolve_anchor(cfg: ExperimentConfig, table, g1) -> float:
    """t2 from config or policy, snapped to a coarse (even) grid node that
    leaves at least one two-time step before the horizon."""
    if cfg.grid.t2 == "auto":
        t2 = choose_t2(table.ts, g1)
    else:
        t2 = float(cfg.grid.t2)
    i2 = int(round(t2 / table.dt))
    i2 += i2 % 2
    last = len(table.ts) - 3
    if i2 > last:
        raise ConfigError(
            f"grid.t2 = {cfg.grid.t2} lies past t = {table.ts[last]:.6g}, "
            f"the last anchor that leaves a two-time step before the horizon"
        )
    return float(table.ts[i2])


def _complex_columns(axis, values, arrays: dict) -> dict:
    """CSV columns: the axis, then re_<name> and im_<name> of each array."""
    cols = {axis: values}
    for name, arr in arrays.items():
        cols[f"re_{name}"] = arr.real
        cols[f"im_{name}"] = arr.imag
    return cols


def _write_config(cfg, outdir, **extra):
    path = Path(outdir) / "resolved_config.json"
    path.write_text(json.dumps(cfg.resolved_dict(**extra), indent=2) + "\n",
                    encoding="utf-8")


def compute_series(cfg: ExperimentConfig, mode=None):
    """Shared pipeline: table, single-time background (solved once and
    passed on), anchor, then the requested propagations."""
    ts = cfg.resolve_ts()
    table = build_single_time(ts, cfg.bath, cfg.system, cfg.noise)
    g1, g2 = evolve_single_time(table, cfg.system.initial_sz)
    t2 = _resolve_anchor(cfg, table, g1)
    series = evolve_two_time(table, g1, g2, t2, mode=mode or cfg.run.mode)
    return table, series


def run_dynamics(cfg: ExperimentConfig, outdir, dump_kernels=None) -> dict:
    table, series = compute_series(cfg)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = cfg.resolved_dict(t2=series.t2)
    write_csv(
        outdir / "single_time.csv",
        _complex_columns("t", series.ts, {"g1": series.g1, "g2": series.g2}),
        {**meta, "file": "single_time"},
    )
    written = {"single_time": outdir / "single_time.csv"}
    for tag, y in (("qrt", series.qrt), ("qrt_plus", series.qrt_plus)):
        if y is None:
            continue
        cols = _complex_columns("t1", series.t1, dict(zip(_COMPONENTS, y.T)))
        cols["mode"] = np.full(len(series.t1), tag.replace("_plus", "+"), dtype=object)
        write_csv(outdir / f"{tag}.csv", cols, {**meta, "file": tag})
        written[tag] = outdir / f"{tag}.csv"
    if dump_kernels:
        kernels = {name: getattr(table, name) for name in _KERNELS}
        Path(dump_kernels).parent.mkdir(parents=True, exist_ok=True)
        write_csv(Path(dump_kernels), _complex_columns("t", table.ts, kernels),
                  {**meta, "file": "kernels"})
    _write_config(cfg, outdir, t2=series.t2)
    return {"series": series, "files": written}


def _require_samples(cfg: ExperimentConfig, series, need: int, what: str):
    """ConfigError naming grid.t2 and grid.horizon when fewer than `need`
    two-time samples follow the anchor (the anchor node included)."""
    if len(series.t1) < need:
        raise ConfigError(
            f"grid.t2 = {cfg.grid.t2} (anchor t = {series.t2:.6g}) leaves "
            f"{len(series.t1)} two-time samples up to grid.horizon = {cfg.grid.horizon}; "
            f"{what} needs at least {need}")


def run_spectrum(cfg: ExperimentConfig, outdir) -> dict:
    mode = cfg.run.mode if cfg.run.mode != "both" else "qrt+"
    table, series = compute_series(cfg, mode=mode)
    _require_samples(cfg, series, analysis.MIN_SPECTRUM_SAMPLES, "a spectrum")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    y = series.qrt_plus if mode == "qrt+" else series.qrt
    tau = series.t1 - series.t2
    meta = cfg.resolved_dict(t2=series.t2, spectrum_mode=mode)
    report = {}
    for label, column in (("absorption", 4), ("emission", 2)):
        spec = analysis.power_spectrum(tau, y[:, column])
        report[label] = {"peaks": [asdict(p) for p in analysis.detect_peaks(spec)],
                         "bin_width": spec.bin_width}
        write_csv(
            outdir / f"{label}.csv",
            {"omega": spec.freq_grid, "power": spec.power},
            {**meta, "file": label},
        )
    (outdir / "peaks.json").write_text(json.dumps(report, indent=2) + "\n",
                                       encoding="utf-8")
    _write_config(cfg, outdir, t2=series.t2, spectrum_mode=mode)
    return {"series": series, "report": report}


def sweep_cell(cfg: ExperimentConfig) -> dict:
    """One (nu, omega_n) cell: rate fits, deltas, absorption peak count.

    Rate fits run on the regression series (the corrected propagation can
    trip the physicality guard at strong coupling with early anchors); the
    deltas and spectra use the corrected series when it is available and
    otherwise leave NaN with the failure recorded in the status field.  A
    corrected run that breaches stops at its first output node past the
    bound, and the status names that node, so a fallback cell pays only
    for the corrected steps up to the breach.  The corrected series starts
    from the regression run's background and anchor, so the cell solves
    the single-time background once.  A window too short for the rate
    fits raises ConfigError; a rate fit that fails to converge leaves NaN in
    its own columns and 0 in its converged flag, and the row goes on.
    """
    table, series = compute_series(cfg, mode="qrt")
    _require_samples(cfg, series, max(analysis.MIN_EXP_FIT_SAMPLES,
                                      analysis.MIN_DAMPED_FIT_SAMPLES),
                     "a sweep cell")
    t1 = series.t1
    out = {"t2": series.t2, "status": "ok"}
    nan = float("nan")
    try:
        efit = analysis.fit_exponential(t1, series.qrt[:, 0].real)
        out.update(k=efit.k, k_p=efit.p, k_rms=efit.rms_residual,
                   k_converged=int(efit.converged and not efit.degenerate))
    except RuntimeError:
        out.update(k=nan, k_p=nan, k_rms=nan, k_converged=0)
    try:
        dfit = analysis.fit_damped_cosines(t1, series.qrt[:, 4].real)
        out.update(lam=dfit.lam, lam_w1=dfit.w1, lam_w2=dfit.w2,
                   lam_rms=dfit.rms_residual,
                   lam_converged=int(dfit.converged and not dfit.degenerate))
    except RuntimeError:
        out.update(lam=nan, lam_w1=nan, lam_w2=nan, lam_rms=nan, lam_converged=0)

    y_corr = None
    try:
        corrected = evolve_two_time(
            table, series.g1, series.g2, series.t2, mode="qrt+"
        )
        y_corr = corrected.qrt_plus
    except IntegratorError as exc:
        out["status"] = f"qrt+ unavailable: {exc}"
    for label, col in (("delta_zz", 0), ("delta_pm", 2), ("delta_mp", 4)):
        out[label] = float("nan")
        if y_corr is not None:
            try:
                out[label] = analysis.delta_measure(
                    t1, series.qrt[:, col], y_corr[:, col]
                )
            except ValueError:
                pass
    spectrum_source = y_corr[:, 4] if y_corr is not None else series.qrt[:, 4]
    spec = analysis.power_spectrum(t1 - series.t2, spectrum_source)
    out["peaks_absorption"] = len(analysis.detect_peaks(spec))
    return out


def _openblas_thread_controls():
    """(get, set) thread-count functions of every loaded OpenBLAS library.

    numpy and scipy each bundle their own copy, with or without a
    ``scipy_`` symbol prefix and a ``64_`` suffix; found through the
    process's memory map, so it is empty where there is none (non-Linux).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[-1].strip()
                     for line in maps if "openblas" in line}
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in product(("scipy_", ""), ("64_", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


@contextmanager
def _single_blas_thread():
    """Run the body with every OpenBLAS at one thread, then restore.  The
    fits' scipy.optimize, which loads scipy's copy, is imported first, or
    the first fit would load that copy unpinned."""
    import scipy.optimize  # noqa: F401

    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


def _cell_task(cfg):
    """One sweep cell.  The cell's warnings are re-issued naming the cell,
    so identical messages from different cells stay apart.  A ConfigError
    stops the sweep; any other failure is recorded in the cell's row."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            row = sweep_cell(cfg)
        except ConfigError:
            raise
        except Exception as exc:  # recorded in-row, never dropped
            row = {"status": f"failed: {type(exc).__name__}: {exc}"}
    for w in caught:
        warnings.warn_explicit(
            f"{w.message} (sweep cell nu = {cfg.noise.nu}, "
            f"omega_n = {cfg.noise.omega_n})", w.category, w.filename, w.lineno)
    return row


_CELL_FIELDS = ("t2", "k", "k_p", "k_rms", "k_converged", "lam", "lam_w1",
                "lam_w2", "lam_rms", "lam_converged", "delta_zz", "delta_pm",
                "delta_mp", "peaks_absorption")


def run_sweep(cfg: ExperimentConfig, outdir) -> dict:
    if cfg.sweep is None:
        raise ConfigError("sweep: the config has no sweep section "
                          "(sweep.nu and sweep.omega_n)")
    cells = [replace(cfg, noise=replace(cfg.noise, omega_n=om, nu=nu), sweep=None)
             for nu, om in product(cfg.sweep.nu, cfg.sweep.omega_n)]
    # every cell runs on single-threaded BLAS, so concurrent workers do not
    # oversubscribe the cores and the fitted numbers (a threaded dot sums in
    # another order) depend on neither the worker count nor the caller's
    # BLAS setting; forked workers inherit the pin and scipy.optimize
    with _single_blas_thread():
        if cfg.run.workers > 1:  # map keeps the cells' order
            with ProcessPoolExecutor(max_workers=cfg.run.workers) as pool:
                rows = list(pool.map(_cell_task, cells))
        else:
            rows = [_cell_task(cell) for cell in cells]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    columns = {name: [] for name in ("nu", "omega_n", "kubo", *_CELL_FIELDS, "status")}
    for cell, row in zip(cells, rows):
        nu, om = cell.noise.nu, cell.noise.omega_n
        columns["nu"].append(nu)
        columns["omega_n"].append(om)
        columns["kubo"].append(om / nu)
        for name in _CELL_FIELDS:
            columns[name].append(row.get(name, float("nan")))
        columns["status"].append(row["status"])
    write_csv(outdir / "sweep.csv", columns, cfg.resolved_dict())
    _write_config(cfg, outdir)
    return {"rows": rows, "file": outdir / "sweep.csv"}


def run_validate(cfg: ExperimentConfig, outdir) -> dict:
    """Monte Carlo oracle versus the averaged equations; JSON verdict."""
    table, series = compute_series(cfg, mode="qrt+")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    mc = monte_carlo(table, series.t2, cfg.system.initial_sz, cfg.noise.seed,
                     n_paths=cfg.run.n_paths, mode="qrt+")
    stride = 2  # oracle output lives on coarse nodes
    exact = {
        "zz": series.qrt_plus[::stride, 0],
        "pm": series.qrt_plus[::stride, 2],
        "mp": series.qrt_plus[::stride, 4],
    }
    report = {
        "n_paths": cfg.run.n_paths,
        "t2": series.t2,
        "s1_denominator": cfg.run.s1_denominator,
        "threshold": VALIDATION_THRESHOLD,
    }
    worst = 0.0
    for key in ("zz", "pm", "mp"):
        est = mc[key]
        dev = standardized_deviation(est, exact[key])
        report[f"max_std_dev_{key}"] = float(np.max(dev))
        worst = max(worst, float(np.max(dev)))
        write_csv(
            outdir / f"validate_{key}.csv",
            {
                "t1": mc["t1"],
                "mc_re": est.mean.real,
                "mc_se_re": est.se_re,
                "exact_re": np.asarray(exact[key]).real,
                "std_dev": dev,
            },
            cfg.resolved_dict(correlator=key, t2=series.t2),
        )
    report["max_std_dev"] = worst
    report["passed"] = bool(worst < VALIDATION_THRESHOLD)
    (outdir / "validation.json").write_text(json.dumps(report, indent=2) + "\n",
                                            encoding="utf-8")
    _write_config(cfg, outdir, t2=series.t2)
    return report
