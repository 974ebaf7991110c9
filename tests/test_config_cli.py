import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from telespin.cli import main
from telespin.config import (SECTIONS, ConfigError, config_from_tree, load_config,
                             parse_flat)
from telespin.csvio import read_csv, write_csv
from telespin.dynamics import IntegratorError

BASE_CFG = """\
schema_version = 1
bath.kappa = 2.0
bath.omega0 = 1.0
bath.gamma = 0.5
bath.beta = 0.02
noise.omega_n = 0.75
noise.nu = 1.0
noise.seed = 11
system.epsilon0 = 1.0
grid.horizon = 6.0
grid.t2 = 2.0
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return path


class TestConfigParsing:
    def test_round_trip(self, cfg_file):
        cfg = load_config(cfg_file)
        assert cfg.bath.kappa == 2.0
        assert cfg.noise.seed == 11
        assert cfg.grid.t2 == 2.0
        assert cfg.run.mode == "both"

    def test_missing_required_field_names_path(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("schema_version = 1\nbath.kappa = 2.0\n")
        with pytest.raises(ConfigError, match="bath.omega0"):
            load_config(path)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="bath"):
            parse_flat("schema_version = 1\nbath.krapa = 2.0\n")

    def test_schema_version_required(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_tree(parse_flat("bath.kappa = 2.0\n"))

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_flat("schema_version = 2\n")

    def test_overrides(self, cfg_file):
        cfg = load_config(cfg_file, overrides={"noise.seed": 99,
                                               "run.mode": "qrt"})
        assert cfg.noise.seed == 99
        assert cfg.run.mode == "qrt"

    def test_sweep_lists(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [0.5, 1.0]\nsweep.omega_n = [0.75]\n")
        cfg = load_config(path)
        assert cfg.sweep.nu == (0.5, 1.0)

    def test_dt_guard(self, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_text(BASE_CFG + "grid.dt = 0.5\n")
        with pytest.raises(ConfigError, match="resolution bound"):
            load_config(path).resolve_ts()

    def test_resolved_grid_even(self, cfg_file):
        ts = load_config(cfg_file).resolve_ts()
        assert (len(ts) - 1) % 2 == 0
        assert ts[0] == 0.0


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        cols = {"t": np.array([0.0, 0.1]), "v": np.array([1.0, -2.5e-17])}
        write_csv(path, cols, {"seed": 3, "label": "demo"})
        meta, back = read_csv(path)
        assert meta["seed"] == 3
        assert np.array_equal(back["t"], cols["t"])
        assert np.array_equal(back["v"], cols["v"])

    def test_seventeen_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        value = 1.0 / 3.0
        write_csv(path, {"v": np.array([value])}, {})
        _, back = read_csv(path)
        assert back["v"][0] == value


def _per_value_csv(columns, metadata):
    """The per-value CSV formatter that write_csv's row formats replace."""

    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return "%.17g" % value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return str(value)

    arrays = [np.asarray(columns[k]) for k in columns]
    lines = [f"# {k} = {json.dumps(v)}" for k, v in metadata.items()]
    lines.append(",".join(columns))
    for i in range(len(arrays[0])):
        lines.append(",".join(fmt(a[i]) for a in arrays))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsvBytes:
    """write_csv formats whole rows at once; the bytes stay those of the
    per-value formatter."""

    COLUMNS = {
        "float": np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1 / 3, 5e-324]),
        "float32": np.array([0.1, -0.0, np.nan, 1e30, 2.5, 3.0, -1.5], dtype=np.float32),
        "int": np.array([0, -1, 7, 2**62, -(2**40), 3, 12]),
        "uint": np.arange(7, dtype=np.uint8),
        "bool": np.array([True, False, True, True, False, False, True]),
        "str": np.array(["qrt", "qrt+", "ok", "x, y", "100%", "", "nan"], dtype=object),
        "mixed": np.array([1.5, 2, "qrt+ unavailable: |Y1| = 1.3", np.float64(-0.0),
                           np.int64(4), None, np.nan], dtype=object),
        "list": [0.25, 1, 2.0, float("nan"), -3, 1e-17, 7],
    }

    def test_row_formats_match_per_value_formatter(self, tmp_path):
        meta = {"seed": 3, "label": "demo"}
        write_csv(tmp_path / "x.csv", self.COLUMNS, meta)
        assert (tmp_path / "x.csv").read_bytes() == _per_value_csv(self.COLUMNS, meta)

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_single_column(self, tmp_path, name):
        cols = {name: self.COLUMNS[name]}
        write_csv(tmp_path / "x.csv", cols)
        assert (tmp_path / "x.csv").read_bytes() == _per_value_csv(cols, {})

    def test_rows_across_writes(self, tmp_path):
        from telespin.csvio import ROWS_PER_WRITE

        n = 2 * ROWS_PER_WRITE + 3
        cols = {"t": np.linspace(0.0, 1.0, n), "k": np.arange(n),
                "mode": np.full(n, "qrt+", dtype=object)}
        write_csv(tmp_path / "x.csv", cols)
        assert (tmp_path / "x.csv").read_bytes() == _per_value_csv(cols, {})

    def test_no_rows(self, tmp_path):
        cols = {"t": np.array([]), "mode": np.array([], dtype=object)}
        write_csv(tmp_path / "x.csv", cols, {"file": "empty"})
        assert (tmp_path / "x.csv").read_bytes() == _per_value_csv(cols, {"file": "empty"})


class TestCli:
    def test_dynamics_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["dynamics", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        for name in ("single_time.csv", "qrt.csv", "qrt_plus.csv",
                     "resolved_config.json"):
            assert (out / name).exists()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["noise.seed"] == 11
        assert "t2" in resolved

    def test_rerun_byte_identical(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["dynamics", "--config", str(cfg_file), "--out", str(out1)])
        main(["dynamics", "--config", str(cfg_file), "--out", str(out2)])
        for name in ("single_time.csv", "qrt.csv", "qrt_plus.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_dump_kernels_columns_round_trip(self, cfg_file, tmp_path):
        from telespin.runner import compute_series

        dump = tmp_path / "kernels.csv"
        assert main(["dynamics", "--config", str(cfg_file), "--out",
                     str(tmp_path / "out"), "--dump-kernels", str(dump)]) == 0
        meta, cols = read_csv(dump)
        names = ("g11", "g12", "g21", "g22", "g51", "g52", "g61", "g62")
        assert list(cols) == ["t"] + [f"{part}_{name}" for name in names
                                      for part in ("re", "im")]
        assert meta["file"] == "kernels"
        table, _ = compute_series(load_config(cfg_file))
        assert np.array_equal(cols["t"], table.ts)
        for name in names:
            arr = getattr(table, name)
            assert np.array_equal(cols[f"re_{name}"], arr.real), name
            assert np.array_equal(cols[f"im_{name}"], arr.imag), name

    def test_mode_flag_limits_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "qrt_only"
        main(["dynamics", "--config", str(cfg_file), "--out", str(out),
              "--mode", "qrt"])
        assert (out / "qrt.csv").exists()
        assert not (out / "qrt_plus.csv").exists()

    def test_spectrum_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "spec"
        rc = main(["spectrum", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "peaks.json").read_text())
        assert "absorption" in report and "emission" in report
        assert (out / "absorption.csv").exists()
        assert (out / "emission.csv").exists()

    def test_degenerate_spectrum_empty_peaks(self, tmp_path):
        # V = 0 with an excited initial state leaves the absorption
        # correlator identically zero
        path = tmp_path / "deg.cfg"
        path.write_text(BASE_CFG + "system.v = 0.0\n")
        out = tmp_path / "deg"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "peaks.json").read_text())
        assert report["absorption"]["peaks"] == []

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("schema_version = 1\nbath.kappa = 2.0\n")
        assert main(["dynamics", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["dynamics", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_integrator_failure_exit_code(self, cfg_file, tmp_path, monkeypatch):
        import telespin.runner as runner

        def boom(cfg, out, dump_kernels=None):
            raise IntegratorError("forced failure")

        monkeypatch.setattr(runner, "run_dynamics", boom)
        assert main(["dynamics", "--config", str(cfg_file), "--out",
                     str(tmp_path / "x")]) == 3


class TestSweep:
    def _sweep_cfg(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [0.5, 1.0]\n"
                                   "sweep.omega_n = [0.5, 1.0]\n")
        return path

    def test_rows_and_order(self, tmp_path):
        path = self._sweep_cfg(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        meta, cols = read_csv(out / "sweep.csv")
        assert len(cols["nu"]) == 4
        assert list(cols["nu"]) == [0.5, 0.5, 1.0, 1.0]
        assert list(cols["omega_n"]) == [0.5, 1.0, 0.5, 1.0]
        assert np.all(np.asarray(cols["kubo"])
                      == np.asarray(cols["omega_n"]) / np.asarray(cols["nu"]))

    def test_worker_count_invariance(self, tmp_path):
        path = self._sweep_cfg(tmp_path)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["sweep", "--config", str(path), "--out", str(out1),
              "--workers", "1"])
        main(["sweep", "--config", str(path), "--out", str(out2),
              "--workers", "2"])
        body1 = (out1 / "sweep.csv").read_bytes()
        body2 = (out2 / "sweep.csv").read_bytes()
        # the worker count is echoed in the header; the data must be identical
        strip = lambda b: b"\n".join(
            l for l in b.splitlines() if not l.startswith(b"# run.workers")
        )
        assert strip(body1) == strip(body2)

    def test_hot_sweep_independent_of_workers_and_blas_threads(self, tmp_path):
        # at the hot size (~15 000 fitted samples per cell) OpenBLAS
        # threads the fits' dot products, and a threaded dot sums in
        # another order; cells run single-threaded, so neither the pool
        # nor the caller's OPENBLAS_NUM_THREADS moves a digit
        import telespin

        hot = BASE_CFG.replace("grid.horizon = 6.0\ngrid.t2 = 2.0\n",
                               'grid.horizon = 40.0\ngrid.t2 = "auto"\n')
        assert "grid.horizon = 40.0" in hot
        path = tmp_path / "hot.cfg"
        path.write_text(hot + "sweep.nu = [0.1]\nsweep.omega_n = [0.75, 2.0]\n")
        pooled, serial = tmp_path / "w2", tmp_path / "w1"
        assert main(["sweep", "--config", str(path), "--out", str(pooled),
                     "--workers", "2"]) == 0
        src = Path(telespin.__file__).parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, "-m", "telespin.cli", "sweep", "--config",
             str(path), "--out", str(serial), "--workers", "1"],
            env=env, check=True, capture_output=True,
        )
        strip = lambda b: [l for l in b.splitlines() if not l.startswith(b"# run.workers")]
        assert strip((pooled / "sweep.csv").read_bytes()) == strip(
            (serial / "sweep.csv").read_bytes())

    def test_cells_run_on_one_blas_thread_and_restore(self, tmp_path, monkeypatch):
        import telespin.runner as runner

        maps = Path("/proc/self/maps")
        if not maps.exists() or "openblas" not in maps.read_text():
            pytest.skip("no OpenBLAS library loaded")
        controls = runner._openblas_thread_controls()
        assert controls
        counts = lambda: [get() for get, _ in controls]
        seen = []
        original = runner.sweep_cell

        def recording(cfg):
            seen.append(counts())
            return original(cfg)

        monkeypatch.setattr(runner, "sweep_cell", recording)
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [1.0]\nsweep.omega_n = [0.5, 1.0]\n")
        saved = counts()
        try:
            for _, put in controls:
                put(2)
            assert main(["sweep", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--workers", "1"]) == 0
            after = counts()
        finally:
            for (_, put), n in zip(controls, saved):
                put(n)
        assert seen == [[1] * len(controls)] * 2
        assert after == [2] * len(controls)

    def test_single_cell_matches_dynamics_pipeline(self, tmp_path):
        # 1x1 sweep equals the dynamics+analysis pipeline on the same config
        from telespin.analysis import fit_exponential
        from telespin.config import load_config
        from telespin.runner import compute_series, sweep_cell

        path = tmp_path / "one.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [1.0]\nsweep.omega_n = [0.75]\n")
        cfg = load_config(path)
        cell_cfg = type(cfg)(bath=cfg.bath, noise=cfg.noise, system=cfg.system,
                             grid=cfg.grid, run=cfg.run, sweep=None)
        cell = sweep_cell(cell_cfg)
        _, series = compute_series(cell_cfg, mode="qrt")
        fit = fit_exponential(series.t1, series.qrt[:, 0].real)
        assert cell["k"] == pytest.approx(fit.k, rel=1e-12)


class TestOneBackgroundSolve:
    """A run solves the single-time background once and passes it on."""

    @pytest.fixture
    def solves(self, monkeypatch):
        import telespin.dynamics as dynamics
        import telespin.runner as runner

        calls = []
        original = dynamics.evolve_single_time

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (dynamics, runner):
            monkeypatch.setattr(module, "evolve_single_time", counting)
        return calls

    @pytest.mark.parametrize("mode", ["qrt", "qrt+", "both"])
    def test_compute_series(self, cfg_file, solves, mode):
        from telespin.runner import compute_series

        compute_series(load_config(cfg_file), mode=mode)
        assert len(solves) == 1

    def test_sweep_cell(self, cfg_file, solves):
        from telespin.runner import sweep_cell

        cell = sweep_cell(load_config(cfg_file))
        assert cell["status"] == "ok"
        assert len(solves) == 1


class TestValidateCommand:
    def test_small_validation_run(self, tmp_path):
        path = tmp_path / "v.cfg"
        path.write_text(BASE_CFG)
        out = tmp_path / "val"
        rc = main(["validate", "--config", str(path), "--out", str(out),
                   "--paths", "200"])
        assert rc == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["n_paths"] == 200
        assert set(report) >= {"max_std_dev_zz", "max_std_dev_pm",
                               "max_std_dev_mp", "passed", "threshold"}
        assert (out / "validate_zz.csv").exists()


class TestPathCount:
    """The Monte Carlo path count fails at config time, naming the field."""

    @pytest.mark.parametrize("paths", ["0", "50"])
    def test_paths_flag_below_floor(self, cfg_file, tmp_path, capsys, paths):
        rc = main(["validate", "--config", str(cfg_file), "--out",
                   str(tmp_path / "val"), "--paths", paths])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--paths" in err and "Traceback" not in err
        assert not (tmp_path / "val").exists()

    def test_config_field_below_floor(self, tmp_path, capsys):
        path = tmp_path / "p.cfg"
        path.write_text(BASE_CFG + "run.n_paths = 50\n")
        with pytest.raises(ConfigError, match="run.n_paths"):
            load_config(path)
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "val")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "run.n_paths" in err and "Traceback" not in err


class TestConfigErrors:
    """A bad value fails at config time: exit 2, naming section.field."""

    @pytest.mark.parametrize("line, field", [
        ('run.pad_factor = "x"', "run.pad_factor"),
        ('grid.horizon = "abc"', "grid.horizon"),
        ("bath.kappa = [1]", "bath.kappa"),
        ('noise.seed = "s"', "noise.seed"),
        ("noise.seed = 1.5", "noise.seed"),
        ("sweep.nu = 5", "sweep.nu"),
        ("grid.dt = -1", "grid.dt"),
        ("grid.dt = 0", "grid.dt"),
        ("grid.t2 = -1", "grid.t2"),
        # past the third-last node of the horizon-6 grid: no two-time step left
        ("grid.t2 = 10.0", "grid.t2"),
        ("run.pad_factor = 0", "run.pad_factor"),
        ("run.prominence = -1", "run.prominence"),
        ("run.prominence = 1.5", "run.prominence"),
        ("system.v = NaN", "system.v"),
    ])
    def test_exit_2_naming_field(self, tmp_path, capsys, line, field):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CFG + line + "\n")
        rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()


def _bad_values():
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            bad = ["x", {"a": 1}, None]
            if f.type != "tuple":
                bad.append([1, 2])
            for value in bad:
                yield pytest.param(f"{section}.{f.name}", value,
                                   id=f"{section}.{f.name}={json.dumps(value)}")


SWEEP = "sweep.nu = [0.5, 1.0]\nsweep.omega_n = [0.75]\n"


class TestSchema:
    """The section dataclasses are the one schema the file format follows."""

    @pytest.mark.parametrize("key, value", list(_bad_values()))
    def test_every_field_ill_typed(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CFG + SWEEP + f"{key} = {json.dumps(value)}\n")
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(path)

    def test_round_trip_every_field(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text("""\
schema_version = 1
bath.kappa = 1.5
bath.omega0 = 1.2
bath.gamma = 0.4
bath.beta = 0.5
noise.omega_n = 0.6
noise.nu = 0.8
noise.seed = 7
system.epsilon0 = 0.5
system.v = 0.9
system.initial_sz = -0.5
grid.horizon = 5
grid.dt = 0.001
grid.t2 = 1.5
run.mode = qrt
run.window = none
run.power_mode = abs2
run.s1_denominator = nu
run.prominence = 0.1
run.pad_factor = 2
run.workers = 3
run.n_paths = 200
sweep.nu = [0.5, 1]
sweep.omega_n = [0.25]
""")
        cfg = load_config(path)
        for section, cls in SECTIONS.items():
            for f in fields(cls):
                if f.default is not MISSING:
                    assert getattr(getattr(cfg, section), f.name) != f.default, f.name
        resolved = cfg.resolved_dict()
        back = tmp_path / "back.cfg"
        back.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in resolved.items()))
        assert load_config(back) == cfg
        assert load_config(back).resolved_dict() == resolved

    def test_resolved_key_order(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + SWEEP)
        assert list(load_config(path).resolved_dict(t2=1.0)) == [
            "schema_version",
            "bath.kappa", "bath.omega0", "bath.gamma", "bath.beta",
            "noise.omega_n", "noise.nu", "noise.seed",
            "system.epsilon0", "system.v", "system.initial_sz",
            "grid.horizon", "grid.dt", "grid.t2",
            "run.mode", "run.window", "run.power_mode", "run.s1_denominator",
            "run.prominence", "run.pad_factor", "run.workers", "run.n_paths",
            "sweep.nu", "sweep.omega_n",
            "t2",
        ]

    def test_int_values_cast_to_float_fields(self, tmp_path):
        path = tmp_path / "i.cfg"
        path.write_text(BASE_CFG + "bath.kappa = 2\nrun.pad_factor = 4.0\n"
                        "sweep.nu = [1]\nsweep.omega_n = [2]\n")
        cfg = load_config(path)
        assert type(cfg.bath.kappa) is float and type(cfg.run.pad_factor) is int
        assert cfg.sweep.nu == (1.0,) and type(cfg.sweep.nu[0]) is float

    def test_sweep_requires_both_axes(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [1.0]\n")
        with pytest.raises(ConfigError, match=r"sweep\.omega_n: required"):
            load_config(path)


@pytest.mark.parametrize("script", ["correlation_panels", "narrowing_scan",
                                    "rate_surfaces"])
def test_script_help(script):
    import telespin

    root = Path(telespin.__file__).parents[2]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / f"{script}.py"), "--help"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def _scipy_modules_after(code: str) -> set:
    """scipy modules loaded once ``code`` has run in a fresh interpreter."""
    import telespin

    src = Path(telespin.__file__).parents[1]
    probe = code + ("\nimport sys\n"
                    "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return set(proc.stdout.splitlines()[-1].split())


class TestImportFootprint:
    """Set-up loads numpy and scipy.special only; every other scipy
    subpackage is imported by the function that calls it."""

    def test_setup(self, cfg_file):
        loaded = _scipy_modules_after(
            "import telespin.cli\n"
            "from telespin.config import load_config\n"
            f"load_config({str(cfg_file)!r}).resolve_ts()")
        assert "scipy.special" in loaded
        assert not loaded & {"scipy.integrate", "scipy.optimize", "scipy.signal",
                             "scipy.stats"}

    @pytest.mark.parametrize("extra", [["dynamics"], ["validate", "--paths", "100"]])
    def test_commands_without_peaks_or_envelopes(self, cfg_file, tmp_path, extra):
        argv = [extra[0], "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                *extra[1:]]
        loaded = _scipy_modules_after(
            f"from telespin.cli import main\nassert main({argv!r}) == 0")
        assert "scipy.integrate" in loaded
        assert not loaded & {"scipy.signal", "scipy.stats"}
