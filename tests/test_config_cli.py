import argparse
import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from telespin.bath import BathSpec, xi_coefficient
from telespin.cli import build_parser, main
from telespin.config import (SECTIONS, ConfigError, ExperimentConfig, GridConfig,
                             config_from_tree, load_config, parse_flat)
from telespin.csvio import read_csv, write_csv
from telespin.dynamics import IntegratorError, SystemSpec
from telespin.kernels import build_single_time, resolution_bound
from telespin.noise import NoiseSpec

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

#: removed keys a config may not set, each with a plausible value: the
#: spectrum estimator has no run settings (README, Conventions), the grid
#: step is always the resolution bound, and S1 has one form
REMOVED_KEYS = {"run.window": "hann", "run.power_mode": "re",
                "run.prominence": 0.05, "run.pad_factor": 4, "grid.dt": "auto",
                "run.s1_denominator": "nu"}


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
        for key, value in REMOVED_KEYS.items():
            with pytest.raises(ConfigError, match=re.escape(key)):
                parse_flat(f"schema_version = 1\n{key} = {json.dumps(value)}\n")

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

    def test_overrides_leave_the_parsed_tree_alone(self, cfg_file):
        tree = parse_flat(cfg_file.read_text())
        assert config_from_tree(tree, {"noise.seed": 99, "sweep.nu": [1.0],
                                       "sweep.omega_n": [0.5]}).noise.seed == 99
        cfg = config_from_tree(tree)
        assert cfg.noise.seed == 11
        assert cfg.sweep is None

    @pytest.mark.parametrize("key, value", [
        ("run.windw", "hann"),            # unknown field
        ("nosection", 3),                 # not a section.field path
        ("bath.kappa.x", 1.0),            # unknown field under a known section
        ("grid2.horizon", 1.0),           # unknown section
        ("run.s1_denominator", "nu"),     # recorded, not settable
    ])
    def test_override_keys_checked_as_file_keys(self, cfg_file, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(cfg_file, overrides={key: value})
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_flat(f"schema_version = 1\n{key} = {json.dumps(value)}\n")

    def test_sweep_lists(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [0.5, 1.0]\nsweep.omega_n = [0.75]\n")
        cfg = load_config(path)
        assert cfg.sweep.nu == (0.5, 1.0)

    def test_resolved_grid_even(self, cfg_file):
        ts = load_config(cfg_file).resolve_ts()
        assert (len(ts) - 1) % 2 == 0
        assert ts[0] == 0.0


class TestDerivedGrid:
    """The grid step is always derived: resolve_ts spans [0, horizon] in an
    even number of uniform steps within the resolution bound, and the kernel
    tabulation accepts it."""

    @settings(max_examples=50, deadline=None)
    @given(
        kappa=st.floats(0.0, 2.5),
        omega0=st.floats(0.5, 2.0),
        gamma_frac=st.floats(0.05, 0.95),
        beta=st.floats(0.05, 50.0),
        omega_n=st.floats(0.0, 3.0),
        nu=st.floats(0.01, 10.0),
        epsilon0=st.floats(-3.0, 3.0),
        horizon=st.floats(0.01, 20.0),
    )
    def test_resolve_ts(self, kappa, omega0, gamma_frac, beta, omega_n, nu,
                        epsilon0, horizon):
        # sqrt(xi) <= 16 and every rate <= 16 here, so at most 16 000 steps
        cfg = ExperimentConfig(
            bath=BathSpec(kappa, omega0, gamma_frac * omega0, beta),
            noise=NoiseSpec(omega_n, nu),
            system=SystemSpec(epsilon0),
            grid=GridConfig(horizon),
        )
        ts = cfg.resolve_ts()
        steps = np.diff(ts)
        bound = resolution_bound(xi_coefficient(cfg.bath), epsilon0, omega_n, nu)
        assert len(ts) < 20_000
        assert ts[0] == 0.0 and ts[-1] == horizon
        assert np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
        assert (len(ts) - 1) % 2 == 0
        assert steps[0] <= bound * (1.0 + 1e-9)
        build_single_time(ts, cfg.bath, cfg.system, cfg.noise)


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

    def test_text_with_commas_quotes_and_line_breaks_round_trips(self, tmp_path):
        import csv

        path = tmp_path / "x.csv"
        status = ["ok", "failed: ValueError: shapes (3,) (4,) mismatch",
                  'said "no"', "two\nlines", ""]
        cols = {"k": np.array([0.5, np.nan, 1.0, -2.0, 3.0]),
                "status": np.array(status, dtype=object)}
        write_csv(path, cols, {"label": "a, b"})
        meta, back = read_csv(path)
        assert meta["label"] == "a, b"
        assert list(back["status"]) == status
        assert np.array_equal(back["k"], cols["k"], equal_nan=True)
        with path.open(newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[0] == ["k", "status"]
        assert [r[1] for r in rows[1:]] == status
        # numbers and plain text are written as before, unquoted
        assert path.read_text().splitlines()[2] == "0.5,ok"

    @pytest.mark.parametrize("columns", ["status", "k,status"])
    def test_empty_text_round_trips(self, tmp_path, columns):
        # a one-column row of empty text is written "", not as an empty line
        path = tmp_path / "x.csv"
        status = ["ok", "", "x"]
        cols = {"status": np.array(status, dtype=object)}
        if columns == "k,status":
            cols = {"k": np.array([0.5, 1.0, 2.0]), **cols}
        write_csv(path, cols)
        _, back = read_csv(path)
        assert list(back) == columns.split(",")
        assert list(back["status"]) == status


def _per_value_csv(columns, metadata):
    """The per-value CSV formatter that write_csv's row formats replace;
    text holding a comma, a quote or a line break is quoted as the csv
    module's QUOTE_MINIMAL quotes it, and empty text is written ""."""

    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return "%.17g" % value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        text = str(value)
        if not text or set(text) & set(',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

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

    @pytest.mark.parametrize("command", ["spectrum", "sweep", "validate"])
    def test_dump_kernels_only_on_dynamics(self, cfg_file, tmp_path, command, capsys):
        dump = tmp_path / "kernels.csv"
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                  "--dump-kernels", str(dump)])
        assert exit_.value.code == 2
        assert "--dump-kernels" in capsys.readouterr().err
        assert not dump.exists() and not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(BASE_CFG.encode() + b"# caf\xe9\n")
        rc = main(["dynamics", "--config", str(path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_spectrum_window_too_short_exit_code(self, tmp_path, capsys):
        # the cold-survey regime at horizon 0.1: the auto anchor leaves one
        # coarse step, enough for dynamics but not for a spectrum
        path = tmp_path / "short.cfg"
        path.write_text(BASE_CFG.replace("bath.beta = 0.02", "bath.beta = 50.0")
                        .replace("noise.nu = 1.0", "noise.nu = 0.05")
                        .replace("system.epsilon0 = 1.0", "system.epsilon0 = 0.0")
                        .replace("grid.horizon = 6.0\ngrid.t2 = 2.0",
                                 'grid.horizon = 0.1\ngrid.t2 = "auto"'))
        rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "grid.t2" in err and "grid.horizon" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()
        assert main(["dynamics", "--config", str(path), "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("window, workers", [
        ('grid.horizon = 0.1\ngrid.t2 = "auto"', 1),  # 3 samples: no fit at all
        ("grid.horizon = 1.0\ngrid.t2 = 0.5", 1),      # 33: exponential fit only
        ("grid.horizon = 1.0\ngrid.t2 = 0.5", 2),
    ], ids=["3-samples", "33-samples", "33-samples-pool"])
    def test_sweep_window_too_short_exit_code(self, tmp_path, capsys, window, workers):
        # the cold-survey regime: a window too short for a sweep cell's rate
        # fits stops the sweep before any output, on the serial and pool path
        path = tmp_path / "short.cfg"
        path.write_text(BASE_CFG.replace("bath.beta = 0.02", "bath.beta = 50.0")
                        .replace("noise.nu = 1.0", "noise.nu = 0.05")
                        .replace("system.epsilon0 = 1.0", "system.epsilon0 = 0.0")
                        .replace("grid.horizon = 6.0\ngrid.t2 = 2.0", window)
                        + "sweep.nu = [0.05]\nsweep.omega_n = [0.75]\n")
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x"),
                   "--workers", str(workers)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "grid.t2" in err and "grid.horizon" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["dynamics", "sweep"])
    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_unusable_out_exit_code(self, tmp_path, capsys, monkeypatch, command, where):
        # an --out that is a file, or lies under one, stops before any work
        import telespin.runner as runner

        path = tmp_path / "run.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [1.0]\nsweep.omega_n = [0.75]\n")
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker if where == "file" else blocker / "sub" / "out"
        started = []

        def compute_series(*args, **kwargs):
            started.append(args)
            raise AssertionError("work started")

        monkeypatch.setattr(runner, "compute_series", compute_series)
        rc = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--out" in err and str(out) in err and "Traceback" not in err
        assert started == []
        assert blocker.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]

    @pytest.mark.parametrize("where", ["parent-file", "under-file", "directory"])
    def test_unusable_dump_kernels_exit_code(self, cfg_file, tmp_path, capsys,
                                             monkeypatch, where):
        # a dump path under a file, or one that is a directory, stops before
        # any work, --out included
        import telespin.runner as runner

        blocker = tmp_path / "taken"
        if where == "directory":
            blocker.mkdir()
            dump = blocker
        else:
            blocker.write_text("keep\n")
            dump = blocker / ("k.csv" if where == "parent-file" else "sub/k.csv")
        started = []

        def compute_series(*args, **kwargs):
            started.append(args)
            raise AssertionError("work started")

        monkeypatch.setattr(runner, "compute_series", compute_series)
        out = tmp_path / "out"
        rc = main(["dynamics", "--config", str(cfg_file), "--out", str(out),
                   "--dump-kernels", str(dump)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--dump-kernels" in err and str(dump) in err and "Traceback" not in err
        assert started == []
        assert not out.exists()
        if where == "directory":
            assert list(blocker.iterdir()) == []
        else:
            assert blocker.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]

    def test_dump_kernels_makes_missing_parents(self, cfg_file, tmp_path):
        dump = tmp_path / "new" / "sub" / "k.csv"
        assert main(["dynamics", "--config", str(cfg_file), "--out",
                     str(tmp_path / "out"), "--dump-kernels", str(dump)]) == 0
        meta, cols = read_csv(dump)
        assert meta["file"] == "kernels" and "re_g11" in cols

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

    def test_truncation_warnings_name_their_cells(self, tmp_path):
        # at horizon 2.5 neither cell's corrected series decays below 5%
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG.replace("grid.horizon = 6.0\ngrid.t2 = 2.0",
                                         "grid.horizon = 2.5\ngrid.t2 = 1.0")
                        + "sweep.nu = [0.5, 1.0]\nsweep.omega_n = [0.75]\n")
        with pytest.warns(UserWarning) as record:
            assert main(["sweep", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--workers", "1"]) == 0
        named = [re.search(r"\(sweep cell (.*)\)$", str(w.message)).group(1)
                 for w in record if "correlator magnitude" in str(w.message)]
        assert named == ["nu = 0.5, omega_n = 0.75", "nu = 1.0, omega_n = 0.75"]

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

    def _blas_counts_per_cell(self, tmp_path, monkeypatch, workers):
        """(each cell's OpenBLAS thread counts, the number of OpenBLAS
        libraries) of a sweep the caller starts at two threads, checking
        that the caller's two threads are back after it."""
        import telespin.runner as runner

        maps = Path("/proc/self/maps")
        if not maps.exists() or "openblas" not in maps.read_text():
            pytest.skip("no OpenBLAS library loaded")
        controls = runner._openblas_thread_controls()
        assert controls
        counts = lambda: [get() for get, _ in controls]
        original = runner.sweep_cell

        def recording(cfg):  # the row carries the counts back from a worker
            return {**original(cfg), "blas_threads": counts()}

        monkeypatch.setattr(runner, "sweep_cell", recording)
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [1.0]\nsweep.omega_n = [0.5, 1.0]\n")
        cfg = load_config(path, overrides={"run.workers": workers})
        saved = counts()
        try:
            for _, put in controls:
                put(2)
            rows = runner.run_sweep(cfg, tmp_path / "out")["rows"]
            after = counts()
        finally:
            for (_, put), n in zip(controls, saved):
                put(n)
        assert after == [2] * len(controls)
        return [row["blas_threads"] for row in rows], len(controls)

    def test_cells_run_on_one_blas_thread_and_restore(self, tmp_path, monkeypatch):
        seen, n = self._blas_counts_per_cell(tmp_path, monkeypatch, workers=1)
        assert seen == [[1] * n] * 2

    def test_pool_cells_run_on_one_blas_thread_and_restore(self, tmp_path, monkeypatch):
        # the forked workers inherit the pin set once around the whole sweep
        seen, n = self._blas_counts_per_cell(tmp_path, monkeypatch, workers=2)
        assert seen == [[1] * n] * 2

    def test_first_cell_pins_scipy_blas(self):
        # in a fresh process scipy's OpenBLAS is not loaded before the
        # sweep's first fit; the sweep's pin must have loaded and pinned it
        import telespin

        probe = (
            "from telespin.runner import _openblas_thread_controls, _single_blas_thread\n"
            "with _single_blas_thread():\n"
            "    import scipy.optimize\n"
            "    print([get() for get, _ in _openblas_thread_controls()])\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=str(Path(telespin.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True)
        counts = json.loads(proc.stdout.splitlines()[-1])
        if not counts:
            pytest.skip("no OpenBLAS library loaded")
        assert counts == [1] * len(counts)

    @pytest.mark.parametrize("workers", ["1", "2"], ids=["serial", "pool"])
    def test_failed_exponential_fit_stays_in_its_columns(self, tmp_path, monkeypatch,
                                                          workers):
        # as a failed damped fit does: NaN in its own columns, the row goes on
        import telespin.analysis

        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [1.0]\nsweep.omega_n = [0.5, 1.0]\n")
        argv = ["sweep", "--config", str(path), "--workers", workers, "--out"]
        assert main(argv + [str(tmp_path / "good")]) == 0

        def no_fit(*args, **kwargs):
            raise RuntimeError("exponential fit failed to converge")

        monkeypatch.setattr(telespin.analysis, "fit_exponential", no_fit)
        assert main(argv + [str(tmp_path / "bad")]) == 0
        _, good = read_csv(tmp_path / "good" / "sweep.csv")
        _, bad = read_csv(tmp_path / "bad" / "sweep.csv")
        assert list(bad["status"]) == list(good["status"]) == ["ok", "ok"]
        for name in ("k", "k_p", "k_rms"):
            assert np.isnan(bad[name]).all(), name
        assert list(bad["k_converged"]) == [0, 0]
        for name in ("t2", "lam", "lam_w1", "lam_w2", "lam_rms", "lam_converged",
                     "delta_zz", "delta_pm", "delta_mp", "peaks_absorption"):
            assert np.array_equal(bad[name], good[name], equal_nan=True), name

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


class TestDigammaOncePerBath:
    """xi is cached per bath, so a run evaluates the digamma once however
    many cells, grids and kernel tables it resolves."""

    @pytest.mark.parametrize("command, extra", [
        pytest.param("dynamics", "", id="dynamics"),
        pytest.param("sweep", "sweep.nu = [1.0]\nsweep.omega_n = [0.5, 1.0]\n",
                     id="sweep"),
    ])
    def test_one_digamma_per_run(self, tmp_path, monkeypatch, command, extra):
        import telespin.bath as bath

        calls = []
        original = bath._digamma

        def counting(z):
            calls.append(z)
            return original(z)

        monkeypatch.setattr(bath, "_digamma", counting)
        bath.xi_coefficient.cache_clear()
        path = tmp_path / "run.cfg"
        path.write_text(BASE_CFG + extra)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--workers", "1"]
        assert main(argv) == 0
        assert len(calls) == 1


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
        # the record shows the path count that ran, once
        resolved = json.loads((out / "resolved_config.json").read_text())
        meta, _ = read_csv(out / "validate_zz.csv")
        for record in (resolved, meta):
            assert record["run.n_paths"] == 200 and "n_paths" not in record


class TestPathCount:
    """The Monte Carlo path count fails at config time, naming the field."""

    @pytest.mark.parametrize("paths", ["0", "50"])
    def test_paths_flag_below_floor(self, cfg_file, tmp_path, capsys, paths):
        rc = main(["validate", "--config", str(cfg_file), "--out",
                   str(tmp_path / "val"), "--paths", paths])
        err = capsys.readouterr().err
        assert rc == 2
        assert "run.n_paths" in err and "Traceback" not in err
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
        ("grid.t2 = -1", "grid.t2"),
        # past the third-last node of the horizon-6 grid: no two-time step left
        ("grid.t2 = 10.0", "grid.t2"),
        # removed keys fail as unknown fields, whatever their value
        ("grid.dt = -1", "grid.dt"),
        ("grid.dt = 0", "grid.dt"),
        ("run.pad_factor = 0", "run.pad_factor"),
        ("run.prominence = -1", "run.prominence"),
        ("run.prominence = 1.5", "run.prominence"),
        # recorded in every resolved config, but not settable
        ("run.s1_denominator = eta", "run.s1_denominator"),
        ("run.s1_denominator = nu", "run.s1_denominator"),
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

    @pytest.mark.parametrize("command", ["dynamics", "spectrum", "validate"])
    def test_anchor_past_the_horizon(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CFG.replace("grid.t2 = 2.0", "grid.t2 = 10.0"))
        last = load_config(path).resolve_ts()[-3]
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: grid.t2 = 10.0 lies past t = {last:.6g}, "
            f"the last anchor that leaves a two-time step before the horizon\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("lines, field", [
        ("sweep.nu = [0.0, 1.0]\nsweep.omega_n = [0.75]", "sweep.nu"),
        ("sweep.nu = [1.0]\nsweep.omega_n = [-1.0]", "sweep.omega_n"),
        ("", "sweep: the config has no sweep section"),
    ], ids=["nu", "omega_n", "no-section"])
    def test_sweep_fails_before_any_cell(self, tmp_path, capsys, lines, field):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CFG + lines + "\n")
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()


#: override flag -> (a value other than the default, the field it sets,
#: the value recorded there)
FLAG_VALUES = {
    "--mode": ("qrt", "run.mode", "qrt"),
    "--workers": ("2", "run.workers", 2),
    "--seed": ("5", "noise.seed", 5),
    "--paths": ("200", "run.n_paths", 200),
}

#: the override flags of each command: those of the fields its runner reads
#: (--dump-kernels, dynamics only, is checked in TestCli)
REGISTERED = {
    "dynamics": {"--mode"},
    "spectrum": {"--mode"},
    "sweep": {"--workers"},
    "validate": {"--seed", "--paths"},
}

#: flags no command registers, each with a plausible value
REMOVED_FLAGS = {"--power-mode": "abs2", "--s1-denominator": "nu"}


class TestFlagMatrix:
    """Each flag sets one section.field on the commands that read it, and
    every other command rejects it before doing anything; a removed flag is
    rejected by every command."""

    @pytest.mark.parametrize("command", sorted(REGISTERED))
    def test_flags_land_as_their_fields(self, tmp_path, command):
        path = tmp_path / "run.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [1.0]\nsweep.omega_n = [0.75]\n")
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        for flag in sorted(REGISTERED[command]):
            argv += [flag, FLAG_VALUES[flag][0]]
        assert main(argv) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        for flag in REGISTERED[command]:
            _, key, value = FLAG_VALUES[flag]
            assert resolved[key] == value, flag

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in sorted(REGISTERED)
        for flag in sorted({*FLAG_VALUES, *REMOVED_FLAGS})
        if flag not in REGISTERED[command]])
    def test_other_flags_rejected(self, cfg_file, tmp_path, capsys, command, flag):
        value = REMOVED_FLAGS.get(flag) or FLAG_VALUES[flag][0]
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                  flag, value])
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_readme_command_line_matches_parser():
    """README's "Command line" block lists each command's flags, with their
    choices, exactly as build_parser registers them."""
    import telespin

    readme = (Path(telespin.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    documented: dict = {}
    for line in block.strip().splitlines():
        if line.startswith("telespin "):
            command = line.split()[1]
        documented[command] = documented.get(command, "") + " " + line
    documented = {command: dict(re.findall(r"(--[a-z0-9-]+) ([^\s\]]+)", text))
                  for command, text in documented.items()}
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    registered = {
        command: {opt: action.choices for action in sub._actions
                  for opt in action.option_strings if opt != "--help" and opt[1] == "-"}
        for command, sub in subs.choices.items()
    }
    assert {c: set(flags) for c, flags in documented.items()} == {
        c: set(flags) for c, flags in registered.items()}
    for command, flags in registered.items():
        for flag, choices in flags.items():
            if choices:
                assert documented[command][flag] == "|".join(choices), (command, flag)


def test_readme_library_sketch_matches_api():
    """Every ts.<name>(...) call in README's library sketch binds to the
    signature of telespin.<name>, so the sketch cannot drift from the API."""
    import inspect

    import telespin

    readme = (Path(telespin.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library sketch", 1)[1].split("```python", 1)[1]
    calls = [node for node in ast.walk(ast.parse(block.split("```", 1)[0]))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "ts"]
    assert len(calls) > 10
    for call in calls:
        signature = inspect.signature(getattr(telespin, call.func.attr))
        try:
            signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            pytest.fail(f"README sketch line {call.lineno}, ts.{call.func.attr}: {exc}")


def test_readme_config_loads_with_defaults(tmp_path):
    """README's config block loads, shows every schema field, and every
    optional value it shows but noise.seed is its dataclass default, as the
    text under it says."""
    import telespin

    readme = (Path(telespin.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in readme.split("```") if b.strip().startswith("schema_version"))
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = load_config(path)
    shown = parse_flat(block)
    assert {f"{section}.{name}" for section, keys in shown.items()
            if section != "schema_version" for name in keys} == {
        f"{section}.{f.name}" for section, cls in SECTIONS.items() for f in fields(cls)
        if f.init}
    for section, cls in SECTIONS.items():
        for f in (f for f in fields(cls) if f.default is not MISSING):
            if f.name in shown.get(section, {}) and f"{section}.{f.name}" != "noise.seed":
                assert getattr(getattr(cfg, section), f.name) == f.default, f.name


def _bad_values():
    # a removed key fails whatever its value
    types = {f"{section}.{f.name}": f.type
             for section, cls in SECTIONS.items() for f in fields(cls)}
    for key, type_ in {**types, **dict.fromkeys(REMOVED_KEYS, None)}.items():
        bad = ["x", {"a": 1}, None]
        if type_ != "tuple":
            bad.append([1, 2])
        for value in bad:
            yield pytest.param(key, value, id=f"{key}={json.dumps(value)}")


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
grid.t2 = 1.5
run.mode = qrt
run.workers = 3
run.n_paths = 200
sweep.nu = [0.5, 1]
sweep.omega_n = [0.25]
""")
        cfg = load_config(path)
        for section, cls in SECTIONS.items():
            for f in fields(cls):
                if f.default is not MISSING and f.init:
                    assert getattr(getattr(cfg, section), f.name) != f.default, f.name
        resolved = cfg.resolved_dict()
        # the one field a resolved config records but a config may not set
        assert cfg.run.s1_denominator == resolved["run.s1_denominator"] == "eta"
        back = tmp_path / "back.cfg"
        back.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in resolved.items()
                                if k != "run.s1_denominator"))
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
            "grid.horizon", "grid.t2",
            "run.mode", "run.s1_denominator", "run.workers", "run.n_paths",
            "sweep.nu", "sweep.omega_n",
            "t2",
        ]

    def test_int_values_cast_to_float_fields(self, tmp_path):
        path = tmp_path / "i.cfg"
        path.write_text(BASE_CFG + "bath.kappa = 2\nrun.workers = 4.0\n"
                        "sweep.nu = [1]\nsweep.omega_n = [2]\n")
        cfg = load_config(path)
        assert type(cfg.bath.kappa) is float and type(cfg.run.workers) is int
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
                    "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return set(proc.stdout.splitlines()[-1].split())


def _module_level_imports(tree):
    """Names imported by the statements that run when the module is imported
    (everything outside function bodies)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        stack.extend(ast.iter_child_nodes(node))


class TestImportFootprint:
    """Set-up, dynamics, spectrum and validate load no scipy at all; sweep
    imports scipy.optimize, never scipy.signal, in one place: where it pins
    the BLAS threads of its cells, once per sweep, so on the pool path the
    parent has loaded it before it forks the workers."""

    def test_setup(self, cfg_file):
        loaded = _scipy_modules_after(
            "import telespin.cli\n"
            "from telespin.config import load_config\n"
            f"load_config({str(cfg_file)!r}).resolve_ts()")
        assert not loaded

    @pytest.mark.parametrize("extra", [["dynamics"], ["validate", "--paths", "100"]])
    def test_commands_without_peaks_or_envelopes(self, cfg_file, tmp_path, extra):
        argv = [extra[0], "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                *extra[1:]]
        loaded = _scipy_modules_after(
            f"from telespin.cli import main\nassert main({argv!r}) == 0")
        assert not loaded

    def test_setup_dynamics_validate_in_one_process(self, cfg_file, tmp_path):
        common = ["--config", str(cfg_file), "--out", str(tmp_path / "out")]
        loaded = _scipy_modules_after(
            "import telespin.cli\n"
            "from telespin.config import load_config\n"
            f"load_config({str(cfg_file)!r}).resolve_ts()\n"
            f"assert telespin.cli.main({['dynamics', *common]!r}) == 0\n"
            f"assert telespin.cli.main({['validate', *common, '--paths', '100']!r}) == 0")
        assert not loaded

    def test_spectrum(self, cfg_file, tmp_path):
        argv = ["spectrum", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
        loaded = _scipy_modules_after(
            f"from telespin.cli import main\nassert main({argv!r}) == 0")
        assert not loaded

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_loads_no_signal(self, tmp_path, workers):
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [1.0]\nsweep.omega_n = [0.75]\n")
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
                "--workers", workers]
        loaded = _scipy_modules_after(
            f"from telespin.cli import main\nassert main({argv!r}) == 0")
        assert "scipy.optimize" in loaded
        assert not {m for m in loaded if m.split(".")[:2] == ["scipy", "signal"]}

    def test_pool_parent_loads_optimize_before_forking(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(BASE_CFG + "sweep.nu = [1.0]\nsweep.omega_n = [0.75, 1.0]\n")
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
                "--workers", "2"]
        loaded = _scipy_modules_after(
            "import sys\n"
            "from telespin import runner\n"
            "from telespin.cli import main\n"
            "pool, seen = runner.ProcessPoolExecutor, []\n"
            "def probe(*args, **kwargs):\n"
            "    seen.append('scipy.optimize' in sys.modules)\n"
            "    return pool(*args, **kwargs)\n"
            "runner.ProcessPoolExecutor = probe\n"
            f"assert main({argv!r}) == 0\n"
            "assert seen == [True], seen")
        assert "scipy.optimize" in loaded

    def test_no_module_level_scipy_import(self):
        import telespin

        for path in sorted(Path(telespin.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            scipy = [name for name in _module_level_imports(tree)
                     if name == "scipy" or name.startswith("scipy.")]
            assert not scipy, f"{path.name} imports {scipy} at module level"

    def test_no_scipy_signal_import_anywhere(self):
        import telespin

        for path in sorted(Path(telespin.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names]
            names += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names]
            signal = [name for name in names if name.startswith("scipy.signal")]
            assert not signal, f"{path.name} imports {signal}"
