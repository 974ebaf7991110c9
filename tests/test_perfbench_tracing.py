"""The benchmark's tracer wraps package bindings by name, and its run
script reads package names and output keys; a refactor that drops or
renames one must fail here, not only in a benchmark run."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import telespin.dynamics as dynamics
from telespin import runner
from telespin.bath import BathSpec
from telespin.config import ExperimentConfig, GridConfig, RunConfig, load_config
from telespin.noise import NoiseSpec

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.tracing")


def test_install_wraps_and_uninstall_restores(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    assert tracing._ACTIVE is None


def test_assemble_generator_mode_is_sixth_positional():
    # the tracer names assemble spans by args[5] when mode is positional
    params = list(inspect.signature(dynamics.assemble_generator).parameters)
    assert params[5] == "mode"


def _hot_config(**run):
    return ExperimentConfig(
        bath=BathSpec(2.0, 1.0, 0.5, 0.02),
        noise=NoiseSpec(0.75, 1.0, seed=11),
        system=dynamics.SystemSpec(1.0),
        grid=GridConfig(horizon=6.0, t2=2.0),
        run=RunConfig(**run),
    )


def test_dynamics_solves_reach_the_wrapped_bindings(tracing, tmp_path):
    # the right-hand sides call assemble_generator through the dynamics
    # module and two_time_pair through the KernelTable class at every
    # evaluation; a solver that bound either once would count nothing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run_dynamics(_hot_config(), tmp_path)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics([tracer.spans])
    for key in ("dynamics.rhs_calls.qrt", "dynamics.rhs_calls.qrt_plus",
                "kernels.two_time_pair_calls"):
        assert metrics[key] > 0, key


def test_validate_records_path_count_on_oracle_span(tracing, tmp_path):
    # the tracer reads the path count from monte_carlo's n_paths keyword;
    # positionally n_paths is the fifth argument (a[4]), but the tracer's
    # fallback reads a[5], which is mode, so the runner passes n_paths by
    # keyword.  oracle.paths_per_s divides by that count.  It
    # counts path draws through the oracle module's sample_path binding, so
    # a block loop that stops calling it would drop that count silently.
    cfg = _hot_config(n_paths=100)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run_validate(cfg, tmp_path)
    finally:
        tracer.uninstall()
    notes = [rec[tracing.NOTE] for rec in tracer.spans
             if rec[tracing.NAME] == "oracle.monte_carlo"]
    assert notes == [100]
    metrics = tracing.layer_metrics([tracer.spans])
    assert metrics["oracle.paths_per_s"] > 0
    assert metrics["noise.sample_path_calls"] == 100


def test_workload_profile_reads_what_runs_write(monkeypatch, tmp_path):
    # every benchmark run calls run.py's workload_profile, and checks.py
    # reads these validation.json keys: a refactor that drops one fails here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "schema_version = 1\nbath.kappa = 2.0\nbath.omega0 = 1.0\nbath.gamma = 0.5\n"
        "bath.beta = 0.02\nnoise.omega_n = 0.75\nnoise.nu = 1.0\nsystem.epsilon0 = 1.0\n"
        "grid.horizon = 6.0\ngrid.t2 = 2.0\nrun.n_paths = 100\n")
    cfg = load_config(cfg_path)
    runner.run_dynamics(cfg, tmp_path / "dynamics")
    report = runner.run_validate(cfg, tmp_path / "validate")
    profile = bench.workload_profile(cfg_path, tmp_path, bench.WORKLOADS["hot-pipeline"])
    assert profile["t2"] == report["t2"]
    assert 0 < profile["kernel_support_nodes"] < profile["N"]
    stored = json.loads((tmp_path / "validate" / "validation.json").read_text())
    for key in ("n_paths", "threshold", "s1_denominator", "t2", "max_std_dev", "passed"):
        assert stored[key] == report[key], key
    assert stored["n_paths"] == 100
    assert stored["s1_denominator"] == "eta"
    assert stored["passed"] == (stored["max_std_dev"] < stored["threshold"])
