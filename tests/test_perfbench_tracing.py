"""The benchmark's tracer wraps package bindings by name; a refactor that
drops or renames one must fail here, not only under ``--trace 1``."""

import importlib
import inspect
from pathlib import Path

import pytest

import telespin.dynamics as dynamics
from telespin import runner
from telespin.bath import BathSpec
from telespin.config import ExperimentConfig, GridConfig, RunConfig
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


def test_validate_records_path_count_on_oracle_span(tracing, tmp_path):
    # the tracer reads the path count from monte_carlo's n_paths keyword;
    # positionally n_paths is the fifth argument (a[4]), but the tracer's
    # fallback reads a[5], which is mode, so the runner passes n_paths by
    # keyword.  oracle.paths_per_s divides by that count.  It
    # counts path draws through the oracle module's sample_path binding, so
    # a block loop that stops calling it would drop that count silently.
    cfg = ExperimentConfig(
        bath=BathSpec(2.0, 1.0, 0.5, 0.02),
        noise=NoiseSpec(0.75, 1.0, seed=11),
        system=dynamics.SystemSpec(1.0),
        grid=GridConfig(horizon=6.0, t2=2.0),
        run=RunConfig(n_paths=100),
    )
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
