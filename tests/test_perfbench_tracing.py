"""The benchmark's tracer wraps package bindings by name; a refactor that
drops or renames one must fail here, not only under ``--trace 1``."""

import importlib
import inspect
from pathlib import Path

import pytest

import telespin.dynamics as dynamics

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
