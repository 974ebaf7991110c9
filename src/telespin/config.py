"""Experiment configuration: a flat key-path text file with a versioned schema.

Format, one assignment per line::

    schema_version = 1
    bath.kappa = 2.0
    noise.omega_n = 0.75
    sweep.nu = [0.01, 0.1, 1.0]

Values are JSON fragments (numbers, strings, lists, booleans).  Lines
starting with '#' are comments.  Every run writes its fully-resolved
configuration next to the results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bath import BathSpec, xi_coefficient
from .dynamics import SystemSpec
from .kernels import resolution_bound
from .noise import NoiseSpec
from .oracle import MIN_PATHS

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


def check_n_paths(n_paths: int, name: str = "run.n_paths") -> None:
    """Reject a Monte Carlo path count below the oracle's floor."""
    if n_paths < MIN_PATHS:
        raise ConfigError(f"{name} must be >= {MIN_PATHS}, got {n_paths}")


@dataclass(frozen=True)
class GridConfig:
    horizon: float
    dt: float | str = "auto"      # "auto": the resolution-guard bound
    t2: float | str = "auto"      # "auto": quasi-stationary anchor policy

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError(f"grid.horizon must be > 0, got {self.horizon}")
        if isinstance(self.dt, str) and self.dt != "auto":
            raise ConfigError(f"grid.dt must be a number or 'auto', got {self.dt!r}")
        if isinstance(self.t2, str) and self.t2 != "auto":
            raise ConfigError(f"grid.t2 must be a number or 'auto', got {self.t2!r}")


@dataclass(frozen=True)
class RunConfig:
    mode: str = "both"            # qrt | qrt+ | both
    window: str = "hann"          # none | hann
    power_mode: str = "re"        # re | abs2
    s1_denominator: str = "eta"   # eta | nu
    prominence: float = 0.05
    pad_factor: int = 4
    workers: int = 1
    n_paths: int = 10000

    def __post_init__(self):
        if self.mode not in ("qrt", "qrt+", "both"):
            raise ConfigError(f"run.mode must be qrt|qrt+|both, got {self.mode!r}")
        if self.window not in ("none", "hann"):
            raise ConfigError(f"run.window must be none|hann, got {self.window!r}")
        if self.power_mode not in ("re", "abs2"):
            raise ConfigError(f"run.power_mode must be re|abs2, got {self.power_mode!r}")
        if self.s1_denominator not in ("eta", "nu"):
            raise ConfigError(
                f"run.s1_denominator must be eta|nu, got {self.s1_denominator!r}"
            )
        if self.workers < 1:
            raise ConfigError(f"run.workers must be >= 1, got {self.workers}")
        check_n_paths(self.n_paths)


@dataclass(frozen=True)
class SweepConfig:
    nu: tuple
    omega_n: tuple

    def __post_init__(self):
        if not self.nu or not self.omega_n:
            raise ConfigError("sweep.nu and sweep.omega_n must be nonempty lists")


@dataclass(frozen=True)
class ExperimentConfig:
    bath: BathSpec
    noise: NoiseSpec
    system: SystemSpec
    grid: GridConfig
    run: RunConfig = field(default_factory=RunConfig)
    sweep: SweepConfig | None = None

    def resolve_ts(self) -> np.ndarray:
        """Uniform grid [0, horizon] honoring the resolution guard; the node
        count is kept even so coarse output nodes tile the grid."""
        bound = resolution_bound(
            xi_coefficient(self.bath),
            self.system.epsilon0,
            self.noise.omega_n,
            self.noise.nu,
        )
        dt = bound if self.grid.dt == "auto" else float(self.grid.dt)
        if dt > bound * (1.0 + 1e-9):
            raise ConfigError(
                f"grid.dt = {dt} exceeds the resolution bound {bound:.3e}"
            )
        n = int(math.ceil(self.grid.horizon / dt))
        n += n % 2
        return np.linspace(0.0, self.grid.horizon, n + 1)

    def resolved_dict(self, **extra) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "bath.kappa": self.bath.kappa,
            "bath.omega0": self.bath.omega0,
            "bath.gamma": self.bath.gamma,
            "bath.beta": self.bath.beta,
            "noise.omega_n": self.noise.omega_n,
            "noise.nu": self.noise.nu,
            "noise.seed": self.noise.seed,
            "system.epsilon0": self.system.epsilon0,
            "system.v": self.system.v,
            "system.initial_sz": self.system.initial_sz,
            "grid.horizon": self.grid.horizon,
            "grid.dt": self.grid.dt,
            "grid.t2": self.grid.t2,
            "run.mode": self.run.mode,
            "run.window": self.run.window,
            "run.power_mode": self.run.power_mode,
            "run.s1_denominator": self.run.s1_denominator,
            "run.prominence": self.run.prominence,
            "run.pad_factor": self.run.pad_factor,
            "run.workers": self.run.workers,
            "run.n_paths": self.run.n_paths,
        }
        if self.sweep is not None:
            out["sweep.nu"] = list(self.sweep.nu)
            out["sweep.omega_n"] = list(self.sweep.omega_n)
        out.update(extra)
        return out


_SECTIONS = {
    "bath": {"kappa", "omega0", "gamma", "beta"},
    "noise": {"omega_n", "nu", "seed"},
    "system": {"epsilon0", "v", "initial_sz"},
    "grid": {"horizon", "dt", "t2"},
    "run": {"mode", "window", "power_mode", "s1_denominator", "prominence",
            "pad_factor", "workers", "n_paths"},
    "sweep": {"nu", "omega_n"},
}

_REQUIRED = [
    ("bath", "kappa"), ("bath", "omega0"), ("bath", "gamma"), ("bath", "beta"),
    ("noise", "omega_n"), ("noise", "nu"),
    ("system", "epsilon0"),
    ("grid", "horizon"),
]


def parse_flat(text: str) -> dict:
    """Flat key-path assignments into a nested {section: {key: value}} dict."""
    tree: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value  # bare strings like auto, eta, hann
        if key == "schema_version":
            if parsed != SCHEMA_VERSION:
                raise ConfigError(
                    f"schema_version: expected {SCHEMA_VERSION}, got {parsed!r}"
                )
            tree["schema_version"] = parsed
            continue
        if "." not in key:
            raise ConfigError(f"{key}: top-level keys other than schema_version "
                              "must be section.field paths")
        section, _, name = key.partition(".")
        if section not in _SECTIONS:
            raise ConfigError(f"{key}: unknown section {section!r}")
        if name not in _SECTIONS[section]:
            raise ConfigError(f"{key}: unknown field {name!r} in section {section!r}")
        tree.setdefault(section, {})[name] = parsed
    return tree


def config_from_tree(tree: dict, overrides: dict | None = None) -> ExperimentConfig:
    if "schema_version" not in tree:
        raise ConfigError("schema_version: missing (must be first-class key)")
    if overrides:
        for key, value in overrides.items():
            section, _, name = key.partition(".")
            tree.setdefault(section, {})[name] = value
    for section, name in _REQUIRED:
        if name not in tree.get(section, {}):
            raise ConfigError(f"{section}.{name}: required field missing")
    try:
        bath = BathSpec(
            kappa=float(tree["bath"]["kappa"]),
            omega0=float(tree["bath"]["omega0"]),
            gamma=float(tree["bath"]["gamma"]),
            beta=float(tree["bath"]["beta"]),
        )
    except ValueError as exc:
        raise ConfigError(f"bath: {exc}") from exc
    try:
        noise = NoiseSpec(
            omega_n=float(tree["noise"]["omega_n"]),
            nu=float(tree["noise"]["nu"]),
            seed=int(tree["noise"].get("seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc
    try:
        system = SystemSpec(
            epsilon0=float(tree["system"]["epsilon0"]),
            v=float(tree["system"].get("v", 1.0)),
            initial_sz=float(tree["system"].get("initial_sz", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc
    grid_raw = tree["grid"]
    grid = GridConfig(
        horizon=float(grid_raw["horizon"]),
        dt=grid_raw.get("dt", "auto") if isinstance(grid_raw.get("dt", "auto"), str)
        else float(grid_raw["dt"]),
        t2=grid_raw.get("t2", "auto") if isinstance(grid_raw.get("t2", "auto"), str)
        else float(grid_raw["t2"]),
    )
    run_raw = tree.get("run", {})
    run = RunConfig(
        mode=run_raw.get("mode", "both"),
        window=run_raw.get("window", "hann"),
        power_mode=run_raw.get("power_mode", "re"),
        s1_denominator=run_raw.get("s1_denominator", "eta"),
        prominence=float(run_raw.get("prominence", 0.05)),
        pad_factor=int(run_raw.get("pad_factor", 4)),
        workers=int(run_raw.get("workers", 1)),
        n_paths=int(run_raw.get("n_paths", 10000)),
    )
    sweep = None
    if "sweep" in tree:
        sweep_raw = tree["sweep"]
        if "nu" not in sweep_raw or "omega_n" not in sweep_raw:
            raise ConfigError("sweep: both sweep.nu and sweep.omega_n are required")
        sweep = SweepConfig(
            nu=tuple(float(x) for x in sweep_raw["nu"]),
            omega_n=tuple(float(x) for x in sweep_raw["omega_n"]),
        )
    return ExperimentConfig(
        bath=bath, noise=noise, system=system, grid=grid, run=run, sweep=sweep
    )


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return config_from_tree(parse_flat(text), overrides)
