"""Experiment configuration: a flat key-path text file with a versioned schema.

Format, one assignment per line::

    schema_version = 1
    bath.kappa = 2.0
    noise.omega_n = 0.75
    sweep.nu = [0.01, 0.1, 1.0]

Values are JSON fragments (numbers, strings, lists, booleans).  Lines
starting with '#' are comments.  Every run writes its fully-resolved
configuration next to the results.

The section dataclasses in ``SECTIONS`` are the schema: a key ``s.f`` is
valid when field ``f`` exists on section ``s``'s dataclass, its value is
cast by the field's annotation, a field without a default is required,
a field with ``init=False`` is recorded but not settable, and
``resolved_dict`` lists the fields in declaration order.  Any value
that fails its cast or its dataclass's check is a ``ConfigError`` naming
``section.field``.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .bath import BathSpec, xi_coefficient
from .dynamics import MODES, SystemSpec
from .kernels import resolution_bound
from .noise import NoiseSpec
from .oracle import MIN_PATHS

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


@dataclass(frozen=True)
class GridConfig:
    horizon: float                # the step is the resolution bound (resolve_ts)
    t2: float | str = "auto"      # "auto": quasi-stationary anchor policy

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError(f"grid.horizon must be > 0, got {self.horizon}")
        if isinstance(self.t2, str) and self.t2 != "auto":
            raise ConfigError(f"grid.t2 must be a number or 'auto', got {self.t2!r}")
        if not isinstance(self.t2, str) and self.t2 < 0:
            raise ConfigError(f"grid.t2 must be >= 0, got {self.t2}")


@dataclass(frozen=True)
class RunConfig:
    mode: str = "both"            # qrt | qrt+ | both
    # the one S1 form, recorded in every resolved config; not settable
    s1_denominator: str = field(default="eta", init=False)
    workers: int = 1
    n_paths: int = 10000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"run.mode must be {'|'.join(MODES)}, got {self.mode!r}")
        if self.workers < 1:
            raise ConfigError(f"run.workers must be >= 1, got {self.workers}")
        if self.n_paths < MIN_PATHS:
            raise ConfigError(f"run.n_paths must be >= {MIN_PATHS}, got {self.n_paths}")


@dataclass(frozen=True)
class SweepConfig:
    nu: tuple
    omega_n: tuple

    def __post_init__(self):
        if not self.nu or not self.omega_n:
            raise ConfigError("sweep.nu and sweep.omega_n must be nonempty lists")


#: config section -> its dataclass, in resolved (CSV header) order
SECTIONS = {
    "bath": BathSpec,
    "noise": NoiseSpec,
    "system": SystemSpec,
    "grid": GridConfig,
    "run": RunConfig,
    "sweep": SweepConfig,
}


@dataclass(frozen=True)
class ExperimentConfig:
    bath: BathSpec
    noise: NoiseSpec
    system: SystemSpec
    grid: GridConfig
    run: RunConfig = field(default_factory=RunConfig)
    sweep: SweepConfig | None = None

    def __post_init__(self):
        for name in ("nu", "omega_n") if self.sweep else ():
            for value in getattr(self.sweep, name):
                try:  # each sweep value must make a valid noise spec
                    replace(self.noise, **{name: value})
                except ValueError as exc:
                    raise ConfigError(f"sweep.{name}: {exc}") from exc

    def resolve_ts(self) -> np.ndarray:
        """Uniform grid [0, horizon] at the largest step within the resolution
        bound that takes an even step count, so coarse output nodes tile it."""
        dt = resolution_bound(
            xi_coefficient(self.bath),
            self.system.epsilon0,
            self.noise.omega_n,
            self.noise.nu,
        )
        n = int(math.ceil(self.grid.horizon / dt))
        n += n % 2
        return np.linspace(0.0, self.grid.horizon, n + 1)

    def resolved_dict(self, **extra) -> dict:
        """Every field as a flat ``section.field`` key, in schema order."""
        out = {"schema_version": SCHEMA_VERSION}
        for section in SECTIONS:
            spec = getattr(self, section)
            if spec is None:
                continue
            for f in fields(spec):
                value = getattr(spec, f.name)
                out[f"{section}.{f.name}"] = (
                    list(value) if isinstance(value, tuple) else value
                )
        out.update(extra)
        return out


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
            parsed = value  # bare strings like auto, eta, qrt+
        if key == "schema_version":
            if parsed != SCHEMA_VERSION:
                raise ConfigError(
                    f"schema_version: expected {SCHEMA_VERSION}, got {parsed!r}"
                )
            tree["schema_version"] = parsed
            continue
        section, name = _settable_path(key)
        tree.setdefault(section, {})[name] = parsed
    return tree


def _settable_path(key: str) -> tuple:
    """(section, field) of a key a config file or an override may set: an
    unknown section, an unknown field or one that is recorded but not
    settable is a ConfigError naming the key."""
    if "." not in key:
        raise ConfigError(f"{key}: top-level keys other than schema_version "
                          "must be section.field paths")
    section, _, name = key.partition(".")
    if section not in SECTIONS:
        raise ConfigError(f"{key}: unknown section {section!r}")
    init = {f.name: f.init for f in fields(SECTIONS[section])}
    if name not in init:
        raise ConfigError(f"{key}: unknown field {name!r} in section {section!r}")
    if not init[name]:
        raise ConfigError(f"{key}: recorded in the resolved config, not settable")
    return section, name


def _number(value, kind=float):
    """A finite JSON number as ``kind``; an int field takes no fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value) or (kind is int and value != int(value)):
        raise ValueError(f"expected a finite {kind.__name__}, got {value!r}")
    return kind(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _numbers(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return tuple(_number(x) for x in value)


#: config value -> field value, keyed by the field's annotation
_CASTS = {
    "float": _number,
    "int": lambda v: _number(v, int),
    "str": _string,
    "float | str": lambda v: v if isinstance(v, str) else _number(v),
    "tuple": _numbers,
}


def _build_section(section: str, cls, raw: dict):
    """One section's dataclass from its raw values; absent fields keep the
    dataclass default, and a field without one is required."""
    kwargs = {}
    for f in fields(cls):
        if not f.init:
            continue
        path = f"{section}.{f.name}"
        if f.name not in raw:
            if f.default is MISSING:
                raise ConfigError(f"{path}: required field missing")
            continue
        try:
            kwargs[f.name] = _CASTS[f.type](raw[f.name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_from_tree(tree: dict, overrides: dict | None = None) -> ExperimentConfig:
    if "schema_version" not in tree:
        raise ConfigError("schema_version: missing (must be first-class key)")
    # overrides go into copies, so the caller's tree stays as parsed
    raw = {section: dict(tree[section]) for section in SECTIONS if section in tree}
    for key, value in (overrides or {}).items():
        section, name = _settable_path(key)
        raw.setdefault(section, {})[name] = value
    specs = {
        section: _build_section(section, cls, raw.get(section, {}))
        for section, cls in SECTIONS.items()
        if section in raw or section != "sweep"  # sweep is optional
    }
    return ExperimentConfig(**specs)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    return config_from_tree(parse_flat(text), overrides)
