"""Benchmark workloads: the generated config and the CLI commands of one round.

Every workload runs all four commands (dynamics, spectrum, sweep, validate)
so that each run reports every end-to-end metric; the workloads differ in
the regime and in how the work is sized, which decides the layer that
dominates.  The seed reaches the program only as ``noise.seed`` in the
generated config; the bath is the default one (kappa=2, omega0=1,
gamma=0.5) throughout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

COMMANDS = ("dynamics", "spectrum", "sweep", "validate")

# the README 3x3 noise plane (nu values, omega_n values), swept by every workload
SWEEP_3X3 = ((0.01, 0.1, 1.0), (0.25, 0.75, 2.0))

HOT = {
    "bath.beta": 0.02,
    "system.epsilon0": 1.0,
    "noise.omega_n": 0.75,
    "noise.nu": 1.0,
    "grid.horizon": 40.0,
    "grid.t2": "auto",
}

# The A7 transport family.  At the cold reference bias (epsilon0 = 1) the
# corrected propagation breaches the physicality guard at every anchor
# tried, so dynamics/spectrum/validate would exit 3; with epsilon0 = 0 and
# t2 = 2 they succeed and the breach still shows in 5 of 9 sweep cells.
COLD = {
    "bath.beta": 50.0,
    "system.epsilon0": 0.0,
    "noise.omega_n": 0.75,
    "noise.nu": 0.05,
    "grid.horizon": 60.0,
    "grid.t2": 2.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    regime: dict
    sweep_workers: int
    n_paths: int  # Monte Carlo paths of validate
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hot-pipeline",
            regime=HOT,
            sweep_workers=2,
            # the oracle takes >= 100 paths and 100 cost as much as 128; at
            # 256 one hot validate took 9 s, so a run held only three
            n_paths=128,
            why="hot bath, large grid: CSV output, averaged solves, rate fits "
                "(3x3 sweep on 2 workers) and the Monte Carlo oracle at 128 "
                "paths, whose correction window is ~2% of the two-time steps",
        ),
        Workload(
            name="cold-survey",
            regime=COLD,
            sweep_workers=1,
            n_paths=256,
            why="cold bath, small grid with long memory: the correction window "
                "is about 10% of the steps, 5 of 9 sweep cells fall back to qrt",
        ),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def config_text(workload: Workload, seed: int) -> str:
    """Flat key-path config for one workload; the seed enters only here."""
    values = {
        "bath.kappa": 2.0,
        "bath.omega0": 1.0,
        "bath.gamma": 0.5,
        **workload.regime,
        "noise.seed": seed,
        "system.v": 1.0,
        "system.initial_sz": 1.0,
        "sweep.nu": list(SWEEP_3X3[0]),
        "sweep.omega_n": list(SWEEP_3X3[1]),
    }
    lines = ["schema_version = 1"]
    for key, value in values.items():
        text = f'"{value}"' if isinstance(value, str) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def command_argv(workload: Workload, command: str, config, outdir) -> list:
    """CLI arguments of one command; sweep workers are capped at nproc."""
    argv = [command, "--config", str(config), "--out", str(outdir)]
    if command == "sweep":
        argv += ["--workers", str(sweep_workers(workload))]
    elif command == "validate":
        argv += ["--paths", str(workload.n_paths)]
    return argv


def sweep_workers(workload: Workload) -> int:
    return min(workload.sweep_workers, nproc())
