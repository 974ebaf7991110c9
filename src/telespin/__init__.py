"""telespin: two-time correlators of a telegraph-driven dissipative qubit.

The library propagates the noise-averaged single- and two-time correlation
functions of a two-level system whose bias is modulated by random telegraph
noise while the system is strongly coupled to a structured thermal bath,
both with and without the memory corrections that go beyond quantum
regression, and validates the averaged equations against a Monte Carlo
average over explicit noise realizations.
"""

from .bath import BathSpec, reorganization_energy, xi_coefficient
from .noise import NoisePath, NoiseSpec, propagators, sample_path
from .kernels import KernelTable, build_single_time, resolution_bound
from .dynamics import (
    CorrelationSeries,
    IntegratorError,
    SystemSpec,
    assemble_generator,
    choose_t2,
    equal_time_initials,
    evolve_single_time,
    evolve_two_time,
)
from .oracle import MCEstimate, monte_carlo, standardized_deviation
from .analysis import (
    DampedFit,
    ExpFit,
    Peak,
    SpectrumResult,
    delta_measure,
    detect_peaks,
    fit_damped_cosines,
    fit_exponential,
    power_spectrum,
)
from .config import ConfigError, ExperimentConfig, load_config

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
