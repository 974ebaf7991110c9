"""Command-line experiment runner.

Subcommands: dynamics, spectrum, sweep, validate.  Exit codes: 0 success,
2 configuration error (message carries the field path), 3 integrator error.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, check_n_paths, load_config
from .dynamics import IntegratorError
from .kernels import GridResolutionError
from . import runner


def _add_common(sub):
    sub.add_argument("--config", required=True, help="flat key-path config file")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--mode", choices=["qrt", "qrt+", "both"], help="propagation mode")
    sub.add_argument("--seed", type=int, help="override noise.seed")
    sub.add_argument("--workers", type=int, help="worker pool size")
    sub.add_argument("--s1-denominator", choices=["eta", "nu"],
                     help="dichotomous propagator S1 denominator variant")
    sub.add_argument("--power-mode", choices=["re", "abs2"],
                     help="spectrum estimator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telespin",
        description="Two-time correlators of a telegraph-driven two-level "
                    "system in a structured bath",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    dyn = subs.add_parser("dynamics", help="propagate correlators, emit CSV series")
    spec = subs.add_parser("spectrum", help="absorption/emission spectra and peaks")
    swp = subs.add_parser("sweep", help="rate/delta/peak surfaces over (nu, omega)")
    val = subs.add_parser("validate", help="Monte Carlo oracle versus averaged equations")
    for sub in (dyn, spec, swp, val):
        _add_common(sub)
    dyn.add_argument("--dump-kernels", metavar="PATH",
                     help="also dump the single-time kernel tables as CSV")
    val.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    return parser


def _overrides(args) -> dict:
    out = {}
    if args.mode is not None:
        out["run.mode"] = args.mode
    if args.seed is not None:
        out["noise.seed"] = args.seed
    if args.workers is not None:
        out["run.workers"] = args.workers
    if args.s1_denominator is not None:
        out["run.s1_denominator"] = args.s1_denominator
    if args.power_mode is not None:
        out["run.power_mode"] = args.power_mode
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=_overrides(args))
        if args.command == "dynamics":
            runner.run_dynamics(cfg, args.out, dump_kernels=args.dump_kernels)
        elif args.command == "spectrum":
            runner.run_spectrum(cfg, args.out)
        elif args.command == "sweep":
            runner.run_sweep(cfg, args.out)
        elif args.command == "validate":
            if args.paths is not None:
                check_n_paths(args.paths, "--paths")
            report = runner.run_validate(cfg, args.out, n_paths=args.paths)
            print(
                f"validate: max standardized deviation = "
                f"{report['max_std_dev']:.3f} "
                f"({'PASS' if report['passed'] else 'FAIL'} at "
                f"{report['threshold']})"
            )
    except (ConfigError, GridResolutionError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntegratorError as exc:
        print(f"integrator error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
