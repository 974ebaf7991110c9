"""Command-line experiment runner.

Subcommands: dynamics, spectrum, sweep, validate.  Exit codes: 0 success,
2 configuration error (message carries the field path), 3 integrator error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .dynamics import MODES, IntegratorError
from . import runner

#: flag -> (the section.field it overrides, which is also its argparse dest,
#: add_argument options); a command registers the flags of the fields it reads
_OVERRIDES = {
    "--mode": ("run.mode", {"choices": MODES}),
    "--workers": ("run.workers", {"type": int, "metavar": "N"}),
    "--seed": ("noise.seed", {"type": int, "metavar": "N"}),
    "--paths": ("run.n_paths", {"type": int, "metavar": "N"}),
}

#: command -> (help, the override flags of the fields its runner reads)
_COMMANDS = {
    "dynamics": ("propagate correlators, emit CSV series", "--mode"),
    "spectrum": ("absorption/emission spectra and peaks", "--mode"),
    "sweep": ("rate/delta/peak surfaces over (nu, omega)", "--workers"),
    "validate": ("Monte Carlo oracle versus averaged equations", "--seed --paths"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="telespin", description=(
        "Two-time correlators of a telegraph-driven two-level system in a structured bath"))
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_, flags) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_)
        sub.add_argument("--config", required=True, help="flat key-path config file")
        sub.add_argument("--out", default="out", help="output directory")
        for flag in flags.split():
            key, options = _OVERRIDES[flag]
            sub.add_argument(flag, dest=key, help=f"override {key}", **options)
        if command == "dynamics":
            sub.add_argument("--dump-kernels", metavar="PATH",
                             help="also dump the single-time kernel tables as CSV")
    return parser


def _can_be_dir(path) -> bool:
    """Whether path is a directory or mkdir(parents=True) can make it one."""
    path = Path(path).absolute()
    while not os.path.lexists(path):  # down to the part that exists
        path = path.parent
    return path.is_dir()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if "." in key and value is not None}
    dump = getattr(args, "dump_kernels", None)
    try:
        cfg = load_config(args.config, overrides=overrides)
        if not _can_be_dir(args.out):
            raise ConfigError(f"--out {args.out} is not a directory and cannot become one")
        if dump and (Path(dump).is_dir() or not _can_be_dir(Path(dump).parent)):
            raise ConfigError(f"--dump-kernels {dump} is a directory or lies under a file")
        if args.command == "dynamics":
            runner.run_dynamics(cfg, args.out, dump_kernels=dump)
        elif args.command == "spectrum":
            runner.run_spectrum(cfg, args.out)
        elif args.command == "sweep":
            runner.run_sweep(cfg, args.out)
        elif args.command == "validate":
            report = runner.run_validate(cfg, args.out)
            verdict = "PASS" if report["passed"] else "FAIL"
            print(f"validate: max standardized deviation = {report['max_std_dev']:.3f} "
                  f"({verdict} at {report['threshold']})")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntegratorError as exc:
        print(f"integrator error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
