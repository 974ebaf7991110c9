"""Rate and difference surfaces over the (nu, Omega) noise plane.

For each cell: the exponential decay rate k of <sz sz>, the decoherence
rate Lambda of Re <s- s+>, the regression-violation percentages, and the
absorption peak count.  Mirrors the surface figures' parameter ranges:
log-spaced nu in [0.01, 2], linear Omega in [0.05, 2].
"""

import argparse

import numpy as np

from telespin import BathSpec, NoiseSpec, SystemSpec
from telespin.config import ExperimentConfig, GridConfig, RunConfig, SweepConfig
from telespin.runner import run_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/surfaces")
    ap.add_argument("--beta", type=float, default=50.0)
    ap.add_argument("--eps0", type=float, default=0.0)
    ap.add_argument("--horizon", type=float, default=40.0)
    ap.add_argument("--t2", type=float, default=1.0,
                    help="fit anchor (rate fits follow the early-anchor protocol)")
    ap.add_argument("--nu-points", type=int, default=7)
    ap.add_argument("--omega-points", type=int, default=8)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, default=20260810)
    args = ap.parse_args()

    nus = np.geomspace(0.01, 2.0, args.nu_points)
    omegas = np.linspace(0.05, 2.0, args.omega_points)
    cfg = ExperimentConfig(
        bath=BathSpec(2.0, 1.0, 0.5, args.beta),
        noise=NoiseSpec(omega_n=omegas[0], nu=nus[0], seed=args.seed),
        system=SystemSpec(epsilon0=args.eps0, v=1.0, initial_sz=1.0),
        grid=GridConfig(horizon=args.horizon, t2=args.t2),
        run=RunConfig(mode="both", workers=args.workers),
        sweep=SweepConfig(nu=tuple(nus), omega_n=tuple(omegas)),
    )
    result = run_sweep(cfg, args.out)
    print(f"wrote {result['file']} ({len(result['rows'])} cells)")


if __name__ == "__main__":
    main()
