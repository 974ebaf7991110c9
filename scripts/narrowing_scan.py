"""Scan the Kubo number at fixed noise amplitude and count absorption peaks.

Locates the motional-narrowing transition (two lines at eps0 +- Omega
collapsing to one at eps0) for a hot and a cold bath.
"""

import argparse
from pathlib import Path

import numpy as np

from telespin import BathSpec, NoiseSpec, SystemSpec, detect_peaks, power_spectrum
from telespin.config import ExperimentConfig, GridConfig
from telespin.csvio import write_csv
from telespin.runner import compute_series


def peak_count(beta, eps0, nu, omega, horizon, prominence, seed):
    cfg = ExperimentConfig(
        bath=BathSpec(2.0, 1.0, 0.5, beta),
        noise=NoiseSpec(omega_n=omega, nu=nu, seed=seed),
        system=SystemSpec(epsilon0=eps0, v=1.0, initial_sz=1.0),
        grid=GridConfig(horizon=horizon),
    )
    _, series = compute_series(cfg, mode="qrt+")
    spec = power_spectrum(series.t1 - series.t2, series.qrt_plus[:, 4])
    return len(detect_peaks(spec, prominence))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/narrowing")
    ap.add_argument("--omega", type=float, default=0.75)
    ap.add_argument("--eps0", type=float, default=0.0)
    ap.add_argument("--horizon", type=float, default=60.0)
    ap.add_argument("--prominence", type=float, default=0.03)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--kubo", type=float, nargs="+",
                    default=[0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85,
                             0.9, 0.95, 1.0, 1.1, 1.25])
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for beta in (0.02, 50.0):
        counts = []
        for K in args.kubo:
            n = peak_count(beta, args.eps0, args.omega / K, args.omega,
                           args.horizon, args.prominence, args.seed)
            counts.append(n)
            print(f"beta={beta}: K={K} -> {n} peak(s)")
        write_csv(
            out / f"peaks_beta_{beta}.csv",
            {"kubo": np.asarray(args.kubo), "peaks": np.asarray(counts)},
            {"omega": args.omega, "eps0": args.eps0, "beta": beta,
             "prominence": args.prominence},
        )


if __name__ == "__main__":
    main()
