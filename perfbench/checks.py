"""Output checks against reference summaries stored in ``reference/``.

A command's outputs are reduced to a summary: per CSV file the header, the
row count and, per numeric column, 65 evenly spaced samples, the mean and
the largest magnitude; per JSON file its values.  ``compare`` checks a
summary against the stored one at the tolerances below, which leave room
for changes that move results by up to about 1e-6.  Digests are never
compared.

Monte Carlo values depend on the seed.  For seeds that have a stored
reference they are compared like the rest; for any other seed only the
structure is checked: the same files and columns, the same row counts and
finite values.  Everything that does not depend on the seed (series,
spectra, peaks, sweep fits and statuses, the averaged side of validate) is
compared on every seed.

``run.py`` does the checks in a child process, so that reading the outputs
does not count in the benchmark process's peak memory::

    python3 perfbench/checks.py SRC_DIR REFERENCE_JSON SEED

prints one line once it is ready, then reads one JSON ``[command, outdir]``
per line on standard input and answers each with the JSON list of its
failures.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

N_SAMPLES = 65

# (atol, rtol) per file kind; tolerance = atol + rtol * |reference|, and for
# spectra rtol scales with the column's largest magnitude instead
TOL_SERIES = (1e-5, 0.0)       # correlator series and the exact validate side
TOL_MC = (1e-5, 0.0)           # Monte Carlo means and standard errors
TOL_SPECTRUM = (0.0, 1e-4)     # relative to the largest |power|
TOL_FIT = (1e-6, 1e-3)         # sweep fits, rates and deltas
TOL_PEAK_OMEGA = 1e-3
TOL_MAX_STD_DEV = 0.05         # relative, reference seeds only

# values that change with the seed: (file, column or key)
SEEDED = {
    *((f"validate_{c}.csv", col)
      for c in ("zz", "pm", "mp") for col in ("mc_re", "mc_se_re", "std_dev")),
    *(("validation.json", k)
      for k in ("max_std_dev_zz", "max_std_dev_pm", "max_std_dev_mp",
                "max_std_dev", "passed")),
}

# columns that are NaN by design when a sweep cell falls back to qrt
NAN_ALLOWED = {"delta_zz", "delta_pm", "delta_mp", "lam", "lam_w1", "lam_w2",
               "lam_rms"}

FILES = {
    "dynamics": ("single_time.csv", "qrt.csv", "qrt_plus.csv"),
    "spectrum": ("absorption.csv", "emission.csv", "peaks.json"),
    "sweep": ("sweep.csv",),
    "validate": ("validate_zz.csv", "validate_pm.csv", "validate_mp.csv",
                 "validation.json"),
}


def _category(status: str) -> str:
    return status.split(":")[0]


def _summarize_csv(path):
    from telespin.csvio import read_csv

    _, cols = read_csv(path)
    n = len(next(iter(cols.values()))) if cols else 0
    idx = np.unique(np.linspace(0, n - 1, min(n, N_SAMPLES)).astype(int)) if n else []
    out = {"columns": list(cols), "rows": n, "numeric": {}, "text": {}}
    for name, col in cols.items():
        if col.dtype == object:
            out["text"][name] = [_category(col[i]) for i in idx]
            continue
        finite = col[np.isfinite(col)]
        out["numeric"][name] = {
            "samples": [float(v) for v in col[idx]],
            "mean": float(np.mean(finite)) if finite.size else math.nan,
            "maxabs": float(np.max(np.abs(finite))) if finite.size else math.nan,
            "nonfinite": int(col.size - finite.size),
        }
    return out


def summarize(command: str, outdir) -> dict:
    """Summary of one command's output files (missing files are recorded)."""
    out = {}
    for name in FILES[command]:
        path = Path(outdir) / name
        if not path.is_file():
            out[name] = None
        elif name.endswith(".csv"):
            out[name] = _summarize_csv(path)
        else:
            out[name] = json.loads(path.read_text(encoding="utf-8"))
    return out


def split_seeded(summary: dict):
    """(seed-independent part, seed-dependent part) of a summary."""
    common, seeded = {}, {}
    for fname, s in summary.items():
        if fname.endswith(".csv"):
            c = {**s, "numeric": {}}
            d = {}
            for col, v in s["numeric"].items():
                (d if (fname, col) in SEEDED else c["numeric"])[col] = v
            common[fname] = c
            if d:
                seeded[fname] = d
        else:
            common[fname] = {k: v for k, v in s.items() if (fname, k) not in SEEDED}
            d = {k: v for k, v in s.items() if (fname, k) in SEEDED}
            if d:
                seeded[fname] = d
    return common, seeded


def _close(a, b, atol, rtol, scale=None):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    ref = abs(b) if scale is None else scale
    return abs(a - b) <= atol + rtol * ref


def _tol_for(fname, seeded):
    if fname in ("absorption.csv", "emission.csv"):
        return TOL_SPECTRUM, True
    if seeded:
        return TOL_MC, False
    return TOL_SERIES, False


def _compare_numeric(fname, col, cur, ref, seeded, fails):
    (atol, rtol), by_max = _tol_for(fname, seeded)
    scale = ref["maxabs"] if by_max else None
    pairs = list(zip(cur["samples"], ref["samples"]))
    pairs += [(cur["mean"], ref["mean"]), (cur["maxabs"], ref["maxabs"])]
    for a, b in pairs:
        if not _close(a, b, atol, rtol, scale):
            fails.append(f"{fname}:{col} {a!r} differs from reference {b!r}")
            return
    if cur["nonfinite"] != ref["nonfinite"]:
        fails.append(f"{fname}:{col} has {cur['nonfinite']} non-finite values, "
                     f"reference {ref['nonfinite']}")


def _structure(fname, cur, ref, fails):
    if cur["columns"] != ref["columns"]:
        fails.append(f"{fname}: columns {cur['columns']} != {ref['columns']}")
    if cur["rows"] != ref["rows"]:
        fails.append(f"{fname}: {cur['rows']} rows, reference {ref['rows']}")
    if cur["text"] != ref["text"]:
        fails.append(f"{fname}: text columns {cur['text']} != {ref['text']}")
    for col, v in cur["numeric"].items():
        if v["nonfinite"] and col not in NAN_ALLOWED:
            fails.append(f"{fname}:{col} has {v['nonfinite']} non-finite values")


def _compare_sweep(cur, ref, fails):
    """Row by row (every row is sampled); flags and counts exactly.  The
    frequencies of a degenerate damped-cosine fit are unconstrained, so
    they are skipped on rows whose fit is not flagged converged."""
    exact = ("k_converged", "lam_converged", "peaks_absorption")
    degenerate = [c != 1 for c in ref["numeric"]["lam_converged"]["samples"]]
    for col, r in ref["numeric"].items():
        for row, (a, b) in enumerate(zip(cur["numeric"][col]["samples"], r["samples"])):
            if col in ("lam_w1", "lam_w2") and degenerate[row]:
                continue
            atol, rtol = (0.0, 0.0) if col in exact else TOL_FIT
            if not _close(a, b, atol, rtol):
                fails.append(f"sweep.csv:{col} row {row}: {a!r} differs from "
                             f"reference {b!r}")


def _compare_peaks(cur, ref, fails):
    for label in ("absorption", "emission"):
        pc, pr = cur[label]["peaks"], ref[label]["peaks"]
        if len(pc) != len(pr):
            fails.append(f"peaks.json:{label} {len(pc)} peaks, reference {len(pr)}")
            continue
        for a, b in zip(pc, pr):
            if not (_close(a["omega"], b["omega"], TOL_PEAK_OMEGA, 0.0)
                    and _close(a["power"], b["power"], 0.0, TOL_FIT[1])):
                fails.append(f"peaks.json:{label} peak {a} differs from {b}")


def _compare_validation(cur, ref, seeded_ref, fails):
    for key in ("n_paths", "threshold", "s1_denominator"):
        if cur.get(key) != ref.get(key):
            fails.append(f"validation.json:{key} {cur.get(key)!r} != {ref.get(key)!r}")
    if not _close(cur.get("t2", math.nan), ref["t2"], 1e-9, 0.0):
        fails.append(f"validation.json:t2 {cur.get('t2')!r} != {ref['t2']!r}")
    worst = cur.get("max_std_dev")
    if not isinstance(worst, (int, float)) or not math.isfinite(worst) or worst < 0:
        fails.append(f"validation.json: max_std_dev {worst!r} is not a finite deviation")
    elif cur.get("passed") != (worst < cur.get("threshold", math.nan)):
        fails.append("validation.json: passed disagrees with max_std_dev and threshold")
    for key, value in (seeded_ref or {}).items():
        if key == "passed":
            continue
        if not _close(cur.get(key, math.nan), value, 0.0, TOL_MAX_STD_DEV):
            fails.append(f"validation.json:{key} {cur.get(key)!r} differs from "
                         f"reference {value!r}")


def compare(summary: dict, common: dict, seeded: dict | None) -> list:
    """Failures of one command's summary against its stored reference.

    ``seeded`` is the seed-dependent reference for this run's seed, or None
    when the seed has no stored reference (structural checks only).
    """
    fails = []
    for fname, ref in common.items():
        cur = summary.get(fname)
        if cur is None:
            fails.append(f"{fname}: missing")
            continue
        if fname == "peaks.json":
            _compare_peaks(cur, ref, fails)
            continue
        if fname == "validation.json":
            _compare_validation(cur, ref, (seeded or {}).get(fname), fails)
            continue
        before = len(fails)
        _structure(fname, cur, ref, fails)
        if len(fails) > before:
            continue
        if fname == "sweep.csv":
            _compare_sweep(cur, ref, fails)
            continue
        for col, r in ref["numeric"].items():
            _compare_numeric(fname, col, cur["numeric"][col], r, False, fails)
        for col, r in ((seeded or {}).get(fname) or {}).items():
            _compare_numeric(fname, col, cur["numeric"][col], r, True, fails)
    return fails


def serve(reference_path, seed) -> None:
    reference = json.loads(Path(reference_path).read_text(encoding="utf-8"))
    seeded = reference["seeds"].get(str(seed))
    print(json.dumps({"reference_seed": seeded is not None}), flush=True)
    for line in sys.stdin:
        command, outdir = json.loads(line)
        try:
            fails = compare(summarize(command, outdir), reference["common"][command],
                            (seeded or {}).get(command))
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            fails = [f"malformed output: {exc!r}"]
        print(json.dumps(fails), flush=True)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    serve(sys.argv[2], int(sys.argv[3]))
