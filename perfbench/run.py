"""Benchmark of the telespin command line: time to result per command.

    python3 perfbench/run.py --workload hot-pipeline --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout that holds ``src/telespin``; it builds
nothing and imports the package from ``src``.  One run:

1. writes the workload's config (the seed enters only as ``noise.seed``);
2. measures set-up (``import telespin.cli``, ``load_config``,
   ``resolve_ts``) in this fresh interpreter, and at the end in four more;
3. runs ``telespin.cli.main([...])`` for dynamics, spectrum, sweep and
   validate, in-process, interleaved until ``--seconds`` have passed,
   and checks every command's outputs against ``reference/`` after it ran,
   in a child process (``checks.py``) so the checks add nothing to the
   peak memory measured here;
4. prints the machine note, what the workload exercised, the validate
   verdict, every metric with its unit (units as ``BENCHMARK.json``
   declares them), and as its last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: the upper quartile
of each command's times, set-up time, peak resident memory (of this
process and of the sweep's pool workers) and the share of commands that
succeeded.  With ``--trace 1`` each command's runs alternate untraced and
traced (see ``tracing.py``); the metrics are per layer, from each
command's median traced run, and the tracing overhead per command is
printed.  Spans and a full report are written under ``perfbench/work/``.
BLAS thread variables are left as the caller set them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import probe
import tracing
from workloads import (COMMANDS, SWEEP_3X3, WORKLOADS, command_argv, config_text, nproc,
                       sweep_workers)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # fresh interpreters besides this one


def declared_units(kind: str) -> dict:
    """{metric name: unit} of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def machine_note() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    # an exported tree has no git sha; the source digest still tells which
    # program a result belongs to
    digest = hashlib.sha256()
    for path in sorted((SRC / "telespin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_command(cli, name, argv, tracer=None):
    """(exit code or error text, wall seconds, captured stdout) of one command."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"command.{name}", cli.main, (argv,))
    except Exception:  # a crashing command is a failed operation, not the end of the run
        rc = traceback.format_exc(limit=3)
    return rc, time.perf_counter() - t0, buf.getvalue()


def workload_profile(cfg_path, outdir, workload) -> dict:
    """What the workload exercises: grid, anchor, kernel support, sizes."""
    from telespin.config import load_config
    from telespin.kernels import build_single_time

    cfg = load_config(cfg_path)
    ts = cfg.resolve_ts()
    dt = float(ts[1] - ts[0])
    t2 = json.loads((outdir / "dynamics" / "resolved_config.json").read_text())["t2"]
    i2 = int(round(t2 / dt))
    table = build_single_time(ts, cfg.bath, cfg.system, cfg.noise,
                              s1_denominator=cfg.run.s1_denominator)
    support = min(math.ceil(table.support_cut / dt), len(ts) - 1)
    two_time = len(ts) - i2
    window = min(support + 1, two_time)
    return {
        "N": len(ts),
        "dt": dt,
        "t2": t2,
        "t2_node": i2,
        "kernel_support_nodes": support,
        "two_time_nodes": two_time,
        "correction_window_nodes": window,
        "correction_window_share": window / two_time,
        "n_paths": workload.n_paths,
        "sweep_cells": len(SWEEP_3X3[0]) * len(SWEEP_3X3[1]),
        "sweep_workers": sweep_workers(workload),
    }


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def outputs_digest(path) -> str:
    digest = hashlib.sha256()
    for p in sorted(Path(path).rglob("*")):
        if p.is_file():
            with open(p, "rb") as fh:
                digest.update(p.name.encode() + b"\0"
                              + hashlib.file_digest(fh, "sha256").digest())
    return digest.hexdigest()


def peak_rss_mb() -> tuple:
    """Peak resident memory (MB) of this process and of its largest reaped child.

    Until the checker exits and the set-up probes run, the only children
    are the sweep's pool workers and helpers that library imports start.
    """
    return tuple(resource.getrusage(who).ru_maxrss / 1024.0
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


class Checker:
    """``checks.py`` in a child process; see there."""

    def __init__(self, reference, seed):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "checks.py"), str(SRC), str(reference), str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.reference_seed = json.loads(self.proc.stdout.readline())["reference_seed"]

    def check(self, command, outdir) -> list:
        self.proc.stdin.write(json.dumps([command, str(outdir)]) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "telespin" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'telespin'} not found; run from a telespin checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    units = declared_units("per_layer" if args.trace else "end_to_end")
    work = HERE / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "run.cfg"
    cfg.write_text(config_text(workload, args.seed), encoding="utf-8")

    # set-up in this interpreter: its first import of the package
    setup = [probe.measure(SRC, cfg)]
    if not Path(setup[0]["module"]).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: telespin imported from {setup[0]['module']}, not {SRC}",
              file=sys.stderr)
        return 2

    from telespin import cli

    checker = Checker(HERE / "reference" / f"{workload.name}.json", args.seed)
    try:
        run = measure(args, workload, cfg, work / "out", cli, checker)
    finally:
        checker.close()
    # set-up in fresh interpreters, after the peak memory has been read
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), str(cfg)],
                              capture_output=True, text=True, timeout=120, check=True)
        setup.append(json.loads(proc.stdout.splitlines()[-1]))

    times, traced, verdicts, failures = (run["times"], run["traced"], run["verdicts"],
                                         run["failures"])
    attempted, failed, rss = run["attempted"], run["failed"], run["rss"]

    def med(values):
        return statistics.median(values) if values else float("nan")

    def mean(values):
        return statistics.fmean(values) if values else float("nan")

    def upper_quartile(values):
        if len(values) < 2:
            return values[0] if values else float("nan")
        return statistics.quantiles(values, n=4, method="inclusive")[2]

    def median_run(runs):
        return sorted(runs, key=lambda r: r[0])[(len(runs) - 1) // 2][1] if runs else []

    peak = max(max(r["self_mb"], r["workers_mb"]) for r in rss)
    peak_at = next(r for r in rss if max(r["self_mb"], r["workers_mb"]) == peak)
    if args.trace:
        # per-layer numbers of one synthetic round: each command's traced run
        # with the median wall time
        metrics = tracing.layer_metrics([median_run(traced[c]) for c in COMMANDS])
        metrics["setup.import_s"] = med([s["import_s"] for s in setup])
        metrics["config.load_s"] = med([s["load_s"] for s in setup])
        metrics["oracle.max_std_dev"] = verdicts[-1]["max_std_dev"] if verdicts else float("nan")
    else:
        # The upper quartile, not the median: the shared host switches for
        # seconds at a time between a slow and a ~1.4x faster speed, and
        # per-run medians flip between the two levels with the share of
        # fast time; the upper quartile reads the slow level as long as a
        # quarter of the run is slow.
        metrics = {f"{c}_s": upper_quartile(times[c]) for c in COMMANDS}
        metrics["setup_s"] = med([s["setup_s"] for s in setup])
        metrics["peak_rss_mb"] = peak
        metrics["ok_ops"] = (attempted - failed) / attempted
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "are not both measured and declared in BENCHMARK.json")
    overhead = {c: mean([w for w, _ in traced[c]]) - mean(times[c]) for c in COMMANDS} \
        if args.trace else {}
    profile = run["profile"]
    if profile is not None:
        profile["bytes_written"] = sum(run["out_bytes"].values())

    note = machine_note()
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "measured_s": run["measured_s"],
        "machine": note, "profile": profile, "setup": setup,
        "command_times_s": times,
        "traced_command_times_s": {c: [w for w, _ in traced[c]] for c in COMMANDS},
        "tracing_overhead_s": overhead, "verdicts": verdicts, "peak_rss_after": rss,
        "failures": failures, "reference_seed": checker.reference_seed,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "pid", "note"],
             "runs": {c: [sp for _, sp in traced[c]] for c in COMMANDS}}))

    print(f"perfbench machine {json.dumps(note)}")
    print(f"perfbench workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"perfbench profile {json.dumps(profile)}")
    print(f"perfbench {attempted} commands in {run['measured_s']:.1f} s; checks against "
          f"{'stored seed' if checker.reference_seed else 'seed-independent'} references")
    for c in COMMANDS:
        shown = ", ".join(f"{t:.4f}" for t in times[c])
        print(f"perfbench command {c}: untraced [{shown}] s"
              + (f", traced {len(traced[c])}, tracing overhead {overhead[c]:+.4f} s"
                 if args.trace else ""))
    print(f"perfbench peak rss {peak:.1f} MB, reached by {peak_at['command']} "
          f"(command {peak_at['index']}); after the last command: benchmark process "
          f"{rss[-1]['self_mb']:.1f} MB, largest child process {rss[-1]['workers_mb']:.1f} MB")
    for passed, worst in dict.fromkeys((v["passed"], v["max_std_dev"]) for v in verdicts):
        print(f"perfbench validate passed={passed} oracle.max_std_dev={worst:.4f}")
    for f in failures:
        print(f"perfbench FAILED {f['command']} run {f['run']}: {f['problems']}")
    print(f"perfbench failed_ops {failed}/{attempted}")
    for name, value in metrics.items():
        print(f"perfbench metric {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def measure(args, workload, cfg, out, cli, checker) -> dict:
    """Run the commands interleaved for ``args.seconds`` and check each one."""
    argvs = {c: command_argv(workload, c, cfg, out / c) for c in COMMANDS}
    times = {c: [] for c in COMMANDS}       # untraced wall times
    traced = {c: [] for c in COMMANDS}      # (wall time, spans) of traced runs
    out_bytes = dict.fromkeys(COMMANDS, 0)
    failures, verdicts, rss = [], [], []
    checked = {}
    attempted = failed = 0
    profile = None
    t_start = time.perf_counter()

    def runs_of(c):
        return len(times[c]) + len(traced[c])

    def typical(c):
        return statistics.median(times[c] + [w for w, _ in traced[c]])

    while True:
        # Interleaved: the command with the fewest runs, weighted by the
        # square root of its typical time, goes next.  A command k times as
        # long as another so runs about 1/sqrt(k) as often: short commands,
        # whose times scatter most, get more samples, long ones still
        # several, and the runs of every command spread over the whole
        # window, so drift of the machine hits all commands alike.  Every
        # command runs at least once (and once traced with --trace 1);
        # after that only commands whose typical time still fits into
        # --seconds are started.
        lacking = [c for c in COMMANDS if runs_of(c) <= args.trace]
        left = args.seconds - (time.perf_counter() - t_start)
        fits = lacking or [c for c in COMMANDS if typical(c) <= left]
        if not fits:
            break
        name = min(lacking, key=runs_of) if lacking else min(
            fits, key=lambda c: runs_of(c) * math.sqrt(typical(c)))
        runs = runs_of(name)
        tracer = tracing.Tracer() if args.trace and runs % 2 == 1 else None
        shutil.rmtree(out / name, ignore_errors=True)
        gc.collect()  # start each command from a clean heap, as a fresh CLI process does
        if tracer:
            tracer.install()
        try:
            rc, wall, printed = run_command(cli, name, argvs[name], tracer)
        finally:
            if tracer:
                tracer.uninstall()
        self_mb, workers_mb = peak_rss_mb()
        rss.append({"command": name, "index": attempted,
                    "self_mb": self_mb, "workers_mb": workers_mb})
        attempted += 1
        if tracer:
            traced[name].append((wall, tracer.spans))
        else:
            times[name].append(wall)
        if rc == 0:
            # byte-identical outputs get the verdict of their first check
            digest = outputs_digest(out / name)
            if digest not in checked:
                checked[digest] = checker.check(name, out / name)
            problems = checked[digest]
        else:
            problems = [f"exit code {rc}"]
        if problems:
            failed += 1
            failures.append({"command": name, "run": runs, "problems": problems[:5]})
        out_bytes[name] = dir_bytes(out / name)
        if name == "validate" and rc == 0:
            report = json.loads((out / name / "validation.json").read_text())
            verdicts.append({"passed": report["passed"],
                             "max_std_dev": report["max_std_dev"],
                             "cli": printed.strip()})
        if name == "dynamics" and rc == 0 and profile is None:
            profile = workload_profile(cfg, out, workload)
    return {"times": times, "traced": traced, "out_bytes": out_bytes,
            "failures": failures, "verdicts": verdicts, "rss": rss,
            "attempted": attempted, "failed": failed, "profile": profile,
            "measured_s": time.perf_counter() - t_start}


if __name__ == "__main__":
    sys.exit(main())
