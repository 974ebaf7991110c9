"""In-memory span tracing around the telespin bindings each caller uses.

Nothing inside the package changes: ``install`` replaces a module or class
attribute with a wrapper that records a span (name, start, end, parent,
pid, note) and calls the original, and ``uninstall`` puts the originals
back.  Spans from sweep pool workers come back with each cell's result
and are re-parented under the span that was open when the pool was used.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

NAME, START, END, PARENT, PID, NOTE = range(6)

# the tracer whose wrappers are installed in this process, if any; pool
# workers read it (forked) or install their own (spawned)
_ACTIVE = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, note=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.pid, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
        if note is not None:
            rec[NOTE] = note(result, args, kwargs or {})
        return result

    def adopt(self, spans, parent):
        """Append spans recorded in another process under ``parent``."""
        offset = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] < 0 else rec[PARENT] + offset
            self.spans.append(rec)

    def current(self):
        return self._stack[-1] if self._stack else -1

    def reset(self):
        self.spans, self._stack, self.pid = [], [], os.getpid()

    # -- patching ----------------------------------------------------------

    def _wrap(self, owner, attr, name, note=None):
        original = getattr(owner, attr)
        tracer = self

        if callable(name):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.call(name(args, kwargs), original, args, kwargs, note)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, note)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        global _ACTIVE
        from telespin import analysis, dynamics, kernels, oracle, runner

        wrap = self._wrap
        wrap(runner, "write_csv", "csvio.write_csv",
             lambda r, a, k: os.path.getsize(a[0] if a else k["path"]))
        wrap(runner, "compute_series", "runner.compute_series")
        wrap(runner, "sweep_cell", "runner.sweep_cell",
             lambda r, a, k: r["status"].split(":")[0])
        wrap(runner, "monte_carlo", "oracle.monte_carlo",
             lambda r, a, k: k.get("n_paths", a[5] if len(a) > 5 else None))
        wrap(runner, "build_single_time", "kernels.build_single_time")
        wrap(runner, "evolve_two_time", "dynamics.two_time")
        wrap(runner, "evolve_single_time", "dynamics.single_time")
        wrap(dynamics, "evolve_single_time", "dynamics.single_time")
        wrap(dynamics, "assemble_generator",
             lambda a, k: "dynamics.assemble." + k.get("mode", a[5] if len(a) > 5 else ""))
        wrap(kernels.KernelTable, "two_time_pair", "kernels.two_time_pair")
        wrap(oracle, "sample_path", "noise.sample_path")
        for fn in ("fit_exponential", "fit_damped_cosines"):
            wrap(analysis, fn, f"analysis.{fn}",
                 lambda r, a, k: bool(r.converged and not r.degenerate))
        for fn in ("power_spectrum", "detect_peaks"):
            wrap(analysis, fn, f"analysis.{fn}")
        self._patches.append((runner, "ProcessPoolExecutor", runner.ProcessPoolExecutor))
        runner.ProcessPoolExecutor = TracingPool
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _ACTIVE = None


def _traced_call(fn, *args):
    """Pool-side: run one task with tracing and ship its spans back."""
    tracer = _ACTIVE
    if tracer is None:           # spawned worker: fresh import, no wrappers
        tracer = Tracer()
        tracer.install()
    tracer.reset()               # a forked worker starts with the parent's spans
    result = fn(*args)
    return result, [tuple(rec) for rec in tracer.spans]


class TracingPool(ProcessPoolExecutor):
    """ProcessPoolExecutor whose map collects the workers' spans."""

    def map(self, fn, *iterables, **kwargs):
        tracer = _ACTIVE
        parent = tracer.current()
        results = super().map(_traced_call, itertools.repeat(fn), *iterables, **kwargs)
        for result, spans in results:
            tracer.adopt(spans, parent)
            yield result


# -- reduction ---------------------------------------------------------------

def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        covered, hi = 0.0, rec[START]
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo, end = max(spans[c][START], hi), min(spans[c][END], rec[END])
            if end > lo:
                covered += end - lo
                hi = max(hi, end)
        out.append(rec[END] - rec[START] - covered)
    return out


def layer_metrics(runs) -> dict:
    """Per-layer metrics over the span lists of traced command runs."""
    spans, selfs = [], []
    for run in runs:
        spans += run
        selfs += self_times(run)
    total, count, notes = {}, {}, {}
    for rec in spans:
        name = rec[NAME]
        total[name] = total.get(name, 0.0) + rec[END] - rec[START]
        count[name] = count.get(name, 0) + 1
        notes.setdefault(name, []).append(rec[NOTE])

    def self_of(prefix):
        return sum(s for rec, s in zip(spans, selfs) if rec[NAME].startswith(prefix))

    fits = notes.get("analysis.fit_exponential", []) + notes.get("analysis.fit_damped_cosines", [])
    cells = [rec for rec in spans if rec[NAME] == "runner.sweep_cell"]
    statuses = notes.get("runner.sweep_cell", [])
    mc_paths = sum(n for n in notes.get("oracle.monte_carlo", []) if n)
    mc_time = total.get("oracle.monte_carlo", 0.0)
    return {
        "csvio.write_csv_s": total.get("csvio.write_csv", 0.0),
        "csvio.bytes_written": sum(notes.get("csvio.write_csv", [])),
        "csvio.files_written": count.get("csvio.write_csv", 0),
        "kernels.build_single_time_s": total.get("kernels.build_single_time", 0.0),
        "kernels.two_time_pair_calls": count.get("kernels.two_time_pair", 0),
        "kernels.two_time_pair_s": total.get("kernels.two_time_pair", 0.0),
        "dynamics.single_time_calls": count.get("dynamics.single_time", 0),
        "dynamics.single_time_s": total.get("dynamics.single_time", 0.0),
        "dynamics.two_time_s": total.get("dynamics.two_time", 0.0),
        "dynamics.rhs_calls.qrt": count.get("dynamics.assemble.qrt", 0),
        "dynamics.rhs_calls.qrt_plus": count.get("dynamics.assemble.qrt+", 0),
        "dynamics.assemble_s.qrt": total.get("dynamics.assemble.qrt", 0.0),
        "dynamics.assemble_s.qrt_plus": total.get("dynamics.assemble.qrt+", 0.0),
        "analysis.fit_exponential_s": total.get("analysis.fit_exponential", 0.0),
        "analysis.fit_damped_cosines_s": total.get("analysis.fit_damped_cosines", 0.0),
        "analysis.power_spectrum_s": total.get("analysis.power_spectrum", 0.0),
        "analysis.detect_peaks_s": total.get("analysis.detect_peaks", 0.0),
        "analysis.fit_converged_ratio": sum(1 for f in fits if f) / len(fits) if fits else 0.0,
        "noise.sample_path_calls": count.get("noise.sample_path", 0),
        "noise.sample_path_s": total.get("noise.sample_path", 0.0),
        "oracle.monte_carlo_s": self_of("oracle.monte_carlo"),
        "oracle.paths_per_s": mc_paths / mc_time if mc_time else 0.0,
        "runner.compute_series_s": total.get("runner.compute_series", 0.0),
        "runner.sweep_cell_s": statistics.median(r[END] - r[START] for r in cells) if cells else 0.0,
        "runner.sweep_fallback_ratio":
            sum(1 for s in statuses if s == "qrt+ unavailable") / len(statuses) if statuses else 0.0,
        "runner.self_s": self_of("command."),
    }
