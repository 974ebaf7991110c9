"""Regenerate the stored output references in ``perfbench/reference/``.

    python3 perfbench/reference.py

Runs every command of each workload once through ``telespin.cli.main`` and
stores the summaries that ``checks.compare`` reads: the seed-independent
part from seed 0, and the Monte Carlo part for each of seeds 0-9.
Regenerate only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, SRC, run_command
from workloads import COMMANDS, WORKLOADS, command_argv, config_text

SEEDS = range(10)


def build(workload) -> dict:
    sys.path.insert(0, str(SRC))
    import checks
    from telespin import cli

    work = HERE / "work" / f"reference-{workload.name}"
    ref = {"seeds": {}, "common": {}}
    for seed in SEEDS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg = work / "run.cfg"
        cfg.write_text(config_text(workload, seed), encoding="utf-8")
        ref["seeds"][str(seed)] = {}
        for name in COMMANDS if seed == SEEDS[0] else ("validate",):
            outdir = work / name
            rc, _, _ = run_command(cli, name, command_argv(workload, name, cfg, outdir))
            if rc != 0:
                raise SystemExit(f"{workload.name} seed {seed}: {name} exited {rc}")
            common, seeded = checks.split_seeded(checks.summarize(name, outdir))
            if seed == SEEDS[0]:
                ref["common"][name] = common
            if seeded:
                ref["seeds"][str(seed)][name] = seeded
        print(f"{workload.name} seed {seed} done", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return ref


def main() -> int:
    for workload in WORKLOADS.values():
        path = HERE / "reference" / f"{workload.name}.json"
        path.write_text(json.dumps(build(workload), separators=(",", ":")) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
