#!/usr/bin/env python3
"""Record the reports a plain ``mgem`` CLI writes for the reference seeds.

For every workload and every seed of the reference pool (0 to
``REFERENCE_SEEDS - 1``; command 0 of each benchmark run takes one of
them), writes the workload's config for that seed, runs ``python3 -m
mgem.cli <command> --config CFG --out DIR --threads N`` in a fresh
interpreter (no harness in the process), checks the reports and stores
in ``bench/references.json`` the sha256 of each report and the report
quality (``checks.Checked.quality``). ``bench/run.py`` compares command 0
of each run against them: ``reports_identical`` shows the harness and the
program left the reports unchanged, ``fwd_vs_ref`` and ``bwd_vs_ref`` how
far their numbers moved.

Usage, from the root of a source checkout::

    python3 bench/make_references.py [WORKLOAD ...]

Without workload names it records every workload; named workloads
replace only their own entries.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import check_pareto, check_run, digests
from run import (BENCH_DIR, OUT_ROOT, REFERENCE_SEEDS, ROOT, SRC, WORKLOADS, Command,
                 import_mgem, nproc)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(WORKLOADS)}")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    mods = import_mgem()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    path = BENCH_DIR / "references.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        for workload in args.workloads or WORKLOADS:
            table[workload] = {}
            for seed in range(REFERENCE_SEEDS):
                cmd = Command(mods, workload, seed, Path(tmp))
                out = Path(tmp) / f"{workload}-{seed}"
                out.mkdir()
                subprocess.run([sys.executable, "-m", "mgem.cli", cmd.kind,
                                "--config", str(cmd.config), "--out", str(out),
                                "--threads", str(nproc())],
                               cwd=ROOT, env=env, check=True, capture_output=True)
                if cmd.kind == "run":
                    checked = check_run(out, cmd.jobs, cmd.n_tasks, seed)
                else:
                    checked = check_pareto(out, cmd.jobs, seed)
                if checked.problems:
                    sys.exit(f"{workload} seed {seed}: {checked.problems}")
                table[workload][str(seed)] = {"reports": digests(out),
                                              "quality": checked.quality}
                print(workload, seed, flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
