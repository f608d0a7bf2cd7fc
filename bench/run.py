#!/usr/bin/env python3
"""mgem benchmark: end-to-end metrics per workload, or a per-layer trace.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload wide10-run --seed 1 --seconds 50 --trace 0

Every workload drives the public CLI (``mgem.cli.main``) in this process
with a config generated from a template in ``bench/configs``. The config of
command ``j`` of a run sets ``stream.seed`` and ``train.seed`` to
``command_seed(seed, j)``, so the same ``--seed`` gives the same inputs;
command 0 takes a seed of the reference pool, whose reports are recorded in
``bench/references.json``. ``--trace 0`` runs commands back to back (a closed
loop, one command at a time) for about ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs command 0 three times -- untraced at
``nproc`` workers, untraced at one worker, traced at ``nproc`` workers -- and
reports the per-layer metrics. See ``bench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON record with the details. Exit codes: 0 after a result, 2 when
the checkout has no mgem sources or the arguments are wrong.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from checks import check_pareto, check_run, digests
from tracing import PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SEED_STRIDE = 1_000_003
REFERENCE_SEEDS = 24      # command 0 of a run uses seed % REFERENCE_SEEDS
PROBES_PER_GAP = 2        # rounds of calibrations and a set-up sample before each command
SETUP_MIN_SAMPLES = 12
# Seconds that calibrate() took on one thread on the machine this benchmark
# was written on (2 cores, Python 3.11.7, numpy 2.4.6). Timed metrics are
# scaled by CALIBRATION_REF_S / (the run's median calibrate() time): the
# machine's speed drifts by tens of percent over minutes, and the scaled
# figures follow the program rather than the machine. Set-up runs on one
# thread and is scaled by calibrate(1); the commands' steps are scaled by
# calibrate() on as many threads as the command runs jobs on at once.
CALIBRATION_REF_S = 0.2

# name -> (CLI command, config template)
WORKLOADS = {
    "rotated5-run": ("run", "rotated5.cfg"),
    "pareto2-sweep": ("pareto", "pareto2.cfg"),
    "wide10-run": ("run", "wide10.cfg"),
}

END_TO_END = {"setup_s": "s", "steps_per_ref_s": "1/s", "peak_rss_mb": "MB",
              "fwd_vs_ref": "1", "bwd_vs_ref": "1"}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mgem
from mgem.config import parse_config
from mgem.taskgen import generate
with open(sys.argv[2], encoding="utf-8") as fh:
    generate(parse_config(fh.read()).stream)
print(repr(time.perf_counter() - t0))
"""


def import_mgem():
    """Import mgem from this checkout's sources, or exit 2."""
    if not (SRC / "mgem" / "__init__.py").is_file():
        print(f"error: no mgem sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mgem
    from mgem import (cli, config, constraints, engine, layout, metrics, mlp, qp, seeds,
                      selfcheck, taskgen)
    if Path(mgem.__file__).resolve().parent != SRC / "mgem":
        print(f"error: imported mgem from {mgem.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return {"mgem": mgem, "cli": cli, "config": config, "constraints": constraints,
            "engine": engine, "layout": layout, "metrics": metrics, "mlp": mlp,
            "qp": qp, "seeds": seeds, "selfcheck": selfcheck, "taskgen": taskgen}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def command_seed(seed: int, j: int) -> int:
    """Seed of command ``j`` of a run: a reference seed for command 0, then
    seeds no other ``--seed`` below SEED_STRIDE reaches."""
    return seed % REFERENCE_SEEDS if j == 0 else seed + j * SEED_STRIDE


def _kernel(iters: int):
    rng = np.random.default_rng(0)
    w1, w2, w3 = (rng.standard_normal(shape) * 0.1 for shape in ((2, 64), (64, 64), (64, 10)))
    x = rng.standard_normal((16, 2))
    for _ in range(iters):
        h1 = np.maximum(x @ w1, 0.0)
        h2 = np.maximum(h1 @ w2, 0.0)
        out = h2 @ w3
        g3 = out - out.mean(axis=1, keepdims=True)
        g2 = (g3 @ w3.T) * (h2 > 0.0)
        g1 = (g2 @ w2.T) * (h1 > 0.0)
        float((h2.T @ g3).sum() + (h1.T @ g2).sum() + (x.T @ g1).sum())


def calibrate(threads: int = 1, iters: int = 4000) -> float:
    """Seconds for a fixed numpy kernel shaped like an mgem step: forward
    and backward passes of a 2-64-64-10 MLP on 16 samples, ``iters`` times,
    split over ``threads`` threads. It uses no mgem code, so its time
    measures the machine, not the program."""
    workers = [threading.Thread(target=_kernel, args=(iters // threads,))
               for _ in range(threads - 1)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    _kernel(iters // threads)
    for w in workers:
        w.join()
    return time.perf_counter() - t0


def write_config(workload: str, seed: int, path: Path):
    """The workload's template with stream.seed and train.seed set to seed."""
    template = (BENCH_DIR / "configs" / WORKLOADS[workload][1]).read_text(encoding="utf-8")
    lines, found = [], set()
    for line in template.splitlines():
        key = line.split("=", 1)[0].strip()
        if key in ("stream.seed", "train.seed"):
            line = f"{key} = {seed}"
            found.add(key)
        lines.append(line)
    if found != {"stream.seed", "train.seed"}:
        raise ValueError(f"template {WORKLOADS[workload][1]} lacks a seed key")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Command:
    """One generated config and the jobs its reports must hold."""

    def __init__(self, mods, workload: str, seed: int, work_dir: Path):
        self.kind = WORKLOADS[workload][0]
        self.seed = seed
        self.config = work_dir / f"{workload}-{seed}.cfg"
        write_config(workload, seed, self.config)
        cfg = mods["config"].parse_config(self.config.read_text(encoding="utf-8"))
        if self.kind == "run":
            self.jobs = [(m.label, m.strength, m.d_param, m.d_data, m.solver)
                         for m in cfg.methods]
            self.n_tasks = cfg.stream.n_tasks
        else:
            methods = cfg.methods or mods["config"].default_pareto_methods()
            self.jobs = [(m.label, float(q), m.d_param, m.d_data)
                         for m in methods for q in cfg.q_grid]
            self.n_tasks = 2
        self.steps = len(self.jobs) * self.n_tasks * cfg.iters_per_task

    def run(self, mods, out_dir: Path, threads: int):
        """Run through mgem.cli.main and check the reports; returns
        ``(wall seconds, Checked, report digests)``."""
        out_dir.mkdir(parents=True)
        argv = [self.kind, "--config", str(self.config), "--out", str(out_dir),
                "--threads", str(threads)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = mods["cli"].main(argv)
            except Exception:  # a crash fails the command's jobs, not the benchmark
                traceback.print_exc()
                rc = "exception"
            wall = time.perf_counter() - t0
        if self.kind == "run":
            checked = check_run(out_dir, self.jobs, self.n_tasks, self.seed)
        else:
            checked = check_pareto(out_dir, self.jobs, self.seed)
        if rc != 0:
            checked.failed = set(range(len(self.jobs)))
            checked.problems.insert(0, f"exit code {rc}")
        dig = digests(out_dir)
        shutil.rmtree(out_dir)
        return wall, checked, dig


def load_references(workload: str) -> dict:
    """Seed -> {"reports": sha256 per report, "quality": Checked.quality}."""
    path = BENCH_DIR / "references.json"
    return json.loads(path.read_text(encoding="utf-8"))[workload]


def vs_reference(reference: dict, quality: dict) -> dict:
    """1 + the change of the report's forward and backward means from the
    reference; exactly 1 when the program computes what it did."""
    if quality is None:
        return {"fwd_vs_ref": 0.0, "bwd_vs_ref": 0.0}
    return {f"{k}_vs_ref": 1.0 + quality[f"{k}_mean"] - reference["quality"][f"{k}_mean"]
            for k in ("fwd", "bwd")}


def setup_once(config: Path) -> float:
    """Import mgem, parse the config and generate the stream in a fresh
    interpreter; returns the time the child measured."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(mods, workload: str, seed: int, seconds: float, work_dir: Path):
    """Closed loop of untraced commands on distinct inputs, interleaved with
    calibrations and set-up samples; returns ``(result, record)``."""
    threads = nproc()
    # mgem run trains its jobs one after another whatever --threads says.
    busy = threads if WORKLOADS[workload][0] == "pareto" else 1
    reference = load_references(workload)[str(command_seed(seed, 0))]
    calibrate(busy)  # warm-up, not recorded
    commands, problems, setup, cal, cal_busy = [], [], [], [], []

    def probe(config: Path, times: int):
        for _ in range(times):
            cal.append(calibrate())
            if busy > 1:
                cal_busy.append(calibrate(busy))
            setup.append(setup_once(config))

    quality = None
    start = time.perf_counter()
    # Start another command only while it is expected to end no later than
    # half a command past the deadline, so runs last ``seconds`` on average.
    while not commands or (time.perf_counter() - start
                           + sum(c["wall_s"] for c in commands) / (2 * len(commands))
                           < seconds):
        cmd = Command(mods, workload, command_seed(seed, len(commands)), work_dir)
        probe(cmd.config, PROBES_PER_GAP)
        wall, checked, dig = cmd.run(mods, work_dir / f"out-{len(commands)}", threads)
        problems.extend(f"seed {cmd.seed}: {p}" for p in checked.problems)
        if not commands:
            quality = checked.quality
            identical = dig == reference["reports"]
        commands.append({"seed": cmd.seed, "wall_s": wall, "steps": cmd.steps,
                         "jobs": len(cmd.jobs), "failed_jobs": len(checked.failed),
                         "degraded_jobs": len(checked.degraded)})
    probe(cmd.config, max(PROBES_PER_GAP, SETUP_MIN_SAMPLES - len(setup)))
    speed = CALIBRATION_REF_S / statistics.median(cal)
    steps_speed = CALIBRATION_REF_S / statistics.median(cal_busy or cal)

    attempted = sum(c["jobs"] for c in commands)
    failed = sum(c["failed_jobs"] for c in commands)
    steps_per_s = sum(c["steps"] for c in commands) / sum(c["wall_s"] for c in commands)
    metrics = {
        "setup_s": statistics.median(setup) * speed,
        "steps_per_ref_s": steps_per_s / steps_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **vs_reference(reference, quality),
    }
    record = {
        "workload": workload, "seed": seed, "trace": 0, "threads": threads,
        "quality": quality, "reports_identical": identical,
        "steps_per_s": steps_per_s, "setup_wall_s": statistics.median(setup),
        "machine_speed": speed, "machine_speed_steps": steps_speed,
        "jobs": attempted, "failed_jobs": failed,
        "degraded_jobs": sum(c["degraded_jobs"] for c in commands), "problems": problems,
        "setup_s_samples": setup, "calibration_s_samples": cal,
        "calibration_busy_s_samples": cal_busy, "commands": commands,
    }
    return result(metrics, attempted, failed, problems), record


def trace(mods, workload: str, seed: int, work_dir: Path):
    """Command 0 untraced at nproc and at one worker, then traced at nproc;
    returns ``(result, record)``."""
    threads = nproc()
    cmd = Command(mods, workload, command_seed(seed, 0), work_dir)
    tracer = Tracer(mods)
    walls, outputs, problems = {}, {}, []
    attempted = failed = degraded = 0
    quality = None
    for label, workers in (("untraced", threads), ("one_worker", 1), ("traced", threads)):
        if label == "traced":
            tracer.install()
        try:
            walls[label], checked, outputs[label] = cmd.run(mods, work_dir / label, workers)
        finally:
            tracer.uninstall()
        quality = quality or checked.quality
        problems.extend(f"{label}: {p}" for p in checked.problems)
        attempted += len(cmd.jobs)
        failed += len(checked.failed)
        degraded += len(checked.degraded)
    if outputs["one_worker"] != outputs["untraced"]:
        problems.append(f"reports differ between 1 and {threads} workers")
    if outputs["traced"] != outputs["untraced"]:
        problems.append("reports differ between the traced and the untraced run")
    enum_failed = len(tracer.failed_jobs())
    failed += enum_failed

    metrics = tracer.per_layer()
    metrics["engine.pareto_sweep.speedup"] = walls["one_worker"] / walls["untraced"]
    traced_wall = walls["traced"] - tracer.harness_delay()
    metrics["trace.overhead_frac"] = traced_wall / walls["untraced"] - 1.0
    spans = OUT_ROOT / "traces" / f"{workload}-{seed}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans)
    record = {
        "workload": workload, "seed": seed, "trace": 1, "threads": threads,
        "quality": quality,
        "reports_identical":
            outputs["untraced"] == load_references(workload)[str(cmd.seed)]["reports"],
        "jobs": attempted, "failed_jobs": failed, "degraded_jobs": degraded,
        "enum_failed_jobs": enum_failed, "problems": problems, "wall_s": walls,
        "harness_s": tracer.harness_total(), "harness_delay_s": tracer.harness_delay(),
        "spans": len(tracer.spans),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return result(metrics, attempted, failed, problems), record


def result(metrics, attempted, failed, problems):
    """``correct`` means every report passed its checks."""
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = import_mgem()
    work_dir = OUT_ROOT / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.trace:
            res, record = trace(mods, args.workload, args.seed, work_dir)
        else:
            res, record = measure(mods, args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = {name: unit for name, unit, _ in PER_LAYER} if args.trace else END_TO_END
    res["metrics"] = {name: {"value": res["metrics"][name], "unit": unit}
                      for name, unit in units.items()}
    for name, m in res["metrics"].items():
        print(f"{args.workload:14s} {name:44s} {m['value']:>16.6g} {m['unit']}")
    for name, value in (record["quality"] or {}).items():
        print(f"{args.workload:14s} {name:44s} {value:>16.6g} (report, command 0)")
    if "steps_per_s" in record:
        print(f"{args.workload:14s} {'steps_per_s':44s} {record['steps_per_s']:>16.6g} 1/s "
              "(wall clock, not scaled)")
    for name in ("jobs", "failed_jobs", "degraded_jobs", "reports_identical"):
        print(f"{args.workload:14s} {name:44s} {record[name]!s:>16}")
    print(json.dumps(record))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
