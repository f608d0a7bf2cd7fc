"""Command-line entry point.

Commands::

    mgem run      --config PATH [--out DIR] [--seeds N] [--threads N]
    mgem pareto   --config PATH [--out DIR] [--seeds N] [--threads N]
    mgem selfcheck [--quick]

``run`` executes every configured method over the stream and writes
``summary.csv`` plus one retained-accuracy matrix file per run. ``pareto``
crosses the configured (or default) methods with the strength grid over the
first two tasks and writes ``pareto.csv``. ``selfcheck`` runs the built-in
verification suites. ``run`` and ``pareto`` declare their four flags once,
on one argparse parent parser, so both show the same flags and help.

Both commands build their job list once (``_jobs``), method-major then
seed: ``run`` from the configured methods, ``pareto`` from its grid, each
method at each strength of ``pareto.q_grid``. ``--threads N`` is the number
of worker processes the jobs are spread over (``engine.run_jobs``). Jobs
of one seed and memory-row layout train in lockstep as one parameter stack
(``engine.run_group``); each group is a chunk, and the largest chunk is
halved until there are N chunks, run largest first. Output is identical
for any N; where ``os.fork`` does not exist, the chunks run one after
another in this process. ``--threads`` defaults to 1; ``--seeds`` and
``--threads`` must be plain ASCII integers of at least 1.

A config's ``output.dir`` is created with its parents; an ``--out``
directory is created only if its parent exists. An empty ``--out`` is a
usage error and an empty ``output.dir`` a config error: either would name
the working directory. An output path that names something other than a
directory, and a stream data file that cannot be read or holds a bad cell,
are config errors.

On glibc, ``main`` serves allocations below 32 MiB from the heap and keeps
64 MiB of free heap top instead of returning it to the kernel
(``_keep_heap_top``); pool workers inherit the settings.

Exit codes: 0 success, 1 usage/config error, 2 runtime or solver-budget
failure (a failing job is named in the message). A command runs with
numpy's floating-point warnings off, and pool workers inherit that: a run
that diverges is caught by its finiteness checks, so a failing command
prints its one error line and no ``RuntimeWarning``. Settings that no job can
train with are config errors, raised before any job starts.
"""

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfigFile, _integer, default_pareto_methods, parse_config
from .engine import TrainConfig, check_memory, pareto_sweep, run_group, run_jobs
from .metrics import summarize, write_pareto_csv, write_rmatrix_csv, write_summary_csv
from .mlp import check_data
from .selfcheck import run_all
from .taskgen import TaskStream, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
M_TOP_PAD = -2  # glibc mallopt parameter: extra bytes kept when the heap top moves
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter: smallest request served by mmap
HEAP_TOP_PAD = 64 << 20
MMAP_THRESHOLD = 32 << 20


@functools.cache
def _keep_heap_top():
    """Ask glibc to serve requests below ``MMAP_THRESHOLD`` from the heap
    and to keep ``HEAP_TOP_PAD`` bytes of free heap top; a no-op where the
    C library has no ``mallopt``.

    Each stacked pass of a traced step frees a few MB of temporaries, glibc
    trims the heap top after it, and the next pass faults the pages back in
    (~330 minor faults per pass of a 24-job pareto2 chunk). Any ``mallopt``
    call also freezes glibc's mmap threshold, which it otherwise raises as
    mapped blocks are freed, at its value then; in a process whose threshold
    is still low, the pass's temporaries would be mapped, and faulted in,
    afresh each pass. So the threshold is set first. Only the CLI sets
    these, because it owns its process; the pad reserves address space, and
    pages become resident only when touched.
    """
    import ctypes  # here, not at module level: importing it costs ~3.6 ms

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TOP_PAD, HEAP_TOP_PAD)


def _load_config(path: str) -> RunConfigFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _resolve_out_dir(cfg: RunConfigFile, override) -> Path:
    out = Path(override or cfg.out_dir)
    name = f"--out {out}" if override else f"[output] dir {out}"
    if out.exists() and not out.is_dir():
        raise ConfigError(f"{name} is not a directory")
    if override and not out.parent.exists():
        raise ConfigError(f"output directory parent {out.parent} does not exist")
    try:
        out.mkdir(parents=not override, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{name}: cannot create directory: {exc.strerror}") from None
    return out


def _generate(cfg: RunConfigFile) -> TaskStream:
    """The configured stream; a bad data file is a ConfigError."""
    try:
        return generate(cfg.stream)
    except ValueError as exc:
        raise ConfigError(f"[stream] {exc}") from None


def _count(text: str) -> int:
    """An integer >= 1, for ``--seeds`` and ``--threads``, spelled as a
    config file's integers are."""
    try:
        value = _integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _out_dir(text: str) -> str:
    """A non-empty ``--out`` path; an empty one would name the working
    directory."""
    if not text:
        raise argparse.ArgumentTypeError("expected a directory path, got ''")
    return text


def _jobs(cfg: RunConfigFile, stream, methods, n_seeds: int) -> list:
    """The ``TrainConfig`` of every method of ``methods`` at ``n_seeds``
    seeds from ``train.seed`` up, method-major then seed.

    Raise ConfigError for settings that no job can train with: bad
    ``[train]`` fields, a memory larger than a task's training set of
    ``stream``, or a model that does not fit the stream.
    """
    seeds = range(cfg.train_seed, cfg.train_seed + n_seeds)
    jobs = []
    for method in methods:
        try:
            jobs += [TrainConfig(cfg.lr, cfg.iters_per_task, cfg.batch_size, cfg.memory_per_task,
                                 method, cfg.partition_mode, seed) for seed in seeds]
        except ValueError as exc:
            raise ConfigError(f"[train] {exc} ({method.label})") from None
    try:
        check_memory(stream, cfg.memory_per_task)
    except ValueError as exc:
        raise ConfigError(f"[train] {exc}") from None
    sizes = ",".join(str(k) for k in cfg.model.layer_sizes)
    for task in stream.tasks:
        for data in (task.train, task.test):
            try:
                check_data(cfg.model, data)
            except ValueError as exc:
                raise ConfigError(f"[model] layer_sizes {sizes} do not fit task "
                                  f"{task.descriptor}: {exc}") from None
    return jobs


def _exit_code(degraded: bool, runs: str) -> int:
    if degraded:
        print(f"warning: at least one {runs} exceeded the solver convergence budget",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if not cfg.methods:
        raise ConfigError("[method.1] at least one method entry is required for run")
    stream = _generate(cfg)
    cfgs = _jobs(cfg, stream, cfg.methods, args.seeds)
    out = _resolve_out_dir(cfg, args.out)
    results = run_jobs(run_group, stream, cfg.model, cfgs, args.threads)

    entries = []
    for run_idx, (tcfg, result) in enumerate(zip(cfgs, results), start=1):
        entries.append((tcfg.method, tcfg.seed, summarize(result.accuracy),
                        result.unconverged_steps))
        name = "rmatrix.csv" if run_idx == 1 else f"rmatrix_{run_idx}.csv"
        write_rmatrix_csv(out / name, result.accuracy)
    write_summary_csv(out / "summary.csv", entries)
    print(f"wrote {out / 'summary.csv'} ({len(entries)} runs)")
    return _exit_code(any(result.degraded for result in results), "run")


def cmd_pareto(args) -> int:
    cfg = _load_config(args.config)
    stream = _generate(cfg)
    if stream.n_tasks < 2:
        raise ConfigError("pareto requires >= 2 tasks")
    methods = cfg.methods if cfg.methods else default_pareto_methods()
    grid = [replace(m, strength=q) for m in methods for q in cfg.q_grid]
    cfgs = _jobs(cfg, TaskStream(stream.tasks[:2]), grid, args.seeds)
    out = _resolve_out_dir(cfg, args.out)
    points = pareto_sweep(stream, cfg.model, cfgs, args.threads)
    write_pareto_csv(out / "pareto.csv", points)
    print(f"wrote {out / 'pareto.csv'} ({len(points)} rows)")
    return _exit_code(any(p.degraded for p in points), "sweep run")


def cmd_selfcheck(args) -> int:
    results = run_all(quick=args.quick)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.detail} ({r.elapsed:.2f}s)")
    return EXIT_OK if all(r.passed for r in results) else EXIT_RUNTIME


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgem",
        description="GEM-family continual-learning runs, sweeps, and solver self-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jobs = argparse.ArgumentParser(add_help=False)  # the flags run and pareto share
    jobs.add_argument("--config", required=True, help="path to a run config file")
    jobs.add_argument("--out", type=_out_dir, help="output directory (overrides output.dir)")
    jobs.add_argument("--seeds", type=_count, default=1, help="seeds per job, from train.seed up")
    jobs.add_argument("--threads", type=_count, default=1,
                      help="worker processes for the method (run) or grid (pareto) x seed jobs")
    for name, fn, text in (("run", cmd_run, "train every configured method, write summary"),
                           ("pareto", cmd_pareto, "inner-product trade-off sweep on tasks 1-2")):
        sub.add_parser(name, parents=[jobs], help=text).set_defaults(fn=fn)

    p_chk = sub.add_parser("selfcheck", help="run the built-in verification suites")
    p_chk.add_argument("--quick", action="store_true", help="reduced instance counts")
    p_chk.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    _keep_heap_top()
    try:
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, FloatingPointError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
