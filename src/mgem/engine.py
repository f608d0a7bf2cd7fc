"""The continual-learning loop: per-task SGD with projected updates.

For each task in order, ``run`` takes seeded minibatch SGD steps where the
raw batch gradient is replaced by the method's projected direction, stores
an episodic memory when the task finishes, and fills one row of the retained
accuracy matrix ``R`` (``R[i, j]`` = test accuracy on task ``j+1`` after
learning task ``i+1``; future-task entries are present but excluded from
the summary metrics).

Tracing (for the inner-product trade-off protocol) records, at every step of
a task with at least one predecessor, the inner products of the update
direction with the *full training set* gradients of the current and each
past task, and with the stored-memory gradients.

``run_jobs`` runs independent jobs (one ``TrainConfig`` each, over a shared
stream and model spec) on a fork-started process pool that lives only for
the call; ``mgem run`` and ``pareto_sweep`` use it. Results come back in job
order and do not depend on the worker count.
"""

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import qp
from .constraints import (
    MethodSpec,
    assemble_direction,
    build_instances,
    resolve_partition,
    split_memory,
)
from .mlp import Dataset, MlpSpec, accuracy, group_grads, init_params, loss_and_grad
from .seeds import derive_seed, rng_from
from .taskgen import TaskStream

DEGRADED_BUDGET = 0.01  # unconverged fraction of constrained steps tolerated


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    iters_per_task: int
    batch_size: int
    memory_per_task: int
    method: MethodSpec
    partition_mode: str = "by_layer"
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.iters_per_task < 1 or self.batch_size < 1:
            raise ValueError("iters_per_task and batch_size must be >= 1")
        if self.memory_per_task < self.method.d_data:
            raise ValueError("memory_per_task must be >= the method's d_data")


@dataclass(eq=False)
class EpisodicMemory:
    """Stored samples for one finished task, with fixed split assignment."""

    task: int
    data: Dataset
    splits: tuple

    @cached_property
    def split_data(self) -> Dataset:
        """The samples split by split, in split order: cut on first use and
        kept, since a memory never changes once stored."""
        return self.data.take(np.concatenate(self.splits))


@dataclass(eq=False)
class StepTrace:
    task: int
    iteration: int
    fwd_inner: float          # <g_t, z>, current-task full training gradient
    bwd_inners: tuple         # <g_s, z> per past task, full training gradients
    min_memory_inner: float   # min_s <ghat_s, z> over stored-memory gradients


@dataclass(eq=False)
class RunResult:
    accuracy: np.ndarray      # (T, T) retained-accuracy matrix
    traces: list
    constrained_steps: int
    unconverged_steps: int
    rows_dropped: int
    degraded: bool
    final_params: np.ndarray  # parameters after the last task


def _check_finite(values, what: str, task: int, it: int):
    """Stop the run at the step where ``values`` stop being finite."""
    if not np.isfinite(values).all():
        raise FloatingPointError(
            f"{what} became non-finite at task {task}, iteration {it}; lower lr"
        )


def _solve(inst, method: MethodSpec):
    if method.solver == "approx":
        return qp.solve_approx(inst)
    return qp.solve_exact(inst)


def run(stream: TaskStream, mlp: MlpSpec, cfg: TrainConfig, trace: bool = False) -> RunResult:
    """Train through the stream; returns the R matrix and step traces.

    Unconverged solver steps fall back to the clamped (still feasible) dual
    iterate rather than aborting; the run is flagged degraded when more than
    ``DEGRADED_BUDGET`` of constrained steps fail to converge.
    """
    for task in stream.tasks:
        if cfg.memory_per_task > task.train.n_samples:
            raise ValueError(
                f"memory_per_task {cfg.memory_per_task} exceeds task "
                f"{task.descriptor} training size {task.train.n_samples}"
            )

    method = cfg.method
    params = init_params(mlp, cfg.seed)
    spans = resolve_partition(mlp, cfg.partition_mode, method.d_param)

    T = stream.n_tasks
    R = np.zeros((T, T))
    memories = []
    traces = []
    constrained = 0
    unconverged = 0
    rows_dropped = 0

    for t_pos, task in enumerate(stream.tasks, start=1):
        batch_rng = rng_from(cfg.seed, "batch", t_pos)
        n_train = task.train.n_samples
        if trace and t_pos >= 2:
            # one group_grads pass per step: the current and every past
            # training set, then (unconstrained steps only) every memory
            trace_sets = [task.train] + [stream.tasks[s].train for s in range(t_pos - 1)]
            if method.kind == "single":
                trace_sets += [mem.data for mem in memories]
            trace_data = Dataset.concat(trace_sets)
            trace_sizes = [d.n_samples for d in trace_sets]
        for it in range(cfg.iters_per_task):
            idx = batch_rng.integers(0, n_train, size=cfg.batch_size)
            _, g_t = loss_and_grad(params, mlp, task.train.take(idx))
            _check_finite(g_t, "minibatch gradient", task.descriptor, it)

            if method.kind == "single" or not memories:
                z = g_t
                batch = None
            else:
                batch = build_instances(method, memories, g_t, params, mlp, spans)
                _check_finite(batch.memory_grads, "memory gradients", task.descriptor, it)
                sols = [_solve(inst, method) for inst in batch.instances]
                z = assemble_direction(sols, spans)
                constrained += 1
                if not all(s.converged for s in sols):
                    unconverged += 1
                rows_dropped += batch.rows_dropped

            if trace and t_pos >= 2:
                rows = group_grads(params, mlp, trace_data, trace_sizes)
                bwd = tuple(float(rows[s] @ z) for s in range(1, t_pos))
                mem_grads = rows[t_pos:] if batch is None else batch.memory_grads
                mem_inner = min(float(g @ z) for g in mem_grads)
                traces.append(StepTrace(
                    task=t_pos,
                    iteration=it,
                    fwd_inner=float(rows[0] @ z),
                    bwd_inners=bwd,
                    min_memory_inner=mem_inner,
                ))

            params -= cfg.lr * z
            _check_finite(params, "parameters", task.descriptor, it)

        mem_rng = rng_from(cfg.seed, "memory", t_pos)
        sel = np.sort(mem_rng.choice(n_train, size=cfg.memory_per_task, replace=False))
        memories.append(EpisodicMemory(
            task=task.descriptor,
            data=task.train.take(sel),
            splits=tuple(split_memory(cfg.memory_per_task, method.d_data,
                                      derive_seed(cfg.seed, "memsplit", t_pos))),
        ))

        for j, other in enumerate(stream.tasks):
            R[t_pos - 1, j] = accuracy(params, mlp, other.test)

    degraded = constrained > 0 and unconverged > DEGRADED_BUDGET * constrained
    return RunResult(
        accuracy=R,
        traces=traces,
        constrained_steps=constrained,
        unconverged_steps=unconverged,
        rows_dropped=rows_dropped,
        degraded=degraded,
        final_params=params,
    )


class JobError(RuntimeError):
    """A job of ``run_jobs`` raised; the message names the job and keeps
    the original message (e.g. the task and iteration of a divergence)."""


PARENT_POLL_S = 0.25
_worker_job = None  # (job, stream, mlp), set in each pool worker


@contextmanager
def _naming(i: int, cfgs):
    try:
        yield
    except Exception as exc:
        cfg = cfgs[i]
        raise JobError(
            f"job {i + 1} of {len(cfgs)} ({cfg.method.label}, "
            f"q={cfg.method.strength:g}, seed={cfg.seed}) failed: {exc}"
        ) from exc


def _exit_with_parent(parent: int):
    # Every worker holds both ends of the pool's pipes, so none sees EOF
    # when the parent dies; without this, a killed parent leaves them asleep.
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _init_worker(parent: int, job, stream, mlp):
    global _worker_job
    _worker_job = (job, stream, mlp)
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _pool_job(cfg):
    job, stream, mlp = _worker_job
    return job(stream, mlp, cfg)


def run_jobs(job, stream: TaskStream, mlp: MlpSpec, cfgs, threads: int = 1) -> list:
    """``[job(stream, mlp, cfg) for cfg in cfgs]`` on up to ``threads``
    worker processes.

    The pool is fork-started and lives only for this call: ``stream``,
    ``mlp`` and ``job`` reach each worker once, inherited through the pool
    initializer; each job sends only its config in and its result back.
    Every worker exits once the calling process is gone, even if that
    process was killed. With one worker or one job, or where ``os.fork``
    does not exist, the jobs run here one after another and no process
    starts. The first job in order that raises cancels the pending jobs and
    raises ``JobError``.
    """
    cfgs = list(cfgs)
    workers = min(threads, len(cfgs))
    results = []
    if workers <= 1 or not hasattr(os, "fork"):
        for i, cfg in enumerate(cfgs):
            with _naming(i, cfgs):
                results.append(job(stream, mlp, cfg))
        return results

    # Imported here: they add ~15 ms to ``import mgem``. Fork, not spawn:
    # workers inherit the stream and skip a fresh import of numpy and mgem.
    # mgem starts no threads of its own, and the pool forks its workers
    # before it starts its manager thread.
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(os.getpid(), job, stream, mlp)) as pool:
        futures = [pool.submit(_pool_job, cfg) for cfg in cfgs]
        try:
            for i, fut in enumerate(futures):
                with _naming(i, cfgs):
                    results.append(fut.result())
        finally:
            pool.shutdown(cancel_futures=True)
    return results


@dataclass(eq=False)
class ParetoPoint:
    method: MethodSpec
    seed: int
    mean_bwd_inner: float
    mean_fwd_inner: float
    degraded: bool = field(default=False)


def _pareto_one(stream2, mlp, cfg):
    result = run(stream2, mlp, cfg, trace=True)
    steps = [tr for tr in result.traces if tr.task == 2]
    bwd = float(np.mean([tr.bwd_inners[0] for tr in steps]))
    fwd = float(np.mean([tr.fwd_inner for tr in steps]))
    return ParetoPoint(cfg.method, cfg.seed, bwd, fwd, result.degraded)


def pareto_sweep(stream: TaskStream, mlp: MlpSpec, base_cfg: TrainConfig,
                 grid, seeds=None, threads: int = 1):
    """Sweep (method, strength) grid points over the first two tasks.

    Each grid point runs tasks 1-2 with tracing on task 2 and reports the
    mean inner products of the update direction with the past-task gradient
    (backward axis) and current-task gradient (forward axis), averaged over
    task-2 iterations. Rows come back in grid-major, then seed, order.
    The (grid point, seed) jobs run through ``run_jobs`` on up to
    ``threads`` worker processes; the rows are the same for any count. A
    failing job raises ``JobError`` naming it.
    """
    if stream.n_tasks < 2:
        raise ValueError("pareto requires >= 2 tasks")
    stream2 = TaskStream(stream.tasks[:2])
    if seeds is None:
        seeds = [base_cfg.seed]

    cfgs = []
    for method, q in grid:
        for seed in seeds:
            cfgs.append(replace(
                base_cfg, method=replace(method, strength=float(q)), seed=seed,
            ))
    return run_jobs(_pareto_one, stream2, mlp, cfgs, threads)
