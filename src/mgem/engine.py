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

Jobs that draw the same data -- the same seed, step size, schedule, memory
size and memory rows per step, e.g. the methods and strengths of one sweep
-- train in lockstep (``run_group``): their parameters form one ``(J, P)``
stack, and each step makes one stacked minibatch, memory and trace pass for
all of them, assembles the per-module QPs of every job at once
(``constraints.assemble_step``) and solves them in one ``qp.solve_batch``
call. Row ``j`` of the stack is job ``j`` for the whole run: a job whose
values stop being finite keeps its row, zeroed, takes no further steps and
is not evaluated, and the other jobs' results stay bit-identical to their
runs alone. ``run`` is the one-job case.

``run_jobs`` runs independent jobs (one ``TrainConfig`` each, over a shared
stream and model spec): it groups them by the data they draw, cuts the
groups into chunks, and runs the chunks on a fork-started process pool that
lives only for the call; ``mgem run`` and ``pareto_sweep`` use it. Results
come back in job order and do not depend on the worker count or the
chunking.
"""

import os
import threading
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import qp
from .constraints import (
    MethodSpec,
    assemble_step,
    memory_grads,
    memory_groups,
    resolve_partition,
    split_memory,
)
from .mlp import Dataset, MlpSpec, _backprop, accuracy, init_params
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


def _group_key(cfg: TrainConfig) -> tuple:
    """Jobs with equal keys draw the same data and train in lockstep: the
    same initial parameters, minibatches and memories (all seeded from
    ``seed``), the same step size, and the same memory rows per step (none
    for ``single``, else one per split of each memory)."""
    rows = 0 if cfg.method.kind == "single" else cfg.method.d_data
    return (cfg.seed, cfg.lr, cfg.iters_per_task, cfg.batch_size, cfg.memory_per_task, rows)


def check_memory(stream: TaskStream, memory_per_task: int):
    """Raise ValueError if a task of ``stream`` has fewer training samples
    than ``memory_per_task``."""
    for task in stream.tasks:
        if memory_per_task > task.train.n_samples:
            raise ValueError(
                f"memory_per_task {memory_per_task} exceeds task "
                f"{task.descriptor} training size {task.train.n_samples}"
            )


def run(stream: TaskStream, mlp: MlpSpec, cfg: TrainConfig, trace: bool = False) -> RunResult:
    """Train through the stream; returns the R matrix and step traces.

    Unconverged solver steps fall back to the clamped (still feasible) dual
    iterate rather than aborting; the run is flagged degraded when more than
    ``DEGRADED_BUDGET`` of constrained steps fail to converge. This is the
    one-job case of ``run_group``; it raises what stopped the job.
    """
    result = run_group(stream, mlp, [cfg], trace)[0]
    if isinstance(result, Exception):
        raise result
    return result


def run_group(stream: TaskStream, mlp: MlpSpec, cfgs, trace: bool = False) -> list:
    """Train jobs that draw the same data in lockstep, as one ``(J, P)``
    parameter stack; returns one entry per config, in order: its
    ``RunResult``, or the ``FloatingPointError`` that stopped that job.

    All configs must share one ``_group_key``. Row ``j`` of every stack is
    job ``j`` for the whole run. Each step makes one stacked minibatch
    pass, one stacked memory pass and (when tracing) one stacked trace pass
    for all jobs; the memory and trace rows are cut once per task. The
    per-module QPs of every running job are assembled together and solved
    in one batched call, and each direction ``g + C^T v`` is written into
    its job's module span of the update stack; the trace inner products stay
    per job. Each job's result is the one it gets alone, bit for bit. A job
    whose values stop being finite stops at that step: it keeps its row,
    zeroed, takes no further steps and is not evaluated, and the other jobs
    train on.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    lead = cfgs[0]
    if any(_group_key(cfg) != _group_key(lead) for cfg in cfgs):
        raise ValueError("jobs of a group must share seed, lr, iters_per_task, batch_size, "
                         "memory_per_task and memory rows")
    check_memory(stream, lead.memory_per_task)

    J, T = len(cfgs), stream.n_tasks
    constrained_kind = lead.method.kind != "single"
    methods = [cfg.method for cfg in cfgs]
    spans = [resolve_partition(mlp, cfg.partition_mode, cfg.method.d_param) for cfg in cfgs]
    params = np.tile(init_params(mlp, lead.seed), (J, 1))
    running = np.ones(J, dtype=bool)
    results = [None] * J

    R = np.zeros((J, T, T))
    traces = [[] for _ in cfgs]
    constrained, unconverged, rows_dropped = np.zeros((3, J), dtype=np.int64)
    memories = []

    def stop(stack, what, task, it):
        """Stop each running job whose row of ``stack`` is not finite, with
        the error it raises alone, and zero its rows of ``stack`` and
        ``params``: it takes no further steps, and its later passes stay
        finite."""
        bad = ~np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))
        if not bad.any():
            return
        bad &= running
        for j in np.flatnonzero(bad).tolist():
            results[j] = FloatingPointError(
                f"{what} became non-finite at task {task}, iteration {it}; lower lr")
        running[bad] = False
        stack[bad] = 0.0
        params[bad] = 0.0

    for t_pos, task in enumerate(stream.tasks, start=1):
        batch_rng = rng_from(lead.seed, "batch", t_pos)
        n_train = task.train.n_samples
        memory_rows = memory_groups(memories) if constrained_kind and memories else None
        traced = trace and t_pos >= 2
        if traced:
            # the current and every past training set, then (single only)
            # every memory; constrained jobs take those from their memory rows
            trace_sets = [task.train] + [stream.tasks[s].train for s in range(t_pos - 1)]
            if not constrained_kind:
                trace_sets += [mem.data for mem in memories]
            trace_data = Dataset.concat(trace_sets)
            trace_sizes = [d.n_samples for d in trace_sets]
        for it in range(lead.iters_per_task):
            if not running.any():
                break
            idx = batch_rng.integers(0, n_train, size=lead.batch_size)
            g_t = _backprop(params, mlp, task.train.take(idx), (lead.batch_size,))[1][:, 0]
            if memory_rows is not None:
                mem_rows = _backprop(params, mlp, *memory_rows)[1]
            if traced:
                trace_rows = _backprop(params, mlp, trace_data, trace_sizes)[1]
            # stopped jobs' rows of z stay zero: assembly writes only running
            # rows, and the single jobs of a group train alike, so stop together
            z = g_t if memory_rows is None else np.zeros_like(g_t)
            stop(g_t, "minibatch gradient", task.descriptor, it)
            if memory_rows is not None:
                grads = memory_grads(memories, mem_rows)
                stop(grads, "memory gradients", task.descriptor, it)
            jobs = np.flatnonzero(running).tolist()
            if memory_rows is not None:
                stacks = assemble_step(methods, spans, g_t, mem_rows, jobs)
                unsolved = np.zeros(J, dtype=bool)
                for stack, sol in zip(stacks, qp.solve_batch([s.inst for s in stacks],
                                                             [s.solver for s in stacks])):
                    z[stack.jobs, stack.span] = sol.direction
                    unsolved[stack.jobs[~sol.converged]] = True
                    rows_dropped[stack.jobs] += sol.rows_dropped
                constrained += running
                unconverged += unsolved
            if traced:
                for r in jobs:
                    rows = trace_rows[r]
                    mem_grads = rows[t_pos:] if memory_rows is None else grads[r]
                    traces[r].append(StepTrace(
                        task=t_pos,
                        iteration=it,
                        fwd_inner=float(rows[0] @ z[r]),
                        bwd_inners=tuple(float(rows[s] @ z[r]) for s in range(1, t_pos)),
                        min_memory_inner=min(float(g @ z[r]) for g in mem_grads),
                    ))
            params -= lead.lr * z
            stop(params, "parameters", task.descriptor, it)

        mem_rng = rng_from(lead.seed, "memory", t_pos)
        sel = np.sort(mem_rng.choice(n_train, size=lead.memory_per_task, replace=False))
        memories.append(EpisodicMemory(
            task=task.descriptor,
            data=task.train.take(sel),
            splits=tuple(split_memory(lead.memory_per_task, lead.method.d_data,
                                      derive_seed(lead.seed, "memsplit", t_pos))),
        ))

        for r in np.flatnonzero(running).tolist():
            for k, other in enumerate(stream.tasks):
                R[r, t_pos - 1, k] = accuracy(params[r], mlp, other.test)

    for r in np.flatnonzero(running).tolist():
        results[r] = RunResult(
            accuracy=R[r],
            traces=traces[r],
            constrained_steps=int(constrained[r]),
            unconverged_steps=int(unconverged[r]),
            rows_dropped=int(rows_dropped[r]),
            degraded=bool(unconverged[r] > DEGRADED_BUDGET * constrained[r]),
            final_params=params[r].copy(),
        )
    return results


class JobError(RuntimeError):
    """A job of ``run_jobs`` failed; the message names the job and keeps
    the original message (e.g. the task and iteration of a divergence)."""


PARENT_POLL_S = 0.25
_worker_job = None  # (job, stream, mlp), set in each pool worker


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


def _pool_job(cfgs):
    job, stream, mlp = _worker_job
    return job(stream, mlp, cfgs)


def _chunks(cfgs, threads: int) -> list:
    """Job indices of each chunk: one chunk per ``_group_key`` group, in
    order of first job; for more than one worker, the largest chunk is
    halved until there are at least two chunks per worker (or every chunk
    holds one job), and the chunks are ordered largest first."""
    groups = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_group_key(cfg), []).append(i)
    chunks = list(groups.values())
    if threads > 1:
        while len(chunks) < 2 * threads:
            k = max(range(len(chunks)), key=lambda c: len(chunks[c]))
            if len(chunks[k]) < 2:
                break
            half = (len(chunks[k]) + 1) // 2
            chunks[k:k + 1] = [chunks[k][:half], chunks[k][half:]]
        chunks.sort(key=len, reverse=True)
    return chunks


def run_jobs(job, stream: TaskStream, mlp: MlpSpec, cfgs, threads: int = 1) -> list:
    """One result per config of ``cfgs``, in order, from lockstep chunks
    run on up to ``threads`` worker processes.

    ``job(stream, mlp, chunk)`` trains a chunk of configs that share one
    ``_group_key`` (``run_group`` is such a job) and returns one entry per
    config: its result, or the exception that stopped that config alone.
    Configs are grouped by the data they draw; at one worker each group is
    one chunk, and at more the largest chunk is halved until there are at
    least two chunks per worker, submitted largest first. Results do not
    depend on the chunking.

    The pool is fork-started and lives only for this call: ``stream``,
    ``mlp`` and ``job`` reach each worker once, inherited through the pool
    initializer; each chunk sends only its configs in and its results back.
    Every worker exits once the calling process is gone, even if that
    process was killed. With one chunk or one worker, or where ``os.fork``
    does not exist, the chunks run here one after another and no process
    starts. Once every chunk has run, the first config in order that failed
    raises ``JobError`` naming it; a chunk that raises as a whole fails
    every config in it.
    """
    cfgs = list(cfgs)
    chunks = _chunks(cfgs, threads)
    results = [None] * len(cfgs)

    def collect(chunk, get):
        try:
            out = get()
        except Exception as exc:  # raised below as the JobError of its first job
            out = [exc] * len(chunk)
        for i, res in zip(chunk, out):
            results[i] = res

    if min(threads, len(chunks)) <= 1 or not hasattr(os, "fork"):
        for chunk in chunks:
            collect(chunk, lambda: job(stream, mlp, [cfgs[i] for i in chunk]))
    else:
        # Imported here: they add ~15 ms to ``import mgem``. Fork, not spawn:
        # workers inherit the stream and skip a fresh import of numpy and
        # mgem. mgem starts no threads of its own, and the pool forks its
        # workers before it starts its manager thread.
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        with ProcessPoolExecutor(min(threads, len(chunks)),
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(os.getpid(), job, stream, mlp)) as pool:
            try:
                futures = [pool.submit(_pool_job, [cfgs[i] for i in chunk])
                           for chunk in chunks]
                for chunk, fut in zip(chunks, futures):
                    collect(chunk, fut.result)
            finally:
                pool.shutdown(cancel_futures=True)

    for i, (cfg, res) in enumerate(zip(cfgs, results)):
        if isinstance(res, Exception):
            raise JobError(
                f"job {i + 1} of {len(cfgs)} ({cfg.method.label}, "
                f"q={cfg.method.strength:g}, seed={cfg.seed}) failed: {res}"
            ) from res
    return results


@dataclass(eq=False)
class ParetoPoint:
    method: MethodSpec
    seed: int
    mean_bwd_inner: float
    mean_fwd_inner: float
    degraded: bool = field(default=False)


def _pareto_group(stream2, mlp, cfgs):
    points = []
    for cfg, result in zip(cfgs, run_group(stream2, mlp, cfgs, trace=True)):
        if isinstance(result, Exception):
            points.append(result)
            continue
        steps = [tr for tr in result.traces if tr.task == 2]
        bwd = float(np.mean([tr.bwd_inners[0] for tr in steps]))
        fwd = float(np.mean([tr.fwd_inner for tr in steps]))
        points.append(ParetoPoint(cfg.method, cfg.seed, bwd, fwd, result.degraded))
    return points


def pareto_sweep(stream: TaskStream, mlp: MlpSpec, base_cfg: TrainConfig,
                 grid, seeds=None, threads: int = 1):
    """Sweep (method, strength) grid points over the first two tasks.

    Each grid point runs tasks 1-2 with tracing on task 2 and reports the
    mean inner products of the update direction with the past-task gradient
    (backward axis) and current-task gradient (forward axis), averaged over
    task-2 iterations. Rows come back in grid-major, then seed, order.
    The (grid point, seed) jobs run through ``run_jobs``: the jobs of one
    seed and memory-row layout train in lockstep (``run_group``), in chunks
    spread over up to ``threads`` worker processes; the rows are the same
    for any count. A failing job raises ``JobError`` naming it.
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
    return run_jobs(_pareto_group, stream2, mlp, cfgs, threads)
