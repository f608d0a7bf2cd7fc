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
stack (one row on task 1, where they are all the same model), each step
makes one gradient pass stacked over all of them, and each step assembles
the per-module QPs of every job at once (``constraints.assemble_step``) and
solves them in one ``qp.solve_batch`` call. Row ``j`` of the stack is job
``j`` for the whole run, and each job's result is bit-identical to its run
alone. The first job whose values stop being finite, or whose memory rows
the solver rejects, stops the group at that step with the error it raises
alone. ``run`` is the one-job case.

``run_jobs`` runs independent jobs (one ``TrainConfig`` each, over a shared
stream and model spec): it groups them by the data they draw, cuts the
groups into chunks, and runs the chunks on a fork-started process pool that
lives only for the call; ``mgem run`` and ``pareto_sweep`` use it. Results
come back in job order and do not depend on the worker count or the
chunking; nor does the failure it names, the earliest divergence.
"""

import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import qp
from .constraints import (
    MethodSpec,
    assemble_step,
    assembly_plan,
    resolve_partition,
    split_memory,
)
from .mlp import Dataset, MlpSpec, _backprop, accuracy, init_params
from .seeds import check_seed, derive_seed, integer_fields, rng_from
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
        integer_fields(self, "iters_per_task", "batch_size", "memory_per_task", "seed")
        check_seed(self.seed)
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if not np.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        if self.iters_per_task < 1 or self.batch_size < 1:
            raise ValueError("iters_per_task and batch_size must be >= 1")
        if self.memory_per_task < self.method.d_data:
            raise ValueError("memory_per_task must be >= the method's d_data")


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
    ``seed``), the same step size, and the same memory rows per step (for
    ``single``, one per memory on traced steps and none otherwise; else one
    per split of each memory)."""
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
    one-job case of ``run_group``.
    """
    return run_group(stream, mlp, [cfg], trace)[0]


CHECKS = ("minibatch gradient", "memory gradients", "parameters")  # in step order


def run_group(stream: TaskStream, mlp: MlpSpec, cfgs, trace: bool = False) -> list:
    """Train jobs that draw the same data in lockstep, as one ``(J, P)``
    parameter stack; returns one ``RunResult`` per config, in order.

    All configs must share one ``_group_key``. Row ``j`` of every stack is
    job ``j`` from task 2 on. On task 1 no job has a memory, so every job
    is the same model: the group trains a one-row stack, evaluates it once
    and then repeats it to one row per job.

    Every step makes one stacked pass for all jobs: its minibatch, then the
    memory splits when it solves QPs or traces, then the current and past
    training sets when it traces; it cuts the minibatch gradient, the memory
    rows and the trace rows from it. Each step joins its minibatch to the
    rows it needs (none on task 1 and on an untraced ``single`` step). That
    pass gives the rows of separate passes bit for bit wherever each
    layer's products give the same bits for every row count: as measured,
    one hidden layer of 16 to 100 units (``pareto2``), ``3,9,7,5`` and two
    hidden layers of 8 or 16 units. A hidden-to-hidden layer of 32 or more
    units (e.g. ``2,64,64,10``) gives other last bits for 16 rows than for
    more in its backward product ``delta @ [W; b]^T`` (the forward products
    ``[h, 1] @ [W; b]`` of ``2,64,64,10`` give the same bits for 16 rows as
    for 304), so on such a net the minibatch and memory rows of a step
    depend in the last bits on which rows share its pass, and a traced run
    can differ from the same run untraced.

    Each stored memory split is one dataset, in one list that grows once
    per task, memory by memory and split by split. The memory rows
    feed the QP and the finiteness check of memory gradients, and on a
    traced step the memory inner products of every method: a
    memory's ``<g_s, z>`` is the size-weighted sum of its splits' inner
    products, ``sum_k (n_k / M) <g_sk, z>`` (a one-split memory's is its
    row's). The per-module QPs of every job are assembled together, from an
    assembly plan made once per run, and solved in one batched call; each
    direction ``g + C^T v`` is written into the jobs and module span of its
    plan entry in the update stack. Stacked products give every job's trace
    inner products, and one stacked evaluation per task fills the accuracy
    rows. Each job's result is the one it gets alone, bit for bit.

    Each step checks, in ``CHECKS`` order, that the minibatch gradients,
    the memory gradients (none where its pass has no memory rows) and the
    updated parameters are finite; the gradient rows of the pass take one
    scan, and the failing row is looked for only when it fails. On a step
    that solves QPs the memory check is the solver's: the step assembles its
    QP stacks before the scan, and a job fails it where a module slice of
    one of its memory rows in those stacks has a squared norm
    (``qp.row_sqnorms``) that is not finite, which a row of finite entries
    can also overflow to. The first check with a failing row stops the
    group: it raises the error of that row's job (the first such row), the
    one ``run`` raises for it alone, tagged with the row and its ``(task,
    iteration, check)``; no pass runs after that step. Each job trains as
    it would alone, so that point is its own, whatever group it is in.
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
    # task 1: no job has a memory, so every job is the same model, one row
    params = init_params(mlp, lead.seed)[None]

    R = np.zeros((J, T, T))
    traces = [[] for _ in cfgs]
    unconverged, rows_dropped = np.zeros((2, J), dtype=np.int64)
    d = lead.method.d_data
    splits = []  # every stored memory split, memory by memory, as one dataset each

    def check(stack, which, it):
        """Raise the ``FloatingPointError`` of the first job whose row of
        ``stack`` is not finite, the one it raises alone, with its stack row
        (``row``) and its ``(task, iteration, check)`` (``point``); ``which``
        indexes ``CHECKS``. A one-row stack (task 1) is the row of every
        job."""
        if not np.isfinite(stack).all():
            err = FloatingPointError(f"{CHECKS[which]} became non-finite at task "
                                     f"{task.descriptor}, iteration {it}; lower lr")
            err.row = int(np.argmin(np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))))
            err.point = (t_pos, it, which)
            raise err

    def module_norms(stacks):
        """Each job's largest squared norm of a module slice of its memory
        rows, the rows of the step's ``stacks`` (one per plan entry) by
        ``qp.row_sqnorms``: not finite for exactly the jobs whose rows the
        solver rejects, a row with a non-finite entry among them."""
        sq = np.zeros(J)
        for p, (rows, _, _) in zip(plan, stacks):
            sq[p.jobs] = np.maximum(sq[p.jobs], qp.row_sqnorms(rows).max(axis=1))
        return sq

    # one plan serves every solved step of the run; single solves nothing
    plan = assembly_plan(methods, spans) if constrained_kind else []
    solvers = [p.solver for p in plan]

    for t_pos, task in enumerate(stream.tasks, start=1):
        batch_rng = rng_from(lead.seed, "batch", t_pos)
        n_train = task.train.n_samples
        one_row = not splits
        solved = constrained_kind and not one_row
        traced = trace and t_pos >= 2
        G = len(splits)
        # each step's one pass: its minibatch, then the memory splits when
        # it solves or traces, then the current and past training sets when
        # it traces
        trace_sets = [t.train for t in (task,) + stream.tasks[:t_pos - 1]] if traced else []
        parts = (splits if solved or traced else []) + trace_sets
        pass_sizes = [lead.batch_size] + [p.n_samples for p in parts]
        weights = np.reshape([s.n_samples for s in splits], (-1, d)) / lead.memory_per_task
        for it in range(lead.iters_per_task):
            batch = task.train.take(batch_rng.integers(0, n_train, size=lead.batch_size))
            out = _backprop(params, mlp, Dataset.concat([batch, *parts]), pass_sizes)[1]
            g_t, mem_rows = out[:, 0], out[:, 1:1 + G]  # no memory rows: empty
            stacks = assemble_step(plan, g_t, mem_rows) if solved else []
            if not np.isfinite(out[:, :1 + G]).all():  # one scan; find the row on failure
                check(g_t, 0, it)
                check(module_norms(stacks) if solved else mem_rows, 1, it)
            z = np.empty_like(g_t) if solved else g_t
            if solved:
                try:
                    sols = qp.solve_batch(stacks, solvers)
                except ValueError:  # a finite row whose squared norm overflows
                    check(module_norms(stacks), 1, it)
                    raise
                unsolved = np.zeros(J, dtype=bool)
                for p, sol in zip(plan, sols):
                    z[p.jobs, p.span] = sol.direction
                    unsolved[p.jobs[~sol.converged]] = True
                    rows_dropped[p.jobs] += sol.rows_dropped
                unconverged += unsolved
            if traced:
                # one (1, P) @ (P, 1) product per row after the minibatch:
                # numpy's dot routine, as ``row @ z`` alone, so each inner
                # product is that float bit for bit; a memory's is the
                # size-weighted sum of its splits' (one split: its own)
                inner = np.matmul(out[:, 1:, None, :], z[:, None, :, None])[..., 0, 0]
                mem_inner = (inner[:, :G].reshape(J, -1, d) * weights).sum(axis=2)
                for r, (row, mem) in enumerate(zip(inner[:, G:].tolist(), mem_inner.tolist())):
                    traces[r].append(StepTrace(
                        task=t_pos,
                        iteration=it,
                        fwd_inner=row[0],
                        bwd_inners=tuple(row[1:]),
                        min_memory_inner=min(mem),
                    ))
            params -= lead.lr * z
            check(params, 2, it)

        mem_rng = rng_from(lead.seed, "memory", t_pos)
        sel = np.sort(mem_rng.choice(n_train, size=lead.memory_per_task, replace=False))
        splits += [task.train.take(sel[idx]) for idx in
                   split_memory(lead.memory_per_task, d, derive_seed(lead.seed, "memsplit", t_pos))]

        for k, other in enumerate(stream.tasks):
            R[:, t_pos - 1, k] = accuracy(params, mlp, other.test)
        if one_row:
            params = np.repeat(params, J, axis=0)

    constrained = lead.iters_per_task * (T - 1) if constrained_kind else 0
    return [RunResult(
        accuracy=R[r],
        traces=traces[r],
        constrained_steps=constrained,
        unconverged_steps=int(unconverged[r]),
        rows_dropped=int(rows_dropped[r]),
        degraded=bool(unconverged[r] > DEGRADED_BUDGET * constrained),
        final_params=params[r].copy(),
    ) for r in range(J)]


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
    """Job indices of each chunk, largest first: one chunk per
    ``_group_key`` group, with the largest chunk halved until there is one
    chunk per worker (or every chunk holds one job). A lockstep chunk pays
    a per-step cost that its job count does not change, so a worker runs
    one chunk where it can."""
    groups = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_group_key(cfg), []).append(i)
    chunks = list(groups.values())
    while 0 < len(chunks) < threads:
        k = max(range(len(chunks)), key=lambda c: len(chunks[c]))
        if len(chunks[k]) < 2:
            break
        half = (len(chunks[k]) + 1) // 2
        chunks[k:k + 1] = [chunks[k][:half], chunks[k][half:]]
    return sorted(chunks, key=len, reverse=True)


def run_jobs(job, stream: TaskStream, mlp: MlpSpec, cfgs, threads: int = 1) -> list:
    """One result per config of ``cfgs``, in order, from lockstep chunks
    run on up to ``threads`` worker processes.

    ``job(stream, mlp, chunk)`` trains a chunk of configs that share one
    ``_group_key`` (``run_group`` is such a job) and returns one result per
    config. Configs are grouped by the data they draw, one chunk per group,
    and the largest chunk is halved until there is one chunk per worker;
    chunks are submitted largest first. Results do not depend on the
    chunking.

    The pool is fork-started and lives only for this call: ``stream``,
    ``mlp`` and ``job`` reach each worker once, inherited through the pool
    initializer; each chunk sends only its configs in and its results back.
    Every worker exits once the calling process is gone, even if that
    process was killed. With one chunk or one worker, or where ``os.fork``
    does not exist, the chunks run here one after another and no process
    starts.

    Once every chunk has run, a failure raises ``JobError`` naming one
    config: of the chunks that raised, the error with the earliest
    ``point`` (``run_group``'s ``(task, iteration, check)``; an error
    without one counts as earliest), a tie going to the first config in
    order. An error names the config of its chunk ``row`` (else the chunk's
    first). A job's divergence point is its own, so the named job does not
    depend on the worker count or the chunking.
    """
    cfgs = list(cfgs)
    chunks = _chunks(cfgs, threads)
    results = [None] * len(cfgs)
    failures = []  # (point, config index, error)

    def collect(chunk, get):
        try:
            out = get()
        except Exception as exc:  # raised below as the JobError of its config
            failures.append((getattr(exc, "point", ()), chunk[getattr(exc, "row", 0)], exc))
            return
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

    if failures:
        _, i, exc = min(failures, key=lambda f: f[:2])
        cfg = cfgs[i]
        raise JobError(
            f"job {i + 1} of {len(cfgs)} ({cfg.method.label}, "
            f"q={cfg.method.strength:g}, seed={cfg.seed}) failed: {exc}"
        ) from exc
    return results


@dataclass(eq=False)
class ParetoPoint:
    method: MethodSpec
    seed: int
    mean_bwd_inner: float
    mean_fwd_inner: float
    degraded: bool = False


def _pareto_group(stream2, mlp, cfgs):
    points = []
    for cfg, result in zip(cfgs, run_group(stream2, mlp, cfgs, trace=True)):
        bwd = float(np.mean([tr.bwd_inners[0] for tr in result.traces]))
        fwd = float(np.mean([tr.fwd_inner for tr in result.traces]))
        points.append(ParetoPoint(cfg.method, cfg.seed, bwd, fwd, result.degraded))
    return points


def pareto_sweep(stream: TaskStream, mlp: MlpSpec, cfgs, threads: int = 1) -> list:
    """One ``ParetoPoint`` per config of ``cfgs``, in order, each from a run
    of tasks 1-2 with tracing on task 2.

    A point holds the mean inner products of the update direction with the
    past-task gradient (backward axis) and the current-task gradient
    (forward axis) over the task-2 iterations. The configs run through
    ``run_jobs``: those of one seed and memory-row layout train in lockstep
    (``run_group``), in chunks spread over up to ``threads`` worker
    processes; the points are the same for any count. A failing job raises
    ``JobError`` naming it. ``mgem pareto`` passes its grid x seed jobs,
    method-major then seed.
    """
    if stream.n_tasks < 2:
        raise ValueError("pareto requires >= 2 tasks")
    return run_jobs(_pareto_group, TaskStream(stream.tasks[:2]), mlp, cfgs, threads)
