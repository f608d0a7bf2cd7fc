"""Assembly of QP instances for the GEM method family.

Turns a step's memory gradient rows, its minibatch gradient, and a
parameter partition into the per-module inequality systems each method
variant needs:

* ``gem``     -- one instance, one row per past task (full-memory gradient).
* ``p_mgem``  -- one instance per parameter module; rows are module slices
                 of the same per-task gradients.
* ``d_mgem``  -- one instance, ``d_data`` rows per past task, each from a
                 disjoint split of that task's memory.
* ``md_mgem`` -- both: one instance per module, split rows sliced per module.

A partition is a tuple of contiguous ``slice``s that tile the flat
parameter vector, one per module (``resolve_partition``).

Every variant reads its rows from one stacked forward/backward pass per
step over every split of every stored memory, then slices them per module.
The engine keeps each stored memory split as one dataset, in the order of
that pass (memory by memory, split by split), and each split is one row
group of it; a memory of ``gem`` or ``p_mgem`` is one split. The engine's
traced inner products read the same rows; on a traced step they are the
memory groups of the step's one pass, between its minibatch and its
training sets.

Per-module problems are independent (the joint QP is block-diagonal), so
solving them separately and concatenating the directions equals the joint
solve. The engine assembles the instances of every job of a lockstep stack
at once (``assemble_step``): per module span and solver, the module views
of all the jobs' rows form one ``(rows, target, strength)`` stack for
``qp.solve_batch``, which leaves degenerate rows out. The stacks come back
in the order of the run's assembly plan, whose entries (``StackPlan``) name
the jobs, module span, solver and floors of each. ``build_instances`` is the
one-job case: it takes one job's rows and gives one ``QpInstance`` per
module in span order; ``assemble_direction`` concatenates the per-module
directions.
"""

from dataclasses import dataclass

import numpy as np

from .layout import layer_slices, n_params
from .mlp import MlpSpec
from .qp import APPROX, EXACT, QpInstance
from .seeds import integer_fields, rng_from

METHOD_KINDS = ("single", "gem", "p_mgem", "d_mgem", "md_mgem")
PARTITION_MODES = ("by_layer", "equal_flat")
SOLVERS = (EXACT, APPROX)


@dataclass(frozen=True)
class MethodSpec:
    """A method variant: kind, module counts, memory strength, solver.

    ``gem`` and ``single`` require ``d_param == d_data == 1``; ``p_mgem``
    partitions parameters only, ``d_mgem`` memories only. A modular kind
    with a module count of 1 is permitted and reduces to plain GEM.
    """

    kind: str
    d_param: int = 1
    d_data: int = 1
    strength: float = 0.0
    solver: str = "exact"

    def __post_init__(self):
        integer_fields(self, "d_param", "d_data")
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.d_param < 1 or self.d_data < 1:
            raise ValueError("module counts must be >= 1")
        if self.strength < 0.0:
            raise ValueError("strength must be >= 0")
        if not np.isfinite(self.strength):
            raise ValueError(f"strength must be finite, got {self.strength}")
        if self.kind in ("single", "gem") and (self.d_param != 1 or self.d_data != 1):
            raise ValueError(f"{self.kind} requires d_param == d_data == 1")
        if self.kind == "p_mgem" and self.d_data != 1:
            raise ValueError("p_mgem partitions parameters only (d_data must be 1)")
        if self.kind == "d_mgem" and self.d_param != 1:
            raise ValueError("d_mgem partitions memories only (d_param must be 1)")

    @property
    def label(self) -> str:
        """Report label; the approximate solver gets its own method name."""
        return self.kind if self.solver == "exact" else f"approx_{self.kind}"


def resolve_partition(spec: MlpSpec, mode: str, d: int) -> tuple:
    """Split the flat parameter vector of ``spec`` into ``d`` modules.

    Returns one contiguous ``slice`` per module, in order, tiling
    ``[0, n_params(spec))``. ``by_layer`` groups consecutive blocks, a block
    being one layer's weights or its bias; ``equal_flat`` cuts the flat
    range into ``d`` near-equal spans. The effective module count is capped
    by the number of blocks (or entries), remainder always to the earliest
    modules.
    """
    if mode not in PARTITION_MODES:
        raise ValueError(f"unknown partition mode {mode!r}")
    if d < 1:
        raise ValueError("module count must be >= 1")
    if mode == "by_layer":
        blocks = [s for w, b, _, _ in layer_slices(spec) for s in (w, b)]
    else:
        blocks = [slice(i, i + 1) for i in range(n_params(spec))]
    return tuple(slice(chunk[0].start, chunk[-1].stop)
                 for chunk in np.array_split(blocks, min(d, len(blocks))))


def split_memory(n_samples: int, d_data: int, seed: int):
    """Deterministic disjoint split of ``range(n_samples)`` into d_data sets.

    A seeded shuffle followed by contiguous near-equal chunks; the union of
    the (sorted) index sets is exactly ``range(n_samples)``.
    """
    if d_data < 1:
        raise ValueError("d_data must be >= 1")
    if n_samples < d_data:
        raise ValueError(f"memory of {n_samples} samples cannot form {d_data} splits")
    perm = rng_from(seed, "memsplit").permutation(n_samples)
    return [np.sort(chunk) for chunk in np.array_split(perm, d_data)]


@dataclass(eq=False)
class StackPlan:
    """One stacked QP of every step of a run: the stack rows ``jobs`` of its
    items (item k belongs to job ``jobs[k]``), how to cut their rows
    (``take``: a slice when they are consecutive, else ``jobs``), the module
    span, the solver, and the ``(len(jobs),)`` floors, one per job, that
    every memory row of the job's item shares."""

    jobs: np.ndarray
    take: object
    span: slice
    solver: str
    strength: np.ndarray


def assembly_plan(methods, spans) -> list:
    """The ``StackPlan``s of a stack, one per module span and solver.
    ``methods[r]`` and ``spans[r]`` are the method and partition of stack
    row ``r``. It holds for every step of a run, whatever its number of
    memory gradient rows."""
    members = {}
    for r, job_spans in enumerate(spans):
        for span in job_spans:
            members.setdefault((span.start, span.stop, methods[r].solver), []).append(r)
    plan = []
    for (a, b, solver), group in members.items():
        lo, hi = group[0], group[-1] + 1
        group = np.asarray(group)
        plan.append(StackPlan(group, slice(lo, hi) if hi - lo == len(group) else group,
                              slice(a, b), solver,
                              np.array([methods[r].strength for r in group])))
    return plan


def assemble_step(plan, g_t: np.ndarray, rows: np.ndarray) -> list:
    """Assemble the instances of one step for the jobs of a stack.

    ``plan`` comes from ``assembly_plan``, ``g_t`` holds the ``(J, P)``
    minibatch gradients and ``rows`` the ``(J, G, P)`` memory gradient rows,
    memory by memory and split by split. Returns one ``(rows, target,
    strength)`` stack per entry of ``plan``, in plan order, for
    ``qp.solve_batch``: item k holds the module slices of job ``jobs[k]``'s
    rows, every row kept (the solver leaves degenerate ones out), and its
    floor repeated over the ``G`` rows. Each item is laid out
    as its job's instance alone would be, so the solvers give each job its
    own result bit for bit.
    """
    return [(rows[p.take][:, :, p.span], g_t[p.jobs, p.span],
             p.strength[:, None].repeat(rows.shape[1], axis=1))
            for p in plan]


def build_instances(method: MethodSpec, g_t: np.ndarray, rows: np.ndarray, spans) -> list:
    """One QpInstance per parameter module (``spans``) for this step, in
    span order.

    ``g_t`` is the minibatch gradient and ``rows`` the ``(G, P)`` memory
    gradient rows of this step, memory by memory and split by split
    (``method.d_data`` per memory). No rows give no instances (first task:
    the caller uses the plain gradient). Every row is kept; the solver
    leaves degenerate ones out. This is the one-job case of
    ``assemble_step``: one job's plan lists its spans in span order.
    """
    if method.kind == "single":
        raise ValueError("the single baseline does not assemble constraints")
    if not len(rows):
        return []
    plan = assembly_plan([method], [spans])
    return [QpInstance(c[0], g[0], q[0]) for c, g, q in assemble_step(plan, g_t[None], rows[None])]


def assemble_direction(solutions, spans) -> np.ndarray:
    """Scatter per-module directions back into one flat update vector."""
    if len(solutions) != len(spans):
        raise ValueError(f"got {len(solutions)} solutions for {len(spans)} modules")
    z = np.empty(spans[-1].stop)
    for i, (sol, span) in enumerate(zip(solutions, spans)):
        if sol.direction.shape[0] != span.stop - span.start:
            raise ValueError(f"module {i} direction has the wrong length")
        z[span] = sol.direction
    return z
