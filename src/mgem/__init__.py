"""Gradient-projection toolkit for continual learning.

Implements the GEM family of projected update rules -- plain GEM, GEM with
memory strength, parameter-wise / data-wise / combined modular variants, and
a two-stage approximate dual solver -- together with an exact box-constrained
QP solver, an exhaustive active-set certification oracle, seeded synthetic
task streams, and the ACC/BWD/FWD transfer metrics.
"""

__version__ = "0.1.0"

from .mlp import Dataset, MlpSpec, accuracy, init_params, loss_and_grad, predict
from .qp import (
    DualSolution,
    QpInstance,
    kkt_residual,
    solve_approx,
    solve_enumerate,
    solve_exact,
)
from .constraints import MethodSpec, resolve_partition, split_memory
from .taskgen import StreamSpec, Task, TaskStream, generate, load_csv
from .engine import (
    ParetoPoint,
    RunResult,
    StepTrace,
    TrainConfig,
    pareto_sweep,
    run,
)
from .metrics import TransferSummary, summarize
