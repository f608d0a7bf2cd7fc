"""Transfer metrics and CSV report serialization.

From the retained-accuracy matrix ``R`` (``R[i, j]`` = accuracy on task j
after learning task i, zero-based here, tasks 1-based in reports):

    ACC = mean_j R[T-1, j]          final average accuracy
    FWD = mean_j R[j, j]            average learning accuracy
    BWD = ACC - FWD                 average retention change

``BWD`` is computed as the difference of the two means (equal to the mean of
``R[T-1, j] - R[j, j]`` in exact arithmetic) so the identity
``ACC == BWD + FWD`` holds exactly in floating point; ``summarize`` nudges
ACC by at most one ulp in the rare case re-summation disagrees.

Report files use comma-separated UTF-8 with a header row; reals carry nine
significant digits. Re-running with identical inputs rewrites byte-identical
files.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TransferSummary:
    acc: float
    bwd: float
    fwd: float


def _mean(values) -> float:
    total = 0.0
    for x in values:  # fixed left-to-right order
        total += float(x)
    return total / len(values)


def summarize(R) -> TransferSummary:
    """ACC/BWD/FWD from a square retained-accuracy matrix."""
    R = np.asarray(R, dtype=np.float64)
    if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] < 1:
        raise ValueError("R must be a square matrix with T >= 1")
    if not ((R >= 0.0) & (R <= 1.0)).all():  # NaN fails both
        raise ValueError("accuracies must lie in [0, 1]")
    T = R.shape[0]
    acc = _mean(R[T - 1, :])
    fwd = _mean(R.diagonal())
    bwd = acc - fwd
    if bwd + fwd != acc:
        acc = bwd + fwd
    return TransferSummary(acc=acc, bwd=bwd, fwd=fwd)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.9g}"
    return str(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


SUMMARY_COLUMNS = ("method", "q", "d_param", "d_data", "solver", "seed",
                   "acc", "fwd", "bwd", "degraded_steps")
PARETO_COLUMNS = ("method", "q", "d_param", "d_data", "seed",
                  "mean_bwd_inner", "mean_fwd_inner")
RMATRIX_COLUMNS = ("i", "j", "accuracy")


def write_summary_csv(path, entries):
    """One row per (method, seed) run: ``entries`` holds
    ``(method_spec, seed, TransferSummary, unconverged_steps)`` tuples."""
    rows = [
        (m.label, m.strength, m.d_param, m.d_data, m.solver, seed,
         s.acc, s.fwd, s.bwd, unconv)
        for m, seed, s, unconv in entries
    ]
    _write_csv(path, SUMMARY_COLUMNS, rows)


def write_pareto_csv(path, points):
    rows = [
        (p.method.label, p.method.strength, p.method.d_param, p.method.d_data,
         p.seed, p.mean_bwd_inner, p.mean_fwd_inner)
        for p in points
    ]
    _write_csv(path, PARETO_COLUMNS, rows)


def write_rmatrix_csv(path, R):
    """Long-form (i, j, accuracy) rows, 1-based task indices, row-major."""
    R = np.asarray(R)
    rows = [
        (i + 1, j + 1, float(R[i, j]))
        for i in range(R.shape[0]) for j in range(R.shape[1])
    ]
    _write_csv(path, RMATRIX_COLUMNS, rows)
