"""Output checks for the reports mgem writes, and job failure accounting.

A job is one training run: one summary row (with its rmatrix file) for
``mgem run``, one pareto row for ``mgem pareto``. A job fails if its
command exits non-zero, its rows break a check below, or it reports
``degraded_steps > 0`` (solver steps that hit the sweep budget, within the
program's own tolerance). A degraded job is a failed job, not a broken
report: it is listed in ``degraded`` as well as ``failed`` and adds no
problem.

Each check returns a ``Checked`` with the failed and degraded job
indices, one message per broken check (so one bad row does not hide the
others), and the report quality: ``fwd_mean`` and ``bwd_mean``, the means
of the report's forward and backward columns (FWD and BWD accuracy for
``mgem run``, ``mean_fwd_inner`` and ``mean_bwd_inner`` for ``mgem
pareto``; higher is better for all four), and ``acc_mean`` for ``mgem
run``.
"""

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

SUMMARY_COLUMNS = ["method", "q", "d_param", "d_data", "solver", "seed",
                   "acc", "fwd", "bwd", "degraded_steps"]
PARETO_COLUMNS = ["method", "q", "d_param", "d_data", "seed",
                  "mean_bwd_inner", "mean_fwd_inner"]
RMATRIX_COLUMNS = ["i", "j", "accuracy"]

# Reals are printed with nine significant digits and |acc|, |fwd| <= 1, so
# each printed value is within 5e-10 of the value the program computed.
PRINT_TOL = 2e-9


@dataclass
class Checked:
    failed: set = field(default_factory=set)
    degraded: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    quality: dict = None


def digests(out_dir: Path) -> dict:
    """sha256 of every report file in the output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def _read(path: Path, columns):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != columns:
        raise ValueError(f"{path.name}: header {rows[:1]} != {columns}")
    return rows[1:]


def rmatrix_name(k: int) -> str:
    return "rmatrix.csv" if k == 0 else f"rmatrix_{k + 1}.csv"


def _check_rmatrix(path: Path, n_tasks: int):
    """Returns (R as nested lists, problems)."""
    problems = []
    try:
        rows = _read(path, RMATRIX_COLUMNS)
    except (OSError, ValueError) as exc:
        return None, [str(exc)]
    expect = [(i, j) for i in range(1, n_tasks + 1) for j in range(1, n_tasks + 1)]
    if [(int(r[0]), int(r[1])) for r in rows] != expect:
        return None, [f"{path.name}: indices are not the {n_tasks}x{n_tasks} row-major grid"]
    R = [[0.0] * n_tasks for _ in range(n_tasks)]
    for i, j, a in rows:
        a = float(a)
        if not 0.0 <= a <= 1.0:
            problems.append(f"{path.name}: accuracy {a} outside [0, 1]")
        R[int(i) - 1][int(j) - 1] = a
    return R, problems


def check_run(out_dir: Path, jobs, n_tasks: int, seed: int) -> Checked:
    """Check summary.csv and the rmatrix files of one ``mgem run``.

    ``jobs`` lists the expected ``(label, q, d_param, d_data, solver)`` per
    summary row, in config order.
    """
    res = Checked()
    try:
        rows = _read(out_dir / "summary.csv", SUMMARY_COLUMNS)
    except (OSError, ValueError) as exc:
        res.failed.update(range(len(jobs)))
        res.problems.append(str(exc))
        return res
    if len(rows) != len(jobs):
        res.problems.append(f"summary.csv: {len(rows)} rows for {len(jobs)} jobs")
        res.failed.update(range(len(rows), len(jobs)))
    extra = sorted(p.name for p in out_dir.glob("rmatrix*.csv")
                   if p.name not in {rmatrix_name(k) for k in range(len(jobs))})
    if extra:
        res.problems.append(f"unexpected rmatrix files {extra}")
    accs, fwds, bwds = [], [], []
    for k, (row, job) in enumerate(zip(rows, jobs)):
        bad = []
        label, q, d_param, d_data, solver = job
        if (row[0], float(row[1]), int(row[2]), int(row[3]), row[4], int(row[5])) != \
                (label, q, d_param, d_data, solver, seed):
            bad.append(f"row {k + 1} is {row[:6]}, expected {list(job) + [seed]}")
        acc, fwd, bwd = (float(x) for x in row[6:9])
        if not (0.0 <= acc <= 1.0 and 0.0 <= fwd <= 1.0):
            bad.append(f"row {k + 1}: acc {acc} or fwd {fwd} outside [0, 1]")
        if abs((acc - fwd) - bwd) > PRINT_TOL:
            bad.append(f"row {k + 1}: acc - fwd = {acc - fwd!r} but bwd = {bwd!r}")
        R, rm_problems = _check_rmatrix(out_dir / rmatrix_name(k), n_tasks)
        bad.extend(rm_problems)
        if R is not None:
            final = sum(R[-1]) / n_tasks
            learned = sum(R[t][t] for t in range(n_tasks)) / n_tasks
            if abs(final - acc) > PRINT_TOL or abs(learned - fwd) > PRINT_TOL:
                bad.append(f"row {k + 1}: acc/fwd disagree with {rmatrix_name(k)}")
        if bad:
            res.failed.add(k)
            res.problems.extend(bad)
        if int(row[9]) != 0:
            res.degraded.add(k)
            res.failed.add(k)
        accs.append(acc)
        fwds.append(fwd)
        bwds.append(bwd)
    if accs:
        n = len(accs)
        res.quality = {"acc_mean": sum(accs) / n, "fwd_mean": sum(fwds) / n,
                       "bwd_mean": sum(bwds) / n}
    return res


def check_pareto(out_dir: Path, jobs, seed: int) -> Checked:
    """Check pareto.csv of one ``mgem pareto``.

    ``jobs`` lists the expected ``(label, q, d_param, d_data)`` per row in
    grid order.
    """
    res = Checked()
    try:
        rows = _read(out_dir / "pareto.csv", PARETO_COLUMNS)
    except (OSError, ValueError) as exc:
        res.failed.update(range(len(jobs)))
        res.problems.append(str(exc))
        return res
    if len(rows) != len(jobs):
        res.problems.append(f"pareto.csv: {len(rows)} rows for {len(jobs)} jobs")
        res.failed.update(range(len(rows), len(jobs)))
    bwds, fwds = [], []
    for k, (row, job) in enumerate(zip(rows, jobs)):
        label, q, d_param, d_data = job
        bad = []
        if (row[0], float(row[1]), int(row[2]), int(row[3]), int(row[4])) != \
                (label, q, d_param, d_data, seed):
            bad.append(f"row {k + 1} is {row[:5]}, expected {list(job) + [seed]}")
        bwd, fwd = float(row[5]), float(row[6])
        if not (math.isfinite(bwd) and math.isfinite(fwd)):
            bad.append(f"row {k + 1}: non-finite inner products")
        if bad:
            res.failed.add(k)
            res.problems.extend(bad)
        bwds.append(bwd)
        fwds.append(fwd)
    if rows:
        res.quality = {"fwd_mean": sum(fwds) / len(fwds),
                       "bwd_mean": sum(bwds) / len(bwds)}
    return res
