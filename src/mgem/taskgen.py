"""Seeded synthetic task streams and a plain-text dataset loader.

Synthetic streams are Gaussian class blobs in feature space, shifted between
tasks in one of three ways: a fixed feature permutation per task, a rotation
of the class means in a fixed 2-plane, or disjoint class subsets per task.
These stand in for the image benchmarks at desk scale -- the gradient-space
methods under test never look at what the features mean.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mlp import Dataset
from .seeds import check_seed, integer_fields, rng_from

FAMILIES = ("permuted", "rotated", "split_classes", "csv")

_MEAN_RADIUS = 2.0  # class-mean norm; >> default noise so tasks stay learnable
_CSV_TRAIN_FRAC = 0.8  # share of each CSV file's rows that train; the rest test


@dataclass(frozen=True)
class StreamSpec:
    family: str
    n_tasks: int = 1
    n_train: int = 100
    n_test: int = 50
    n_features: int = 4
    n_classes: int = 3
    noise: float = 0.1
    seed: int = 0
    csv_paths: tuple = None

    def __post_init__(self):
        integer_fields(self, "n_tasks", "n_train", "n_test", "n_features", "n_classes", "seed")
        check_seed(self.seed)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown stream family {self.family!r}")
        if self.csv_paths is not None:
            if self.family != "csv":
                raise ValueError(f"csv_paths needs the csv family, got {self.family!r}")
            object.__setattr__(self, "csv_paths", tuple(self.csv_paths))
        if self.family == "csv":
            if not self.csv_paths:
                raise ValueError("csv family needs csv_paths")
            return
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.noise < 0.0:
            raise ValueError("noise must be >= 0")
        if not math.isfinite(self.noise):
            raise ValueError(f"noise must be finite, got {self.noise}")
        if self.family == "rotated" and self.n_features < 2:
            raise ValueError("rotated family needs n_features >= 2")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")


@dataclass(frozen=True)
class Task:
    train: Dataset
    test: Dataset
    descriptor: int


@dataclass(frozen=True)
class TaskStream:
    tasks: tuple

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


def _class_means(spec: StreamSpec, n_classes: int) -> np.ndarray:
    rng = rng_from(spec.seed, "means")
    m = rng.standard_normal((n_classes, spec.n_features))
    m *= _MEAN_RADIUS / np.linalg.norm(m, axis=1, keepdims=True)
    return m


def _blob(means: np.ndarray, n: int, noise: float, rng) -> Dataset:
    # round-robin labels: exact class balance up to the remainder
    labels = np.arange(n) % means.shape[0]
    feats = means[labels] + noise * rng.standard_normal((n, means.shape[1]))
    return Dataset(feats, labels)


def _rotation(n_features: int, angle: float) -> np.ndarray:
    r = np.eye(n_features)
    c, s = np.cos(angle), np.sin(angle)
    r[0, 0], r[0, 1], r[1, 0], r[1, 1] = c, -s, s, c
    return r


def generate(spec: StreamSpec) -> TaskStream:
    """Materialize the stream described by ``spec``; deterministic per seed.

    * ``permuted``: one base train/test draw; task k applies a fixed seeded
      feature permutation (task 1 is unpermuted).
    * ``rotated``: task k draws fresh samples around the class means rotated
      by ``(k-1) * pi / n_tasks`` in the first-two-coordinates plane.
    * ``split_classes``: ``n_classes * n_tasks`` base classes; task k keeps
      its own disjoint subset, relabeled to ``[0, n_classes)``.
    * ``csv``: one task per file via ``load_csv``.
    """
    if spec.family == "csv":
        return load_csv(spec.csv_paths, seed=spec.seed)

    tasks = []
    if spec.family == "permuted":
        means = _class_means(spec, spec.n_classes)
        base_train = _blob(means, spec.n_train, spec.noise, rng_from(spec.seed, "base", "train"))
        base_test = _blob(means, spec.n_test, spec.noise, rng_from(spec.seed, "base", "test"))
        for k in range(1, spec.n_tasks + 1):
            if k == 1:
                perm = np.arange(spec.n_features)
            else:
                perm = rng_from(spec.seed, "perm", k).permutation(spec.n_features)
            tasks.append(Task(
                Dataset(base_train.features[:, perm], base_train.labels),
                Dataset(base_test.features[:, perm], base_test.labels),
                k,
            ))
    else:
        rotated = spec.family == "rotated"
        means = _class_means(spec, spec.n_classes * (1 if rotated else spec.n_tasks))
        for k in range(1, spec.n_tasks + 1):
            if rotated:
                mk = means @ _rotation(spec.n_features, (k - 1) * np.pi / spec.n_tasks).T
            else:  # split_classes
                mk = means[(k - 1) * spec.n_classes:k * spec.n_classes]
            tasks.append(Task(
                _blob(mk, spec.n_train, spec.noise, rng_from(spec.seed, "task", k, "train")),
                _blob(mk, spec.n_test, spec.noise, rng_from(spec.seed, "task", k, "test")),
                k,
            ))
    return TaskStream(tuple(tasks))


def _plain(kind, value, expected):
    """``kind(value)`` for a plain ASCII number, the one number spelling of
    config files and CSV cells; Python's digit separator ``_`` and
    non-ASCII digits, which ``int`` and ``float`` accept, make a bad
    value."""
    try:
        if "_" not in value and value.isascii():
            return kind(value)
    except ValueError:
        pass
    raise ValueError(f"expected {expected}, got {value!r}")


def _parse_csv_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[-1] != "label":
        raise ValueError(f"{path}: last column must be named 'label', got {header[-1]!r}")
    n_cols = len(header)
    feats, labels = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValueError(
                f"{path} line {line_no}: expected {n_cols} columns, got {len(cells)}"
            )
        row = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = _plain(float, cell, "number")
            except ValueError:
                raise ValueError(
                    f"{path} line {line_no} column {col}: could not parse {cell.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path} line {line_no} column {col}: {cell.strip()!r} is not finite"
                )
            row.append(value)
        label = row[-1]
        if not 0 <= label < 2 ** 63 or label != int(label):  # labels are stored as int64
            raise ValueError(
                f"{path} line {line_no} column {n_cols}: label must be an integer in "
                f"[0, 2**63), got {cells[-1].strip()!r}"
            )
        feats.append(row[:-1])
        labels.append(int(label))
    if not feats:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(feats), np.asarray(labels)


def load_csv(paths, seed: int = 0) -> TaskStream:
    """One task per CSV file, with a seeded 80/20 train/test split
    (``_CSV_TRAIN_FRAC``).

    Files must be UTF-8, comma-separated, with a header row whose last
    column is named ``label``; all other columns are numeric features.
    Every cell must be a finite number and every label an integer in
    ``[0, 2**63)``; a bad cell is a ``ValueError`` naming its file, line
    and column.
    """
    if not paths:
        raise ValueError("no csv paths given")
    tasks = []
    n_features = None
    for i, path in enumerate(paths):
        feats, labels = _parse_csv_file(path)
        if n_features is None:
            n_features = feats.shape[1]
        elif feats.shape[1] != n_features:
            raise ValueError(
                f"{path}: {feats.shape[1]} feature columns, earlier files have {n_features}"
            )
        n = feats.shape[0]
        if n < 2:
            raise ValueError(f"{path}: need at least 2 rows to split train/test")
        perm = rng_from(seed, "csv-split", i).permutation(n)
        n_train = max(1, min(n - 1, int(n * _CSV_TRAIN_FRAC)))
        tr, te = perm[:n_train], perm[n_train:]
        tasks.append(Task(
            Dataset(feats[tr], labels[tr]),
            Dataset(feats[te], labels[te]),
            i + 1,
        ))
    return TaskStream(tuple(tasks))
