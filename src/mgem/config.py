"""Flat key-value run configuration with dotted section prefixes.

The format is deliberately dependency-free: UTF-8 text, one ``key = value``
pair per line, ``#`` comments, keys like ``train.lr`` or ``method.1.kind``.
One table, ``_KEYS``, maps each ``section.field`` key to the object it
fills (``StreamSpec``, ``MlpSpec`` or ``RunConfigFile``), the attribute it
sets and the parser of its value; ``_METHOD_KEYS`` does the same for
``method.N.field``, which fills the ``MethodSpec`` of entry N. A parser
raises ValueError and ``parse_config`` prefixes the message with
``[section] field:`` in one place.

Unknown and repeated keys are rejected with a diagnostic naming the key
(``method.01.q`` and ``method.1.q`` are the same key), and so are the
synthetic-stream keys under ``stream.family = csv``. Numbers are plain
ASCII: one holding Python's digit separator ``_`` or a non-ASCII character
(a fullwidth digit, say) is a bad value, like any other non-number.
"""

import math
from dataclasses import dataclass

from .constraints import METHOD_KINDS, PARTITION_MODES, SOLVERS, MethodSpec
from .mlp import MlpSpec
from .taskgen import FAMILIES, StreamSpec, _plain

DEFAULT_Q_GRID = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfigFile:
    stream: StreamSpec
    model: MlpSpec
    lr: float = 0.05
    iters_per_task: int = 150
    batch_size: int = 16
    memory_per_task: int = 32
    train_seed: int = 0
    partition_mode: str = "by_layer"
    methods: tuple = ()
    q_grid: tuple = DEFAULT_Q_GRID
    out_dir: str = "out"


def default_pareto_methods():
    """The five-method default grid: the exact GEM family plus approx-GEM."""
    return (
        MethodSpec("gem"),
        MethodSpec("p_mgem", d_param=2),
        MethodSpec("d_mgem", d_data=2),
        MethodSpec("md_mgem", d_param=2, d_data=2),
        MethodSpec("gem", solver="approx"),
    )


def _parse_pairs(text: str):
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip(), line_no))
    return pairs


def _integer(value):
    return _plain(int, value, "integer")


def _real(value):
    number = _plain(float, value, "number")
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _choice(*allowed):
    def parse(value):
        if value not in allowed:
            raise ValueError(f"unknown value {value!r} (allowed: {', '.join(allowed)})")
        return value
    return parse


def _integers(value):
    try:
        return tuple(_integer(s) for s in value.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {value!r}") from None


def _strengths(value):
    grid = tuple(_real(s) for s in value.split(","))
    if min(grid) < 0.0:
        raise ValueError(f"strengths must be >= 0, got {value!r}")
    return grid


def _paths(value):
    return tuple(p.strip() for p in value.split(",") if p.strip())


def _directory(value):
    if not value:
        raise ValueError("expected a directory path, got ''")
    return value


_KEYS = {  # section.field -> (object it fills, attribute, parser)
    "stream.family": (StreamSpec, "family", _choice(*FAMILIES)),
    "stream.n_tasks": (StreamSpec, "n_tasks", _integer),
    "stream.n_train": (StreamSpec, "n_train", _integer),
    "stream.n_test": (StreamSpec, "n_test", _integer),
    "stream.n_features": (StreamSpec, "n_features", _integer),
    "stream.n_classes": (StreamSpec, "n_classes", _integer),
    "stream.noise": (StreamSpec, "noise", _real),
    "stream.seed": (StreamSpec, "seed", _integer),
    "stream.csv_paths": (StreamSpec, "csv_paths", _paths),
    "model.layer_sizes": (MlpSpec, "layer_sizes", _integers),
    "model.activation": (MlpSpec, "activation", _choice("relu", "tanh")),
    "train.lr": (RunConfigFile, "lr", _real),
    "train.iters_per_task": (RunConfigFile, "iters_per_task", _integer),
    "train.batch_size": (RunConfigFile, "batch_size", _integer),
    "train.memory_per_task": (RunConfigFile, "memory_per_task", _integer),
    "train.seed": (RunConfigFile, "train_seed", _integer),
    "train.partition_mode": (RunConfigFile, "partition_mode", _choice(*PARTITION_MODES)),
    "pareto.q_grid": (RunConfigFile, "q_grid", _strengths),
    "output.dir": (RunConfigFile, "out_dir", _directory),
}

_METHOD_KEYS = {  # method.N.field -> (MethodSpec attribute, parser)
    "kind": ("kind", _choice(*METHOD_KINDS)),
    "q": ("strength", _real),
    "d_param": ("d_param", _integer),
    "d_data": ("d_data", _integer),
    "solver": ("solver", _choice(*SOLVERS)),
}


def _value(section, field, parse, value):
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {field}: {exc}") from None


def _build(section, cls, kwargs, required):
    if required not in kwargs:
        raise ConfigError(f"[{section}] {required} is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def parse_config(text: str) -> RunConfigFile:
    fields = {StreamSpec: {}, MlpSpec: {}, RunConfigFile: {}}
    methods = {}  # method index -> MethodSpec keyword arguments
    seen = {}  # each key (method index as a number) -> the line that set it
    for key, value, line_no in _parse_pairs(text):
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "method" and parts[2] in _METHOD_KEYS:
            idx = _value("method", "index", _integer, parts[1])
            section, field = f"method.{idx}", parts[2]
            attr, parse = _METHOD_KEYS[field]
            dest = methods.setdefault(idx, {})
        elif key in _KEYS:
            (section, field), (cls, attr, parse) = parts, _KEYS[key]
            dest = fields[cls]
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        name = f"{section}.{field}"
        if name in seen:
            raise ConfigError(f"line {line_no}: key {name!r} repeats line {seen[name]}")
        seen[name] = line_no
        dest[attr] = _value(section, field, parse, value)

    if fields[StreamSpec].get("family") == "csv":
        for attr in fields[StreamSpec]:
            if attr not in ("family", "csv_paths", "seed"):
                raise ConfigError(f"[stream] {attr}: the csv family reads only csv_paths and seed")
    stream = _build("stream", StreamSpec, fields[StreamSpec], "family")
    model = _build("model", MlpSpec, fields[MlpSpec], "layer_sizes")
    specs = tuple(_build(f"method.{idx}", MethodSpec, methods[idx], "kind")
                  for idx in sorted(methods))
    return RunConfigFile(stream=stream, model=model, methods=specs, **fields[RunConfigFile])
