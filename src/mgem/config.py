"""Flat key-value run configuration with dotted section prefixes.

The format is deliberately dependency-free: UTF-8 text, one ``key = value``
pair per line, ``#`` comments, keys like ``train.lr`` or ``method.1.kind``.
Unknown and repeated keys are rejected with a diagnostic naming the key
(``method.01.q`` and ``method.1.q`` are the same key).
"""

import math
from dataclasses import dataclass

from .constraints import METHOD_KINDS, PARTITION_MODES, SOLVERS, MethodSpec
from .mlp import MlpSpec
from .taskgen import FAMILIES, StreamSpec

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


def _to_int(section, key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected integer, got {value!r}") from None


def _to_float(section, key, value):
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {value!r}")
    return number


def _to_enum(section, key, value, allowed):
    if value not in allowed:
        raise ConfigError(
            f"[{section}] {key}: unknown value {value!r} (allowed: {', '.join(allowed)})"
        )
    return value


_STREAM_FIELDS = {
    "family": lambda v: _to_enum("stream", "family", v, FAMILIES),
    "n_tasks": lambda v: _to_int("stream", "n_tasks", v),
    "n_train": lambda v: _to_int("stream", "n_train", v),
    "n_test": lambda v: _to_int("stream", "n_test", v),
    "n_features": lambda v: _to_int("stream", "n_features", v),
    "n_classes": lambda v: _to_int("stream", "n_classes", v),
    "noise": lambda v: _to_float("stream", "noise", v),
    "seed": lambda v: _to_int("stream", "seed", v),
    "csv_paths": lambda v: tuple(p.strip() for p in v.split(",") if p.strip()),
}

_TRAIN_FIELDS = {
    "lr": ("lr", lambda v: _to_float("train", "lr", v)),
    "iters_per_task": ("iters_per_task", lambda v: _to_int("train", "iters_per_task", v)),
    "batch_size": ("batch_size", lambda v: _to_int("train", "batch_size", v)),
    "memory_per_task": ("memory_per_task", lambda v: _to_int("train", "memory_per_task", v)),
    "seed": ("train_seed", lambda v: _to_int("train", "seed", v)),
    "partition_mode": ("partition_mode",
                       lambda v: _to_enum("train", "partition_mode", v, PARTITION_MODES)),
}

_METHOD_FIELDS = ("kind", "q", "d_param", "d_data", "solver")


def parse_config(text: str) -> RunConfigFile:
    stream_kv = {}
    model_kv = {}
    train_kv = {}
    method_kv = {}
    q_grid = None
    out_dir = None
    seen = {}  # each key (method index as a number) -> the line that set it

    for key, value, line_no in _parse_pairs(text):
        parts = key.split(".")
        section = parts[0]
        if section == "method" and len(parts) == 3 and parts[2] in _METHOD_FIELDS:
            parts[1] = str(_to_int("method", "index", parts[1]))
        name = ".".join(parts)
        if name in seen:
            raise ConfigError(f"line {line_no}: key {name!r} repeats line {seen[name]}")
        seen[name] = line_no
        if section == "stream" and len(parts) == 2 and parts[1] in _STREAM_FIELDS:
            stream_kv[parts[1]] = _STREAM_FIELDS[parts[1]](value)
        elif section == "model" and len(parts) == 2 and parts[1] == "layer_sizes":
            try:
                model_kv["layer_sizes"] = tuple(int(s) for s in value.split(","))
            except ValueError:
                raise ConfigError(
                    f"[model] layer_sizes: expected comma-separated integers, got {value!r}"
                ) from None
        elif section == "model" and len(parts) == 2 and parts[1] == "activation":
            model_kv["activation"] = _to_enum("model", "activation", value, ("relu", "tanh"))
        elif section == "train" and len(parts) == 2 and parts[1] in _TRAIN_FIELDS:
            attr, conv = _TRAIN_FIELDS[parts[1]]
            train_kv[attr] = conv(value)
        elif section == "method" and len(parts) == 3 and parts[2] in _METHOD_FIELDS:
            idx = int(parts[1])
            entry = method_kv.setdefault(idx, {})
            sec = f"method.{idx}"
            if parts[2] == "kind":
                entry["kind"] = _to_enum(sec, "kind", value, METHOD_KINDS)
            elif parts[2] == "q":
                entry["strength"] = _to_float(sec, "q", value)
            elif parts[2] == "solver":
                entry["solver"] = _to_enum(sec, "solver", value, SOLVERS)
            else:
                entry[parts[2]] = _to_int(sec, parts[2], value)
        elif section == "pareto" and len(parts) == 2 and parts[1] == "q_grid":
            q_grid = tuple(_to_float("pareto", "q_grid", s) for s in value.split(","))
            if min(q_grid) < 0.0:
                raise ConfigError(f"[pareto] q_grid: strengths must be >= 0, got {value!r}")
        elif section == "output" and len(parts) == 2 and parts[1] == "dir":
            out_dir = value
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")

    if "family" not in stream_kv:
        raise ConfigError("[stream] family is required")
    try:
        stream = StreamSpec(**stream_kv)
    except ValueError as exc:
        raise ConfigError(f"[stream] {exc}") from None

    if "layer_sizes" not in model_kv:
        raise ConfigError("[model] layer_sizes is required")
    try:
        model = MlpSpec(**model_kv)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from None

    methods = []
    for idx in sorted(method_kv):
        entry = method_kv[idx]
        if "kind" not in entry:
            raise ConfigError(f"[method.{idx}] kind is required")
        try:
            methods.append(MethodSpec(**entry))
        except ValueError as exc:
            raise ConfigError(f"[method.{idx}] {exc}") from None

    kwargs = dict(train_kv)
    if q_grid is not None:
        kwargs["q_grid"] = q_grid
    if out_dir is not None:
        kwargs["out_dir"] = out_dir
    return RunConfigFile(stream=stream, model=model, methods=tuple(methods), **kwargs)
