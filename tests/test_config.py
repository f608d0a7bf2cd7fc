import re
from pathlib import Path

import pytest

from mgem.config import (DEFAULT_Q_GRID, _KEYS, _METHOD_KEYS, ConfigError,
                         default_pareto_methods, parse_config)
from mgem.constraints import MethodSpec

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "scripts" / "configs"
COMMITTED_CONFIGS = [*sorted(CONFIG_DIR.glob("*.cfg")),
                     *sorted((ROOT / "bench" / "configs").glob("*.cfg"))]

MINIMAL = """
stream.family = rotated
stream.n_tasks = 1
stream.n_train = 40
stream.n_test = 20
stream.n_features = 3
stream.n_classes = 3
stream.noise = 0.3
stream.seed = 1
model.layer_sizes = 3,8,3
train.lr = 0.05
train.iters_per_task = 10
train.batch_size = 8
train.memory_per_task = 8
method.1.kind = single
"""


def with_value(key, value, text=MINIMAL):
    """``text`` with ``key`` set to ``value``: its line replaced, or appended."""
    text, found = re.subn(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", text)
    return text if found else text + f"{key} = {value}\n"


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.stream.family == "rotated"
    assert cfg.model.layer_sizes == (3, 8, 3)
    assert cfg.lr == 0.05
    assert len(cfg.methods) == 1 and cfg.methods[0].kind == "single"
    assert cfg.q_grid == DEFAULT_Q_GRID
    assert cfg.out_dir == "out"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(MINIMAL + "\n# a comment\n\ntrain.seed = 4  # trailing\n")
    assert cfg.train_seed == 4


def test_unknown_key_names_the_key():
    with pytest.raises(ConfigError, match="stream.bogus"):
        parse_config(MINIMAL + "stream.bogus = 1\n")
    with pytest.raises(ConfigError, match="epochs"):
        parse_config(MINIMAL + "train.epochs = 3\n")


def test_unknown_method_kind_names_section_and_value():
    with pytest.raises(ConfigError, match=r"method\.1.*kind.*'mer'"):
        parse_config(MINIMAL.replace("method.1.kind = single", "method.1.kind = mer"))


def test_bad_value_types_diagnosed():
    with pytest.raises(ConfigError, match=r"\[train\] lr"):
        parse_config(MINIMAL.replace("train.lr = 0.05", "train.lr = fast"))
    with pytest.raises(ConfigError, match="layer_sizes"):
        parse_config(MINIMAL.replace("model.layer_sizes = 3,8,3",
                                     "model.layer_sizes = 3;8;3"))


@pytest.mark.parametrize("key,value", [
    ("method.2.q", "nan"), ("train.lr", "nan"), ("train.lr", "inf"),
    ("stream.noise", "nan"), ("stream.noise", "1e999"), ("pareto.q_grid", "0.1,nan"),
    ("pareto.q_grid", "-inf"), ("pareto.q_grid", "-0.1,0.5"),
])
def test_non_finite_and_negative_numbers_name_their_key(key, value):
    section, _, field = key.rpartition(".")
    with pytest.raises(ConfigError, match=rf"\[{re.escape(section)}\] {field}"):
        parse_config(with_value(key, value, MINIMAL + "method.2.kind = gem\n"))


@pytest.mark.parametrize("key,value,message", [
    ("train.iters_per_task", "1_0", "[train] iters_per_task: expected integer, got '1_0'"),
    ("stream.noise", "1_0.5", "[stream] noise: expected number, got '1_0.5'"),
    ("pareto.q_grid", "0.1,0_5", "[pareto] q_grid: expected number, got '0_5'"),
    ("method.1_0.kind", "gem", "[method] index: expected integer, got '1_0'"),
    ("model.layer_sizes", "3,8_0,3",
     "[model] layer_sizes: expected comma-separated integers, got '3,8_0,3'"),
])
def test_numbers_with_underscores_are_config_errors(key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(with_value(key, value))


@pytest.mark.parametrize("line,key,first", [
    ("method.1.kind = d_mgem", "method.1.kind", 15),
    ("method.01.kind = single", "method.1.kind", 15),
    ("train.lr = 0.05", "train.lr", 11),
])
def test_repeated_key_names_the_key_and_both_lines(line, key, first):
    # MINIMAL sets train.lr on line 11 and method.1.kind on line 15
    with pytest.raises(ConfigError, match=rf"^line 17: key '{re.escape(key)}' repeats line {first}$"):
        parse_config(MINIMAL + "train.seed = 3\n" + line + "\n")


def test_missing_required_sections():
    with pytest.raises(ConfigError, match=r"\[stream\] family"):
        parse_config("model.layer_sizes = 3,8,3\n")
    with pytest.raises(ConfigError, match="layer_sizes"):
        parse_config("stream.family = rotated\n")


def test_invalid_method_combination_reported():
    text = MINIMAL + "method.2.kind = gem\nmethod.2.d_param = 2\n"
    with pytest.raises(ConfigError, match=r"\[method\.2\]"):
        parse_config(text)


def test_method_entries_sorted_by_index():
    text = MINIMAL + """
method.3.kind = d_mgem
method.3.d_data = 2
method.2.kind = gem
method.2.q = 0.2
"""
    cfg = parse_config(text)
    assert [m.kind for m in cfg.methods] == ["single", "gem", "d_mgem"]
    assert cfg.methods[1].strength == 0.2


def test_parse_grid_output_and_method_fields():
    text = MINIMAL + """
pareto.q_grid = 0.0,0.1,0.5
output.dir = results
method.2.kind = p_mgem
method.2.d_param = 2
method.2.q = 0.3
method.2.solver = approx
"""
    cfg = parse_config(text)
    assert cfg.q_grid == (0.0, 0.1, 0.5)
    assert cfg.out_dir == "results"
    assert cfg.methods[1] == MethodSpec("p_mgem", d_param=2, strength=0.3, solver="approx")


@pytest.mark.parametrize("path", COMMITTED_CONFIGS,
                         ids=lambda p: p.name if p.parent == CONFIG_DIR else f"bench/{p.name}")
def test_committed_configs_parse(path):
    cfg = parse_config(path.read_text(encoding="utf-8"))
    assert (cfg.model.n_in, cfg.model.n_out) == (cfg.stream.n_features, cfg.stream.n_classes)


def test_default_pareto_grid_is_five_methods_eight_qs():
    assert len(default_pareto_methods()) == 5
    assert len(DEFAULT_Q_GRID) == 8
    labels = [m.label for m in default_pareto_methods()]
    assert labels == ["gem", "p_mgem", "d_mgem", "md_mgem", "approx_gem"]


# one bad value per config key, and the exact message it gives
GOLDEN = {
    "stream.family": ("mnist", "[stream] family: unknown value 'mnist' "
                               "(allowed: permuted, rotated, split_classes, csv)"),
    "stream.n_tasks": ("two", "[stream] n_tasks: expected integer, got 'two'"),
    "stream.n_train": ("4.5", "[stream] n_train: expected integer, got '4.5'"),
    "stream.n_test": ("", "[stream] n_test: expected integer, got ''"),
    "stream.n_features": ("3_0", "[stream] n_features: expected integer, got '3_0'"),
    "stream.n_classes": ("\uff13", "[stream] n_classes: expected integer, got '\uff13'"),
    "stream.noise": ("inf", "[stream] noise: expected a finite number, got 'inf'"),
    "stream.seed": ("0x1", "[stream] seed: expected integer, got '0x1'"),
    "stream.csv_paths": ("a.csv", "[stream] csv_paths needs the csv family, got 'rotated'"),
    "model.layer_sizes": ("3,8,x", "[model] layer_sizes: expected comma-separated integers, "
                                   "got '3,8,x'"),
    "model.activation": ("gelu", "[model] activation: unknown value 'gelu' (allowed: relu, tanh)"),
    "train.lr": ("fast", "[train] lr: expected number, got 'fast'"),
    "train.iters_per_task": ("1e3", "[train] iters_per_task: expected integer, got '1e3'"),
    "train.batch_size": ("-", "[train] batch_size: expected integer, got '-'"),
    "train.memory_per_task": ("8.0", "[train] memory_per_task: expected integer, got '8.0'"),
    "train.seed": ("\u0663", "[train] seed: expected integer, got '\u0663'"),
    "train.partition_mode": ("by_row", "[train] partition_mode: unknown value 'by_row' "
                                       "(allowed: by_layer, equal_flat)"),
    "pareto.q_grid": ("0.1,-0.5", "[pareto] q_grid: strengths must be >= 0, got '0.1,-0.5'"),
    "output.dir": ("", "[output] dir: expected a directory path, got ''"),
    "method.1.kind": ("mer", "[method.1] kind: unknown value 'mer' "
                             "(allowed: single, gem, p_mgem, d_mgem, md_mgem)"),
    "method.1.q": ("nan", "[method.1] q: expected a finite number, got 'nan'"),
    "method.1.d_param": ("two", "[method.1] d_param: expected integer, got 'two'"),
    "method.1.d_data": ("2.0", "[method.1] d_data: expected integer, got '2.0'"),
    "method.1.solver": ("qp", "[method.1] solver: unknown value 'qp' (allowed: exact, approx)"),
}
SCHEMA_KEYS = set(_KEYS) | {f"method.1.{field}" for field in _METHOD_KEYS}


def test_golden_table_covers_every_key():
    assert set(GOLDEN) == SCHEMA_KEYS


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_bad_value_gives_its_exact_message(key):
    value, message = GOLDEN[key]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(with_value(key, value))


@pytest.mark.parametrize("text,message", [
    (MINIMAL + "train.seed 4\n", "line 16: expected 'key = value', got 'train.seed 4'"),
    # every line is split before any key is read: the later syntax fault wins
    ("stream.bogus = 1\n" + MINIMAL + "  oops  # no pair\n",
     "line 17: expected 'key = value', got 'oops  # no pair'"),
    (with_value("stream.n_tasks", "0"), "[stream] n_tasks must be >= 1"),
    (with_value("model.layer_sizes", "3"), "[model] need at least input and output sizes"),
    (MINIMAL + "method.2.q = 0.1\n", "[method.2] kind is required"),
    # keys are read in line order, then the stream, the model and the methods
    (with_value("train.lr", "x", with_value("stream.n_tasks", "x")),
     "[stream] n_tasks: expected integer, got 'x'"),
    (with_value("stream.n_tasks", "0", MINIMAL + "method.2.q = 0.1\n"),
     "[stream] n_tasks must be >= 1"),
    (with_value("model.layer_sizes", "3", MINIMAL + "method.2.q = 0.1\n"),
     "[model] need at least input and output sizes"),
])
def test_structural_faults_give_their_exact_message(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(text)


@pytest.mark.parametrize("key", ["n_tasks", "n_train", "n_test", "n_features", "n_classes",
                                 "noise"])
def test_csv_family_rejects_the_synthetic_stream_keys(key):
    csv = "stream.family = csv\nstream.csv_paths = a.csv,b.csv\nstream.seed = 2\n" \
          "model.layer_sizes = 3,8,3\n"
    assert parse_config(csv).stream.csv_paths == ("a.csv", "b.csv")
    message = f"[stream] {key}: the csv family reads only csv_paths and seed"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(csv + f"stream.{key} = 3\n")


@pytest.mark.parametrize("key,value,message", [
    ("train.iters_per_task", "\uff15",  # fullwidth five
     "[train] iters_per_task: expected integer, got '\uff15'"),
    ("stream.noise", "0.\u0663", "[stream] noise: expected number, got '0.\u0663'"),  # arabic-indic
    ("pareto.q_grid", "0.1,\uff10.5", "[pareto] q_grid: expected number, got '\uff10.5'"),
    ("method.1.q", "\uff11", "[method.1] q: expected number, got '\uff11'"),
    ("model.layer_sizes", "3,\uff18,3",
     "[model] layer_sizes: expected comma-separated integers, got '3,\uff18,3'"),
    ("method.\uff11.kind", "gem", "[method] index: expected integer, got '\uff11'"),
])
def test_numbers_must_be_ascii(key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(with_value(key, value))


def test_readme_example_parses_and_names_every_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```")[0]
    cfg = parse_config(example)
    assert cfg.methods and cfg.stream.family == "rotated"
    # a commented-out key still counts as named
    named = set(re.findall(r"(?m)^#?\s*([a-z_]+(?:\.[a-z0-9_]+)+) =", example))
    assert named == SCHEMA_KEYS
