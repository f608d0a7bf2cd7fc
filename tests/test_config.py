import re
from pathlib import Path

import pytest

from mgem.config import DEFAULT_Q_GRID, ConfigError, default_pareto_methods, parse_config
from mgem.constraints import MethodSpec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"

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
    # the bad value replaces the key's line where MINIMAL sets it
    text, found = re.subn(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}",
                          MINIMAL + "method.2.kind = gem\n")
    if not found:
        text += f"{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"\[{re.escape(section)}\] {field}"):
        parse_config(text)


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


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_committed_configs_parse(path):
    cfg = parse_config(path.read_text(encoding="utf-8"))
    assert (cfg.model.n_in, cfg.model.n_out) == (cfg.stream.n_features, cfg.stream.n_classes)


def test_default_pareto_grid_is_five_methods_eight_qs():
    assert len(default_pareto_methods()) == 5
    assert len(DEFAULT_Q_GRID) == 8
    labels = [m.label for m in default_pareto_methods()]
    assert labels == ["gem", "p_mgem", "d_mgem", "md_mgem", "approx_gem"]
