import argparse
import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgem.cli import _build_parser, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"
PARETO2 = CONFIGS / "pareto2.cfg"

RUN_CFG = """
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

PARETO_CFG = RUN_CFG.replace("stream.n_tasks = 1", "stream.n_tasks = 2") + """
pareto.q_grid = 0.0,0.5
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_run_minimal_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", cfg]) == 0
    out = tmp_path / "out"
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2  # header + one row
    assert summary[1].startswith("single,")
    assert (out / "rmatrix.csv").exists()


def test_run_multiple_methods_and_seeds(tmp_path):
    text = RUN_CFG + "method.2.kind = gem\nmethod.2.q = 0.1\n"
    cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", cfg, "--seeds", "2"]) == 0
    out = tmp_path / "out"
    assert len((out / "summary.csv").read_text().splitlines()) == 5
    assert (out / "rmatrix.csv").exists()
    for k in (2, 3, 4):
        assert (out / f"rmatrix_{k}.csv").exists()


def test_unknown_method_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG.replace("single", "mer"))
    assert main(["run", "--config", cfg]) == 1
    assert "kind" in capsys.readouterr().err


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_out_dir_created_if_parent_exists(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG + f"output.dir = {tmp_path / 'fresh'}\n")
    assert main(["run", "--config", cfg]) == 0
    assert (tmp_path / "fresh" / "summary.csv").exists()


def test_out_dir_missing_parent_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a" / "b")]) == 1
    assert "parent" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "pareto"])
@pytest.mark.parametrize("how", ["--out", "output.dir", "below a file"])
def test_out_path_that_is_not_a_directory_exits_one(tmp_path, capsys, monkeypatch,
                                                    command, how):
    import mgem.cli as cli_mod

    def no_jobs(*args, **kwargs):
        raise AssertionError("a job started")

    monkeypatch.setattr(cli_mod, "run_jobs", no_jobs)
    monkeypatch.setattr(cli_mod, "pareto_sweep", no_jobs)
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    text = PARETO_CFG if command == "pareto" else RUN_CFG
    argv = [command, "--config"]
    if how == "--out":
        argv += [write_cfg(tmp_path, text), "--out", str(taken)]
    else:
        out = taken if how == "output.dir" else taken / "sub"
        argv.append(write_cfg(tmp_path, text + f"output.dir = {out}\n"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(taken) in err
    assert how != "output.dir" or "[output] dir" in err
    assert taken.read_text(encoding="utf-8") == "keep\n"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["run", "pareto"])
@pytest.mark.parametrize("how", ["--out", "output.dir"])
def test_empty_output_path_exits_one(tmp_path, capsys, monkeypatch, command, how):
    # an empty path would name the working directory
    monkeypatch.chdir(tmp_path)
    if how == "--out":
        cfg = write_cfg(tmp_path, PARETO_CFG + f"output.dir = {tmp_path / 'o'}\n")
        argv = [command, "--config", cfg, "--out", ""]
    else:
        argv = [command, "--config", write_cfg(tmp_path, PARETO_CFG + "output.dir =\n")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{'argument --out' if how == '--out' else '[output] dir'}: expected a directory" in err
    assert not (tmp_path / "o").exists()
    assert not list(tmp_path.rglob("*.csv"))


def test_run_without_methods_exits_one(tmp_path, capsys):
    text = RUN_CFG.replace("method.1.kind = single\n", "")
    cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'o'}\n")
    assert main(["run", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "config error: [method.1] at least one method entry is required for run\n")
    assert not (tmp_path / "o").exists()


def test_every_flag_has_help_text():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: [a for a in parser._actions if a.option_strings]
             for name, parser in sub.choices.items()}
    assert sorted(flags) == ["pareto", "run", "selfcheck"]
    for name, actions in flags.items():
        assert all(a.help for a in actions), name
    assert ([a.option_strings for a in flags["run"]]
            == [a.option_strings for a in flags["pareto"]]
            == [["-h", "--help"], ["--config"], ["--out"], ["--seeds"], ["--threads"]])


def test_config_out_dir_created_with_its_parents(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG + f"output.dir = {tmp_path / 'a' / 'b'}\n")
    assert main(["run", "--config", cfg]) == 0
    assert (tmp_path / "a" / "b" / "summary.csv").exists()


def test_pareto_requires_two_tasks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG + f"output.dir = {tmp_path / 'o'}\n")
    assert main(["pareto", "--config", cfg]) == 1
    assert "2 tasks" in capsys.readouterr().err


def test_pareto_rows_grid_times_seeds(tmp_path):
    # 1 configured method x 2 grid q values x 2 seeds = 4 rows
    cfg = write_cfg(tmp_path, PARETO_CFG + f"output.dir = {tmp_path / 'o'}\n")
    assert main(["pareto", "--config", cfg, "--seeds", "2"]) == 0
    lines = (tmp_path / "o" / "pareto.csv").read_text().splitlines()
    assert len(lines) == 5
    body = np.array([line.split(",") for line in lines[1:]])
    assert set(body[:, 4]) == {"0", "1"}


def test_pareto_rows_are_grid_then_seed_and_each_is_its_seed_alone(tmp_path):
    # gem at q = 0 and 0.5, seeds 3 and 4: rows (q0, s3), (q0, s4), (q1, s3),
    # (q1, s4), each equal to the row of a one-seed command at train.seed = s
    text = PARETO_CFG.replace("method.1.kind = single", "method.1.kind = gem")
    cfg = write_cfg(tmp_path, text + "train.seed = 3\n")
    assert main(["pareto", "--config", cfg, "--seeds", "2", "--out", str(tmp_path / "both")]) == 0
    lines = (tmp_path / "both" / "pareto.csv").read_text().splitlines()
    alone = {}
    for seed in (3, 4):
        one = write_cfg(tmp_path, text + f"train.seed = {seed}\n", name=f"seed{seed}.cfg")
        assert main(["pareto", "--config", one, "--out", str(tmp_path / f"s{seed}")]) == 0
        alone[seed] = (tmp_path / f"s{seed}" / "pareto.csv").read_text().splitlines()
    assert [(float(q), int(s)) for _, q, _, _, s, *_ in (r.split(",") for r in lines[1:])] == [
        (0.0, 3), (0.0, 4), (0.5, 3), (0.5, 4)]
    assert lines == [alone[3][0], alone[3][1], alone[4][1], alone[3][2], alone[4][2]]
    assert len({line.split(",", 5)[5] for line in lines[1:]}) == 4  # q and seed both matter


def test_pareto_default_grid_forty_rows(tmp_path):
    # no method entries: the five default methods x eight default qs
    text = "\n".join(line for line in PARETO_CFG.splitlines()
                     if not line.startswith(("method.", "pareto.")))
    text = text.replace("train.iters_per_task = 10", "train.iters_per_task = 3")
    cfg = write_cfg(tmp_path, text + f"\noutput.dir = {tmp_path / 'o'}\n")
    assert main(["pareto", "--config", cfg]) == 0
    lines = (tmp_path / "o" / "pareto.csv").read_text().splitlines()
    assert len(lines) == 41
    assert all(np.isfinite(float(line.split(",")[5])) for line in lines[1:])
    assert all(np.isfinite(float(line.split(",")[6])) for line in lines[1:])
    # three seeds multiply the grid
    assert main(["pareto", "--config", cfg, "--seeds", "3"]) == 0
    lines = (tmp_path / "o" / "pareto.csv").read_text().splitlines()
    assert len(lines) == 121


def test_threads_flag(tmp_path):
    cfg = write_cfg(tmp_path, PARETO_CFG + f"output.dir = {tmp_path / 'o'}\n")
    assert main(["pareto", "--config", cfg, "--threads", "2"]) == 0
    assert main(["pareto", "--config", cfg]) == 0
    assert main(["pareto", "--config", cfg, "--threads", "lots"]) == 1


@pytest.mark.parametrize("command", ["run", "pareto"])
@pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--seeds", "-1"),
                                        ("--threads", "0"), ("--threads", "-2")])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, command, flag, value):
    cfg = write_cfg(tmp_path, PARETO_CFG + f"output.dir = {tmp_path / 'o'}\n")
    assert main([command, "--config", cfg, flag, value]) == 1
    err = capsys.readouterr().err
    assert flag in err and ">= 1" in err
    assert not (tmp_path / "o").exists()  # rejected before anything runs


@pytest.mark.parametrize("flag", ["--seeds", "--threads"])
@pytest.mark.parametrize("value", ["\uff12", "1_0", "2.0", ""])
def test_counts_are_plain_integers(tmp_path, capsys, flag, value):
    # a fullwidth two and a digit separator, which ``int`` reads, are bad
    # values here as in a config file
    cfg = write_cfg(tmp_path, PARETO_CFG + f"output.dir = {tmp_path / 'o'}\n")
    assert main(["run", "--config", cfg, flag, value]) == 1
    assert f"argument {flag}: expected integer, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "pareto"])
@pytest.mark.parametrize("edit,message", [
    (("method.1.kind = single", "method.1.kind = gem\nmethod.1.q = nan"), r"\[method\.1\] q"),
    (("train.lr = 0.05", "train.lr = nan"), r"\[train\] lr"),
    (("stream.noise = 0.3", "stream.noise = nan"), r"\[stream\] noise"),
    (("train.lr = 0.05", "train.lr = 0"), r"\[train\] lr must be positive"),
    (("train.iters_per_task = 10", "train.iters_per_task = 0"), r"\[train\] iters_per_task"),
    (("train.batch_size = 8", "train.batch_size = 0"), r"\[train\] .*batch_size"),
    (("method.1.kind = single", "method.1.kind = d_mgem\nmethod.1.d_data = 9"),
     r"\[train\] memory_per_task must be >= the method's d_data \(d_mgem\)"),
    (("train.memory_per_task = 8", "train.memory_per_task = 41"),
     r"\[train\] memory_per_task 41 exceeds task 1 training size 40"),
    (("model.layer_sizes = 3,8,3", "model.layer_sizes = 3,8,2"),
     r"\[model\] layer_sizes 3,8,2 do not fit task 1: label out of range for 2 classes"),
    (("model.layer_sizes = 3,8,3", "model.layer_sizes = 2,8,3"),
     r"\[model\] layer_sizes 2,8,3 do not fit task 1: features shape"),
    (("train.lr = 0.05", "train.lr = 0.05\ntrain.seed = 18446744073709551616"),
     r"\[train\] seed must lie in \[0, 2\*\*64\), got 18446744073709551616"),
    (("stream.seed = 1", "stream.seed = 18446744073709551616"),
     r"\[stream\] seed must lie in \[0, 2\*\*64\), got 18446744073709551616"),
    (("stream.seed = 1", "stream.seed = -1"), r"\[stream\] seed must lie in"),
])
def test_settings_no_job_can_train_with_are_config_errors(tmp_path, capsys, command, edit,
                                                          message):
    cfg = write_cfg(tmp_path, PARETO_CFG.replace(*edit) + f"output.dir = {tmp_path / 'o'}\n")
    assert main([command, "--config", cfg]) == 1
    assert re.search(r"^config error: " + message, capsys.readouterr().err)
    assert not (tmp_path / "o").exists()  # rejected before anything runs


@pytest.mark.parametrize("command", ["run", "pareto"])
def test_a_seed_past_the_last_64_bit_word_is_a_config_error(tmp_path, capsys, command):
    # the second seed of ``--seeds 2`` is 2**64; it used to fail in job 2
    cfg = write_cfg(tmp_path, PARETO_CFG + "train.seed = 18446744073709551615\n"
                    f"output.dir = {tmp_path / 'o'}\n")
    assert main([command, "--config", cfg, "--seeds", "2"]) == 1
    assert re.search(r"^config error: \[train\] seed must lie in \[0, 2\*\*64\), "
                     r"got 18446744073709551616 \(single\)$", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_pareto_checks_every_grid_method(tmp_path, capsys):
    # one memory sample: gem trains, d_mgem(2) of the default grid cannot
    text = "\n".join(line for line in PARETO_CFG.splitlines()
                     if not line.startswith("method."))
    text = text.replace("train.memory_per_task = 8", "train.memory_per_task = 1")
    cfg = write_cfg(tmp_path, text + f"\noutput.dir = {tmp_path / 'o'}\n")
    assert main(["pareto", "--config", cfg]) == 1
    assert "d_data (d_mgem)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid", ["-0.1,0.5", "0.1,nan"])
def test_bad_strength_grid_is_a_config_error(tmp_path, capsys, grid):
    cfg = write_cfg(tmp_path, PARETO_CFG.replace("pareto.q_grid = 0.0,0.5",
                                                 f"pareto.q_grid = {grid}"))
    assert main(["pareto", "--config", cfg]) == 1
    assert "config error: [pareto] q_grid" in capsys.readouterr().err


def test_degraded_run_exits_two(tmp_path, monkeypatch):
    import mgem.cli as cli_mod

    original = cli_mod.run_group

    def degraded_run(stream, mlp, cfgs, trace=False):
        results = original(stream, mlp, cfgs, trace=trace)
        for result in results:
            result.degraded = True
        return results

    monkeypatch.setattr(cli_mod, "run_group", degraded_run)
    cfg = write_cfg(tmp_path, RUN_CFG.replace("single", "gem")
                    + f"output.dir = {tmp_path / 'o'}\n")
    assert main(["run", "--config", cfg]) == 2
    assert (tmp_path / "o" / "summary.csv").exists()  # report still written


def test_a_failing_run_prints_only_its_error_line(tmp_path, capsys):
    # p_mgem at q = 1e10 (job 3) overflows in the forward pass on task 2;
    # its numpy warnings would precede the error line (and, under the
    # tests' error::RuntimeWarning filter, raise), so the command runs
    # with them off
    text = (CONFIGS / "rotated5.cfg").read_text(encoding="utf-8")
    cfg = write_cfg(tmp_path, re.sub(r"(?m)^method\.3\.q = .*$", "method.3.q = 1e10", text))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: job 3 of 6 (p_mgem, q=1e+10, seed=0) failed: memory gradients became "
        "non-finite at task 2, iteration 18; lower lr\n")


def test_run_with_csv_stream(tmp_path):
    data = tmp_path / "task.csv"
    rows = ["x0,x1,label"] + [f"{i}.0,{10 - i}.0,{i % 2}" for i in range(10)]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    text = f"""
stream.family = csv
stream.csv_paths = {data}
model.layer_sizes = 2,6,2
train.lr = 0.05
train.iters_per_task = 5
train.batch_size = 4
train.memory_per_task = 4
method.1.kind = single
output.dir = {tmp_path / 'o'}
"""
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", cfg]) == 0
    assert (tmp_path / "o" / "summary.csv").exists()


@pytest.mark.parametrize("command", ["run", "pareto"])
@pytest.mark.parametrize("bad", ["2.0,8.0,inf", "2.0,8.0,nan", "nan,8.0,0",
                                 "2.0,8.0,1e19", "2.0,8.0,1e300", None])
def test_bad_stream_data_file_exits_one(tmp_path, capsys, recwarn, command, bad):
    # a label or feature that is not finite, a label too large for int64,
    # or no file at all (None): a config error, with no warning on the way
    data = tmp_path / "task.csv"
    if bad is not None:
        rows = ["x0,x1,label"] + [f"{i}.0,{10 - i}.0,{i % 2}" for i in range(10)]
        rows[3] = bad
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    text = f"""
stream.family = csv
stream.csv_paths = {data},{data}
model.layer_sizes = 2,6,2
train.iters_per_task = 5
train.batch_size = 4
train.memory_per_task = 4
method.1.kind = single
output.dir = {tmp_path / 'o'}
"""
    assert main([command, "--config", write_cfg(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert "[stream]" in err and str(data) in err and "Traceback" not in err
    assert bad is None or "line 4 column" in err
    assert not (tmp_path / "o").exists()
    assert not recwarn.list


def test_selfcheck_quick(capsys):
    assert main(["selfcheck", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


@pytest.mark.skipif(sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="keeping the heap top needs glibc's mallopt")
def test_a_repeated_sweep_does_not_fault_its_heap_back_in(tmp_path):
    # without the heap-top pad, every stacked trace pass faults back the
    # pages that glibc trimmed after the last one: 54-100k faults per
    # command. Both commands run in one fresh child, so the count does not
    # depend on the heap that earlier tests leave in this process
    child = """
import contextlib, io, resource, sys
from mgem.cli import main
counts = []
for out in sys.argv[2:]:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pareto", "--config", sys.argv[1], "--threads", "1", "--out", out]) == 0
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*counts)
"""
    argv = [sys.executable, *(["-X", "dev"] if sys.flags.dev_mode else []), "-c", child,
            str(PARETO2), str(tmp_path / "first"), str(tmp_path / "second")]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True)
    first, second = map(int, done.stdout.split())
    assert second < 2000, (first, second)
