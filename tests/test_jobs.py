"""The job runner behind ``mgem run`` and ``mgem pareto``: output that does
not depend on the worker count, no worker left behind, named failures."""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mgem.cli import main
from mgem.constraints import MethodSpec
from mgem.engine import JobError, TrainConfig, pareto_sweep, run_jobs
from mgem.mlp import MlpSpec
from mgem.taskgen import StreamSpec, generate

ROOT = Path(__file__).resolve().parents[1]

CFG = """
stream.family = rotated
stream.n_tasks = 2
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
method.1.kind = gem
method.1.q = 0.1
method.2.kind = d_mgem
method.2.d_data = 2
method.2.q = 0.5
method.3.kind = single
pareto.q_grid = 0.0,0.5
"""

STREAM = generate(StreamSpec("rotated", n_tasks=2, n_train=40, n_test=20,
                             n_features=3, n_classes=3, noise=0.3, seed=1))
MLP = MlpSpec((3, 8, 3))


def write_cfg(tmp_path, text=CFG):
    path = tmp_path / "jobs.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def reports(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def train_cfg(seed=0, **kw):
    return TrainConfig(lr=0.05, iters_per_task=5, batch_size=8, memory_per_task=8,
                       method=MethodSpec("gem", **kw), seed=seed)


def _pid_job(stream, mlp, cfgs):
    return [(os.getpid(), cfg.seed) for cfg in cfgs]


def _failing_job(stream, mlp, cfgs):
    if any(cfg.seed == 2 for cfg in cfgs):
        raise FloatingPointError("went wrong at task 2, iteration 7")
    return [cfg.seed for cfg in cfgs]


@pytest.mark.parametrize("command,extra", [("run", ["--seeds", "2"]), ("pareto", [])])
def test_reports_identical_for_any_worker_count(tmp_path, command, extra):
    cfg = write_cfg(tmp_path)
    outs = {}
    for threads in (1, 2, 3):
        out = tmp_path / f"out{threads}"
        argv = [command, "--config", cfg, "--out", str(out), "--threads", str(threads)]
        assert main(argv + extra) == 0
        outs[threads] = reports(out)
    assert len(outs[1]) == (7 if command == "run" else 1)  # 3 methods x 2 seeds + summary
    assert outs[1] == outs[2] == outs[3]


def test_no_worker_outlives_a_call(tmp_path):
    grid = [(MethodSpec("gem"), q) for q in (0.0, 0.5)]
    pareto_sweep(STREAM, MLP, train_cfg(), grid, seeds=[0, 1], threads=2)
    assert multiprocessing.active_children() == []
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"]) == 0
    assert multiprocessing.active_children() == []


def test_jobs_run_in_workers_in_order():
    cfgs = [train_cfg(seed) for seed in range(5)]
    results = run_jobs(_pid_job, STREAM, MLP, cfgs, threads=2)
    assert [seed for _, seed in results] == list(range(5))
    assert os.getpid() not in {pid for pid, _ in results}


@pytest.mark.parametrize("threads", [1, 3])
def test_serial_without_fork_or_with_one_worker(monkeypatch, threads):
    if threads > 1:
        monkeypatch.delattr(os, "fork")
    results = run_jobs(_pid_job, STREAM, MLP, [train_cfg(s) for s in range(3)], threads)
    assert results == [(os.getpid(), s) for s in range(3)]


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_job_is_named_and_leaves_no_worker(threads):
    cfgs = [train_cfg(seed, strength=0.25) for seed in range(6)]
    with pytest.raises(JobError, match=r"job 3 of 6 \(gem, q=0\.25, seed=2\) failed: "
                                       r"went wrong at task 2, iteration 7"):
        run_jobs(_failing_job, STREAM, MLP, cfgs, threads)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command,job", [
    ("run", "job 1 of 3 (gem, q=0.1, seed=0)"),     # 3 methods
    ("pareto", "job 1 of 6 (gem, q=0, seed=0)"),    # 3 methods x 2 qs
])
def test_diverging_job_exits_two_naming_job_task_and_iteration(tmp_path, capsys,
                                                               command, job):
    cfg = write_cfg(tmp_path, CFG.replace("train.lr = 0.05", "train.lr = 1e300"))
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{job} failed: " in err
    assert re.search(r"non-finite at task 1, iteration \d+", err)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [1, 2])
def test_diverging_job_in_a_group_is_named(tmp_path, capsys, threads):
    # gem at q = 1e300 trains in lockstep with gem at q = 0.1 and diverges
    # alone on task 2; the other jobs finish, and the run still fails
    cfg = write_cfg(tmp_path, CFG + "method.4.kind = gem\nmethod.4.q = 1e300\n")
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", str(threads)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.search(r"job 4 of 4 \(gem, q=1e\+300, seed=0\) failed: "
                     r"[a-z ]+ became non-finite at task 2, iteration \d+;", err)
    assert err.count("failed") == 1
    assert multiprocessing.active_children() == []


def _session_members(sid: int) -> list:
    """Pids of live (not zombie) processes in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists() or not hasattr(os, "fork"),
                    reason="needs /proc and fork")
def test_workers_exit_when_the_parent_is_killed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "mgem.cli", "pareto", "--config",
            str(ROOT / "scripts" / "configs" / "pareto2.cfg"),
            "--out", str(tmp_path), "--threads", "2"]
    parent = subprocess.Popen(argv, env=env, start_new_session=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(_session_members(parent.pid)) < 3:  # the parent and two workers
            assert parent.poll() is None, "the sweep ended before its workers were seen"
            assert time.monotonic() < deadline, "no workers started"
            time.sleep(0.05)
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        deadline = time.monotonic() + 5
        while _session_members(parent.pid):
            assert time.monotonic() < deadline, (
                f"workers {_session_members(parent.pid)} outlived their parent")
            time.sleep(0.05)
    finally:
        try:
            os.killpg(parent.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        parent.wait()
