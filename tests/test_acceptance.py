"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion. Desk-scale streams are rotated Gaussian blobs in two feature
dimensions (so tasks genuinely interfere) with four classes and noise 0.4;
all runs are seeded and deterministic.
"""

import time

import numpy as np
import pytest

from mgem.constraints import MethodSpec, split_memory
from mgem.engine import TrainConfig, pareto_sweep, run
from mgem.metrics import summarize, write_summary_csv
from mgem.mlp import MlpSpec, accuracy, init_params, loss_and_grad
from mgem.qp import QpInstance, solve_approx, solve_enumerate
from mgem.seeds import derive_seed, rng_from
from mgem.selfcheck import (
    check_approx_single_constraint,
    check_block_consistency,
    check_gradients,
    check_oracle_equivalence,
    check_strength_ordering,
    run_all,
)
from mgem.taskgen import StreamSpec, generate

MLP = MlpSpec((2, 16, 4))
SEEDS = (0, 1, 2)


def desk_stream(n_tasks, seed=1):
    return generate(StreamSpec("rotated", n_tasks=n_tasks, n_train=120, n_test=80,
                               n_features=2, n_classes=4, noise=0.4, seed=seed))


def desk_cfg(method, seed=0, iters=200):
    return TrainConfig(lr=0.05, iters_per_task=iters, batch_size=16,
                       memory_per_task=32, method=method, seed=seed)


def report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_solver_oracle_equivalence():
    start = time.perf_counter()
    passed, detail = check_oracle_equivalence(n_instances=1000)
    elapsed = time.perf_counter() - start
    report(1, passed and elapsed < 10.0, f"{detail}; {elapsed:.1f}s (< 10s)")


def test_c02_approx_exact_at_single_constraint():
    passed, detail = check_approx_single_constraint(n_instances=100)
    report(2, passed, detail)


def test_c03_gem_feasibility_end_to_end():
    stream = desk_stream(3)
    result = run(stream, MLP, desk_cfg(MethodSpec("gem", strength=0.0), iters=150),
                 trace=True)
    worst = min(t.min_memory_inner for t in result.traces)
    steps = len(result.traces)
    report(3, steps == 300 and worst >= -1e-8,
           f"min_s <ghat_s, z> = {worst:.3e} over {steps} constrained steps (>= -1e-8)")


def test_c04_block_solve_equality():
    passed, detail = check_block_consistency(n_cases=100)
    report(4, passed, detail)


def test_c05_strength_ordering_chain():
    passed, detail = check_strength_ordering(n_cases=500, tol=1e-7)
    report(5, passed, detail)


def test_c06_gradient_correctness():
    passed, detail = check_gradients(n_cases=20)
    report(6, passed, detail)


def test_c07_metric_identity(tmp_path):
    s = summarize([[0.9, 0.2], [0.8, 0.85]])
    ok = (s.acc == s.bwd + s.fwd
          and s.acc == pytest.approx(0.825, abs=1e-12)
          and s.fwd == pytest.approx(0.875, abs=1e-12)
          and s.bwd == pytest.approx(-0.05, abs=1e-12)
          and (f"{s.acc:.9g}", f"{s.fwd:.9g}", f"{s.bwd:.9g}")
          == ("0.825", "0.875", "-0.05"))

    # identity holds on every emitted summary, not just the worked example
    rng = np.random.default_rng(0)
    entries = []
    for k in range(200):
        T = int(rng.integers(1, 7))
        summary = summarize(rng.uniform(0.0, 1.0, size=(T, T)))
        ok = ok and summary.acc == summary.bwd + summary.fwd
        entries.append((MethodSpec("gem"), k, summary, 0))
    write_summary_csv(tmp_path / "summary.csv", entries)
    ok = ok and (tmp_path / "summary.csv").exists()
    report(7, ok, "ACC == BWD + FWD exact on worked example and 200 random summaries")


def test_c08_pareto_module_trend():
    start = time.perf_counter()
    stream = desk_stream(2)
    q = 0.1
    cfgs = [desk_cfg(MethodSpec("p_mgem", d_param=d, strength=q), seed=s, iters=150)
            for d in (1, 2, 4) for s in SEEDS]
    pts = pareto_sweep(stream, MLP, cfgs)
    bwd = [float(np.mean([p.mean_bwd_inner for p in pts[i * 3:(i + 1) * 3]]))
           for i in range(3)]
    fwd = [float(np.mean([p.mean_fwd_inner for p in pts[i * 3:(i + 1) * 3]]))
           for i in range(3)]
    elapsed = time.perf_counter() - start
    monotone = (bwd[0] <= bwd[1] + 1e-9 and bwd[1] <= bwd[2] + 1e-9
                and fwd[0] >= fwd[1] - 1e-9 and fwd[1] >= fwd[2] - 1e-9)
    report(8, monotone and elapsed < 120.0,
           f"D in (1,2,4) at q={q}: <g_s,z> = {[f'{b:+.5f}' for b in bwd]} non-decreasing, "
           f"<g_t,z> = {[f'{f:+.5f}' for f in fwd]} non-increasing; {elapsed:.1f}s (< 2min)")


def test_c09_forgetting_trend_with_report(tmp_path):
    stream = desk_stream(5)

    def mean_summary(method):
        summaries = [summarize(run(stream, MLP, desk_cfg(method, seed=s)).accuracy)
                     for s in SEEDS]
        return (float(np.mean([x.acc for x in summaries])),
                float(np.mean([x.bwd for x in summaries])),
                summaries)

    tune = {q: mean_summary(MethodSpec("gem", strength=q)) for q in (0.0, 0.1, 0.5)}
    best_q = max(tune, key=lambda q: tune[q][0])
    gem_bwd = tune[best_q][1]
    d_acc, d_bwd, d_summaries = mean_summary(
        MethodSpec("d_mgem", d_data=2, strength=best_q))
    trend_holds = d_bwd >= gem_bwd

    # the comparison report is written whether or not the trend holds
    entries = [(MethodSpec("gem", strength=best_q), s, summ, 0)
               for s, summ in zip(SEEDS, tune[best_q][2])]
    entries += [(MethodSpec("d_mgem", d_data=2, strength=best_q), s, summ, 0)
                for s, summ in zip(SEEDS, d_summaries)]
    write_summary_csv(tmp_path / "summary.csv", entries)
    flag = "ok" if trend_holds else "FLAGGED: trend violated"
    (tmp_path / "forgetting_comparison.csv").write_text(
        "metric,gem,d_mgem_2,trend_holds\n"
        f"mean_bwd,{gem_bwd:.9g},{d_bwd:.9g},{int(trend_holds)}\n",
        encoding="utf-8",
    )
    report(9, trend_holds and (tmp_path / "forgetting_comparison.csv").exists(),
           f"tuned q={best_q}: mean BWD d_mgem(2) = {d_bwd:+.4f} vs gem = {gem_bwd:+.4f} "
           f"({flag}; report written)")


def test_c10_selfcheck_within_budget():
    start = time.perf_counter()
    results = run_all(quick=False)
    elapsed = time.perf_counter() - start
    all_pass = all(r.passed for r in results)
    report(10, all_pass and elapsed < 300.0,
           f"{sum(r.passed for r in results)}/{len(results)} suites pass "
           f"in {elapsed:.1f}s (< 300s; unit suite timed by pytest itself)")


def reference_run(stream, mlp, cfg, spans):
    """The loop ``run`` documents, written out with none of its machinery:
    one ``loss_and_grad`` per minibatch and per split of each stored
    memory, one ``QpInstance`` per module span (given here, not resolved),
    each solved by enumeration (exact) or the closed form (approx)."""
    method = cfg.method
    solve = solve_enumerate if method.solver == "exact" else solve_approx
    params = init_params(mlp, cfg.seed)
    memories, R = [], np.zeros((stream.n_tasks, stream.n_tasks))
    for t, task in enumerate(stream.tasks, start=1):
        batches = rng_from(cfg.seed, "batch", t)
        for _ in range(cfg.iters_per_task):
            idx = batches.integers(0, task.train.n_samples, size=cfg.batch_size)
            _, g = loss_and_grad(params, mlp, task.train.take(idx))
            if memories:
                rows = np.array([loss_and_grad(params, mlp, split)[1] for split in memories])
                g = np.concatenate([
                    solve(QpInstance(rows[:, span], g[span],
                                     np.full(len(rows), method.strength))).direction
                    for span in spans])
            params = params - cfg.lr * g
        sel = np.sort(rng_from(cfg.seed, "memory", t).choice(
            task.train.n_samples, size=cfg.memory_per_task, replace=False))
        splits = split_memory(cfg.memory_per_task, method.d_data,
                              derive_seed(cfg.seed, "memsplit", t))
        memories += [task.train.take(sel[idx]) for idx in splits]
        R[t - 1] = [accuracy(params, mlp, other.test) for other in stream.tasks]
    return R, params


def test_c11_every_method_equals_the_reference_loop():
    # a 4-task rotated stream, 40 steps per task, on a net whose rows do not
    # depend on the pass's row count and on one whose rows do; by_layer
    # module spans written out by hand: [W0 b0 | W1 b1] and [W0 b0 W1 | b1 W2 b2]
    start = time.perf_counter()
    nets = [(MLP, desk_stream(4), {1: [slice(0, 116)], 2: [slice(0, 48), slice(48, 116)]}),
            (MlpSpec((3, 40, 40, 3)),
             generate(StreamSpec("rotated", n_tasks=4, n_train=120, n_test=80, n_features=3,
                                 n_classes=3, noise=0.4, seed=1)),
             {1: [slice(0, 1923)], 2: [slice(0, 1760), slice(1760, 1923)]})]
    methods = [MethodSpec("gem", strength=0.5), MethodSpec("p_mgem", d_param=2, strength=0.5),
               MethodSpec("d_mgem", d_data=2, strength=0.5),
               MethodSpec("md_mgem", d_param=2, d_data=2, strength=0.5),
               MethodSpec("gem", strength=0.5, solver="approx"),
               MethodSpec("d_mgem", d_data=3, strength=0.0)]
    worst, same_R = [], True
    for mlp, stream, spans in nets:
        gaps = []
        for method in methods:
            cfg = desk_cfg(method, iters=40)
            result = run(stream, mlp, cfg)
            R, params = reference_run(stream, mlp, cfg, spans[method.d_param])
            same_R = same_R and np.array_equal(result.accuracy, R)
            gaps.append(float(np.max(np.abs(result.final_params - params))))
        worst.append(max(gaps))
    elapsed = time.perf_counter() - start
    report(11, same_R and max(worst) <= 1e-12,
           f"6 methods on 2,16,4 and 3,40,40,3: identical R, final parameters within "
           f"{worst[0]:.1e} and {worst[1]:.1e} of the reference loop (<= 1e-12); {elapsed:.1f}s")
