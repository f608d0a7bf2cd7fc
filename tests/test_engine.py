import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from mgem import qp
from mgem.constraints import MethodSpec
from mgem.engine import TrainConfig, _chunks, _group_key, pareto_sweep, run, run_group, run_jobs
from mgem.mlp import Dataset, MlpSpec, init_params, loss_and_grad
from mgem.seeds import rng_from
from mgem.taskgen import StreamSpec, Task, TaskStream, generate

MLP = MlpSpec((3, 8, 3))


def rotated_stream(n_tasks=2, seed=5, **kw):
    base = dict(family="rotated", n_tasks=n_tasks, n_train=80, n_test=40,
                n_features=3, n_classes=3, noise=0.3, seed=seed)
    base.update(kw)
    return generate(StreamSpec(**base))


def cfg(method, lr=0.05, iters=40, seed=0, memory=24):
    return TrainConfig(lr=lr, iters_per_task=iters, batch_size=16,
                       memory_per_task=memory, method=method, seed=seed)


def duplicated_task_stream(seed=5):
    base = rotated_stream(n_tasks=1, seed=seed).tasks[0]
    return TaskStream((Task(base.train, base.test, 1), Task(base.train, base.test, 2)))


def test_single_matches_hand_rolled_sgd():
    stream = rotated_stream(n_tasks=1)
    c = cfg(MethodSpec("single"), iters=25)
    result = run(stream, MLP, c)

    params = init_params(MLP, c.seed)
    rng = rng_from(c.seed, "batch", 1)
    train = stream.tasks[0].train
    for _ in range(c.iters_per_task):
        idx = rng.integers(0, train.n_samples, size=c.batch_size)
        _, g = loss_and_grad(params, MLP, train.take(idx))
        params -= c.lr * g
    assert np.array_equal(result.final_params, params)


def test_task1_trajectory_identical_across_methods():
    stream = rotated_stream(n_tasks=1)
    finals = []
    for m in (MethodSpec("single"), MethodSpec("gem"),
              MethodSpec("p_mgem", d_param=2, strength=0.3),
              MethodSpec("d_mgem", d_data=2, strength=0.3),
              MethodSpec("gem", solver="approx")):
        finals.append(run(stream, MLP, cfg(m)).final_params)
    for other in finals[1:]:
        assert np.array_equal(finals[0], other)


def test_gem_without_conflicts_equals_single():
    # two identical tasks early in training: every memory inner product
    # stays non-negative, so the projection is a no-op end to end
    stream = duplicated_task_stream()
    r_single = run(stream, MLP, cfg(MethodSpec("single"), lr=0.01, iters=30))
    r_gem = run(stream, MLP, cfg(MethodSpec("gem"), lr=0.01, iters=30), trace=True)
    assert all(t.min_memory_inner >= 0 for t in r_gem.traces)
    assert np.array_equal(r_single.final_params, r_gem.final_params)
    assert np.array_equal(r_single.accuracy, r_gem.accuracy)


def test_modular_methods_with_one_module_reduce_to_gem():
    # bit-for-bit: with a single module the three assemblies are the same QP
    stream = rotated_stream()
    finals = {}
    for m in (MethodSpec("gem", strength=0.2),
              MethodSpec("p_mgem", d_param=1, strength=0.2),
              MethodSpec("d_mgem", d_data=1, strength=0.2)):
        finals[m.kind] = run(stream, MLP, cfg(m)).final_params
    assert np.array_equal(finals["gem"], finals["p_mgem"])
    assert np.array_equal(finals["gem"], finals["d_mgem"])


def test_equal_flat_partition_runs_and_is_deterministic():
    stream = rotated_stream()
    c = TrainConfig(lr=0.05, iters_per_task=20, batch_size=16, memory_per_task=24,
                    method=MethodSpec("p_mgem", d_param=3, strength=0.1),
                    partition_mode="equal_flat", seed=0)
    a, b = run(stream, MLP, c), run(stream, MLP, c)
    assert np.array_equal(a.final_params, b.final_params)
    assert a.constrained_steps == 20


def test_memories_never_change_after_storage(monkeypatch):
    import mgem.engine as engine_mod
    seen = {}
    original = engine_mod.memory_grads

    def spying(memories, *args):
        for mem in memories:
            snapshot = (mem.data.features.tobytes(), mem.data.labels.tobytes(),
                        tuple(s.tobytes() for s in mem.splits))
            if mem.task in seen:
                assert seen[mem.task] == snapshot, f"memory for task {mem.task} changed"
            else:
                seen[mem.task] = snapshot
        return original(memories, *args)

    monkeypatch.setattr(engine_mod, "memory_grads", spying)
    run(rotated_stream(n_tasks=3, n_train=60), MLP, cfg(MethodSpec("gem"), iters=15))
    assert set(seen) == {1, 2}  # task 3 stores a memory but nothing consumes it


def test_run_is_deterministic():
    stream = rotated_stream()
    a = run(stream, MLP, cfg(MethodSpec("gem", strength=0.1)))
    b = run(stream, MLP, cfg(MethodSpec("gem", strength=0.1)))
    assert np.array_equal(a.accuracy, b.accuracy)
    assert np.array_equal(a.final_params, b.final_params)
    c = run(stream, MLP, cfg(MethodSpec("gem", strength=0.1), seed=1))
    assert not np.array_equal(a.final_params, c.final_params)


def test_approx_run_is_deterministic():
    stream = rotated_stream()
    a = run(stream, MLP, cfg(MethodSpec("gem", solver="approx", strength=0.2)))
    b = run(stream, MLP, cfg(MethodSpec("gem", solver="approx", strength=0.2)))
    assert np.array_equal(a.accuracy, b.accuracy)


def test_exact_gem_honors_memory_constraints():
    stream = rotated_stream(n_tasks=3, n_train=60)
    result = run(stream, MLP, cfg(MethodSpec("gem"), iters=30), trace=True)
    assert result.constrained_steps == 60
    assert all(t.min_memory_inner >= -1e-8 for t in result.traces)


def test_memory_immutable_after_task():
    # memories are rebuilt from the same seeded draw: identical across runs
    # and never touched once stored; verify via the R matrix's first row
    # staying fixed when later tasks change.
    s1 = rotated_stream(n_tasks=2)
    s2 = TaskStream((s1.tasks[0], rotated_stream(n_tasks=2, seed=99).tasks[1]))
    a = run(s1, MLP, cfg(MethodSpec("gem")))
    b = run(s2, MLP, cfg(MethodSpec("gem")))
    assert np.array_equal(a.accuracy[0, 0], b.accuracy[0, 0])


def test_memory_too_large_rejected():
    stream = rotated_stream(n_train=20)
    with pytest.raises(ValueError):
        run(stream, MLP, cfg(MethodSpec("gem"), memory=24))


def test_unconverged_steps_flag_degraded(monkeypatch):
    stream = rotated_stream()
    original = qp.solve_batch

    def flaky(insts, solvers, **kwargs):
        sols = original(insts, solvers, **kwargs)
        for sol in sols:
            sol.converged = np.zeros_like(sol.converged)
        return sols

    monkeypatch.setattr(qp, "solve_batch", flaky)
    result = run(stream, MLP, cfg(MethodSpec("gem")))
    assert result.unconverged_steps == result.constrained_steps > 0
    assert result.degraded


def test_traces_only_for_tasks_with_memory():
    stream = rotated_stream()
    result = run(stream, MLP, cfg(MethodSpec("gem"), iters=10), trace=True)
    assert {t.task for t in result.traces} == {2}
    assert len(result.traces) == 10
    untraced = run(stream, MLP, cfg(MethodSpec("gem"), iters=10))
    assert untraced.traces == []


def test_traced_inner_products_match_per_set_gradients():
    # single: z is the batch gradient, so the whole trace can be rebuilt
    # from separate loss_and_grad calls per training set and memory
    stream = rotated_stream(n_tasks=3, n_train=60)
    c = cfg(MethodSpec("single"), iters=6, memory=20)
    traces = iter(run(stream, MLP, c, trace=True).traces)
    params = init_params(MLP, c.seed)
    memories = []
    for t_pos, task in enumerate(stream.tasks, start=1):
        rng = rng_from(c.seed, "batch", t_pos)
        for it in range(c.iters_per_task):
            idx = rng.integers(0, task.train.n_samples, size=c.batch_size)
            z = loss_and_grad(params, MLP, task.train.take(idx))[1]
            if t_pos >= 2:
                tr = next(traces)
                assert (tr.task, tr.iteration) == (t_pos, it)
                fwd = loss_and_grad(params, MLP, task.train)[1] @ z
                assert abs(tr.fwd_inner - fwd) <= 1e-12
                assert len(tr.bwd_inners) == t_pos - 1
                for s, got in enumerate(tr.bwd_inners):
                    want = loss_and_grad(params, MLP, stream.tasks[s].train)[1] @ z
                    assert abs(got - want) <= 1e-12
                mem = min(loss_and_grad(params, MLP, m)[1] @ z for m in memories)
                assert abs(tr.min_memory_inner - mem) <= 1e-12
            params -= c.lr * z
        sel = rng_from(c.seed, "memory", t_pos).choice(
            task.train.n_samples, size=c.memory_per_task, replace=False)
        memories.append(task.train.take(np.sort(sel)))
    assert next(traces, None) is None


@pytest.mark.parametrize("method", [MethodSpec("single"), MethodSpec("gem")])
def test_divergence_stops_at_the_step_that_overflows(method):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match=r"task 1, iteration 1;"):
        run(rotated_stream(), MLP, cfg(method, lr=1e300))


@pytest.mark.parametrize("method", [MethodSpec("single"), MethodSpec("gem")])
def test_overflowing_forward_pass_stops_at_its_step(method):
    # task 2's inputs are finite but huge: the first step leaves the
    # parameters finite (~1e298), and the second step's forward pass overflows
    first, second = rotated_stream().tasks
    huge = Dataset(second.train.features * 1e300, second.train.labels)
    stream = TaskStream((first, Task(huge, second.test, second.descriptor)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError,
                          match=r"^minibatch gradient became non-finite at task 2, iteration 1;"):
        run(stream, MLP, cfg(method))


def test_nonfinite_memory_gradient_stops_at_its_step(monkeypatch):
    # a NaN memory row would otherwise be dropped as degenerate
    import mgem.engine as engine_mod
    original = engine_mod.memory_grads

    def poisoned(memories, rows):
        rows = rows.copy()
        rows[:, 0, 0] = np.nan
        return original(memories, rows)

    monkeypatch.setattr(engine_mod, "memory_grads", poisoned)
    with pytest.raises(FloatingPointError,
                       match=r"^memory gradients became non-finite at task 2, iteration 0;"):
        run(rotated_stream(), MLP, cfg(MethodSpec("gem")))


def test_every_exact_instance_of_a_run_is_certified_by_enumeration(monkeypatch):
    # a short rotated5-shaped run (its stream, model and six methods at
    # q = 0.5): record each exact instance the engine solves, then check
    # the solver's multipliers against exhaustive enumeration
    stream = generate(StreamSpec(family="rotated", n_tasks=5, n_train=120, n_test=80,
                                 n_features=2, n_classes=4, noise=0.4, seed=1))
    methods = (MethodSpec("single"), MethodSpec("gem", strength=0.5),
               MethodSpec("p_mgem", d_param=2, strength=0.5),
               MethodSpec("d_mgem", d_data=2, strength=0.5),
               MethodSpec("md_mgem", d_param=2, d_data=2, strength=0.5),
               MethodSpec("gem", solver="approx", strength=0.5))
    iters = 6
    cfgs = [TrainConfig(lr=0.05, iters_per_task=iters, batch_size=16, memory_per_task=32,
                        method=m, seed=0) for m in methods]
    seen = []
    original = qp.solve_batch

    def recording(insts, solvers, **kwargs):
        sols = original(insts, solvers, **kwargs)
        seen.extend((inst, sol) for inst, solver, sol in zip(insts, solvers, sols)
                    if solver == qp.EXACT)
        return sols

    monkeypatch.setattr(qp, "solve_batch", recording)
    run_jobs(run_group, stream, MlpSpec((2, 16, 4)), cfgs, threads=1)

    sizes = []
    for inst, sol in seen:
        for i in range(len(inst.target)):
            single = qp.QpInstance(inst.constraint_rows[i], inst.target[i],
                                   inst.strength[i], inst.form)
            v, ref = sol.multipliers[i], qp.solve_enumerate(single)
            assert sol.converged[i]
            assert np.max(np.abs(v - ref.multipliers), initial=0.0) <= 1e-6
            assert abs(qp.dual_objective(single, v)
                       - qp.dual_objective(single, ref.multipliers)) <= 1e-6
            sizes.append(single.m)
    # gem, p_mgem (2 modules), d_mgem, md_mgem (2 modules): six exact
    # instances per step of tasks 2-5, with up to 4 memories x 2 splits
    assert len(sizes) == 6 * 4 * iters
    assert max(sizes) == 8


def test_accuracy_matrix_shape_and_range():
    stream = rotated_stream(n_tasks=3, n_train=60)
    result = run(stream, MLP, cfg(MethodSpec("single"), iters=20))
    R = result.accuracy
    assert R.shape == (3, 3)
    assert np.all((0.0 <= R) & (R <= 1.0))


# --- lockstep groups ---------------------------------------------------------

# Every memory-row layout: none (single), whole memories (gem, p_mgem by
# layer and equal_flat, approx gem) and three splits of a 32-sample memory,
# 11/11/10 rows, which takes the unequal-group path (d_mgem, md_mgem).
LOCKSTEP_JOBS = (
    (MethodSpec("single"), "by_layer"),
    (MethodSpec("single"), "equal_flat"),
    (MethodSpec("gem", strength=0.5), "by_layer"),
    (MethodSpec("p_mgem", d_param=2, strength=0.5), "by_layer"),
    (MethodSpec("p_mgem", d_param=3, strength=0.2), "equal_flat"),
    (MethodSpec("gem", solver="approx", strength=0.5), "by_layer"),
    (MethodSpec("d_mgem", d_data=3, strength=0.5), "by_layer"),
    (MethodSpec("md_mgem", d_param=2, d_data=3, strength=0.3), "by_layer"),
)


def lockstep_cfgs(seed=0):
    return [replace(cfg(method, iters=12, memory=32, seed=seed), partition_mode=mode)
            for method, mode in LOCKSTEP_JOBS]


def assert_same_run(a, b):
    assert np.array_equal(a.accuracy, b.accuracy)
    assert np.array_equal(a.final_params, b.final_params)
    assert [vars(t) for t in a.traces] == [vars(t) for t in b.traces]
    assert (a.constrained_steps, a.unconverged_steps, a.rows_dropped, a.degraded) == (
        b.constrained_steps, b.unconverged_steps, b.rows_dropped, b.degraded)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_lockstep_group_equals_each_job_alone(activation, trace):
    stream = rotated_stream(n_tasks=3, n_train=60)
    mlp = MlpSpec((3, 8, 3), activation=activation)
    cfgs = lockstep_cfgs()
    alone = [run(stream, mlp, c, trace=trace) for c in cfgs]
    assert sum(r.constrained_steps for r in alone) > 0
    assert all(bool(r.traces) == trace for r in alone)
    groups = {}
    for c in cfgs:
        groups.setdefault(_group_key(c), []).append(c)
    assert [len(g) for g in groups.values()] == [2, 4, 2]
    together = [r for g in groups.values() for r in run_group(stream, mlp, g, trace=trace)]
    for a, b in zip(alone, together):
        assert_same_run(a, b)
    # the whole mixed list, grouped and chunked for one and for three workers
    job = partial(run_group, trace=trace)
    for threads in (1, 3):
        for a, b in zip(alone, run_jobs(job, stream, mlp, cfgs, threads)):
            assert_same_run(a, b)


def test_lockstep_results_do_not_depend_on_the_chunking():
    stream = rotated_stream(n_tasks=3, n_train=60)
    cfgs = [c for c in lockstep_cfgs() if _group_key(c)[-1] == 1]
    cfgs += [replace(c, method=replace(c.method, strength=q))
             for c in cfgs for q in (0.0, 1.0)]
    whole = run_group(stream, MLP, cfgs, trace=True)
    for cut in (1, 5, 11):
        parts = (run_group(stream, MLP, cfgs[:cut], trace=True)
                 + run_group(stream, MLP, cfgs[cut:], trace=True))
        for a, b in zip(whole, parts):
            assert_same_run(a, b)


def test_group_rejects_jobs_that_draw_different_data():
    stream = rotated_stream()
    for other in (cfg(MethodSpec("gem"), seed=1), cfg(MethodSpec("gem"), lr=0.1),
                  cfg(MethodSpec("single")), cfg(MethodSpec("d_mgem", d_data=2))):
        with pytest.raises(ValueError, match="must share"):
            run_group(stream, MLP, [cfg(MethodSpec("gem")), other])


@pytest.mark.parametrize("trace", [False, True])
def test_diverging_job_leaves_its_group(trace, monkeypatch):
    # exact gem, p_mgem and approx gem train in lockstep; two of them, one
    # exact and one approximate, diverge and stop at the same step
    import mgem.engine as engine_mod
    original = engine_mod._backprop
    nonfinite = []

    def checked(params, *args):
        out = original(params, *args)
        nonfinite.append(not np.isfinite(out[1]).all())
        return out

    monkeypatch.setattr(engine_mod, "_backprop", checked)
    stream = rotated_stream(n_tasks=3, n_train=60)
    cfgs = [cfg(m) for m in (
        MethodSpec("gem", strength=0.1), MethodSpec("gem", strength=1e300),
        MethodSpec("p_mgem", d_param=2, strength=0.5),
        MethodSpec("gem", solver="approx", strength=1e300),
        MethodSpec("gem", solver="approx", strength=0.5))]
    with np.errstate(over="ignore", invalid="ignore"):
        results = run_group(stream, MLP, cfgs, trace=trace)
        # only the passes of that step (minibatch, memory, trace) see them
        # diverge: their rows are zeroed, so every later pass is finite
        assert 1 <= sum(nonfinite) <= 3
        for c, result in zip(cfgs, results):
            if isinstance(result, FloatingPointError):
                with pytest.raises(FloatingPointError) as alone:
                    run(stream, MLP, c, trace=trace)
                assert str(result) == str(alone.value)
                assert re.search(r"non-finite at task 2, iteration \d+;", str(result))
            else:
                assert_same_run(result, run(stream, MLP, c, trace=trace))
    assert [isinstance(r, FloatingPointError) for r in results] == [
        False, True, False, True, False]


def test_degenerate_memory_rows_are_left_out_and_counted_per_job(monkeypatch):
    # push some jobs' memory rows below MIN_ROW_SQNORM on their way to the
    # QP: q = 0.5 jobs the first memory's row, the q = 1 job every row
    import mgem.engine as engine_mod
    original = engine_mod.assemble_step

    def shrunk(methods, spans, g_t, rows, jobs):
        rows = rows.copy()
        for r, method in enumerate(methods):
            if method.strength == 0.5:
                rows[r, 0] *= 1e-9
            elif method.strength == 1.0:
                rows[r] *= 1e-9
        return original(methods, spans, g_t, rows, jobs)

    monkeypatch.setattr(engine_mod, "assemble_step", shrunk)
    stream = rotated_stream(n_tasks=3, n_train=60)
    iters = 12
    cfgs = [cfg(m, iters=iters) for m in (
        MethodSpec("gem", strength=0.1), MethodSpec("gem", strength=0.5),
        MethodSpec("p_mgem", d_param=2, strength=0.5),
        MethodSpec("gem", solver="approx", strength=0.5), MethodSpec("gem", strength=1.0))]
    results = run_group(stream, MLP, cfgs, trace=True)
    # tasks 2 and 3 hold 1 and 2 memories: one row each per module
    assert [r.rows_dropped for r in results] == [0, 2 * iters, 4 * iters, 2 * iters, 3 * iters]
    for c, result in zip(cfgs, results):
        assert_same_run(result, run(stream, MLP, c, trace=True))
    # every row left out: each step is the plain gradient
    assert np.array_equal(results[-1].final_params,
                          run(stream, MLP, cfg(MethodSpec("single"), iters=iters)).final_params)


def test_chunks_halve_the_largest_until_two_per_worker():
    grid = [MethodSpec("gem"), MethodSpec("p_mgem", d_param=2),
            MethodSpec("d_mgem", d_data=2), MethodSpec("md_mgem", d_param=2, d_data=2),
            MethodSpec("gem", solver="approx")]
    cfgs = [cfg(replace(m, strength=q)) for m in grid for q in range(8)]
    assert [len(c) for c in _chunks(cfgs, 1)] == [24, 16]
    assert [len(c) for c in _chunks(cfgs, 2)] == [12, 12, 8, 8]
    assert [len(c) for c in _chunks(cfgs, 3)] == [8, 8, 6, 6, 6, 6]
    assert sorted(i for c in _chunks(cfgs, 3) for i in c) == list(range(40))
    assert [len(c) for c in _chunks(cfgs[:2], 4)] == [1, 1]  # one job per chunk at most
    for chunk in _chunks(cfgs, 3):
        assert len({_group_key(cfgs[i]) for i in chunk}) == 1


# --- pareto sweep ------------------------------------------------------------

def test_pareto_requires_two_tasks():
    stream = rotated_stream(n_tasks=1)
    with pytest.raises(ValueError, match="2 tasks"):
        pareto_sweep(stream, MLP, cfg(MethodSpec("gem")), [(MethodSpec("gem"), 0.0)])


def test_pareto_empty_grid():
    stream = rotated_stream()
    assert pareto_sweep(stream, MLP, cfg(MethodSpec("gem")), []) == []


def test_pareto_identical_tasks_balance_inner_products():
    # identical tasks: the past-task and current-task full gradients are the
    # same vector, so the two traced means coincide
    stream = duplicated_task_stream()
    pts = pareto_sweep(stream, MLP, cfg(MethodSpec("gem"), iters=15), [(MethodSpec("gem"), 0.0)])
    assert len(pts) == 1
    assert pts[0].mean_bwd_inner == pytest.approx(pts[0].mean_fwd_inner, rel=1e-12)


def test_pareto_grid_and_seed_multiplication():
    stream = rotated_stream()
    grid = [(MethodSpec("gem"), q) for q in (0.0, 0.1)]
    pts = pareto_sweep(stream, MLP, cfg(MethodSpec("gem"), iters=8), grid, seeds=[0, 1, 2])
    assert len(pts) == 6
    assert [p.seed for p in pts] == [0, 1, 2, 0, 1, 2]
    assert [p.method.strength for p in pts] == [0.0] * 3 + [0.1] * 3


def test_pareto_threaded_matches_sequential():
    stream = rotated_stream()
    grid = [(MethodSpec("gem"), 0.0), (MethodSpec("gem", solver="approx"), 0.1)]
    seq = pareto_sweep(stream, MLP, cfg(MethodSpec("gem"), iters=8), grid)
    par = pareto_sweep(stream, MLP, cfg(MethodSpec("gem"), iters=8), grid, threads=2)
    for a, b in zip(seq, par):
        assert a.mean_bwd_inner == b.mean_bwd_inner
        assert a.mean_fwd_inner == b.mean_fwd_inner
