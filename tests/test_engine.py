import multiprocessing
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from mgem import qp
from mgem.constraints import MethodSpec
from mgem.engine import (
    JobError,
    TrainConfig,
    _chunks,
    _group_key,
    pareto_sweep,
    run,
    run_group,
    run_jobs,
)
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
    # each stored memory's rows of the pass, split by split after the
    # minibatch, stay byte for byte the same from task to task
    import mgem.engine as engine_mod
    original = engine_mod._backprop
    c = cfg(MethodSpec("d_mgem", d_data=2), iters=15)
    B, M, seen = c.batch_size, c.memory_per_task, {}

    def spying(params, spec, data, sizes):
        sizes = list(sizes)
        if sizes != [B]:  # a solved step: the minibatch, then 12/12 splits per memory
            n_memories = (data.n_samples - B) // M
            assert sizes == [B] + [12, 12] * n_memories
            for s in range(n_memories):
                rows = data.take(slice(B + s * M, B + (s + 1) * M))
                snapshot = (rows.features.tobytes(), rows.labels.tobytes())
                assert seen.setdefault(s, snapshot) == snapshot, f"memory {s + 1} changed"
        return original(params, spec, data, sizes)

    monkeypatch.setattr(engine_mod, "_backprop", spying)
    run(rotated_stream(n_tasks=4, n_train=60), MLP, c)
    assert set(seen) == {0, 1, 2}  # task 4 stores a memory but nothing consumes it


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


def test_train_config_rejects_a_bad_lr():
    for bad in (0.0, -0.05, -np.inf):
        with pytest.raises(ValueError, match="lr must be positive"):
            cfg(MethodSpec("gem"), lr=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lr must be finite"):
            cfg(MethodSpec("gem"), lr=bad)


@pytest.mark.parametrize("field,bad", [("iters_per_task", 2.5), ("batch_size", 4.0),
                                       ("memory_per_task", 8.5), ("seed", 1.5)])
def test_train_config_counts_and_seed_are_integers(field, bad):
    kwargs = dict(lr=0.05, iters_per_task=40, batch_size=16, memory_per_task=24,
                  method=MethodSpec("gem"), seed=0)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad}$"):
        TrainConfig(**{**kwargs, field: bad})
    assert TrainConfig(**{**kwargs, field: np.int64(kwargs[field])}) == TrainConfig(**kwargs)


@pytest.mark.parametrize("seed", [2**64, 2**64 + 1, -1])
def test_train_config_seed_is_a_64_bit_word(seed):
    # 2**64 would alias seed 0's streams and then overflow ``derive_seed``
    with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
        cfg(MethodSpec("gem"), seed=seed)
    assert cfg(MethodSpec("gem"), seed=2**64 - 1).seed == 2**64 - 1


def test_a_test_label_past_the_models_classes_is_rejected():
    # the training labels fit the 3-class model, task 1's test labels do
    # not: the first evaluation raises, as training on them would
    stream = rotated_stream()
    first = stream.tasks[0]
    labels = first.test.labels.copy()
    labels[-1] = MLP.n_out
    bad = Task(first.train, Dataset(first.test.features, labels), first.descriptor)
    with pytest.raises(ValueError, match=f"^label out of range for {MLP.n_out} classes$"):
        run(TaskStream((bad,) + stream.tasks[1:]), MLP, cfg(MethodSpec("gem"), iters=2))


def test_memory_too_large_rejected():
    stream = rotated_stream(n_train=20)
    with pytest.raises(ValueError):
        run(stream, MLP, cfg(MethodSpec("gem"), memory=24))


def test_a_group_of_no_jobs_trains_nothing():
    assert run_group(rotated_stream(), MLP, []) == []


def test_unconverged_steps_flag_degraded(monkeypatch):
    stream = rotated_stream()
    original = qp.solve_batch

    def flaky(stacks, solvers, **kwargs):
        sols = original(stacks, solvers, **kwargs)
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


@pytest.mark.parametrize("methods", [
    [MethodSpec("single")] * 3,
    [MethodSpec("gem"), MethodSpec("p_mgem", d_param=2, strength=0.5),
     MethodSpec("gem", solver="approx", strength=0.2)],
    [MethodSpec("d_mgem", d_data=2), MethodSpec("md_mgem", d_param=2, d_data=2, strength=0.5),
     MethodSpec("d_mgem", d_data=2, solver="approx", strength=0.2)],
], ids=["single", "constrained", "split"])
def test_group_trace_inner_products_are_each_row_dot_z(methods, monkeypatch):
    # every traced inner product of a 3-job group is float(row @ z) for its
    # job's trace row and update direction, bit for bit; a memory's is
    # sum_k (n_k / M) float(row_k @ z) over its split rows (11/10 here), so
    # a one-split memory's is float(row @ z)
    import mgem.engine as engine_mod
    from mgem.constraints import assemble_step
    seen = {}

    def spy(name, keep):
        fn = getattr(engine_mod, name)

        def spying(*args):
            out = fn(*args)
            seen.setdefault(name, []).append(keep(args, out))
            return out
        monkeypatch.setattr(engine_mod, name, spying)

    spy("_backprop", lambda args, out: (list(args[3]), out[1].copy()))
    spy("assemble_step", lambda args, out: args[0])
    iters, single, d, M = 5, methods[0].kind == "single", methods[0].d_data, 21
    stream = rotated_stream(n_tasks=3, n_train=60)
    results = run_group(stream, MLP, [cfg(m, iters=iters, memory=M) for m in methods],
                        trace=True)

    # task 1 makes one pass per step, over one row; a traced step makes one
    # pass, whatever the method: its minibatch, then one row per memory
    # split, then the current and past training sets
    assert [out.shape[:2] for _, out in seen["_backprop"][:iters]] == [(1, 1)] * iters
    passes = iter(seen["_backprop"][iters:])
    want = [[] for _ in methods]
    for step in range(2 * iters):
        t_pos = 2 + step // iters
        G = d * (t_pos - 1)
        sizes, out = next(passes)
        assert out.shape[:2] == (len(methods), 1 + G + t_pos)
        assert sizes[1:1 + G] == ([11, 10] if d == 2 else [M]) * (t_pos - 1)
        minibatch, mem_rows, rows = out[:, 0], out[:, 1:1 + G], out[:, 1 + G:]
        if single:
            z = minibatch
        else:
            # each plan entry's stack solved on its own gives its jobs' module span
            z = np.zeros_like(minibatch)
            for p in seen["assemble_step"][step]:
                sol, = qp.solve_batch(assemble_step([p], minibatch, mem_rows), [p.solver])
                z[p.jobs, p.span] = sol.direction
        for r in range(len(methods)):
            split = [k / M * float(row @ z[r]) for k, row in zip(sizes[1:], mem_rows[r])]
            want[r].append((float(rows[r, 0] @ z[r]),
                            tuple(float(rows[r, s] @ z[r]) for s in range(1, t_pos)),
                            min(sum(split[i:i + d]) for i in range(0, G, d))))
    assert next(passes, None) is None
    for result, expect in zip(results, want):
        assert [(t.fwd_inner, t.bwd_inners, t.min_memory_inner)
                for t in result.traces] == expect


def test_split_memory_inner_products_are_the_full_memory_gradients(monkeypatch):
    # a traced d_mgem(3) job with 11/11/10 splits of each 32-sample memory:
    # min_memory_inner is min_s <g_s, z> for each memory's full gradient
    import mgem.engine as engine_mod
    backprop, solve_batch = engine_mod._backprop, engine_mod.qp.solve_batch
    steps = []  # [params, pass sizes] of each step, and z where a QP was solved

    def recording_backprop(params, spec, data, sizes):
        steps.append([params[0].copy(), list(sizes)])
        return backprop(params, spec, data, sizes)

    def recording_solve(instances, solvers):
        sols = solve_batch(instances, solvers)
        steps[-1].append(sols[0].direction[0])
        return sols

    monkeypatch.setattr(engine_mod, "_backprop", recording_backprop)
    monkeypatch.setattr(engine_mod.qp, "solve_batch", recording_solve)
    stream = rotated_stream(n_tasks=3, n_train=60)
    c = cfg(MethodSpec("d_mgem", d_data=3, strength=0.5), iters=5, memory=32)
    result = run(stream, MLP, c, trace=True)
    memories = [task.train.take(np.sort(rng_from(c.seed, "memory", t).choice(
                    task.train.n_samples, size=c.memory_per_task, replace=False)))
                for t, task in enumerate(stream.tasks, start=1)]
    traced = [step for step in steps if len(step) == 3]
    assert len(traced) == len(result.traces) == 10
    for tr, (params, sizes, z) in zip(result.traces, traced):
        assert sizes[1:1 + 3 * (tr.task - 1)] == [11, 11, 10] * (tr.task - 1)
        want = min(loss_and_grad(params, MLP, mem)[1] @ z for mem in memories[:tr.task - 1])
        assert abs(tr.min_memory_inner - want) <= 1e-12


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


@pytest.mark.parametrize("method, trace", [(MethodSpec("gem"), False),
                                           (MethodSpec("single"), True)],
                         ids=["gem", "traced_single"])
def test_nonfinite_memory_gradient_stops_at_its_step(monkeypatch, method, trace):
    # a NaN memory row would otherwise be dropped as degenerate (gem), or
    # make the traced memory inner product NaN (single)
    import mgem.engine as engine_mod
    original = engine_mod._backprop
    c = cfg(method)
    memory_passes = []

    def poisoned(params, spec, data, sizes):
        nll, grads = original(params, spec, data, sizes)
        sizes = list(sizes)
        # task 2's memory rows, which follow the minibatch in its pass
        if sizes[:2] == [c.batch_size, c.memory_per_task]:
            grads[:, 1, 0] = np.nan
            memory_passes.append(None)
        return nll, grads

    monkeypatch.setattr(engine_mod, "_backprop", poisoned)
    with pytest.raises(FloatingPointError,
                       match=r"^memory gradients became non-finite at task 2, iteration 0;"):
        run(rotated_stream(), MLP, c, trace=trace)
    assert len(memory_passes) == 1


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

    def recording(stacks, solvers, **kwargs):
        sols = original(stacks, solvers, **kwargs)
        seen.extend((stack, sol) for stack, solver, sol in zip(stacks, solvers, sols)
                    if solver == qp.EXACT)
        return sols

    monkeypatch.setattr(qp, "solve_batch", recording)
    run_jobs(run_group, stream, MlpSpec((2, 16, 4)), cfgs, threads=1)

    sizes = []
    for (rows, target, strength), sol in seen:
        for i in range(len(target)):
            single = qp.QpInstance(rows[i], target[i], strength[i])
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
@pytest.mark.parametrize("activation, layers", [
    ("relu", (3, 8, 3)), ("tanh", (3, 8, 3)),
    # hidden-to-hidden products whose last bits depend on their row count
    ("relu", (3, 40, 40, 3)),
], ids=["relu", "tanh", "relu-3-40-40-3"])
def test_lockstep_group_equals_each_job_alone(activation, layers, trace):
    stream = rotated_stream(n_tasks=3, n_train=60)
    mlp = MlpSpec(layers, activation=activation)
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
def test_the_earliest_divergence_stops_its_group(trace, monkeypatch):
    # exact gem, p_mgem and approx gem train in lockstep; gem at q = 1e30
    # diverges alone at task 2, iteration 6, and p_mgem at q = 1e300, a
    # later row, at iteration 1: the group raises p_mgem's error, tagged
    # with its row and point, and makes no pass after that step
    import mgem.engine as engine_mod
    original = engine_mod._backprop
    passes = []

    def counting(params, *args):
        passes.append(None)
        return original(params, *args)

    monkeypatch.setattr(engine_mod, "_backprop", counting)
    stream = rotated_stream(n_tasks=3, n_train=60)
    cfgs = [cfg(m) for m in (
        MethodSpec("gem", strength=0.1), MethodSpec("gem", strength=1e30),
        MethodSpec("p_mgem", d_param=2, strength=0.5),
        MethodSpec("p_mgem", d_param=2, strength=1e300),
        MethodSpec("gem", solver="approx", strength=0.5))]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as group:
            run_group(stream, MLP, cfgs, trace=trace)
        # one pass per step: task 1's 40, then task 2's iterations 0 and 1
        assert len(passes) == 40 + 2
        alone = {}
        for r in (1, 3):
            with pytest.raises(FloatingPointError) as err:
                run(stream, MLP, cfgs[r], trace=trace)
            alone[r] = err.value
    assert str(group.value) == str(alone[3]) == (
        "minibatch gradient became non-finite at task 2, iteration 1; lower lr")
    assert (group.value.row, group.value.point) == (3, (2, 1, 0))
    assert (alone[3].row, alone[3].point) == (0, (2, 1, 0))
    assert (alone[1].row, alone[1].point) == (0, (2, 6, 0))


def test_a_group_raises_the_first_check_that_fails(monkeypatch):
    # at task 2, iteration 3, row 0's memory gradients and row 1's minibatch
    # gradient turn NaN in the step's one pass: the minibatch check comes
    # first, so row 1 is raised
    import mgem.engine as engine_mod
    original = engine_mod._backprop
    iters = 6
    steps = []

    def poisoning(params, spec, data, sizes):
        nll, grads = original(params, spec, data, sizes)
        steps.append(None)
        if len(steps) == iters + 4:  # the pass of that step
            assert len(sizes) == 2  # the minibatch, then the task-1 memory
            grads[0, 1] = np.nan
            grads[1, 0] = np.nan
        return nll, grads

    monkeypatch.setattr(engine_mod, "_backprop", poisoning)
    cfgs = [cfg(MethodSpec("gem", strength=q), iters=iters) for q in (0.1, 0.5)]
    with pytest.raises(FloatingPointError,
                       match=r"^minibatch gradient became non-finite at task 2, iteration 3;"
                       ) as err:
        run_group(rotated_stream(n_tasks=3, n_train=60), MLP, cfgs)
    assert (err.value.row, err.value.point) == (1, (2, 3, 0))


def test_a_batch_of_one_trains_in_lockstep_as_alone():
    # a pass of one sample for one model (task 1, and alone every
    # untraced single step) adds its 10 softmax classes in order, as the
    # group's two-model passes do, so each job's run is its run alone
    stream = rotated_stream(n_tasks=3, n_features=2, n_classes=10)
    mlp = MlpSpec((2, 16, 10))
    cfgs = [replace(TrainConfig(lr=0.05, iters_per_task=30, batch_size=1, memory_per_task=8,
                                method=MethodSpec("single")), partition_mode=mode)
            for mode in ("by_layer", "equal_flat")]
    for c, together in zip(cfgs, run_group(stream, mlp, cfgs)):
        assert_same_run(run(stream, mlp, c), together)


def poison_memory_rows(monkeypatch, stream, cfgs, step, poisons):
    """Spy on the engine's pass: at pass ``step`` of each job ``r`` in
    ``poisons``, apply ``poisons[r]`` to that job's first memory row. A
    job is found by its parameters at that pass, recorded from its run
    alone, so the spy finds it in any group or chunk; returns the stack
    rows it poisons, in this process."""
    import mgem.engine as engine_mod
    original = engine_mod._backprop
    at_step = {}

    def recording(params, spec, data, sizes):
        calls.append(params[0].copy())
        return original(params, spec, data, sizes)

    for r in poisons:
        calls = []
        monkeypatch.setattr(engine_mod, "_backprop", recording)
        run(stream, MLP, cfgs[r])
        at_step[calls[step].tobytes()] = poisons[r]

    hits = []

    def poisoning(params, spec, data, sizes):
        nll, grads = original(params, spec, data, sizes)
        for r in range(len(params)):
            poison = at_step.get(params[r].tobytes())
            if poison is not None:
                poison(grads[r, 1])
                hits.append(r)
        return nll, grads

    monkeypatch.setattr(engine_mod, "_backprop", poisoning)
    return hits


def overflowing(row):
    # every entry finite, the largest ~1e155: the squared norm is inf
    row *= 1e155 / np.abs(row).max()


@pytest.mark.parametrize("threads", [1, 3])
def test_a_memory_row_whose_norm_overflows_fails_its_jobs_memory_check(monkeypatch, threads):
    # the solver rejects a row whose squared norm is not finite; that
    # rejection is the step's memory check for the job it belongs to
    # (here p_mgem's, the group's last row), tagged with its row and point
    stream = rotated_stream(n_tasks=3, n_train=60)
    cfgs = [cfg(m, iters=6) for m in (MethodSpec("gem", strength=0.1),
                                      MethodSpec("gem", strength=0.5),
                                      MethodSpec("p_mgem", d_param=2, strength=0.3))]
    hits = poison_memory_rows(monkeypatch, stream, cfgs, 6 + 3, {2: overflowing})
    message = "memory gradients became non-finite at task 2, iteration 3; lower lr"
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match=f"^{message}$") as err:
            run_group(stream, MLP, cfgs)
        assert hits == [2]
        assert (err.value.row, err.value.point) == (2, (2, 3, 1))
        with pytest.raises(JobError, match=re.escape(
                f"job 3 of 3 (p_mgem, q=0.3, seed=0) failed: {message}")):
            run_jobs(run_group, stream, MLP, cfgs, threads)
    assert multiprocessing.active_children() == []


def test_an_overflowing_norm_and_a_nan_entry_tie_on_the_memory_check(monkeypatch):
    # at the same step row 1's memory row overflows its squared norm and
    # row 2's holds a NaN: both fail the memory check, and row 1 (job 2 of
    # 3), the first, is named, in one group or one job per worker
    stream = rotated_stream(n_tasks=3, n_train=60)
    cfgs = [cfg(MethodSpec("gem", strength=q), iters=6) for q in (0.1, 0.5, 0.2)]

    def nan(row):
        row[0] = np.nan

    hits = poison_memory_rows(monkeypatch, stream, cfgs, 6 + 3, {1: overflowing, 2: nan})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="^memory gradients") as err:
            run_group(stream, MLP, cfgs)
        assert hits == [1, 2]
        assert (err.value.row, err.value.point) == (1, (2, 3, 1))
        for threads in (1, 3):
            with pytest.raises(JobError, match=re.escape(
                    "job 2 of 3 (gem, q=0.5, seed=0) failed: memory gradients became "
                    "non-finite at task 2, iteration 3")):
                run_jobs(run_group, stream, MLP, cfgs, threads)


def test_the_assembly_plan_is_made_once_per_constrained_run(monkeypatch):
    # every job of the stack is in the plan, which serves every solved step
    # of the run, over tasks of 1, 2 and 3 memories; a group of single jobs
    # solves nothing and makes none
    import mgem.engine as engine_mod
    original = engine_mod.assembly_plan
    calls = []

    def recording(methods, spans):
        plan = original(methods, spans)
        calls.append(sorted({r for p in plan for r in p.jobs.tolist()}))
        return plan

    monkeypatch.setattr(engine_mod, "assembly_plan", recording)
    stream = rotated_stream(n_tasks=4, n_train=60)
    constrained = [cfg(m, iters=5) for m in (
        MethodSpec("gem", strength=0.1), MethodSpec("p_mgem", d_param=2, strength=0.5),
        MethodSpec("gem", solver="approx", strength=0.5), MethodSpec("gem", strength=1.0))]
    for trace in (False, True):
        calls.clear()
        run_group(stream, MLP, constrained, trace=trace)
        assert calls == [[0, 1, 2, 3]]
    calls.clear()
    run_group(stream, MLP, [cfg(MethodSpec("single"), iters=5)] * 2, trace=True)
    assert calls == []


def test_one_pass_per_step_of_every_kind_and_one_row_for_task_1(monkeypatch):
    # task 1 trains one row for the whole group on its minibatch; later,
    # every step makes one pass over the whole stack: its minibatch, then
    # the memory splits when it solves or traces, then the training sets
    # when it traces (an untraced single step: the minibatch alone)
    import mgem.engine as engine_mod
    original = engine_mod._backprop
    calls = []

    def recording(params, spec, data, sizes):
        calls.append((params.shape[0], list(sizes)))
        return original(params, spec, data, sizes)

    monkeypatch.setattr(engine_mod, "_backprop", recording)
    stream = rotated_stream(n_tasks=3, n_train=60)
    iters = 4
    constrained = [cfg(m, iters=iters) for m in (
        MethodSpec("d_mgem", d_data=2, strength=0.5), MethodSpec("md_mgem", d_param=2, d_data=2),
        MethodSpec("d_mgem", d_data=2, solver="approx"))]
    singles = [cfg(MethodSpec("single"), iters=iters)] * 2
    task1 = [(1, [16])] * iters
    for cfgs, trace, later in [
            (constrained, False, [[(3, [16, 12, 12])], [(3, [16, 12, 12, 12, 12])]]),
            (constrained, True, [[(3, [16, 12, 12, 60, 60])],
                                 [(3, [16, 12, 12, 12, 12, 60, 60, 60])]]),
            (singles, False, [[(2, [16])], [(2, [16])]]),
            (singles, True, [[(2, [16, 24, 60, 60])], [(2, [16, 24, 24, 60, 60, 60])]])]:
        calls.clear()
        results = run_group(stream, MLP, cfgs, trace=trace)
        assert calls == task1 + later[0] * iters + later[1] * iters
        for c, result in zip(cfgs, results):
            assert_same_run(result, run(stream, MLP, c, trace=trace))


def test_degenerate_memory_rows_are_left_out_and_counted_per_job(monkeypatch):
    # push some jobs' memory rows below MIN_ROW_SQNORM on their way to the
    # QP: q = 0.5 jobs the first memory's row, the q = 1 job every row
    import mgem.engine as engine_mod
    original = engine_mod.assemble_step

    def shrunk(plan, g_t, rows):
        rows = rows.copy()
        strength = {r: q for p in plan for r, q in zip(p.jobs.tolist(), p.strength)}
        for r, q in strength.items():
            if q == 0.5:
                rows[r, 0] *= 1e-9
            elif q == 1.0:
                rows[r] *= 1e-9
        return original(plan, g_t, rows)

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


def test_chunks_halve_the_largest_until_one_per_worker():
    grid = [MethodSpec("gem"), MethodSpec("p_mgem", d_param=2),
            MethodSpec("d_mgem", d_data=2), MethodSpec("md_mgem", d_param=2, d_data=2),
            MethodSpec("gem", solver="approx")]
    cfgs = [cfg(replace(m, strength=q)) for m in grid for q in range(8)]
    assert [len(c) for c in _chunks(cfgs, 1)] == [24, 16]
    assert [len(c) for c in _chunks(cfgs, 2)] == [24, 16]
    assert [len(c) for c in _chunks(cfgs, 3)] == [16, 12, 12]
    assert [len(c) for c in _chunks(cfgs[:2], 4)] == [1, 1]  # one job per chunk at most
    assert _chunks([], 2) == []
    for threads in (1, 2, 3):
        chunks = _chunks(cfgs, threads)
        assert sorted(i for c in chunks for i in c) == list(range(40))
        for chunk in chunks:
            assert len({_group_key(cfgs[i]) for i in chunk}) == 1


# --- pareto sweep ------------------------------------------------------------

def test_pareto_requires_two_tasks():
    stream = rotated_stream(n_tasks=1)
    with pytest.raises(ValueError, match="2 tasks"):
        pareto_sweep(stream, MLP, [cfg(MethodSpec("gem"))])


def test_pareto_empty_grid():
    stream = rotated_stream()
    assert pareto_sweep(stream, MLP, []) == []


def test_pareto_identical_tasks_balance_inner_products():
    # identical tasks: the past-task and current-task full gradients are the
    # same vector, so the two traced means coincide
    stream = duplicated_task_stream()
    pts = pareto_sweep(stream, MLP, [cfg(MethodSpec("gem"), iters=15)])
    assert len(pts) == 1
    assert pts[0].mean_bwd_inner == pytest.approx(pts[0].mean_fwd_inner, rel=1e-12)


def test_pareto_grid_and_seed_multiplication():
    stream = rotated_stream()
    cfgs = [cfg(MethodSpec("gem", strength=q), iters=8, seed=s)
            for q in (0.0, 0.1) for s in (0, 1, 2)]
    pts = pareto_sweep(stream, MLP, cfgs)
    assert len(pts) == 6
    assert [p.seed for p in pts] == [0, 1, 2, 0, 1, 2]
    assert [p.method.strength for p in pts] == [0.0] * 3 + [0.1] * 3


def test_pareto_threaded_matches_sequential():
    stream = rotated_stream()
    cfgs = [cfg(MethodSpec("gem"), iters=8),
            cfg(MethodSpec("gem", solver="approx", strength=0.1), iters=8)]
    seq = pareto_sweep(stream, MLP, cfgs)
    par = pareto_sweep(stream, MLP, cfgs, threads=2)
    for a, b in zip(seq, par):
        assert a.mean_bwd_inner == b.mean_bwd_inner
        assert a.mean_fwd_inner == b.mean_fwd_inner
