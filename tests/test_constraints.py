from collections import namedtuple

import numpy as np
import pytest

from mgem import qp
from mgem.constraints import (
    MethodSpec,
    assemble_direction,
    assemble_step,
    assembly_plan,
    build_instances,
    resolve_partition,
    split_memory,
)
from mgem.layout import layer_slices, n_params
from mgem.mlp import Dataset, MlpSpec, group_grads, init_params, loss_and_grad
from mgem.seeds import derive_seed, rng_from
from mgem.selfcheck import check_block_consistency

MLP = MlpSpec((3, 5, 3))
# one finished task's stored samples, split by split, and the split sizes
Memory = namedtuple("Memory", "task data sizes")


def make_memories(n_tasks, d_data, n_per=8, seed=0):
    """Memories laid out as the engine stores them: split by split."""
    rng = rng_from(seed, "mem")
    mems = []
    for t in range(1, n_tasks + 1):
        data = Dataset(rng.standard_normal((n_per, 3)), rng.integers(0, 3, size=n_per))
        splits = split_memory(n_per, d_data, derive_seed(seed, "memsplit", t))
        mems.append(Memory(task=t, data=data.take(np.concatenate(splits)),
                           sizes=tuple(len(idx) for idx in splits)))
    return mems


def split_runs(mem):
    """The samples of each split of ``mem``: contiguous runs of ``mem.data``."""
    ends = np.cumsum(mem.sizes)
    return [mem.data.take(slice(end - k, end)) for end, k in zip(ends, mem.sizes)]


def memory_rows(memories, params, spec=MLP):
    """The gradient of every split from one stacked pass at ``params`` over
    the memories, memory by memory and split by split, as the engine's."""
    data = Dataset.concat([mem.data for mem in memories])
    return group_grads(params, spec, data, [k for mem in memories for k in mem.sizes])


def build(method, memories, g_t, params, spec, spans):
    """``build_instances`` on the memory rows of one stacked pass at ``params``."""
    return build_instances(method, g_t, memory_rows(memories, params, spec), spans)


def full_grads(memories, params, spec=MLP):
    """Each memory's gradient from the rows of one stacked pass at
    ``params``: the size-weighted mean of its split rows."""
    rows = memory_rows(memories, params, spec)
    ends = np.cumsum([len(mem.sizes) for mem in memories])
    return [np.divide(mem.sizes, sum(mem.sizes)) @ rows[end - len(mem.sizes):end]
            for mem, end in zip(memories, ends)]


def batch_grad(params, seed=1):
    rng = rng_from(seed, "batch")
    data = Dataset(rng.standard_normal((6, 3)), rng.integers(0, 3, size=6))
    return loss_and_grad(params, MLP, data)[1]


# --- MethodSpec --------------------------------------------------------------

def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec("mer")
    with pytest.raises(ValueError):
        MethodSpec("gem", d_param=2)
    with pytest.raises(ValueError):
        MethodSpec("p_mgem", d_data=2)
    with pytest.raises(ValueError):
        MethodSpec("d_mgem", d_param=3)
    with pytest.raises(ValueError):
        MethodSpec("gem", strength=-0.1)
    with pytest.raises(ValueError, match="strength must be >= 0"):
        MethodSpec("gem", strength=-np.inf)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="strength must be finite"):
            MethodSpec("gem", strength=bad)
    with pytest.raises(ValueError):
        MethodSpec("gem", solver="cvxpy")
    # module counts are integers: 2.5 would train 2 modules and report 2.5
    with pytest.raises(ValueError, match=r"^d_param must be an integer, got 2\.5$"):
        MethodSpec("p_mgem", d_param=2.5)
    with pytest.raises(ValueError, match=r"^d_data must be an integer, got 2\.0$"):
        MethodSpec("d_mgem", d_data=2.0)
    numpy_count = MethodSpec("md_mgem", d_param=np.int64(2), d_data=np.uint8(3))
    assert (type(numpy_count.d_param), numpy_count.d_data) == (int, 3)
    assert MethodSpec("p_mgem", d_param=1).kind == "p_mgem"  # D=1 reduces to GEM
    assert MethodSpec("gem", solver="approx").label == "approx_gem"


# --- partitions --------------------------------------------------------------

# (3, 5, 3): blocks L0 weights [0, 15), L0 bias [15, 20), L1 weights
# [20, 35), L1 bias [35, 38)

def test_partition_d1_is_single_group():
    assert n_params(MLP) == 38
    assert resolve_partition(MLP, "by_layer", 1) == (slice(0, 38),)
    assert resolve_partition(MLP, "equal_flat", 1) == (slice(0, 38),)


def test_partition_by_layer_near_equal():
    assert resolve_partition(MLP, "by_layer", 2) == (slice(0, 20), slice(20, 38))
    # blocks 2/1/1: remainder to the earliest module
    assert resolve_partition(MLP, "by_layer", 3) == (
        slice(0, 20), slice(20, 35), slice(35, 38))


def test_partition_one_block_per_group():
    blocks = tuple(s for w, b, _, _ in layer_slices(MLP) for s in (w, b))
    assert resolve_partition(MLP, "by_layer", 4) == blocks
    assert blocks == (slice(0, 15), slice(15, 20), slice(20, 35), slice(35, 38))
    # more groups than blocks: effective D capped
    assert resolve_partition(MLP, "by_layer", 9) == blocks


def test_partition_equal_flat_spans():
    spans = resolve_partition(MLP, "equal_flat", 4)
    assert spans == (slice(0, 10), slice(10, 20), slice(20, 29), slice(29, 38))
    sizes = [s.stop - s.start for s in spans]
    assert sum(sizes) == n_params(MLP)
    assert max(sizes) - min(sizes) <= 1
    assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))


def test_partition_rejects_bad_args():
    with pytest.raises(ValueError):
        resolve_partition(MLP, "by_layer", 0)
    with pytest.raises(ValueError):
        resolve_partition(MLP, "by_neuron", 2)


# --- memory splits -----------------------------------------------------------

def test_split_memory_shapes_and_determinism():
    one = split_memory(10, 1, seed=3)
    assert len(one) == 1 and np.array_equal(one[0], np.arange(10))
    halves = split_memory(10, 2, seed=3)
    assert [len(s) for s in halves] == [5, 5]
    assert np.array_equal(np.sort(np.concatenate(halves)), np.arange(10))
    again = split_memory(10, 2, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(halves, again))
    assert not all(np.array_equal(a, b)
                   for a, b in zip(halves, split_memory(10, 2, seed=4)))


def test_split_memory_rejects_too_small():
    with pytest.raises(ValueError):
        split_memory(1, 2, seed=0)


# --- instance assembly -------------------------------------------------------

def test_no_past_tasks_yields_empty_batch():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 1)
    no_rows = np.empty((0, n_params(MLP)))
    assert build_instances(MethodSpec("gem"), batch_grad(params), no_rows, spans) == []


def test_single_method_refuses_assembly():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 1)
    with pytest.raises(ValueError):
        build(MethodSpec("single"), make_memories(1, 1),
              batch_grad(params), params, MLP, spans)


def test_gem_instance_rows_are_memory_gradients():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 1)
    mems = make_memories(2, 1)
    g_t = batch_grad(params)
    batch = build(MethodSpec("gem", strength=0.3), mems, g_t, params, MLP, spans)
    assert len(batch) == 1
    inst = batch[0]
    assert inst.m == 2 and inst.form == qp.BOX_FORM
    grads = full_grads(mems, params)
    for s, mem in enumerate(mems):
        _, grad = loss_and_grad(params, MLP, mem.data)
        assert np.array_equal(inst.constraint_rows[s], grad)
        assert np.array_equal(grads[s], grad)
    assert np.all(inst.strength == 0.3)


def test_pmgem_d1_identical_to_gem():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 1)
    mems = make_memories(2, 1)
    g_t = batch_grad(params)
    a = build(MethodSpec("gem", strength=0.1), mems, g_t, params, MLP, spans)
    b = build(MethodSpec("p_mgem", d_param=1, strength=0.1),
              mems, g_t, params, MLP, spans)
    assert np.array_equal(a[0].constraint_rows, b[0].constraint_rows)
    assert np.array_equal(a[0].target, b[0].target)


def test_pmgem_slices_one_backprop_per_task():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 2)
    mems = make_memories(2, 1)
    g_t = batch_grad(params)
    batch = build(MethodSpec("p_mgem", d_param=2), mems, g_t, params, MLP, spans)
    assert len(batch) == 2
    full = build(MethodSpec("gem"), mems, g_t, params, MLP,
                 resolve_partition(MLP, "by_layer", 1))[0]
    for inst, span in zip(batch, spans):
        assert np.array_equal(inst.constraint_rows, full.constraint_rows[:, span])
        assert np.array_equal(inst.target, g_t[span])


def test_dmgem_row_count():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 1)
    mems = make_memories(3, 2)
    batch = build(MethodSpec("d_mgem", d_data=2), mems,
                  batch_grad(params), params, MLP, spans)
    assert len(batch) == 1
    assert batch[0].m == 6
    # row 2s + d is the gradient of split d of memory s
    for k, row in enumerate(batch[0].constraint_rows):
        _, grad = loss_and_grad(params, MLP, split_runs(mems[k // 2])[k % 2])
        np.testing.assert_allclose(row, grad, rtol=0, atol=1e-12)


def test_dmgem_memory_grad_is_weighted_split_mean():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 1)
    mems = make_memories(1, 2)
    _, full = loss_and_grad(params, MLP, mems[0].data)
    np.testing.assert_allclose(full_grads(mems, params)[0], full, rtol=1e-12, atol=1e-15)


def test_mdmgem_instance_grid():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 2)
    mems = make_memories(2, 2)
    batch = build(MethodSpec("md_mgem", d_param=2, d_data=2), mems,
                  batch_grad(params), params, MLP, spans)
    assert len(batch) == 2
    assert all(inst.m == 4 for inst in batch)


@pytest.mark.parametrize("method", [
    MethodSpec("gem"),
    MethodSpec("d_mgem", d_data=3),
    MethodSpec("md_mgem", d_param=2, d_data=3),
])
def test_stacked_rows_match_per_group_gradients(method):
    """One stacked pass gives every row the per-group gradient (11/11/10
    splits of a 32-sample memory exercise unequal group sizes)."""
    params = init_params(MLP, 3)
    spans = resolve_partition(MLP, "by_layer", method.d_param)
    mems = make_memories(3, method.d_data, n_per=32, seed=3)
    g_t = batch_grad(params)
    batch = build(method, mems, g_t, params, MLP, spans)
    expected = np.vstack([loss_and_grad(params, MLP, split)[1]
                          for mem in mems for split in split_runs(mem)])
    assert sorted(mems[0].sizes) == ([10, 11, 11] if method.d_data == 3 else [32])
    for inst, span in zip(batch, spans):
        np.testing.assert_allclose(inst.constraint_rows, expected[:, span],
                                   rtol=0.0, atol=1e-12)
    for mem, got in zip(mems, full_grads(mems, params)):
        _, full = loss_and_grad(params, MLP, mem.data)
        np.testing.assert_allclose(got, full, rtol=0.0, atol=1e-12)


def test_degenerate_rows_dropped_and_counted():
    # assembly keeps a near-zero row (a fully fit past task); every solver
    # leaves it out, counts it, and solves the rest as if it were absent
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 1)
    mems = make_memories(2, 1)
    g_t = batch_grad(params)
    rows = memory_rows(mems, params)
    rows[0] = 1e-8
    inst = build_instances(MethodSpec("gem", strength=0.5), g_t, rows, spans)[0]
    assert inst.m == 2 and np.array_equal(inst.constraint_rows, rows)
    without = qp.QpInstance(rows[1:], g_t, [0.5])
    for solve in (qp.solve_exact, qp.solve_approx, qp.solve_enumerate):
        sol = solve(inst)
        assert sol.rows_dropped == 1 and sol.multipliers[0] == 0.0
        np.testing.assert_allclose(sol.direction, solve(without).direction, rtol=0, atol=1e-12)


def test_assembled_stacks_equal_each_job_alone():
    # jobs of one stack with different partitions, strengths and solvers,
    # some with degenerate rows: one stack per module span and solver, and
    # each stack item is laid out, and solved, as that job's own instance
    rng = rng_from(9, "stack")
    methods = [MethodSpec("gem", strength=0.1), MethodSpec("p_mgem", d_param=2, strength=0.5),
               MethodSpec("gem", solver="approx", strength=0.5), MethodSpec("p_mgem", d_param=3),
               MethodSpec("gem", strength=0.5), MethodSpec("p_mgem", d_param=2)]
    spans = [resolve_partition(MLP, mode, m.d_param)
             for m, mode in zip(methods, ["by_layer", "by_layer", "by_layer", "equal_flat",
                                          "by_layer", "by_layer"])]
    g_t = rng.standard_normal((len(methods), n_params(MLP)))
    rows = rng.standard_normal((len(methods), 3, n_params(MLP)))
    rows[1, 0] *= 1e-8       # job 1 leaves out row 0 in both modules
    rows[3, 2, :20] = 0.0    # job 3 leaves out row 2 in its first module only
    rows[4] *= 1e-8          # job 4 leaves out every row
    jobs = range(len(methods))
    plan = assembly_plan(methods, spans, rows.shape[1])
    stacks = assemble_step(plan, g_t, rows)
    keys = [(p.span.start, p.span.stop, p.solver) for p in plan]
    assert {type(p.take) for p in plan} == {slice, np.ndarray}  # consecutive jobs or not
    assert len(stacks) == len(keys) == len(set(keys)) == len(
        {(span.start, span.stop, methods[r].solver) for r in jobs for span in spans[r]})
    sols = qp.solve_batch(stacks, [p.solver for p in plan])
    seen = set()
    dropped = np.zeros(len(methods), dtype=int)
    for p, stack, sol in zip(plan, stacks, sols):
        for k, r in enumerate(p.jobs):
            alone = build_instances(methods[r], g_t[r], rows[r], spans[r])
            i = spans[r].index(p.span)
            inst = alone[i]
            for got, want in ((stack.constraint_rows[k], inst.constraint_rows),
                              (stack.target[k], inst.target),
                              (stack.strength[k], inst.strength)):
                assert np.array_equal(got, want) and got.strides == want.strides
            ref = (qp.solve_approx(inst) if p.solver == "approx"
                   else qp.solve_exact(inst))
            assert np.array_equal(sol.multipliers[k], ref.multipliers)
            assert np.array_equal(sol.direction[k], ref.direction)
            assert sol.rows_dropped[k] == ref.rows_dropped
            dropped[r] += sol.rows_dropped[k]
            seen.add((int(r), i))
    assert seen == {(r, i) for r in jobs for i in range(len(spans[r]))}
    assert dropped.tolist() == [0, 2, 0, 1, 3, 0]


def test_fully_fit_memory_degenerates_to_unconstrained():
    # a saturated model has a ~zero gradient on a perfectly classified
    # memory; the solver leaves its row out, and the step falls back to the
    # plain gradient
    spec = MlpSpec((2, 4, 2))
    params = init_params(spec, 0)
    params[:] = 0.0
    params[layer_slices(spec)[1][1]] = np.array([50.0, -50.0])
    spans = resolve_partition(spec, "by_layer", 1)
    rng = rng_from(6, "fit")
    fit_mem = Memory(1, Dataset(rng.standard_normal((6, 2)), np.zeros(6, dtype=int)), (6,))
    live_mem = Memory(2, Dataset(rng.standard_normal((6, 2)), rng.integers(0, 2, size=6)), (6,))
    g_t = rng.standard_normal(n_params(spec))
    _, fit_grad = loss_and_grad(params, spec, fit_mem.data)
    assert fit_grad @ fit_grad < qp.MIN_ROW_SQNORM

    batch = build(MethodSpec("gem", strength=0.5), [fit_mem], g_t, params, spec, spans)
    assert batch[0].m == 1
    for solve in (qp.solve_exact, qp.solve_approx, qp.solve_enumerate):
        sol = solve(batch[0])
        assert sol.rows_dropped == 1 and sol.multipliers.tolist() == [0.0]
        assert np.array_equal(sol.direction, g_t)

    both = build(MethodSpec("gem", strength=0.5), [fit_mem, live_mem],
                 g_t, params, spec, spans)[0]
    assert both.m == 2
    # the kept row is the live memory's gradient, and the step is the one
    # the live memory alone gives
    _, live_grad = loss_and_grad(params, spec, live_mem.data)
    np.testing.assert_allclose(both.constraint_rows[1], live_grad, rtol=0, atol=1e-12)
    live = build(MethodSpec("gem", strength=0.5), [live_mem], g_t, params, spec, spans)
    sol = qp.solve_exact(both)
    assert sol.rows_dropped == 1 and sol.multipliers[0] == 0.0
    np.testing.assert_allclose(sol.direction, qp.solve_exact(live[0]).direction,
                               rtol=0, atol=1e-12)


# --- direction assembly ------------------------------------------------------

def test_assemble_single_module_verbatim():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 1)
    direction = rng_from(1, "z").standard_normal(n_params(MLP))
    sol = qp.DualSolution(np.zeros(0), direction, 0, 0.0, True)
    assert np.array_equal(assemble_direction([sol], spans), direction)


def test_assemble_all_modules_unconstrained_returns_target():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 2)
    g_t = batch_grad(params)
    sols = []
    for span in spans:
        inst = qp.QpInstance(np.zeros((0, span.stop - span.start)),
                             g_t[span], np.zeros(0))
        sols.append(qp.solve_exact(inst))
    assert np.array_equal(assemble_direction(sols, spans), g_t)


def test_assemble_validates_counts_and_lengths():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 2)
    sol = qp.DualSolution(np.zeros(0), np.zeros(3), 0, 0.0, True)
    with pytest.raises(ValueError):
        assemble_direction([sol], spans)
    with pytest.raises(ValueError):
        assemble_direction([sol, sol], spans)


def test_per_module_solve_equals_joint_solve():
    """The block-diagonal equality behind parameter-wise splitting."""
    params = init_params(MLP, 4)
    spans = resolve_partition(MLP, "by_layer", 2)
    mems = make_memories(2, 1, seed=4)
    g_t = batch_grad(params, seed=5)
    batch = build(MethodSpec("p_mgem", d_param=2, strength=0.2),
                  mems, g_t, params, MLP, spans)
    z_blocks = assemble_direction(
        [qp.solve_exact(inst, tol=1e-12) for inst in batch], spans)

    joint_rows = []
    joint_strength = []
    n = n_params(MLP)
    for inst, span in zip(batch, spans):
        for r in range(inst.m):
            row = np.zeros(n)
            row[span] = inst.constraint_rows[r]
            joint_rows.append(row)
            joint_strength.append(inst.strength[r])
    joint = qp.QpInstance(np.vstack(joint_rows), g_t,
                          np.asarray(joint_strength), form=qp.BOX_FORM)
    z_joint = qp.solve_exact(joint, tol=1e-12).direction
    assert np.max(np.abs(z_joint - z_blocks)) <= 1e-8


def test_block_consistency_battery():
    passed, detail = check_block_consistency(n_cases=40)
    assert passed, detail


def test_dmgem_direction_meets_pooled_margin():
    """Data-split solutions keep the pooled memory constraint at the
    weakest split margin (equal splits, margin form)."""
    rng = rng_from(21, "nest")
    for _ in range(30):
        n, D = 8, 2
        g_hat = rng.standard_normal(n)
        t = rng.standard_normal((D, n))
        splits = g_hat + (t - t.mean(axis=0))
        gamma = rng.uniform(0.0, 0.8, size=D)
        inst = qp.QpInstance(splits, rng.standard_normal(n), gamma,
                             form=qp.REGULARIZED_FORM)
        z = qp.solve_exact(inst, tol=1e-12).direction
        assert g_hat @ z >= gamma.min() - 1e-8


def test_pipeline_determinism():
    params = init_params(MLP, 0)
    spans = resolve_partition(MLP, "by_layer", 2)
    mems = make_memories(2, 1)
    g_t = batch_grad(params)
    a = build(MethodSpec("p_mgem", d_param=2), mems, g_t, params, MLP, spans)
    b = build(MethodSpec("p_mgem", d_param=2), mems, g_t, params, MLP, spans)
    for x, y in zip(a, b):
        assert np.array_equal(x.constraint_rows, y.constraint_rows)
        assert np.array_equal(x.target, y.target)
