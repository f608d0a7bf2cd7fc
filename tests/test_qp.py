import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgem import qp
from mgem.seeds import rng_from


# --- hand-derived single-constraint KKT cases -------------------------------

def test_single_conflicting_constraint():
    # <c, g> = -1 < 0: multiplier lands where <c, z> = 0
    inst = qp.QpInstance([[0.0, 1.0]], [1.0, -1.0], [0.0])
    for solver in (qp.solve_exact, qp.solve_enumerate, qp.solve_approx):
        sol = solver(inst)
        np.testing.assert_allclose(sol.multipliers, [1.0], atol=1e-12)
        np.testing.assert_allclose(sol.direction, [1.0, 0.0], atol=1e-12)


def test_single_constraint_lower_bound_active():
    inst = qp.QpInstance([[0.0, 1.0]], [1.0, 1.0], [0.5])
    for solver in (qp.solve_exact, qp.solve_enumerate, qp.solve_approx):
        sol = solver(inst)
        np.testing.assert_allclose(sol.multipliers, [0.5], atol=1e-12)
        np.testing.assert_allclose(sol.direction, [1.0, 1.5], atol=1e-12)


def test_full_conflict_collapses_component():
    inst = qp.QpInstance([[1.0, 0.0]], [-1.0, 0.0], [0.0])
    sol = qp.solve_enumerate(inst)
    np.testing.assert_allclose(sol.multipliers, [1.0], atol=1e-12)
    np.testing.assert_allclose(sol.direction, [0.0, 0.0], atol=1e-12)


def test_unconstrained_instance_returns_target():
    inst = qp.QpInstance(np.zeros((0, 3)), [1.0, 2.0, 3.0], np.zeros(0))
    for solver in (qp.solve_exact, qp.solve_enumerate, qp.solve_approx):
        sol = solver(inst)
        assert sol.multipliers.size == 0
        assert np.array_equal(sol.direction, [1.0, 2.0, 3.0])
        assert sol.kkt_residual == 0.0
        assert sol.converged


# --- shortcuts and invariants ------------------------------------------------

def test_zero_conflict_shortcut_is_exact():
    g = np.array([0.3, -0.2, 0.7])
    rows = np.array([[0.1, -0.5, 0.4], [0.2, 0.0, 0.1]])
    assert np.all(rows @ g > 0)
    inst = qp.QpInstance(rows, g, [0.0, 0.0])
    for solver in (qp.solve_exact, qp.solve_enumerate, qp.solve_approx):
        sol = solver(inst)
        assert np.array_equal(sol.direction, g)
        assert np.all(sol.multipliers == 0.0)


def test_gem_no_increase_with_zero_strength():
    rng = rng_from(77, "noinc")
    for _ in range(50):
        rows = rng.standard_normal((3, 5))
        inst = qp.QpInstance(rows, rng.standard_normal(5), np.zeros(3))
        sol = qp.solve_exact(inst)
        assert np.min(rows @ sol.direction) >= -1e-8


def test_box_solution_respects_lower_bound_exactly():
    rng = rng_from(79, "bounds")
    for _ in range(50):
        m = int(rng.integers(1, 4))
        q = float(rng.choice([0.0, 0.1, 0.5]))
        inst = qp.QpInstance(rng.standard_normal((m, 5)), rng.standard_normal(5), np.full(m, q))
        for sol in (qp.solve_exact(inst), qp.solve_approx(inst)):
            assert np.all(sol.multipliers >= q)


def test_direction_identity():
    rng = rng_from(80, "dirid")
    inst = qp.QpInstance(rng.standard_normal((3, 7)), rng.standard_normal(7), np.full(3, 0.1))
    sol = qp.solve_exact(inst)
    np.testing.assert_array_equal(
        sol.direction, inst.target + inst.constraint_rows.T @ sol.multipliers)


def test_exact_objective_no_worse_than_start_or_oracle():
    rng = rng_from(81, "mono")
    for _ in range(30):
        m = int(rng.integers(1, 4))
        inst = qp.QpInstance(rng.standard_normal((m, 6)), rng.standard_normal(6),
                             np.full(m, float(rng.choice([0.0, 0.3]))))
        f = qp.dual_objective(inst, qp.solve_exact(inst).multipliers)
        assert f <= qp.dual_objective(inst, qp.lower_bounds(inst))
        assert f <= qp.dual_objective(inst, qp.solve_enumerate(inst).multipliers) + 1e-9


def test_unconverged_flagged_not_raised():
    # two orthogonal conflicting rows: each needs its own pivot
    inst = qp.QpInstance(np.eye(2), [-1.0, -1.0], [0.1, 0.1])
    assert qp.solve_exact(inst).iterations >= 2
    sol = qp.solve_exact(inst, max_iter=1)
    assert sol.iterations <= 1
    assert not sol.converged
    assert np.all(sol.multipliers >= 0.1)


# a Gram-space dual that is unbounded below: the ray d = (1, 1) has K d = 0
# and h . d < 0. An instance's (K, h) is bounded below but for round-off,
# so the core's guard is driven directly. It is the pair of the margins
# <c, z> >= 1 and <-c, z> >= 1, which no direction meets
UNBOUNDED_K = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
UNBOUNDED_H = np.array([[-0.7, -1.3]])


def test_unbounded_dual_stops_unconverged_not_raised():
    u, solves, residual = qp._lawson_hanson(UNBOUNDED_K, UNBOUNDED_H, qp.DEFAULT_TOL,
                                             qp.DEFAULT_MAX_ITER)
    assert residual[0] > qp.DEFAULT_TOL
    assert solves[0] < qp.DEFAULT_MAX_ITER
    assert np.all(u >= 0.0)


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError):
        qp.solve_exact(qp.QpInstance([[1.0, np.nan]], [0.0, 0.0], [0.0]))
    with pytest.raises(ValueError):
        qp.solve_exact(qp.QpInstance([[1.0, 0.0]], [np.inf, 0.0], [0.0]))


def test_degenerate_row_left_out():
    # a row below MIN_ROW_SQNORM adds no constraint: multiplier 0, counted,
    # and the rest solves like the instance built without it
    rng = rng_from(82, "leftout")
    rows = rng.standard_normal((3, 4))
    rows[1] *= 1e-7
    g, strength = rng.standard_normal(4), np.array([0.1, 0.2, 0.3])
    inst = qp.QpInstance(rows, g, strength)
    without = qp.QpInstance(rows[[0, 2]], g, strength[[0, 2]])
    routes = [qp.solve_exact, qp.solve_enumerate, qp.solve_approx]
    assert qp.lower_bounds(inst).tolist() == [0.1, 0.0, 0.3]
    for solve in routes:
        sol, ref = solve(inst), solve(without)
        assert sol.rows_dropped == 1 and ref.rows_dropped == 0
        assert sol.multipliers[1] == 0.0
        np.testing.assert_allclose(sol.multipliers[[0, 2]], ref.multipliers, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sol.direction, ref.direction, rtol=0, atol=1e-12)
        assert abs(qp.kkt_residual(inst, sol.multipliers)
                   - qp.kkt_residual(without, ref.multipliers)) <= 1e-12
        moved = sol.multipliers.copy()
        moved[1] = 7.0  # the multiplier of a left-out row is not read
        assert qp.kkt_residual(inst, moved) == qp.kkt_residual(inst, sol.multipliers)
    # every row left out (an all-zero row among them): the target exactly
    rows[[0, 2]] *= [[0.0], [1e-9]]
    for solve in routes:
        sol = solve(qp.QpInstance(rows, g, strength))
        assert sol.rows_dropped == 3
        assert np.array_equal(sol.multipliers, np.zeros(3))
        assert np.array_equal(sol.direction, g)
        assert sol.converged and sol.kkt_residual == 0.0


def test_routes_agree_on_a_row_at_the_threshold():
    # row 0's squared norm sits on MIN_ROW_SQNORM: summed row by row it is
    # just above, read off the Gram diagonal just below; every route and
    # diagnostic must make the same call on it
    rng = np.random.default_rng(1)
    while True:
        n = int(rng.integers(2, 60))
        row = rng.standard_normal(n)
        row *= np.sqrt(qp.MIN_ROW_SQNORM / (row @ row))
        rows = np.vstack([row, rng.standard_normal(n)])
        above = np.einsum("ij,ij->i", rows, rows)[0] >= qp.MIN_ROW_SQNORM
        if above != ((rows @ rows.T)[0, 0] >= qp.MIN_ROW_SQNORM):
            break
    assert n == 44
    inst = qp.QpInstance(rows, rng.standard_normal(n), [0.5, 0.5])
    exact = qp.solve_exact(inst)
    dropped = {solve(inst).rows_dropped for solve in (qp.solve_approx, qp.solve_enumerate)}
    assert dropped == {exact.rows_dropped}
    assert (qp.lower_bounds(inst) == 0.0).sum() == exact.rows_dropped
    assert qp.kkt_residual(inst, exact.multipliers) <= qp.DEFAULT_TOL


def test_enumerate_rejects_large_m():
    rng = rng_from(83, "toolarge")
    rows = rng.standard_normal((13, 4))
    with pytest.raises(ValueError):
        qp.solve_enumerate(qp.QpInstance(rows, rng.standard_normal(4), np.zeros(13)))


def test_enumerate_certifies_large_multipliers_on_a_near_singular_face():
    # rows 1 and 2 lie within 1e-3 of row 0: the optimum needs multipliers
    # ~3e4, and the pinned rows' dual gradients carry an error that scales
    # with them, which a tolerance blind to the multipliers rejects in every
    # subset (instance 144148 of
    # np.random.default_rng(7) drawing 7 x 3 normal rows, 1-3 of them moved
    # near-parallel to row 0 at offsets 10^U(-6, -2), g scaled by 10^U(0, 3)
    # and q from {0, 0.1, 0.5})
    rows = [[1.2043363879983295, -0.22144934957516912, 1.363975470538318],
            [1.2048562228666282, -0.21992015003931706, 1.366484945671539],
            [1.2041575012817516, -0.22146164982514366, 1.3638390329113992],
            [-0.3866119800933486, -0.9564212897796182, 0.5122707095997417],
            [-0.6742522116782614, -0.0722562234468118, 0.5406916438402161],
            [1.5282978845880792, -0.5897209691128361, -0.5938899476723107],
            [-1.0077272615159014, 0.22181820034011665, -1.3949195607997773]]
    g = [3.647839315431756, -5.015196657143112, 0.23443458049743787]
    inst = qp.QpInstance(rows, g, np.zeros(7))
    ref, sol = qp.solve_exact(inst), qp.solve_enumerate(inst)
    assert ref.converged
    assert np.abs(sol.multipliers).max() > 1e4
    np.testing.assert_allclose(sol.multipliers, ref.multipliers, rtol=1e-6, atol=1e-6)
    assert qp.dual_objective(inst, sol.multipliers) <= qp.dual_objective(inst, ref.multipliers)


@pytest.mark.parametrize("rows, g", [
    # instance 2366 of the generator above: q = 0.5, rows 0 and 1 within 5e-5
    ([[-0.2738432880231675, -2.4403603999903893, 0.5189298075715613],
      [-0.27386556188548355, -2.4403369405105177, 0.5188895558879254],
      [0.15322584468401498, 0.2157711697264003, -0.2759195926621693],
      [-0.2977982542403168, -1.1012267290424342, 0.461109749910756],
      [-1.2682418176385641, 0.582462686391415, 0.5573810317384487],
      [-0.13915287155308384, -0.13555611870078296, 2.405558482634119],
      [-0.5154951293754955, -0.7411847848173327, 0.41975157784097133]],
     [-1198.4760523380373, -256.9978449652404, 420.6271851806581]),
    # instance 2708: q = 0.5, rows 1 and 2 within 2e-2 of row 0
    ([[-1.1814184853513123, 0.36759587713889036, 1.1942442457547184],
      [-1.201273531709303, 0.3717319528050583, 1.192619079316721],
      [-1.1811296690677704, 0.3683149843031735, 1.1933631216404095],
      [0.03871662872989607, -1.777781835987144, 0.542465062202807],
      [0.1969704071201798, 1.562789543951415, -0.7302645905463166],
      [-1.27018022713867, -1.187176484255372, 0.056471467370477056],
      [-0.030832231064784568, -2.298360317004296, -0.10679071843909496]],
     [256.4053291051561, -184.44478198033576, 361.09522658317337]),
], ids=["2366", "2708"])
def test_enumerate_returns_the_most_accurate_kkt_point(rows, g):
    # several faces pass the KKT test, one of them with multipliers ~1e6
    # whose objective differs from the optimum's only by rounding; the
    # enumerator keeps the candidate with the smallest KKT residual, which
    # is solve_exact's converged optimum
    inst = qp.QpInstance(rows, g, np.full(7, 0.5))
    ref, sol = qp.solve_exact(inst), qp.solve_enumerate(inst)
    assert ref.converged
    assert sol.kkt_residual == qp.kkt_residual(inst, sol.multipliers) <= 1e-10
    np.testing.assert_allclose(sol.direction, ref.direction, rtol=0, atol=1e-9)


# --- kkt_residual ------------------------------------------------------------

def test_kkt_residual_zero_at_enumerated_optimum():
    rng = rng_from(84, "kktzero")
    for _ in range(20):
        inst = qp.QpInstance(rng.standard_normal((3, 5)), rng.standard_normal(5),
                             np.full(3, float(rng.choice([0.0, 0.1, 0.5]))))
        sol = qp.solve_enumerate(inst)
        assert qp.kkt_residual(inst, sol.multipliers) <= 1e-9


def test_kkt_residual_positive_off_optimum():
    # unconstrained optimum is interior, so v pinned at q is suboptimal
    inst = qp.QpInstance([[0.0, 1.0]], [1.0, -1.0], [0.2])
    assert qp.kkt_residual(inst, np.array([0.2])) > 0.0


def test_kkt_residual_empty_instance():
    inst = qp.QpInstance(np.zeros((0, 2)), [1.0, 2.0], np.zeros(0))
    assert qp.kkt_residual(inst, np.zeros(0)) == 0.0


def test_an_instance_rejects_stacked_rows_and_a_stacked_target():
    # a QpInstance is one QP; a stack is solve_batch's (rows, target,
    # strength) triple
    for m, n in ((1, 3), (3, 5)):
        with pytest.raises(ValueError, match="constraint rows must be a matrix"):
            qp.QpInstance(np.ones((2, m, n)), np.ones(n), np.zeros(m))
        with pytest.raises(ValueError, match="target must be a vector"):
            qp.QpInstance(np.ones((m, n)), np.ones((2, n)), np.zeros(m))
        with pytest.raises(ValueError, match="target must be a vector"):
            qp.QpInstance(np.ones((2, m, n)), np.ones((2, n)), np.zeros((2, m)))


# --- oracle equivalence ------------------------------------------------------

def test_enumerate_matches_exact_on_shared_and_per_row_floors():
    rng = rng_from(85, "mixed")
    worst = 0.0
    for i in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        rows = rng.standard_normal((m, n))
        g = rng.standard_normal(n)
        if i % 2 == 0:
            inst = qp.QpInstance(rows, g, np.full(m, float(rng.choice([0.0, 0.1, 0.5]))))
        else:
            inst = qp.QpInstance(rows, g, rng.uniform(0.0, 1.0, size=m))
        sol_cd = qp.solve_exact(inst, tol=1e-12)
        sol_en = qp.solve_enumerate(inst)
        diff = np.max(np.abs(sol_cd.direction - sol_en.direction))
        worst = max(worst, float(diff))
        # enumeration is globally optimal, so it never loses on objective
        assert (qp.dual_objective(inst, sol_en.multipliers)
                <= qp.dual_objective(inst, sol_cd.multipliers) + 1e-9)
    assert worst <= 1e-6, f"worst deviation {worst:.3e}"


def _hard_rows(kind, rng):
    """Rows of one hard instance."""
    if kind == "anti_parallel":
        # a and -a turned by delta: cos(angle) about -0.995 or -0.99995
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        b -= (b @ a) / (a @ a) * a
        b /= np.linalg.norm(b)
        delta = float(rng.choice([1e-1, 1e-2]))
        return np.vstack([a, -a + delta * np.linalg.norm(a) * b, rng.standard_normal(6)])
    if kind == "duplicated":  # singular Gram matrix
        return rng.standard_normal((3, 5))[[0, 1, 0, 2, 1]]
    if kind == "more_rows_than_dims":
        return rng.standard_normal((7, 3))
    return rng.standard_normal((12, 16))


@pytest.mark.parametrize("floors", ["shared", "per_row"])
@pytest.mark.parametrize("kind", ["anti_parallel", "duplicated",
                                  "more_rows_than_dims", "m12"])
def test_exact_matches_enumerate_on_hard_instances(kind, floors):
    rng = rng_from(87, kind, floors)
    for _ in range(3 if kind == "m12" else 20):
        rows = _hard_rows(kind, rng)
        if floors == "shared":
            strength = np.full(len(rows), float(rng.choice([0.0, 0.1, 0.5])))
        else:
            strength = rng.uniform(0.0, 1.0, size=len(rows))
        inst = qp.QpInstance(rows, rng.standard_normal(rows.shape[1]), strength)
        sol = qp.solve_exact(inst)
        ref = qp.solve_enumerate(inst)
        assert sol.converged
        np.testing.assert_allclose(sol.direction, ref.direction, rtol=0.0, atol=1e-9)
        assert (qp.dual_objective(inst, sol.multipliers)
                <= qp.dual_objective(inst, ref.multipliers) + 1e-9)
        # solve_exact computes its residual in Gram space
        assert abs(qp.kkt_residual(inst, sol.multipliers) - sol.kkt_residual) <= 1e-9


def test_approx_equals_enumerate_for_orthogonal_rows():
    # orthogonal rows make the Gram matrix diagonal: stage one is exact,
    # and with no clamp active the two-stage result is the true optimum
    rng = rng_from(86, "ortho")
    for _ in range(30):
        n = 6
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rows = basis[:3].copy() * rng.uniform(0.5, 2.0, size=(3, 1))
        g = rng.standard_normal(n)
        nu = -(rows @ g) / np.einsum("ij,ij->i", rows, rows)
        if np.any(nu <= 0.0):
            continue  # want every multiplier interior at q=0
        inst = qp.QpInstance(rows, g, np.zeros(3))
        np.testing.assert_allclose(qp.solve_approx(inst).direction,
                                   qp.solve_enumerate(inst).direction, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.1, 0.5]))
def test_exact_solver_properties(seed, q):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
    inst = qp.QpInstance(rng.standard_normal((m, n)), rng.standard_normal(n), np.full(m, q))
    sol = qp.solve_exact(inst)
    assert sol.converged
    assert sol.kkt_residual <= qp.DEFAULT_TOL
    assert np.all(sol.multipliers >= q)
    # dual objective at the solution never exceeds the objective at the start
    assert qp.dual_objective(inst, sol.multipliers) <= qp.dual_objective(
        inst, np.full(m, q)) + 1e-12


# --- batched solve -----------------------------------------------------------

def _same(a, b):
    return (np.array_equal(a.multipliers, b.multipliers)
            and np.array_equal(a.direction, b.direction)
            and a.iterations == b.iterations
            and a.kkt_residual == b.kkt_residual
            and a.converged == b.converged
            and a.rows_dropped == b.rows_dropped)


def _item(stack, i):
    rows, target, strength = stack
    return qp.QpInstance(rows[i], target[i], strength[i])


def _random_batch(rng):
    """Entries ``(stack, solver, the instances to solve alone, the rows as
    drawn)``: stacks of one instance and one stack of several; some rows are
    below MIN_ROW_SQNORM, all zero, or at the threshold."""
    entries = []
    for _ in range(int(rng.integers(1, 10))):
        m, n = int(rng.integers(0, 13)), int(rng.integers(1, 16))
        rows = rng.standard_normal((m, n)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
        if rng.random() < 0.3:  # a module slice of wider rows
            rows = np.hstack([rows, rng.standard_normal((m, 5))])[:, :n]
        g = rng.standard_normal(n)
        if rng.random() < 0.5:
            inst = qp.QpInstance(rows, g, np.full(m, float(rng.choice([0.0, 0.1, 0.5]))))
        else:
            inst = qp.QpInstance(rows, g, rng.uniform(0.0, 1.0, size=m))
        solver = qp.APPROX if rng.random() < 0.4 else qp.EXACT
        entries.append((qp._stack(inst), solver, [inst], inst.constraint_rows))
    # a stack of instances with one m and n
    B, m, n = int(rng.integers(1, 6)), int(rng.integers(0, 5)), int(rng.integers(1, 8))
    stack = (rng.standard_normal((B, m, n)), rng.standard_normal((B, n)), np.full((B, m), 0.1))
    solver = qp.EXACT if rng.random() < 0.7 else qp.APPROX
    entries.append((stack, solver, [_item(stack, i) for i in range(B)], stack[0]))
    # rows left out on purpose, all zero or shrunk (the stacks and the
    # instances solved alone view the same rows)
    for _, _, _, rows in entries:
        if rows.shape[-2] and rng.random() < 0.3:
            at = tuple(rng.integers(k) for k in rows.shape[:-1])
            rows[at] *= rng.choice([0.0, 1e-10])
    # rows scaled onto the threshold itself, where rounding decides
    for _, _, _, rows in entries:
        if rows.shape[-2] and rng.random() < 0.3:
            at = tuple(rng.integers(k) for k in rows.shape[:-1])
            row = rows[at]
            if row.any():
                row *= np.sqrt(qp.MIN_ROW_SQNORM / (row @ row))
    return entries


def _alone(inst, solver, max_iter):
    if solver == qp.APPROX:
        return qp.solve_approx(inst)
    return qp.solve_exact(inst, max_iter=max_iter)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, qp.DEFAULT_MAX_ITER]))
@example(1599, 1)  # a 1e-3-scaled row of n = 1 below MIN_ROW_SQNORM
def test_batched_solve_equals_each_instance_alone(seed, max_iter):
    rng = np.random.default_rng(seed)
    entries = _random_batch(rng)
    order = rng.permutation(len(entries))
    for batch in (entries, [entries[k] for k in order]):
        sols = qp.solve_batch([e[0] for e in batch], [e[1] for e in batch], max_iter=max_iter)
        for (_, solver, alone, _), sol in zip(batch, sols):
            for i, single in enumerate(alone):
                item = qp.DualSolution(sol.multipliers[i], sol.direction[i],
                                       int(sol.iterations[i]), float(sol.kkt_residual[i]),
                                       bool(sol.converged[i]), int(sol.rows_dropped[i]))
                assert _same(item, _alone(single, solver, max_iter))
    # a left-out row: multiplier 0, and the direction of the instance built
    # without it (not bit for bit: the Gram sizes differ)
    rows = rng.standard_normal((4, 6))
    rows[1] *= 1e-8
    g = rng.standard_normal(6)
    without = qp.QpInstance(np.delete(rows, 1, axis=0), g, np.full(3, 0.5))
    for solver in (qp.EXACT, qp.APPROX):
        sol = _alone(qp.QpInstance(rows, g, np.full(4, 0.5)), solver, max_iter)
        assert sol.multipliers[1] == 0.0 and sol.rows_dropped == 1
        np.testing.assert_allclose(sol.direction, _alone(without, solver, max_iter).direction,
                                   rtol=0, atol=1e-12)


def test_batched_solve_rejects_bad_input():
    stack = qp._stack(qp.QpInstance([[1.0, 0.0]], [1.0, 1.0], [0.0]))
    with pytest.raises(ValueError):
        qp.solve_batch([stack], [qp.EXACT, qp.EXACT])
    with pytest.raises(ValueError):
        qp.solve_batch([stack], ["newton"])
    for tol in (0.0, -1e-10):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            qp.solve_batch([stack], [qp.EXACT], tol=tol)


@pytest.mark.parametrize("rows, target, strength, message", [
    ([[1.0, 0.0]], [1.0, 1.0, 1.0], [0.0], "constraint rows and target disagree on dimension"),
    (np.ones((2, 3)), np.ones(2), np.zeros(2), "constraint rows and target disagree on dimension"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.0], "strength length must equal the number of rows"),
    ([[1.0, 0.0]], [1.0, 1.0], [0.0, 0.5], "strength length must equal the number of rows"),
], ids=["one_row_dimension", "dimension", "short_strength", "long_strength"])
def test_an_instance_rejects_shapes_that_disagree(rows, target, strength, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        qp.QpInstance(rows, target, strength)


def test_batched_solve_raises_the_first_bad_entry_error():
    # the entries fall in different (m, solver) cores, which validate
    # together; the error is still the one checking entry by entry, in
    # order, meets first
    good = qp._stack(qp.QpInstance([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.0, 0.5]))
    negative = qp._stack(qp.QpInstance([[1.0, 2.0]], [1.0, 1.0], [-0.5]))
    nan = qp._stack(qp.QpInstance(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), [np.nan, 1.0],
                                  np.zeros(3)))
    nan_stack = (np.ones((2, 1, 2)), np.ones((2, 2)), np.array([[0.0], [np.inf]]))
    cases = [
        ([good, negative, nan], [qp.EXACT, qp.APPROX, qp.EXACT], "strength must be"),
        ([good, nan, negative], [qp.EXACT, qp.EXACT, qp.APPROX], "NaN or Inf"),
        ([good, nan_stack, negative], [qp.APPROX, qp.EXACT, qp.EXACT], "NaN or Inf"),
        ([negative, good, nan], [qp.EXACT, qp.EXACT, qp.EXACT], "strength must be"),
        ([good, nan, good], [qp.EXACT, qp.EXACT, "newton"], "NaN or Inf"),
        ([good, good, nan], [qp.EXACT, "newton", qp.EXACT], "unknown solver 'newton'"),
    ]
    for stacks, solvers, error in cases:
        with pytest.raises(ValueError, match=error):
            qp.solve_batch(stacks, solvers)


def test_lawson_hanson_residual_is_the_kkt_residual_at_the_returned_point():
    # the core returns the residuals of its last round's gradient; they
    # equal those recomputed at the returned u, bit for bit. The stack's
    # rows 0 and 1 are near-parallel, 5 rows in 3 dimensions at scales
    # 1e-2 to 1e4: with OpenBLAS 0.3.31 its instances stop at the KKT
    # tolerance (60), on a stall (1), a singular free set (1) and, by
    # round-off, an unbounded dual (2), and at max_iter 1 and 2 most stop
    # at the cap; the last pair is unbounded below
    rng = rng_from(3, "lawson-hanson-stops")
    B = 64
    rows = rng.standard_normal((B, 5, 3)) * 10.0 ** rng.uniform(-2, 4, size=(B, 5, 1))
    rows[:, 1] = rows[:, 0] + 10.0 ** rng.uniform(-7, -3, size=(B, 1)) * rng.standard_normal((B, 3))
    g = rng.standard_normal((B, 3)) * 10.0 ** rng.uniform(0, 3, size=(B, 1))
    q = rng.choice([0.0, 0.5], size=(B, 1)) * np.ones((B, 5))
    K, h, _, _ = qp._gram([(rows, g, q)])
    pairs = [(K, h), (UNBOUNDED_K, UNBOUNDED_H)]
    for (K, h), max_iter in itertools.product(pairs, [1, 2, qp.DEFAULT_MAX_ITER]):
        u, solves, residual = qp._lawson_hanson(K, h, qp.DEFAULT_TOL, max_iter)
        want = qp._kkt(u, qp._matvec(K, u) + h)
        assert residual.dtype == want.dtype and residual.tobytes() == want.tobytes(), max_iter
    assert not (residual <= qp.DEFAULT_TOL).any()  # the unbounded dual stops unconverged


def test_singular_system_in_a_stack_fails_only_its_own_solve():
    A = np.array([2.0 * np.eye(2), [[1.0, 1.0], [1.0, 1.0]], [[3.0, 1.0], [1.0, 2.0]]])
    y = np.array([[1.0, 2.0], [1.0, 1.0], [0.5, -1.0]])
    x, singular = qp._solve_stack(A, y)
    assert singular.tolist() == [False, True, False]
    for i in (0, 2):
        assert np.array_equal(x[i], np.linalg.solve(A[i], y[i]))
    assert np.array_equal(x[1], [0.0, 0.0])
    x, singular = qp._solve_stack(A[[0, 2]], y[[0, 2]])
    assert singular is None


def test_empty_and_rowless_batches():
    assert qp.solve_batch([], []) == []
    stack = (np.zeros((3, 0, 4)), np.ones((3, 4)), np.zeros((3, 0)))
    for solver in (qp.EXACT, qp.APPROX):
        sol = qp.solve_batch([stack], [solver])[0]
        assert sol.multipliers.shape == (3, 0)
        assert np.array_equal(sol.direction, np.ones((3, 4)))
        assert sol.converged.all() and not sol.iterations.any()
