import numpy as np

from mgem import qp
from mgem import selfcheck


def test_all_suites_pass_quick():
    results = selfcheck.run_all(quick=True)
    assert len(results) == 5
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_injected_sign_flip_is_caught(monkeypatch):
    # a broken approximate solver must fail the single-constraint suite
    original = qp.solve_approx

    def flipped(inst):
        sol = original(inst)
        sol.direction = inst.target - inst.constraint_rows.T @ sol.multipliers
        return sol

    monkeypatch.setattr(qp, "solve_approx", flipped)
    passed, detail = selfcheck.check_approx_single_constraint(n_instances=20)
    assert not passed, detail


def test_biased_exact_solver_is_caught(monkeypatch):
    # a small systematic bias in the production solver must fail the
    # enumeration battery
    original = qp.solve_exact

    def biased(inst, tol=qp.DEFAULT_TOL, max_iter=qp.DEFAULT_MAX_ITER):
        sol = original(inst, tol=tol, max_iter=max_iter)
        sol.direction = sol.direction + 1e-4
        return sol

    monkeypatch.setattr(qp, "solve_exact", biased)
    passed, _ = selfcheck.check_oracle_equivalence(n_instances=30)
    assert not passed


def _patch_floors(monkeypatch, floors):
    """Patch ``qp.solve_exact`` to solve each instance with the floors
    ``floors(inst)`` gives in place of its own."""
    original = qp.solve_exact

    def patched(inst, tol=qp.DEFAULT_TOL, max_iter=qp.DEFAULT_MAX_ITER):
        inst = qp.QpInstance(inst.constraint_rows, inst.target, floors(inst))
        return original(inst, tol=tol, max_iter=max_iter)

    monkeypatch.setattr(qp, "solve_exact", patched)


def test_a_module_floor_dropped_is_caught(monkeypatch):
    def floors(inst):
        # every module is 3 to 5 wide and a case has at least two, so an
        # instance narrower than 6 is a module's: its floor goes to 0
        return 0.0 * inst.strength if inst.target.shape[-1] < 6 else inst.strength

    _patch_floors(monkeypatch, floors)
    passed, detail = selfcheck.check_strength_ordering()
    assert not passed, detail


def test_a_split_row_floor_dropped_is_caught(monkeypatch):
    def floors(inst):
        # the memory split's instance is the only one with more than one
        # row: its first row's floor goes to 0
        return np.r_[0.0, inst.strength[1:]] if inst.m > 1 else inst.strength

    _patch_floors(monkeypatch, floors)
    passed, detail = selfcheck.check_strength_ordering()
    assert not passed, detail


def test_quick_mode_reduces_counts():
    passed, detail = selfcheck.check_oracle_equivalence(quick=True)
    assert passed
    assert "200 instances" in detail
