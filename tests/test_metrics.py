import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgem.constraints import MethodSpec
from mgem.engine import ParetoPoint
from mgem.metrics import (
    PARETO_COLUMNS,
    RMATRIX_COLUMNS,
    SUMMARY_COLUMNS,
    summarize,
    write_pareto_csv,
    write_rmatrix_csv,
    write_summary_csv,
)


def test_worked_example():
    s = summarize([[0.9, 0.2], [0.8, 0.85]])
    assert s.acc == pytest.approx(0.825, abs=1e-12)
    assert s.fwd == pytest.approx(0.875, abs=1e-12)
    assert s.bwd == pytest.approx(-0.05, abs=1e-12)
    assert s.acc == s.bwd + s.fwd  # exact
    # and the 9-significant-digit serialization matches the decimal values
    assert f"{s.acc:.9g}" == "0.825"
    assert f"{s.fwd:.9g}" == "0.875"
    assert f"{s.bwd:.9g}" == "-0.05"


def test_single_task_summary():
    s = summarize([[0.7]])
    assert s.acc == 0.7 and s.fwd == 0.7 and s.bwd == 0.0


def test_identity_retention_gives_zero_bwd():
    R = np.array([[0.8, 0.1, 0.2],
                  [0.3, 0.9, 0.1],
                  [0.8, 0.9, 0.6]])  # last row equals the diagonal
    s = summarize(R)
    assert s.bwd == 0.0


def test_summarize_validates_input():
    with pytest.raises(ValueError):
        summarize(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        summarize([[1.2]])
    with pytest.raises(ValueError):
        summarize(np.zeros((0, 0)))


@pytest.mark.parametrize("T, where", [(1, (0, 0)), (2, (0, 0)), (2, (1, 1)), (2, (1, 0))],
                         ids=["one_task", "diagonal", "last", "last_row"])
def test_summarize_rejects_nan_accuracies(T, where):
    # NaN fails every comparison with 0 and 1; it is out of range too
    R = np.full((T, T), 0.5)
    R[where] = np.nan
    with pytest.raises(ValueError, match=r"^accuracies must lie in \[0, 1\]$"):
        summarize(R)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_identity_exact_for_random_matrices(T, seed):
    R = np.random.default_rng(seed).uniform(0.0, 1.0, size=(T, T))
    s = summarize(R)
    assert s.acc == s.bwd + s.fwd


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_summary_invariant_to_task_relabeling(T, seed):
    # relabeling permutes the per-task terms of each mean; the final-time
    # row stays the final-time row
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.0, 1.0, size=(T, T))
    perm = np.append(rng.permutation(T - 1), T - 1)
    s = summarize(R)
    sp = summarize(R[np.ix_(perm, perm)])
    assert sp.acc == pytest.approx(s.acc, abs=1e-12)
    assert sp.fwd == pytest.approx(s.fwd, abs=1e-12)
    assert sp.bwd == pytest.approx(s.bwd, abs=1e-12)


# --- report files -------------------------------------------------------------

def test_empty_sweep_writes_header_only(tmp_path):
    path = tmp_path / "pareto.csv"
    write_pareto_csv(path, [])
    assert path.read_text() == ",".join(PARETO_COLUMNS) + "\n"


def test_summary_row_contents(tmp_path):
    path = tmp_path / "summary.csv"
    m = MethodSpec("d_mgem", d_data=2, strength=0.1)
    write_summary_csv(path, [(m, 3, summarize([[0.9, 0.2], [0.8, 0.85]]), 0)])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert lines[1] == "d_mgem,0.1,1,2,exact,3,0.825,0.875,-0.05,0"


def test_approx_method_label_distinct(tmp_path):
    path = tmp_path / "summary.csv"
    m = MethodSpec("gem", solver="approx", strength=0.5)
    write_summary_csv(path, [(m, 0, summarize([[1.0]]), 2)])
    assert path.read_text().splitlines()[1].startswith("approx_gem,0.5,1,1,approx,0,")


def test_pareto_row_contents(tmp_path):
    path = tmp_path / "pareto.csv"
    p = ParetoPoint(MethodSpec("p_mgem", d_param=4, strength=0.2), 1,
                    -0.001234567891, 0.3339999991)
    write_pareto_csv(path, [p])
    lines = path.read_text().splitlines()
    assert lines[1] == "p_mgem,0.2,4,1,1,-0.00123456789,0.333999999"


def test_rmatrix_long_form(tmp_path):
    path = tmp_path / "rmatrix.csv"
    write_rmatrix_csv(path, np.array([[0.5, 0.25], [1.0, 0.125]]))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(RMATRIX_COLUMNS)
    assert lines[1:] == ["1,1,0.5", "1,2,0.25", "2,1,1", "2,2,0.125"]


def test_rewrite_is_byte_identical(tmp_path):
    path = tmp_path / "summary.csv"
    entries = [(MethodSpec("gem", strength=0.3), 7,
                summarize(np.full((3, 3), 1 / 3)), 1)]
    write_summary_csv(path, entries)
    first = path.read_bytes()
    write_summary_csv(path, entries)
    assert path.read_bytes() == first


def test_reals_use_nine_significant_digits(tmp_path):
    path = tmp_path / "rmatrix.csv"
    write_rmatrix_csv(path, np.array([[1 / 3]]))
    assert path.read_text().splitlines()[1] == "1,1,0.333333333"
