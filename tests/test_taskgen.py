import numpy as np
import pytest

from mgem.engine import TrainConfig, run
from mgem.constraints import MethodSpec
from mgem.mlp import MlpSpec
from mgem.taskgen import StreamSpec, generate, load_csv


def spec(**kw):
    base = dict(family="rotated", n_tasks=3, n_train=60, n_test=30,
                n_features=4, n_classes=3, noise=0.1, seed=0)
    base.update(kw)
    return StreamSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(family="mnist")
    with pytest.raises(ValueError):
        spec(n_tasks=0)
    with pytest.raises(ValueError):
        spec(noise=-0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="noise must be finite"):
            spec(noise=bad)
    with pytest.raises(ValueError):
        spec(n_features=1)  # rotation needs a 2-plane
    with pytest.raises(ValueError):
        StreamSpec(family="csv")  # csv needs paths
    with pytest.raises(ValueError, match="csv_paths needs the csv family, got 'rotated'"):
        spec(csv_paths=("a.csv",))  # only the csv family reads files
    for field, bad in [("n_tasks", 2.5), ("n_train", 40.5), ("n_test", 30.0),
                       ("n_features", 4.0), ("n_classes", 3.5), ("seed", 1.5)]:
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad}$"):
            spec(**{field: bad})
    # 2**64 would draw seed 0's streams, and a negative seed those of seed mod 2**64
    for bad in (2**64, -1):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {bad}$"):
            spec(seed=bad)
        with pytest.raises(ValueError, match=r"^seed must lie in"):
            StreamSpec(family="csv", csv_paths=("a.csv",), seed=bad)
    assert spec(seed=np.uint64(2**64 - 1), n_train=np.int32(60)).seed == 2**64 - 1


def test_generation_is_deterministic():
    a, b = generate(spec()), generate(spec())
    for ta, tb in zip(a.tasks, b.tasks):
        assert np.array_equal(ta.train.features, tb.train.features)
        assert np.array_equal(ta.train.labels, tb.train.labels)
        assert np.array_equal(ta.test.features, tb.test.features)
    c = generate(spec(seed=1))
    assert not np.array_equal(a.tasks[0].train.features, c.tasks[0].train.features)


def test_descriptors_in_order():
    stream = generate(spec())
    assert [t.descriptor for t in stream.tasks] == [1, 2, 3]


def test_permuted_task1_is_base():
    # task 1 carries the identity permutation by convention; tasks share
    # the same base samples, so labels agree everywhere
    s = spec(family="permuted", n_features=8)
    stream = generate(s)
    base = generate(spec(family="permuted", n_features=8, n_tasks=1)).tasks[0]
    assert np.array_equal(stream.tasks[0].train.features, base.train.features)
    for t in stream.tasks[1:]:
        assert np.array_equal(t.train.labels, stream.tasks[0].train.labels)
        assert not np.array_equal(t.train.features, stream.tasks[0].train.features)
        # a permutation preserves per-sample multisets
        assert np.allclose(np.sort(t.train.features, axis=1),
                           np.sort(stream.tasks[0].train.features, axis=1))


def test_permuted_class_balance_exact():
    stream = generate(spec(family="permuted", n_train=61))
    counts0 = np.bincount(stream.tasks[0].train.labels, minlength=3)
    for t in stream.tasks[1:]:
        assert np.array_equal(np.bincount(t.train.labels, minlength=3), counts0)


def test_rotated_means_follow_plane_rotation():
    # with zero noise every sample sits exactly on its class mean
    s = spec(family="rotated", n_tasks=2, noise=0.0)
    stream = generate(s)
    t1, t2 = stream.tasks

    def class_means(ds):
        return np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])

    m1, m2 = class_means(t1.train), class_means(t2.train)
    angle = np.pi / 2  # task 2 of 2
    rot = np.eye(4)
    rot[0, 0], rot[0, 1], rot[1, 0], rot[1, 1] = (
        np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle))
    np.testing.assert_allclose(m2, m1 @ rot.T, atol=1e-12)


def test_split_classes_relabels_disjoint_subsets():
    stream = generate(spec(family="split_classes", n_tasks=2, noise=0.0))
    for t in stream.tasks:
        assert set(np.unique(t.train.labels)) <= {0, 1, 2}
    # zero noise: features equal class means; disjoint base classes means
    # disjoint feature supports across tasks
    f1 = {tuple(row) for row in stream.tasks[0].train.features}
    f2 = {tuple(row) for row in stream.tasks[1].train.features}
    assert not (f1 & f2)


def test_rotated_blobs_are_learnable():
    # a task trained alone must exceed 0.9 test accuracy at noise 0.1
    stream = generate(spec(n_tasks=1, n_train=100, n_test=60))
    cfg = TrainConfig(lr=0.1, iters_per_task=200, batch_size=16,
                      memory_per_task=10, method=MethodSpec("single"), seed=0)
    result = run(stream, MlpSpec((4, 16, 3)), cfg)
    assert result.accuracy[0, 0] > 0.9


# --- csv loader --------------------------------------------------------------

def write_csv(path, rows, header="x0,x1,label"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def test_load_csv_split_80_20(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, [f"{i}.0,{i},{i % 2}" for i in range(10)])
    stream = load_csv([str(f)], seed=0)
    task = stream.tasks[0]
    assert task.train.n_samples == 8
    assert task.test.n_samples == 2
    # train/test disjoint by construction
    seen = np.concatenate([task.train.features[:, 1], task.test.features[:, 1]])
    assert sorted(seen.tolist()) == list(range(10))


def test_load_csv_two_files_descriptor_order(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["1.0,2.0,0", "2.0,1.0,1", "0.5,0.5,0"])
    write_csv(b, ["3.0,4.0,1", "4.0,3.0,0", "1.5,1.5,1"])
    stream = load_csv([str(a), str(b)], seed=0)
    assert [t.descriptor for t in stream.tasks] == [1, 2]


@pytest.mark.parametrize("cells, col, cell", [
    ("1.0,oops,1", 2, "oops"), ("1_0,2.0,0", 1, "1_0"), ("1.0,\uff13,0", 2, "\uff13"),
    ("1.0,2.0,1_0", 3, "1_0"),
], ids=["word", "separator", "fullwidth", "label_separator"])
def test_load_csv_reports_bad_cell(tmp_path, cells, col, cell):
    # a digit separator or a non-ASCII digit, which float() reads, is a bad
    # cell, as in a config file
    f = tmp_path / "bad.csv"
    write_csv(f, ["1.0,2.0,0", cells])
    with pytest.raises(ValueError, match=rf"bad\.csv line 3 column {col}: "
                                         rf"could not parse '{cell}'$"):
        load_csv([str(f)])


@pytest.mark.parametrize("cells, col", [("nan,2.0,0", 1), ("1.0,-inf,0", 2),
                                         ("1.0,2.0,inf", 3), ("1.0,2.0,nan", 3)])
def test_load_csv_rejects_non_finite_cells(tmp_path, cells, col):
    # a feature or a label that is not a finite number names its file and cell
    f = tmp_path / "nonfinite.csv"
    write_csv(f, ["1.0,2.0,0", cells])
    with pytest.raises(ValueError, match=rf"nonfinite\.csv line 3 column {col}: .* not finite"):
        load_csv([str(f)])


@pytest.mark.parametrize("label", ["1e19", "9223372036854775808", "1e300"])
def test_load_csv_rejects_labels_that_do_not_fit_int64(tmp_path, recwarn, label):
    # 2**63 and above: a ValueError naming the file, line and value, with
    # no numpy cast warning or OverflowError on the way
    f = tmp_path / "huge.csv"
    write_csv(f, ["1.0,2.0,0", f"1.0,2.0,{label}"])
    with pytest.raises(ValueError, match=rf"huge\.csv line 3 column 3: label must be an "
                                         rf"integer in \[0, 2\*\*63\), got '{label}'"):
        load_csv([str(f)])
    assert not recwarn.list
    write_csv(f, ["1.0,2.0,0", "1.0,2.0,9223372036854774784"])  # largest float < 2**63
    task = load_csv([str(f)]).tasks[0]
    assert sorted(task.train.labels.tolist() + task.test.labels.tolist()) == [0, 2**63 - 1024]


def test_load_csv_rejects_ragged_rows(tmp_path):
    f = tmp_path / "ragged.csv"
    write_csv(f, ["1.0,2.0,0", "1.0,1"])
    with pytest.raises(ValueError, match="line 3"):
        load_csv([str(f)])


def test_load_csv_rejects_bad_labels(tmp_path):
    f = tmp_path / "neg.csv"
    write_csv(f, ["1.0,2.0,-1", "1.0,2.0,0"])
    with pytest.raises(ValueError, match="label"):
        load_csv([str(f)])
    f2 = tmp_path / "frac.csv"
    write_csv(f2, ["1.0,2.0,0.5", "1.0,2.0,0"])
    with pytest.raises(ValueError, match="label"):
        load_csv([str(f2)])


def test_load_csv_requires_label_header(tmp_path):
    f = tmp_path / "head.csv"
    write_csv(f, ["1.0,2.0,0"], header="x0,x1,y")
    with pytest.raises(ValueError, match="label"):
        load_csv([str(f)])


def test_load_csv_feature_width_must_match(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["1.0,2.0,0", "2.0,1.0,1"])
    write_csv(b, ["3.0,1", "4.0,0"], header="x0,label")
    with pytest.raises(ValueError, match="feature columns"):
        load_csv([str(a), str(b)])


def test_csv_family_through_generate(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, [f"{i}.0,{-i}.0,{i % 2}" for i in range(10)])
    stream = generate(StreamSpec(family="csv", csv_paths=(str(f),), seed=3))
    assert stream.n_tasks == 1
    assert stream.tasks[0].train.n_samples == 8
