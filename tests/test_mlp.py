import itertools

import numpy as np
import pytest

from mgem.layout import layer_slices, n_params
from mgem.mlp import (
    Dataset,
    MlpSpec,
    _backprop,
    _class_sum,
    _forward,
    _weights,
    accuracy,
    fd_gradient,
    group_grads,
    init_params,
    loss_and_grad,
    predict,
)
from mgem.selfcheck import check_gradients
from mgem.seeds import rng_from


def block(params, spec, layer, part):
    """View of one layer's weights (part 0) or bias (part 1)."""
    return params[layer_slices(spec)[layer][part]]


def test_layout_size_arithmetic():
    # [2,3,2]: 2*3 + 3 + 3*2 + 2
    assert n_params(MlpSpec((2, 3, 2))) == 17


def test_init_deterministic_and_zero_bias():
    spec = MlpSpec((4, 5, 3))
    a = init_params(spec, seed=7)
    b = init_params(spec, seed=7)
    assert a.dtype == np.float64 and a.shape == (n_params(spec),)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, init_params(spec, seed=8))
    for i in range(len(layer_slices(spec))):
        assert np.all(block(a, spec, i, 1) == 0.0)


def test_init_xavier_bounds():
    spec = MlpSpec((6, 4, 3))
    p = init_params(spec, seed=0)
    s0 = np.sqrt(6.0 / (6 + 4))
    assert np.max(np.abs(block(p, spec, 0, 0))) <= s0


@pytest.mark.parametrize("bad", [(5,), (3, 1), (0, 4, 2), (2, 5.0, 3)])
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        MlpSpec(bad)


def test_spec_takes_numpy_integer_sizes_and_truncates_nothing():
    assert MlpSpec((np.int64(2), np.uint8(5), 3)).layer_sizes == (2, 5, 3)
    with pytest.raises(ValueError, match=r"^layer size must be an integer, got 2\.7$"):
        MlpSpec((2.7, 5, 3))  # used to become (2, 5, 3)


def test_spec_rejects_an_unknown_activation():
    with pytest.raises(ValueError, match="^unknown activation 'gelu'$"):
        MlpSpec((2, 5, 3), activation="gelu")


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros(3), [0, 1, 2], "features must be 2-D, labels 1-D"),
    (np.zeros((3, 2)), [[0, 1, 2]], "features must be 2-D, labels 1-D"),
    (np.zeros((3, 2)), [0, 1], "features and labels disagree on sample count"),
    (np.zeros((0, 2)), np.zeros(0, dtype=int), "dataset needs at least one sample"),
    ([[0.0, np.nan], [1.0, 2.0]], [0, 1], "features contain NaN or Inf"),
    ([[0.0, 1.0], [-np.inf, 2.0]], [0, 1], "features contain NaN or Inf"),
    (np.zeros((2, 2)), [0, -1], "labels must be non-negative"),
], ids=["features_1d", "labels_2d", "count_mismatch", "no_samples", "nan", "inf",
        "negative_label"])
def test_dataset_rejects_bad_input(features, labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dataset(features, labels)


def test_dataset_take_of_no_rows_is_rejected():
    data = Dataset(np.zeros((3, 2)), [0, 1, 2])
    with pytest.raises(ValueError, match="^dataset needs at least one sample$"):
        data.take(np.zeros(0, dtype=int))


def test_uniform_logits_loss_is_log_c():
    spec = MlpSpec((3, 4))
    params = init_params(spec, seed=0)
    params[:] = 0.0
    data = Dataset(np.array([[0.3, -1.2, 0.7]]), np.array([2]))
    loss, _ = loss_and_grad(params, spec, data)
    assert loss == pytest.approx(np.log(4), rel=1e-12)


def test_duplicated_samples_leave_mean_loss_and_grad():
    spec = MlpSpec((3, 5, 3), activation="tanh")
    params = init_params(spec, seed=3)
    rng = rng_from(11, "dup")
    data = Dataset(rng.standard_normal((7, 3)), rng.integers(0, 3, size=7))
    doubled = Dataset(np.vstack([data.features, data.features]),
                      np.concatenate([data.labels, data.labels]))
    l1, g1 = loss_and_grad(params, spec, data)
    l2, g2 = loss_and_grad(params, spec, doubled)
    assert l2 == pytest.approx(l1, rel=1e-12)
    np.testing.assert_allclose(g2, g1, rtol=1e-12, atol=1e-15)


def test_shape_mismatch_raises():
    spec = MlpSpec((3, 4, 2))
    params = init_params(spec, seed=0)
    with pytest.raises(ValueError):
        loss_and_grad(params, spec, Dataset(np.zeros((2, 5)), np.zeros(2, dtype=int)))
    with pytest.raises(ValueError):
        loss_and_grad(params, spec, Dataset(np.zeros((2, 3)), np.array([0, 9])))
    with pytest.raises(ValueError):
        predict(params, spec, np.zeros((2, 5)))


def test_dataset_rejects_labels_that_are_not_integers(recwarn):
    # a fraction, NaN or a value past int64 is a ValueError, with no numpy
    # cast warning on the way
    for labels in ([0.5, 1.7, 2.0], [0.0, np.nan, 1.0], [0.0, 1e30, 1.0]):
        with pytest.raises(ValueError, match="^labels must be integers$"):
            Dataset(np.zeros((3, 2)), labels)
    assert not recwarn.list
    # integer arrays, bools and integral floats keep their values
    for labels in ([0, 1, 2], np.array([2, 0, 1], dtype=np.int32), [True, False, True],
                   np.array([1.0, 0.0, 2.0])):
        data = Dataset(np.zeros((3, 2)), labels)
        assert data.labels.dtype == np.int64
        assert data.labels.tolist() == [int(k) for k in labels]


def test_wrong_length_params_rejected():
    spec = MlpSpec((3, 4, 2))  # 23 parameters
    data = Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int))
    for params in (np.zeros(0), np.zeros(22), np.zeros(24)):
        with pytest.raises(ValueError, match="does not fit"):
            loss_and_grad(params, spec, data)
        with pytest.raises(ValueError, match="does not fit"):
            predict(params, spec, data.features)


def test_predict_tie_breaks_to_lowest_class():
    spec = MlpSpec((2, 3))
    params = init_params(spec, seed=0)
    params[:] = 0.0  # all logits equal
    labels = predict(params, spec, np.array([[1.0, -2.0], [0.5, 0.5]]))
    assert np.array_equal(labels, [0, 0])


def test_predict_known_logits():
    # identity-ish single layer: logits = x @ W + b
    spec = MlpSpec((2, 2))
    params = init_params(spec, seed=0)
    block(params, spec, 0, 0)[:] = np.eye(2).ravel()
    block(params, spec, 0, 1)[:] = 0.0
    assert predict(params, spec, np.array([[0.1, 0.9]]))[0] == 1


def test_predictions_invariant_to_logit_shift():
    spec = MlpSpec((3, 6, 4))
    params = init_params(spec, seed=5)
    rng = rng_from(5, "shift")
    X = rng.standard_normal((20, 3))
    before = predict(params, spec, X)
    block(params, spec, 1, 1)[:] += 3.7  # shifts every logit equally
    assert np.array_equal(predict(params, spec, X), before)


def test_gradient_matches_central_differences():
    spec = MlpSpec((3, 4, 3))
    params = init_params(spec, seed=2)
    rng = rng_from(2, "fdcase")
    data = Dataset(rng.standard_normal((5, 3)), rng.integers(0, 3, size=5))
    _, grad = loss_and_grad(params, spec, data)
    fd = fd_gradient(params, spec, data)
    denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
    assert np.max(np.abs(grad - fd) / denom) < 1e-5


def test_gradient_battery_passes():
    passed, detail = check_gradients(n_cases=20)
    assert passed, detail


def test_loss_and_grad_deterministic():
    spec = MlpSpec((4, 6, 3))
    params = init_params(spec, seed=9)
    rng = rng_from(9, "det")
    data = Dataset(rng.standard_normal((8, 4)), rng.integers(0, 3, size=8))
    l1, g1 = loss_and_grad(params, spec, data)
    l2, g2 = loss_and_grad(params, spec, data)
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_accuracy_counts_fraction_correct():
    spec = MlpSpec((2, 2))
    params = init_params(spec, seed=0)
    block(params, spec, 0, 0)[:] = np.eye(2).ravel()
    data = Dataset(np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 1.0]]),
                   np.array([0, 1, 1, 1]))
    assert accuracy(params, spec, data) == 0.75


def test_accuracy_rejects_labels_the_model_has_no_output_for():
    # as training does (check_data): labels 5 and 7 of a 3-class model
    spec = MlpSpec((2, 4, 3))
    data = Dataset(np.ones((4, 2)), np.array([0, 1, 5, 7]))
    params = init_params(spec, seed=0)
    for p in (params, np.stack([params, params])):
        with pytest.raises(ValueError, match="^label out of range for 3 classes$"):
            accuracy(p, spec, data)
    with pytest.raises(ValueError, match="^label out of range for 3 classes$"):
        _backprop(params, spec, data, [4])


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_accuracy_equals_each_row_alone(activation):
    # a (J, P) stack gives a (J,) array whose entries are, bit for bit, the
    # floats each row gives alone; so do its predictions
    spec = MlpSpec((3, 9, 7, 4), activation=activation)
    rng = rng_from(8, "stacked-accuracy")
    stack = np.stack([init_params(spec, seed) for seed in range(5)])
    stack += 0.5 * rng.standard_normal(stack.shape)
    data = Dataset(rng.standard_normal((37, 3)), rng.integers(0, 4, size=37))
    got = accuracy(stack, spec, data)
    assert got.shape == (5,) and len(set(got.tolist())) > 1
    for row, acc in zip(stack, got):
        alone = accuracy(row, spec, data)
        assert type(alone) is float and acc == alone
    for row, labels in zip(stack, predict(stack, spec, data.features)):
        assert np.array_equal(labels, predict(row, spec, data.features))
    assert accuracy(stack[:1], spec, data).shape == (1,)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("sizes", [(8, 8, 8), (11, 11, 10), (1, 5, 2, 9), (7,)])
def test_group_grads_rows_match_per_group_loss_and_grad(activation, sizes):
    spec = MlpSpec((3, 9, 7, 4), activation=activation)
    params = init_params(spec, seed=4)
    rng = rng_from(4, "groups", len(sizes))
    params += 0.1 * rng.standard_normal(params.shape)
    n = sum(sizes)
    data = Dataset(rng.standard_normal((n, 3)), rng.integers(0, 4, size=n))
    rows = group_grads(params, spec, data, sizes)
    assert rows.shape == (len(sizes), n_params(spec))
    bounds = np.cumsum((0,) + sizes)
    for g in range(len(sizes)):
        _, ref = loss_and_grad(params, spec, data.take(slice(bounds[g], bounds[g + 1])))
        np.testing.assert_allclose(rows[g], ref, rtol=0.0, atol=1e-12)


def test_loss_and_grad_is_the_one_group_case():
    spec = MlpSpec((3, 6, 3))
    params = init_params(spec, seed=6)
    rng = rng_from(6, "one-group")
    data = Dataset(rng.standard_normal((10, 3)), rng.integers(0, 3, size=10))
    _, grad = loss_and_grad(params, spec, data)
    assert np.array_equal(group_grads(params, spec, data, (10,))[0], grad)


@pytest.mark.parametrize("sizes", [(4, 5), (10, 0), (), (11,), (-1, 11)])
def test_group_grads_rejects_sizes_that_do_not_split_the_rows(sizes):
    spec = MlpSpec((3, 4, 2))
    params = init_params(spec, seed=0)
    data = Dataset(np.zeros((10, 3)), np.zeros(10, dtype=int))
    with pytest.raises(ValueError):
        group_grads(params, spec, data, sizes)


def reference_backprop(params, spec, data, sizes):
    """The column-sum formulation of ``_backprop``, kept as its reference:
    a forward product ``[h, 1] @ [W; b]`` per layer, a separate bias sum
    per layer in the backward, and a softmax denominator that adds the
    classes one by one, in order."""
    X, y = data.features, data.labels
    n = X.shape[0]
    lead = params.shape[:-1]
    ws = [params[..., w].reshape(lead + (fan_in, fan_out)) for w, _, fan_in, fan_out
          in layer_slices(spec)]
    wbs = [np.concatenate([W, params[..., None, b]], axis=-2)
           for W, (_, b, _, _) in zip(ws, layer_slices(spec))]

    def layer(h, wb):
        return np.concatenate([h, np.ones(h.shape[:-1] + (1,))], axis=-1) @ wb

    hs = [X]
    for wb in wbs[:-1]:
        z = layer(hs[-1], wb)
        hs.append(np.maximum(z, 0.0, out=z) if spec.activation == "relu" else np.tanh(z, out=z))
    logits = layer(hs[-1], wbs[-1])
    top = logits.T.copy().max(axis=0).T[..., None]
    shifted = logits - top
    e = np.exp(shifted)
    z = e[..., 0].copy()
    for k in range(1, spec.n_out):
        z += e[..., k]
    log_p = shifted - np.log(z)[..., None]
    target = (..., np.arange(n), y)
    nll = -log_p[target]
    n_groups = len(sizes)
    k = sizes[0] if sizes.count(sizes[0]) == n_groups else None
    grads = np.empty(lead + (n_groups, params.shape[-1]))
    delta = np.exp(log_p)
    delta[target] -= 1.0
    delta /= k if k else np.repeat(sizes, sizes)[:, None]
    for i, (w, b, fan_in, fan_out) in reversed(list(enumerate(layer_slices(spec)))):
        h = hs[i]
        g_w = grads[..., w].reshape(lead + (n_groups, fan_in, fan_out))
        g_b = grads[..., b]
        if k:
            d = delta.reshape(lead + (n_groups, k, fan_out))
            hg = h.reshape(h.shape[:-2] + (n_groups, k, fan_in))
            np.matmul(hg.swapaxes(-1, -2), d, out=g_w)
            d.sum(axis=-2, out=g_b)
        else:
            for g, hi in enumerate(itertools.accumulate(sizes)):
                rows = slice(hi - sizes[g], hi)
                np.matmul(h[..., rows, :].swapaxes(-1, -2), delta[..., rows, :],
                          out=g_w[..., g, :, :])
                delta[..., rows, :].sum(axis=-2, out=g_b[..., g, :])
        if i > 0:
            delta = delta @ ws[i].swapaxes(-1, -2)
            if spec.activation == "relu":
                delta *= h > 0.0
            else:
                delta *= 1.0 - h ** 2
    return nll, grads


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("n_classes", range(2, 13))
def test_backprop_equals_the_column_sum_formulation_bitwise(n_classes, activation):
    # the ones column, the class-major softmax and the equal-size runs give
    # the floats of a separate bias sum, an in-order class sum and one
    # product per group; from 8 classes on a row-major ``.sum`` would add
    # pairwise instead, one group is over 256 rows, and the last three
    # layouts are the engine's traced passes (d_data 1 and 2) and runs of
    # equal groups between others
    rng = rng_from(n_classes, "ones-column", activation)
    specs = [MlpSpec((2, 16, n_classes), activation),
             MlpSpec((3, 9, 7, n_classes), activation)]
    groups = [(16,), (40, 40), (16,) * 6, (300,), (3, 300, 7), (5, 1, 9),
              (16, 32, 120, 120), (16, 16, 16, 120, 120), (3, 3, 7, 7, 7, 2)]
    for spec, sizes, lead in itertools.product(specs, groups, [(), (1,), (3,), (24,)]):
        n = sum(sizes)
        data = Dataset(rng.standard_normal((n, spec.n_in)), rng.integers(0, n_classes, size=n))
        params = 0.5 * rng.standard_normal(lead + (n_params(spec),))
        nll, grads = _backprop(params, spec, data, sizes)
        want_nll, want_grads = reference_backprop(params, spec, data, list(sizes))
        assert nll.shape == want_nll.shape and grads.shape == want_grads.shape
        assert nll.tobytes() == want_nll.tobytes(), (spec, sizes, lead)
        assert grads.tobytes() == want_grads.tobytes(), (spec, sizes, lead)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("lead", [(), (3,), (24,)], ids=["vector", "stack3", "stack24"])
def test_each_forward_layer_is_one_product_with_its_bias_row(lead, activation):
    # each layer of ``_forward`` is ``[h, 1] @ [W; b]``, built here with its
    # own concatenations, bit for bit, and every hidden layer's ones column
    # is exactly 1
    rng = rng_from(len(lead), "one-product", activation)
    for layers in [(2, 16, 4), (3, 9, 7, 5), (2, 64, 64, 10)]:
        spec = MlpSpec(layers, activation)
        params = 0.5 * rng.standard_normal(lead + (n_params(spec),))
        X = rng.standard_normal((40, spec.n_in))
        logits, hs = _forward(_weights(params, spec), spec, Dataset(X, np.zeros(40)).inputs)
        h = X
        for i, (w, b, fan_in, fan_out) in enumerate(layer_slices(spec)):
            wb = np.concatenate([params[..., w].reshape(lead + (fan_in, fan_out)),
                                 params[..., None, b]], axis=-2)
            z = np.concatenate([h, np.ones(h.shape[:-1] + (1,))], axis=-1) @ wb
            if i == len(layers) - 2:
                assert logits.tobytes() == z.tobytes(), (layers, lead)
                break
            h = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
            out = hs[i + 1]
            assert out.shape == lead + (40, fan_out + 1)
            assert out[..., :-1].tobytes() == np.ascontiguousarray(h).tobytes(), (layers, i)
            assert (out[..., -1] == 1.0).all()


@pytest.mark.parametrize("n_classes", range(2, 13))
def test_a_class_major_sum_adds_the_classes_in_order(n_classes):
    # the softmax denominator of ``_backprop`` sums a class-major ``(C, n)``
    # or ``(C, n, J)`` copy over its classes: it adds the class rows one by
    # one, in order, for every class count and every pass shape, one
    # sample and one model (``(C, 1)``, ``(C, 1, 1)``) included; a pairwise
    # sum would give other bits from 8 classes on
    rng = rng_from(n_classes, "class-sum")
    for shape in [(1,), (2,), (16,), (300,), (1, 1), (1, 5), (16, 1), (16, 3), (300, 24)]:
        e = np.exp(8.0 * rng.standard_normal((n_classes,) + shape))
        want = e[0] + e[1]
        for row in e[2:]:
            want += row
        assert _class_sum(e).tobytes() == want.tobytes(), shape


def test_accuracy_reads_the_datasets_one_array(monkeypatch):
    # an evaluation passes ``Dataset.inputs`` as it is: no ones-column copy
    # of the test set is made, and the floats are those of ``predict``
    import mgem.mlp as mlp_mod
    spec = MlpSpec((3, 9, 4))
    rng = rng_from(4, "accuracy-inputs")
    stack = np.stack([init_params(spec, seed) for seed in range(3)])
    stack += 0.5 * rng.standard_normal(stack.shape)
    data = Dataset(rng.standard_normal((41, 3)), rng.integers(0, 4, size=41))
    want = [float(np.mean(predict(row, spec, data.features) == data.labels)) for row in stack]
    assert len(set(want)) > 1

    def no_copy(X):
        raise AssertionError("accuracy copied its dataset")

    monkeypatch.setattr(mlp_mod, "_with_ones", no_copy)
    one = accuracy(stack[1], spec, data)
    assert type(one) is float and one == want[1]
    assert accuracy(stack, spec, data).tolist() == want
    with pytest.raises(ValueError, match=r"features shape \(41, 3\) incompatible with input "
                                         r"size 2"):
        accuracy(init_params(MlpSpec((2, 4)), 0), MlpSpec((2, 4)), data)


def test_cut_datasets_keep_features_and_inputs_together():
    # ``take`` and ``concat`` cut the ones-column inputs with the features
    rng = rng_from(3, "inputs")
    a = Dataset(rng.standard_normal((9, 2)), rng.integers(0, 3, size=9))
    b = Dataset(rng.standard_normal((4, 2)), rng.integers(0, 3, size=4))
    idx = np.array([7, 0, 7, 3])
    cuts = [(a, a.features, a.labels), (a.take(idx), a.features[idx], a.labels[idx]),
            (a.take(slice(2, 6)), a.features[2:6], a.labels[2:6]),
            (Dataset.concat([a.take(idx), b]), np.vstack([a.features[idx], b.features]),
             np.concatenate([a.labels[idx], b.labels]))]
    for data, features, labels in cuts:
        assert np.array_equal(data.features, features) and np.array_equal(data.labels, labels)
        assert np.array_equal(data.inputs, np.hstack([features, np.ones((len(labels), 1))]))


def test_a_dataset_owns_its_samples():
    # a dataset copies its caller's features and labels once: changing the
    # caller's arrays after a pass changes neither the pass nor the accuracy
    spec = MlpSpec((2, 5, 3))
    rng = rng_from(5, "owns")
    X = rng.standard_normal((12, 2))
    y = rng.integers(0, 3, size=12)
    assert X.flags.c_contiguous and X.dtype == np.float64 and y.dtype == np.int64
    params = init_params(spec, seed=1)
    data = Dataset(X, y)
    loss, grad = loss_and_grad(params, spec, data)
    features, inputs, labels = data.features.copy(), data.inputs.copy(), data.labels.copy()
    hits = accuracy(params, spec, data)
    X[0, 0] = 50.0
    X[1:] *= -1.0
    y[:] = (y + 1) % 3
    assert np.array_equal(data.features, features) and np.array_equal(data.inputs, inputs)
    assert np.array_equal(data.labels, labels)
    loss_after, grad_after = loss_and_grad(params, spec, data)
    assert loss_after == loss and grad_after.tobytes() == grad.tobytes()
    assert accuracy(params, spec, data) == hits
    # one array: the features are the inputs without their ones column
    assert np.shares_memory(data.features, data.inputs)
    assert np.all(data.inputs[:, -1] == 1.0)


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("layers", [(2, 16, 4), (3, 9, 7, 5)])
@pytest.mark.parametrize("memory_sizes", [(32,), (16, 16)], ids=["d_data1", "d_data2"])
def test_one_pass_equals_the_separate_passes_bitwise(layers, activation, memory_sizes, traced):
    # the engine's solved or traced step: a 16-row minibatch, the memory
    # splits and, traced, two 120-row training sets in one pass give the
    # rows of the minibatch, memory and trace passes, bit for bit, at any
    # stack height
    spec = MlpSpec(layers, activation)
    rng = rng_from(len(layers), "fused", activation, len(memory_sizes))
    parts = [(16,), memory_sizes, (120, 120)][:3 if traced else 2]
    sets = [Dataset(rng.standard_normal((sum(p), spec.n_in)),
                    rng.integers(0, spec.n_out, size=sum(p))) for p in parts]
    for J in (1, 3, 24):
        params = 0.5 * rng.standard_normal((J, n_params(spec)))
        fused = _backprop(params, spec, Dataset.concat(sets), [k for p in parts for k in p])[1]
        alone = np.concatenate([_backprop(params, spec, d, p)[1] for d, p in zip(sets, parts)],
                               axis=1)
        assert fused.shape == alone.shape == (J, sum(map(len, parts)), n_params(spec))
        assert fused.tobytes() == alone.tobytes(), J
