"""Small dense MLP with manual backpropagation on flat parameter vectors.

Loss is mean softmax cross-entropy over the dataset, so gradients are
invariant to batch size. ``group_grads`` returns the gradients of several
contiguous row groups from one forward/backward pass; ``loss_and_grad`` is
its one-group case. Parameters and gradients are 1-D float64 arrays laid
out by ``layout.layer_slices``. The pass behind both, ``_backprop``, also
takes a ``(J, P)`` stack of parameter vectors over the same rows, which is
how the engine trains jobs in lockstep; ``predict`` and ``accuracy`` take a
stack too.

The forward pass gives each layer's input a trailing column of ones. A
layer's ``W`` and ``b`` are adjacent in the flat vector, so one matrix
product of that input with a group's output deltas writes both the weight
and the bias gradient, and no per-row reduction is left for the bias.
The ones column adds a group's delta rows in row order, as a column sum
does, so the gradients are the same floats. The softmax runs class-major,
on one transposed copy of the logits, for every class count, and adds its
denominator class by class, in order.
Consecutive groups of one size share one stacked weight-gradient product
per layer, which gives each group the floats it gets alone. So the
engine's one pass per step, over a minibatch and, where the step needs
them, the memory splits and the training sets, gives each group the row of
its own pass wherever the layers' products give the same bits at every row
count (see ``engine.run_group``).
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .layout import layer_slices, n_params
from .seeds import as_integer, rng_from

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input, hidden..., output) and hidden activation."""

    layer_sizes: tuple
    activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(as_integer("layer size", s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if self.layer_sizes[-1] < 2:
            raise ValueError("output size must be >= 2")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]


@dataclass(eq=False)
class Dataset:
    """Feature matrix ``(n_samples, n_features)`` with integer labels;
    read-only once made."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # a NaN or huge label fails the check below
            self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        if not np.array_equal(self.labels, labels):
            raise ValueError("labels must be integers")
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-D, labels 1-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.features.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain NaN or Inf")
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @functools.cached_property
    def inputs(self) -> np.ndarray:
        """``features`` with a trailing column of ones, the first layer's
        input in a gradient pass (``_forward``); made once, and cut with
        the features by ``take`` and ``concat``."""
        return _with_ones(self.features)

    @classmethod
    def _from_checked(cls, inputs: np.ndarray, labels: np.ndarray) -> "Dataset":
        """Wrap ``inputs`` and labels cut from checked datasets without
        re-checking values; ``features`` is a view of ``inputs``."""
        if inputs.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        out = object.__new__(cls)
        out.features, out.labels, out.inputs = inputs[:, :-1], labels, inputs
        return out

    def take(self, idx) -> "Dataset":
        return Dataset._from_checked(self.inputs[idx], self.labels[idx])

    @classmethod
    def concat(cls, parts) -> "Dataset":
        """Rows of ``parts`` stacked in order, e.g. for one ``group_grads`` pass."""
        return cls._from_checked(np.concatenate([p.inputs for p in parts]),
                                 np.concatenate([p.labels for p in parts]))


def _with_ones(X: np.ndarray) -> np.ndarray:
    """``X (n, f)`` with a trailing column of ones."""
    n, f = X.shape
    out = np.empty((n, f + 1))
    out[:, :f] = X
    out[:, f] = 1.0
    return out


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """Xavier-uniform weights, zero biases; deterministic per seed."""
    rng = rng_from(seed, "init")
    params = np.zeros(n_params(spec))
    for w, _, fan_in, fan_out in layer_slices(spec):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        params[w] = rng.uniform(-s, s, size=fan_in * fan_out)
        # biases stay zero
    return params


def _weights(params: np.ndarray, spec: MlpSpec):
    """Per-layer ``(W, b)`` views into a flat vector ``(P,)`` or a stack of
    them ``(J, P)``; a stack gives ``W`` of shape ``(J, fan_in, fan_out)``
    and ``b`` of shape ``(J, 1, fan_out)``, which broadcast over samples.
    A hidden layer's ``b`` runs one entry on, into the next layer's ``W``
    (``fan_out + 1`` entries), so that it spans the next layer's input with
    its ones column (``_forward``)."""
    layers = layer_slices(spec)
    shape = np.shape(params)
    if len(shape) not in (1, 2) or shape[-1] != layers[-1][1].stop:
        raise ValueError(f"parameter vector of shape {shape} does not fit {spec}")
    lead = shape[:-1]
    return [(params[..., w].reshape(lead + (fan_in, fan_out)),
             params[..., None, b.start:b.stop + (i < len(layers) - 1)])
            for i, (w, b, fan_in, fan_out) in enumerate(layers)]


def _check_features(spec: MlpSpec, features: np.ndarray):
    if features.ndim != 2 or features.shape[1] != spec.n_in:
        raise ValueError(
            f"features shape {features.shape} incompatible with input size {spec.n_in}"
        )


def check_data(spec: MlpSpec, data: Dataset):
    """Raise ValueError unless ``spec`` takes the features of ``data`` and
    has an output for each of its labels."""
    _check_features(spec, data.features)
    if data.labels.max() >= spec.n_out:
        raise ValueError(f"label out of range for {spec.n_out} classes")


def _forward(weights, spec: MlpSpec, X1: np.ndarray):
    """Logits plus each layer's input, which is all backprop needs: the
    activation derivative is read off the activation's output.

    Each input carries a trailing column of ones (``X1`` is the features
    with it, ``Dataset.inputs``), so the weight-gradient product of
    ``_backprop`` also gives the bias gradient. A forward product reads the
    other columns, and ``b`` is added after it, as a separate step. A
    hidden layer's ``b`` also adds an entry to the ones column
    (``_weights``), which is set to 1 after the activation."""
    n = X1.shape[0]
    hs = [X1]
    x = X1[:, :-1]  # the input without its ones column
    for W, b in weights[:-1]:
        fan_out = W.shape[-1]
        h = np.empty(W.shape[:-2] + (n, fan_out + 1))
        ones = h[..., fan_out]
        ones.fill(0.0)  # np.empty leaves it unset; the bias add lands on it
        x = np.matmul(x, W, out=h[..., :fan_out])
        h += b
        if spec.activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
        ones.fill(1.0)
        hs.append(h)
    W, b = weights[-1]
    logits = x @ W
    logits += b
    return logits, hs


def predict(params: np.ndarray, spec: MlpSpec, features) -> np.ndarray:
    """Argmax class per sample; ties break to the lowest class index. A
    ``(J, P)`` stack of parameter vectors gives a ``(J, n)`` array."""
    X = np.asarray(features, dtype=np.float64)
    _check_features(spec, X)
    logits, _ = _forward(_weights(params, spec), spec, _with_ones(X))
    return np.argmax(logits, axis=-1).astype(np.int64)


def accuracy(params: np.ndarray, spec: MlpSpec, data: Dataset):
    """Fraction of ``data`` classified right: a float for one parameter
    vector, a ``(J,)`` array for a ``(J, P)`` stack, each entry the float
    its row gives alone."""
    hits = np.mean(predict(params, spec, data.features) == data.labels, axis=-1)
    return float(hits) if hits.ndim == 0 else hits


def _backprop(params: np.ndarray, spec: MlpSpec, data: Dataset, sizes):
    """Per-sample losses and the mean-loss gradient of each row group, for
    one parameter vector ``(P,)`` or a stack of them ``(J, P)``.

    The rows of ``data`` form contiguous groups of ``sizes`` rows. One
    forward and one backward pass serve every group: ``delta`` is scaled
    by each row's own group size, so a group's weight and bias gradient is
    the segment product ``[h_g, 1]^T delta_g`` (the per-example-gradient
    trick, without materialising a gradient per sample). A layer stores
    ``W`` row-major and then ``b``, so ``[g_W; g_b]`` is one
    ``(fan_in + 1, fan_out)`` block of a gradient row, and one
    ``np.matmul`` per layer writes both: the ones column of each layer
    input (``_forward``) makes the last row the column sum of ``delta_g``,
    added in row order as ``delta_g.sum(axis=0)`` adds it. Each run of
    consecutive groups of one size is one stacked product, whose items are
    the groups of the run: a stacked ``np.matmul`` computes each item as
    the product of that item alone would, so a group's row does not depend
    on its neighbours. A stack puts models on a leading axis the same way:
    every stack member sees the same rows, and each member's slice is the
    unstacked product.

    The softmax and its delta are taken on one class-major copy of the
    logits, ``(C, n)`` or ``(C, n, J)`` (``.T``), transposed back once:
    every step is an elementwise pass over whole class rows, and the
    denominator ``.sum(axis=0)`` adds the class rows one by one, in order.
    The one exception is numpy's: a pass of one sample and one parameter
    vector reduces to a single row of C entries, which numpy sums pairwise
    from 8 entries on.

    Returns ``(nll, grads)``: ``nll`` of shape ``(n,)`` or ``(J, n)``,
    ``grads`` of shape ``(G, P)`` or ``(J, G, P)`` for ``G = len(sizes)``.
    """
    check_data(spec, data)
    y = data.labels
    n = y.shape[0]
    sizes = [int(k) for k in sizes]
    if not sizes or min(sizes) < 1 or sum(sizes) != n:
        raise ValueError(f"group sizes {sizes} do not split {n} samples")

    lead = params.shape[:-1]
    logits, hs = _forward(_weights(params, spec), spec, data.inputs)
    n_groups = len(sizes)
    # (first group, rows, group size, group count) of each run of
    # consecutive equal-size groups: one stacked product per run and layer
    runs, j, lo = [], 0, 0
    for size, run in itertools.groupby(sizes):
        count = len(list(run))
        runs.append((j, slice(lo, lo + size * count), size, count))
        j, lo = j + count, lo + size * count
    samples = np.arange(n)
    # Class-major: (C, n) or (C, n, J), the transpose of the logits, so
    # every step is an elementwise pass over whole class rows, not one
    # inner loop of C entries per sample. A maximum is exact in any order.
    s = logits.T.copy()
    s -= s.max(axis=0)
    e = np.exp(s)
    s -= np.log(e.sum(axis=0))  # log p
    nll = -s[y, samples].T
    delta = np.exp(s, out=e)
    delta[y, samples] -= 1.0
    for _, rows, size, _ in runs:
        delta[:, rows] /= size
    delta = delta.T.copy()

    grads = np.empty(lead + (n_groups, params.shape[-1]))
    for i, (w, b, fan_in, fan_out) in reversed(list(enumerate(layer_slices(spec)))):
        h = hs[i]  # (n, fan_in + 1) for the shared input, else lead + (n, fan_in + 1)
        # one contiguous run per gradient row and per parameter vector, so
        # these are views: [g_W; g_b] and [W; b]
        g = grads[..., w.start:b.stop].reshape(lead + (n_groups, fan_in + 1, fan_out))
        for j, rows, size, count in runs:
            d = delta[..., rows, :].reshape(lead + (count, size, fan_out))
            hg = h[..., rows, :].reshape(h.shape[:-2] + (count, size, fan_in + 1))
            np.matmul(hg.swapaxes(-1, -2), d, out=g[..., j:j + count, :, :])
        if i > 0:
            # delta for each input column, the ones column's too, from
            # [W; b]; that one is scaled by 1, never by 0 (an overflow
            # there cannot raise), and then dropped
            wb = params[..., w.start:b.stop].reshape(lead + (fan_in + 1, fan_out))
            delta = delta @ wb.swapaxes(-1, -2)
            if spec.activation == "relu":
                delta *= h > 0.0
            else:
                h[..., -1] = 0.0
                delta *= 1.0 - h ** 2
            delta = delta[..., :-1]
    return nll, grads


def group_grads(params: np.ndarray, spec: MlpSpec, data: Dataset, sizes) -> np.ndarray:
    """Mean-loss gradients of contiguous row groups, one row per group.

    ``sizes`` lists the group lengths in row order and must sum to
    ``data.n_samples``. Row ``g`` equals the gradient ``loss_and_grad``
    returns for group ``g`` alone, up to floating-point summation order.
    """
    return _backprop(params, spec, data, sizes)[1]


def loss_and_grad(params: np.ndarray, spec: MlpSpec, data: Dataset):
    """Mean softmax cross-entropy and its gradient, in one backward pass.

    Returns ``(loss, grad)`` with ``grad`` laid out like ``params``. The
    gradient is the mean over samples, so duplicating the dataset leaves it
    unchanged.
    """
    nll, grads = _backprop(params, spec, data, (data.n_samples,))
    return float(nll.mean()), grads[0]


def fd_gradient(params: np.ndarray, spec: MlpSpec, data: Dataset, h: float = 1e-6) -> np.ndarray:
    """Central-difference loss gradient; the independent oracle for backprop.
    Perturbs ``params`` in place and restores every entry."""
    g = np.empty_like(params)
    for i in range(params.size):
        old = params[i]
        params[i] = old + h
        lp, _ = loss_and_grad(params, spec, data)
        params[i] = old - h
        lm, _ = loss_and_grad(params, spec, data)
        params[i] = old
        g[i] = (lp - lm) / (2.0 * h)
    return g
