import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mgem.layout import layer_slices, n_params
from mgem.mlp import MlpSpec

# input and hidden widths, then an output width of at least 2
specs = st.builds(lambda sizes, n_out: MlpSpec(tuple(sizes) + (n_out,)),
                  st.lists(st.integers(1, 9), min_size=1, max_size=4), st.integers(2, 9))


def test_from_sizes_packs_contiguously():
    spec = MlpSpec((3, 2, 4))
    assert layer_slices(spec) == (
        (slice(0, 6), slice(6, 8), 3, 2),
        (slice(8, 16), slice(16, 20), 2, 4),
    )
    assert n_params(spec) == 20


def test_pythagorean_split():
    spec = MlpSpec((2, 1, 2))  # blocks of 2, 1, 2, 2 entries
    v = np.array([1.0, -2.0, 0.5, 3.0, 2.0, -1.0, 0.25])
    parts = [v[s] for w, b, _, _ in layer_slices(spec) for s in (w, b)]
    assert np.isclose(v @ v, sum(p @ p for p in parts))


@settings(max_examples=60, deadline=None)
@given(specs, st.integers(0, 2**31 - 1))
def test_split_concat_round_trip(spec, seed):
    """The slices tile ``[0, n)`` in W, b order with lengths fan_in*fan_out
    and fan_out; the views put back together are the vector."""
    layers = layer_slices(spec)
    assert len(layers) == len(spec.layer_sizes) - 1
    cursor = 0
    for i, (w, b, fan_in, fan_out) in enumerate(layers):
        assert (fan_in, fan_out) == spec.layer_sizes[i:i + 2]
        assert (w.start, w.stop, w.step) == (cursor, cursor + fan_in * fan_out, None)
        assert (b.start, b.stop, b.step) == (w.stop, w.stop + fan_out, None)
        cursor = b.stop
    assert cursor == n_params(spec)

    v = np.random.default_rng(seed).standard_normal(n_params(spec))
    views = [v[s] for w, b, _, _ in layers for s in (w, b)]
    assert np.array_equal(np.concatenate(views), v)
