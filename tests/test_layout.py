import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgem.layout import Block, BlockLayout, ParamVector


def make_layout(sizes):
    return BlockLayout.from_sizes((f"b{i}", s) for i, s in enumerate(sizes))


def test_from_sizes_packs_contiguously():
    layout = make_layout([3, 2, 4])
    assert layout.total_len == 9
    assert layout.names == ("b0", "b1", "b2")
    assert layout.block("b1") == Block("b1", 3, 2)
    assert layout.span("b2") == slice(5, 9)


@pytest.mark.parametrize("blocks,total", [
    ((Block("a", 0, 2), Block("b", 3, 1)), 4),   # gap
    ((Block("a", 0, 2), Block("b", 1, 2)), 3),   # overlap
    ((Block("a", 0, 2), Block("a", 2, 1)), 3),   # duplicate name
    ((Block("a", 0, 2),), 5),                    # wrong total
])
def test_layout_rejects_malformed(blocks, total):
    with pytest.raises(ValueError):
        BlockLayout(blocks, total)


def test_param_vector_rejects_nonfinite():
    layout = make_layout([2])
    with pytest.raises(ValueError):
        ParamVector(np.array([1.0, np.nan]), layout)
    with pytest.raises(ValueError):
        ParamVector(np.array([1.0]), layout)


def test_pythagorean_split():
    layout = make_layout([4, 3])
    v = ParamVector(np.array([1.0, -2.0, 0.5, 3.0, 2.0, -1.0, 0.25]), layout)
    h1, h2 = v.block("b0"), v.block("b1")
    assert np.isclose(v.data @ v.data, h1 @ h1 + h2 @ h2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6),
       st.integers(0, 2**31 - 1))
def test_split_concat_round_trip(sizes, seed):
    layout = make_layout(sizes)
    rng = np.random.default_rng(seed)
    v = ParamVector(rng.standard_normal(layout.total_len), layout)
    views = [v.block(name) for name in layout.names]
    assert np.array_equal(np.concatenate(views), v.data)
    for name, w in zip(layout.names, views):
        assert w.shape == (layout.block(name).length,)
