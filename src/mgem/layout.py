"""Where each layer's weights and biases live in the flat parameter vector.

A model's parameters, gradients and update directions are plain 1-D float64
arrays of ``n_params(spec)`` entries. Layer ``i`` stores its weight matrix
row-major ``(fan_in, fan_out)``, then its bias, layers in order, so a
per-layer or per-module gradient is a slice of one backward pass.
"""

import functools


@functools.cache
def layer_slices(spec) -> tuple:
    """Per-layer ``(weight slice, bias slice, fan_in, fan_out)`` of an
    ``MlpSpec``; computed once per spec."""
    out = []
    offset = 0
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        w = slice(offset, offset + fan_in * fan_out)
        b = slice(w.stop, w.stop + fan_out)
        out.append((w, b, fan_in, fan_out))
        offset = b.stop
    return tuple(out)


def n_params(spec) -> int:
    """Length of the flat parameter vector of an ``MlpSpec``."""
    return layer_slices(spec)[-1][1].stop
