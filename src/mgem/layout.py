"""Flat parameter vectors with named, contiguous block structure.

A model's parameters (and gradients, and update directions) live in a single
1-D float64 array. A ``BlockLayout`` names contiguous spans of that array so
callers can slice out per-layer or per-module sub-vectors after a single
backward pass, instead of re-deriving gradients per module.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Block:
    name: str
    offset: int
    length: int


@dataclass(frozen=True)
class BlockLayout:
    """Ordered, non-overlapping blocks covering ``[0, total_len)`` exactly."""

    blocks: tuple
    total_len: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("layout needs at least one block")
        names = set()
        cursor = 0
        for b in self.blocks:
            if b.name in names:
                raise ValueError(f"duplicate block name {b.name!r}")
            names.add(b.name)
            if b.length < 1:
                raise ValueError(f"block {b.name!r} has non-positive length")
            if b.offset != cursor:
                raise ValueError(
                    f"block {b.name!r} at offset {b.offset}, expected {cursor}: "
                    "blocks must be contiguous and ordered"
                )
            cursor += b.length
        if cursor != self.total_len:
            raise ValueError(f"blocks cover [0, {cursor}), total_len is {self.total_len}")

    @classmethod
    def from_sizes(cls, named_sizes) -> "BlockLayout":
        """Build a layout from ``(name, length)`` pairs, packed in order."""
        blocks = []
        offset = 0
        for name, length in named_sizes:
            blocks.append(Block(name, offset, int(length)))
            offset += int(length)
        return cls(tuple(blocks), offset)

    @property
    def names(self) -> tuple:
        return tuple(b.name for b in self.blocks)

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)

    def span(self, name: str) -> slice:
        b = self.block(name)
        return slice(b.offset, b.offset + b.length)


@dataclass(eq=False)
class ParamVector:
    """A float64 vector tied to a BlockLayout; entries are checked finite on
    construction (``unchecked`` skips the check)."""

    data: np.ndarray
    layout: BlockLayout

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 1:
            raise ValueError("parameter data must be 1-D")
        if self.data.shape[0] != self.layout.total_len:
            raise ValueError(
                f"data length {self.data.shape[0]} != layout total {self.layout.total_len}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("parameter data contains NaN or Inf")

    @classmethod
    def unchecked(cls, data: np.ndarray, layout: BlockLayout) -> "ParamVector":
        """Wrap a 1-D float64 array of ``layout.total_len`` entries without
        the finiteness scan, for vectors computed from checked parameters
        and data (gradients); the training loop checks the parameters
        once per step instead."""
        out = object.__new__(cls)
        out.data, out.layout = data, layout
        return out

    def copy(self) -> "ParamVector":
        return ParamVector(self.data.copy(), self.layout)

    def block(self, name: str) -> np.ndarray:
        """View of one named block (shares memory)."""
        return self.data[self.layout.span(name)]

