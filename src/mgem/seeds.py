"""Deterministic RNG derivation.

Every random draw in the package flows from a single 64-bit root seed.
Subsystems derive their own independent generator from ``(seed, *tags)``,
so e.g. batch sampling for task 3 and memory selection for task 3 never
share a stream and each is reproducible in isolation. A spec that holds a
seed checks it with ``check_seed``, and its count fields with
``integer_fields``.
"""

import hashlib
import operator

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def as_integer(name: str, value) -> int:
    """``value`` as the int ``operator.index`` makes of it, so a Python or
    numpy integer stays that number; anything else, e.g. 2.5 or 2.0, raises
    ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def integer_fields(obj, *names):
    """Set each field of ``names`` of the frozen dataclass ``obj`` to its
    ``as_integer``."""
    for name in names:
        object.__setattr__(obj, name, as_integer(name, getattr(obj, name)))


def check_seed(seed: int):
    """Raise ValueError unless ``seed`` lies in [0, 2**64): a seed outside
    it would draw the streams of ``seed mod 2**64``."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def _tag_word(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    digest = hashlib.blake2s(str(tag).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def rng_from(seed: int, *tags) -> np.random.Generator:
    """Generator for the stream named by ``(seed, *tags)``.

    Tags may be ints or strings; identical arguments always yield an
    identical stream, on any platform.
    """
    entropy = [int(seed) & _MASK64] + [_tag_word(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *tags) -> int:
    """Collapse ``(seed, *tags)`` into a single 64-bit child seed."""
    h = hashlib.blake2s(digest_size=8)
    h.update((int(seed) & _MASK64).to_bytes(8, "little"))
    for t in tags:
        h.update(_tag_word(t).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")
