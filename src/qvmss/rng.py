"""Counter-based deterministic random streams.

Every random decision in the pipeline is keyed by (master_seed, stream_index,
draw counter) through a stateless 64-bit mixing function, so results are
identical no matter how work is scheduled or batched.  One stream per pixel
gives order-independent reproducibility under parallel encoding.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1FE4E5B9
_MIX2 = 0x94D049BB133111EB

# Same constants for the vectorized path; uint64 array arithmetic wraps mod 2^64.
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)
_UNIT_SCALE = 2.0**-53


def _mix(z: int) -> int:
    """SplitMix64 finalizer over Python ints."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def draw_u64(master_seed: int, stream_index: int, cursor: int) -> int:
    """The cursor-th 64-bit draw of stream (master_seed, stream_index)."""
    x = _mix((master_seed + _GOLDEN) & _MASK64)
    x = _mix(x ^ (stream_index & _MASK64))
    return _mix(x ^ (cursor & _MASK64))


def draw_unit(master_seed: int, stream_index: int, cursor: int) -> float:
    """Uniform double in [0, 1) using the top 53 bits of the draw."""
    return (draw_u64(master_seed, stream_index, cursor) >> 11) * _UNIT_SCALE


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _NP_MIX1
    z = (z ^ (z >> np.uint64(27))) * _NP_MIX2
    return z ^ (z >> np.uint64(31))


def u64_array(master_seed: int, stream_indices: np.ndarray, cursor: int) -> np.ndarray:
    """Vectorized draw_u64 over many streams at a fixed cursor."""
    streams = np.ascontiguousarray(stream_indices, dtype=np.uint64)
    # The seed's mix is one value for every stream, so it is computed once.
    x = _mix_array(streams ^ np.uint64(_mix((master_seed + _GOLDEN) & _MASK64)))
    return _mix_array(x ^ np.uint64(cursor & _MASK64))


def unit_array(master_seed: int, stream_indices: np.ndarray, cursor: int) -> np.ndarray:
    """Vectorized draw_unit over many streams at a fixed cursor."""
    return (u64_array(master_seed, stream_indices, cursor) >> np.uint64(11)) * _UNIT_SCALE


@dataclass
class RngStream:
    """One reproducible sample sequence, keyed by (master_seed, stream_index).

    Streams with the same key always yield the same sequence; advancing one
    stream never affects another.
    """

    master_seed: int
    stream_index: int
    _cursor: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        self.master_seed &= _MASK64
        self.stream_index &= _MASK64

    def next_u64(self) -> int:
        value = draw_u64(self.master_seed, self.stream_index, self._cursor)
        self._cursor += 1
        return value

    def next_unit(self) -> float:
        return (self.next_u64() >> 11) * _UNIT_SCALE
