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


def _mix_array(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer over z, in place (uint64 arithmetic wraps mod 2^64);
    tmp is working space of z's shape."""
    for shift, factor in ((30, np.uint64(_MIX1)), (27, np.uint64(_MIX2)), (31, None)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=tmp), out=z)
        if factor is not None:
            np.multiply(z, factor, out=z)


def u64_array(master_seed: int, stream_indices: np.ndarray, cursor: int,
              out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Vectorized draw_u64 over many streams at a fixed cursor, in the uint64
    buffers `out` (may be stream_indices) and `scratch` if given."""
    streams = np.ascontiguousarray(stream_indices, dtype=np.uint64)
    # The seed's mix is one value for every stream, so it is computed once.
    x = np.bitwise_xor(streams, np.uint64(_mix((master_seed + _GOLDEN) & _MASK64)), out=out)
    tmp = np.empty_like(x) if scratch is None else scratch
    _mix_array(x, tmp)
    _mix_array(np.bitwise_xor(x, np.uint64(cursor & _MASK64), out=x), tmp)
    return x


def unit_array(master_seed: int, stream_indices: np.ndarray, cursor: int,
               out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Vectorized draw_unit over many streams at a fixed cursor; given `out`
    (float64) and `scratch` (uint64, may be stream_indices), it allocates nothing."""
    out = np.empty(np.shape(stream_indices)) if out is None else out
    x = u64_array(master_seed, stream_indices, cursor, scratch, out.view(np.uint64))
    # A plain cast needs no buffer; a multiply that mixes uint64 and float64 would.
    np.copyto(out, np.right_shift(x, np.uint64(11), out=x))
    return np.multiply(out, _UNIT_SCALE, out=out)


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
