"""Counter-based deterministic random streams.

Every random decision in the pipeline is keyed by (master_seed, stream_index,
draw counter) through a stateless 64-bit mixing function, so results are
identical no matter how work is scheduled or batched.  One stream per pixel
gives order-independent reproducibility under parallel encoding.  The mixer
is SplitMix64's finalizer, not a keyed PRF: the seed yields every draw.

A Born measurement here is one fair bit: an X/H/CNOT circuit on a basis
state measures to one of two equally likely branches.  The bit is the top bit
of the measurement's 64-bit draw, and only this module knows that rule:
`bit_bands` yields it for whole images, `RngStream.next_bit` for one pixel.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1FE4E5B9
_MIX2 = 0x94D049BB133111EB
_TOP_BIT = np.uint64(1 << 63)

# Pixels per band, rounded down to whole image rows (at least one): bounds the
# draw buffers, and a band is the unit of thread work in `scheme.encrypt`.
# Draws are keyed by pixel, so no output depends on it.
BAND_PIXELS = 1 << 16


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


def _mix_array(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer over z, in place (uint64 arithmetic wraps mod 2^64);
    tmp is working space of z's shape."""
    for shift, factor in ((30, np.uint64(_MIX1)), (27, np.uint64(_MIX2)), (31, None)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=tmp), out=z)
        if factor is not None:
            np.multiply(z, factor, out=z)


def unit_array(master_seed: int, stream_indices: np.ndarray, cursor: int,
               out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """The uint64 draws draw_u64(master_seed, p, cursor) of many streams p at a
    fixed cursor.  Given `out` and `scratch` (uint64, of the streams' shape;
    scratch may be stream_indices), it allocates nothing."""
    streams = np.ascontiguousarray(stream_indices, dtype=np.uint64)
    # The seed's mix is one value for every stream, so it is computed once.
    x = np.bitwise_xor(streams, np.uint64(_mix((master_seed + _GOLDEN) & _MASK64)), out=out)
    tmp = np.empty_like(x) if scratch is None else scratch
    _mix_array(x, tmp)
    if cursor & _MASK64:  # x ^ 0 is x
        np.bitwise_xor(x, np.uint64(cursor & _MASK64), out=x)
    _mix_array(x, tmp)
    return x


def band_rows(width: int) -> int:
    """Image rows per band: about BAND_PIXELS pixels, and at least one row."""
    return max(1, BAND_PIXELS // width)


def bit_bands(master_seed: int, width: int, height: int, starts: Iterable[int] | None = None,
              first_stream: int = 0) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield `(rows, bits)` for the row bands that begin at `starts` (default:
    every band, in order): `rows` is the band's slice of image rows, and
    `bits` holds the fair bits of its pixels, row-major as bools: pixel (x, y)
    takes the top bit of its unit_array draw from stream
    first_stream + y*width + x, cursor 0.  The buffers are allocated once per
    call and reused, so `bits` is valid only until the next band."""
    band = band_rows(width)
    offsets = np.arange(min(band, height) * width, dtype=np.uint64)
    offsets += np.uint64(first_stream)
    streams, draws = np.empty_like(offsets), np.empty_like(offsets)
    bits = np.empty(offsets.size, dtype=bool)
    for y in range(0, height, band) if starts is None else starts:
        rows = slice(y, min(y + band, height))
        m = (rows.stop - y) * width
        band_streams = np.add(offsets[:m], np.uint64(y * width), out=streams[:m])
        band_draws = unit_array(master_seed, band_streams, 0, out=draws[:m], scratch=band_streams)
        yield rows, np.greater_equal(band_draws, _TOP_BIT, out=bits[:m])


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

    def next_bit(self) -> int:
        return self.next_u64() >> 63
