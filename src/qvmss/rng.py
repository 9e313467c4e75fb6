"""Keyed keystream for the Born bits, and the benchmark's SplitMix64 draws.

A Born measurement here is one fair bit: an X/H/CNOT circuit on a basis
state measures to one of two equally likely branches.  Pixel p's bit is bit
p, most significant first, of one keystream: the concatenated fixed-size
chunks `shake_128(tag || key || c.to_bytes(8, "little")).digest(CHUNK)`,
c = 0, 1, ..., where `key` is the seed mod 2^256 as 32 little-endian bytes.
With the key as prefix, SHAKE128 is a keyed pseudorandom function under the
sponge bounds.  A bit depends only on its pixel index, so results are
identical no matter how work is banded or chunked.
`BORN_TAG` keys `encrypt`, and the random fixture draws under `FIXTURE_TAG`,
so the two never share a bit.  `_pixel_rows` alone maps pixels to keystream
bytes: for whole images in `packed_bands`, one pixel in `RngStream.next_bit`.
"""
from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1FE4E5B9
_MIX2 = 0x94D049BB133111EB

# Seeds are keys of this many bits; larger and negative seeds are reduced mod 2^KEY_BITS.
KEY_BITS = 256
# Domain tags, of one fixed length, so tag || key || counter parses one way.
BORN_TAG = b"qvmss.born.bit\0\0"
FIXTURE_TAG = b"qvmss.fixture\0\0\0"
# Keystream bytes per SHAKE128 call: 8 KiB is 65536 pixels.
CHUNK = 1 << 13

# Pixels per band, rounded down to whole image rows (at least one): bounds the
# band scratch.  Bits are keyed by pixel, so no output depends on it.
BAND_PIXELS = 1 << 16


def _prefix(tag: bytes, seed: int) -> bytes:
    """The keystream's input before the chunk counter: tag, then the 256-bit key."""
    return tag + (seed % (1 << KEY_BITS)).to_bytes(KEY_BITS // 8, "little")


def _chunk(prefix: bytes, index: int, length: int = CHUNK) -> bytes:
    """The first `length` bytes of keystream chunk `index`."""
    return hashlib.shake_128(prefix + index.to_bytes(8, "little")).digest(length)


def _pixel_rows(prefix: bytes, first: int, width: int, rows: int) -> np.ndarray:
    """Keystream bits first .. first + rows*width - 1 as `(rows, (width + 7) // 8)`
    packed P4 rows, padding bits 0: pixel first + k takes bit first + k."""
    start, stop = first // 8, -(-(first + rows * width) // 8)  # the bytes holding the bits
    low, high = start // CHUNK, (stop - 1) // CHUNK
    data = b"".join(_chunk(prefix, c, min(CHUNK, stop - c * CHUNK)) for c in range(low, high + 1))
    raw = np.frombuffer(data, dtype=np.uint8, offset=start - low * CHUNK)
    if width % 8 == 0:  # whole bytes per row, so rows start at byte edges
        return raw.reshape(rows, width // 8)
    bits = np.unpackbits(raw)[first % 8 : first % 8 + rows * width]
    return np.packbits(bits.reshape(rows, width), axis=1)


def packed_bands(seed: int, width: int, height: int,
                 tag: bytes = BORN_TAG) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield `(rows, packed)` for every row band, in order: `rows` is the
    band's slice of image rows, about BAND_PIXELS pixels and at least one
    row, and `packed` holds its pixels' keystream bits as read-only packed
    P4 rows: pixel (x, y) takes bit y*width + x of the `tag` keystream under
    `seed`."""
    prefix, band = _prefix(tag, seed), max(1, BAND_PIXELS // width)
    for y in range(0, height, band):
        rows = slice(y, min(y + band, height))
        yield rows, _pixel_rows(prefix, y * width, width, rows.stop - y)


def _mix(z: int) -> int:
    """SplitMix64 finalizer over Python ints."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer over z, in place (uint64 arithmetic wraps mod 2^64);
    tmp is working space of z's shape."""
    for shift, factor in ((30, np.uint64(_MIX1)), (27, np.uint64(_MIX2)), (31, None)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=tmp), out=z)
        if factor is not None:
            np.multiply(z, factor, out=z)


def unit_array(master_seed: int, stream_indices: np.ndarray, cursor: int,
               out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 draws: for each stream p, mix(mix(mix(seed + golden) ^ p) ^ cursor)
    over uint64 (seed, p and cursor taken mod 2^64).  Given `out` and `scratch`
    (uint64, of the streams' shape; scratch may be stream_indices), it
    allocates nothing.

    No Born bit comes from here.  Only the benchmark calls it, as its floor
    (`bench/run.py` `_time_floor`) and as a traced span (`bench/spans.py`).
    """
    streams = np.ascontiguousarray(stream_indices, dtype=np.uint64)
    # The seed's mix is one value for every stream, so it is computed once.
    x = np.bitwise_xor(streams, np.uint64(_mix((master_seed + _GOLDEN) & _MASK64)), out=out)
    tmp = np.empty_like(x) if scratch is None else scratch
    _mix_array(x, tmp)
    if cursor & _MASK64:  # x ^ 0 is x
        np.bitwise_xor(x, np.uint64(cursor & _MASK64), out=x)
    _mix_array(x, tmp)
    return x


@dataclass
class RngStream:
    """Pixel `stream_index`'s Born bit under `master_seed`, as a one-draw stream.

    Streams with the same key always yield the same bit, and drawing from one
    stream never affects another.  A stream holds exactly one bit, because
    each measurement of the scheme takes one; a second draw is refused.
    """

    master_seed: int
    stream_index: int
    _cursor: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        self.master_seed %= 1 << KEY_BITS

    def next_bit(self) -> int:
        if self._cursor:
            raise ValueError(f"stream {self.stream_index} holds one bit, and it was drawn")
        self._cursor = 1
        prefix = _prefix(BORN_TAG, self.master_seed)
        return int(_pixel_rows(prefix, self.stream_index, 1, 1)[0, 0]) >> 7
