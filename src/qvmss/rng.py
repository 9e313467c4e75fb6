"""Keyed keystream for the Born bits, and the benchmark's SplitMix64 draws.

A Born measurement here is one fair bit: an X/H/CNOT circuit on a basis
state measures to one of two equally likely branches.  The keystream is the
chunks `shake_128(tag || key || c.to_bytes(8, "little")).digest(CHUNK)`,
c = 0, 1, ..., with `key` the seed mod 2^256 as 32 little-endian bytes: a
keyed pseudorandom function under the sponge bounds.  Its bytes are P4 rows:
pixel (x, y) takes bit 8*y*row_bytes(width) + x, most significant first, and
the padding bits are drawn and discarded.  A bit depends only on its
position, not on banding or chunking.  `BORN_TAG` keys `encrypt` and
`FIXTURE_TAG` the random fixture, so the two share no bit.
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
# Keystream bytes per SHAKE128 call: 8 KiB is 65536 bits.
CHUNK = 1 << 13

# Pixels per band, rounded down to whole image rows (at least one): bounds the
# band scratch.  Bits are keyed by position, so no output depends on it.
BAND_PIXELS = 1 << 16


def _prefix(tag: bytes, seed: int) -> bytes:
    """The keystream's input before the chunk counter: tag, then the 256-bit key."""
    return tag + (seed % (1 << KEY_BITS)).to_bytes(KEY_BITS // 8, "little")


def _chunk(prefix: bytes, index: int, length: int = CHUNK) -> bytes:
    """The first `length` bytes of keystream chunk `index`."""
    return hashlib.shake_128(prefix + index.to_bytes(8, "little")).digest(length)


def row_bytes(width: int) -> int:
    """Bytes per packed P4 row of `width` pixels."""
    return (width + 7) // 8


def last_byte_mask(width: int) -> np.uint8:
    """The pixel bits of a row's last byte; the rest are padding."""
    return np.uint8((0xFF00 >> (1 + (width - 1) % 8)) & 0xFF)


def packed_bands(seed: int, width: int, height: int,
                 tag: bytes = BORN_TAG) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield `(rows, packed)` for every row band, in order: `rows` is the
    band's slice of image rows, about BAND_PIXELS pixels and at least one,
    and `packed` those rows of the `tag` keystream under `seed` (its byte
    y*row_bytes + j is byte j of row y): a read-only view at whole-byte
    widths, else a copy with the padding bits cleared.  Each chunk is hashed
    once: the chunk that a band ends in is carried over to the next band."""
    prefix, stride, band = _prefix(tag, seed), row_bytes(width), max(1, BAND_PIXELS // width)
    total, carried, carry = height * stride, -1, b""
    for y in range(0, height, band):
        rows = slice(y, min(y + band, height))
        start, stop = y * stride, rows.stop * stride
        low, high = start // CHUNK, -(-stop // CHUNK)
        chunks = [carry if c == carried else _chunk(prefix, c, min(CHUNK, total - c * CHUNK))
                  for c in range(low, high)]
        carried, carry = high - 1, chunks[-1]
        packed = np.frombuffer(b"".join(chunks), dtype=np.uint8, count=stop - start,
                               offset=start - low * CHUNK).reshape(-1, stride)
        if width % 8:  # the padding bits were drawn; clear them
            packed = packed.copy()
            packed[:, -1] &= last_byte_mask(width)
        yield rows, packed


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
    """Bit `stream_index` of the Born keystream under `master_seed`, as a
    one-draw stream: pixel (x, y) is stream 8*y*row_bytes + x.

    Streams with the same key always yield the same bit, and drawing from one
    stream never affects another.  A stream holds exactly one bit, because
    each measurement of the scheme takes one; a second draw is refused.
    """

    master_seed: int
    stream_index: int
    _cursor: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if self.stream_index < 0:
            raise ValueError(f"stream index must be a bit position >= 0, got {self.stream_index}")
        self.master_seed %= 1 << KEY_BITS

    def next_bit(self) -> int:
        if self._cursor:
            raise ValueError(f"stream {self.stream_index} holds one bit, and it was drawn")
        self._cursor = 1
        chunk, byte = divmod(self.stream_index // 8, CHUNK)
        data = _chunk(_prefix(BORN_TAG, self.master_seed), chunk, byte + 1)
        return data[byte] >> (7 - self.stream_index % 8) & 1
