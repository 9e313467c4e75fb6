"""Keyed keystream for the Born bits, and the benchmark's SplitMix64 draws.

A Born measurement here is one fair bit: an X/H/CNOT circuit on a basis
state measures to one of two equally likely branches.  The keystream is the
chunks `shake_128(tag || key || c.to_bytes(8, "little")).digest(CHUNK)`,
c = 0, 1, ..., with `key` the seed mod 2^256 as 32 little-endian bytes: a
keyed pseudorandom function under the sponge bounds.  Its bytes are P4 rows:
pixel (x, y) takes bit 8*y*row_bytes(width) + x, most significant first, and
the padding bits are drawn and discarded.  A bit depends only on its
position, so `keystream_into` may draw any byte range, in any pieces.
`BORN_TAG` keys `encrypt` and `FIXTURE_TAG` the random fixture, so the two
share no bit.
"""
from __future__ import annotations

import hashlib
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


def _prefix(tag: bytes, seed: int) -> bytes:
    """The keystream's input before the chunk counter: tag, then the 256-bit key."""
    return tag + (seed % (1 << KEY_BITS)).to_bytes(KEY_BITS // 8, "little")


def _chunk(prefix: bytes, index: int, length: int) -> bytes:
    """The first `length` bytes of keystream chunk `index`."""
    return hashlib.shake_128(prefix + index.to_bytes(8, "little")).digest(length)


def keystream_into(out, seed: int, start: int = 0, tag: bytes = BORN_TAG) -> None:
    """Fill `out` with bytes `start .. start + size` of the `tag` keystream
    under `seed`, where size is `out`'s length in bytes.

    `out` is any writable C-contiguous buffer: a flat uint8 array, a
    bytearray, a whole numpy plane.  Each chunk the range overlaps is
    hashed once, and only up to the last byte the range needs from it.
    """
    if start < 0:
        raise ValueError(f"keystream start must be a byte position >= 0, got {start}")
    view = memoryview(out).cast("B")
    prefix, stop = _prefix(tag, seed), start + len(view)
    if stop == start:
        return  # else the chunk that start is inside would be hashed for nothing
    for index in range(start // CHUNK, -(-stop // CHUNK)):
        base = index * CHUNK
        low, high = max(start, base), min(stop, base + CHUNK)
        # No name holds the chunk, so it is freed before the next is hashed.
        view[low - start:high - start] = memoryview(
            _chunk(prefix, index, high - base))[low - base:]


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


def unit_array(master_seed: int, stream_indices: np.ndarray, cursor: int) -> np.ndarray:
    """SplitMix64 draws: for each stream p, mix(mix(mix(seed + golden) ^ p) ^ cursor)
    over uint64 (seed, p and cursor taken mod 2^64).

    No Born bit comes from here.  Only the benchmark calls it, as its floor
    (`bench/run.py` `_time_floor`) and as a traced span (`bench/spans.py`).
    """
    streams = np.ascontiguousarray(stream_indices, dtype=np.uint64)
    # The seed's mix is one value for every stream, so it is computed once.
    x = np.bitwise_xor(streams, np.uint64(_mix((master_seed + _GOLDEN) & _MASK64)))
    tmp = np.empty_like(x)
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
        byte = bytearray(1)
        keystream_into(byte, self.master_seed, start=self.stream_index // 8)
        return byte[0] >> (7 - self.stream_index % 8) & 1
