import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvmss import rng
from qvmss.imaging import BinaryImage, last_byte_mask
from qvmss.rng import RngStream, keystream_into, unit_array
from qvmss.scheme import encrypt

u64s = st.integers(min_value=0, max_value=(1 << 64) - 1)
MASK64 = (1 << 64) - 1


def keystream_bytes(tag, seed, count):
    """The first `count` bytes of the keystream, from hashlib and the documented layout."""
    key = (seed % 2**256).to_bytes(32, "little")
    data = b"".join(hashlib.shake_128(tag + key + c.to_bytes(8, "little")).digest(8192)
                    for c in range(-(-count // 8192)))
    return np.frombuffer(data, dtype=np.uint8, count=count)


def keystream_bits(tag, seed, count):
    """The first `count` bits of the keystream, most significant first."""
    return np.unpackbits(keystream_bytes(tag, seed, -(-count // 8)))[:count]


def keystream_rows(tag, seed, width, height):
    """The keystream as `(height, row_bytes)` P4 rows: byte y*row_bytes + j is
    byte j of row y, and each row's padding bits are cleared."""
    row_bytes = (width + 7) // 8
    rows = keystream_bytes(tag, seed, height * row_bytes).reshape(height, row_bytes).copy()
    rows[:, -1] &= 0xFF << (8 * row_bytes - width) & 0xFF
    return rows


def splitmix64(seed, stream, cursor):
    """SplitMix64's draw of stream `stream` at `cursor`, over Python ints."""
    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1FE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)
    x = mix((seed + 0x9E3779B97F4A7C15) & MASK64)
    return mix(mix(x ^ (stream & MASK64)) ^ (cursor & MASK64))


def test_same_key_same_sequence():
    for stream in (0, 456, 65536, 1 << 30):
        assert RngStream(123, stream).next_bit() == RngStream(123, stream).next_bit()


def test_streams_are_independent_of_draw_order():
    first = RngStream(9, 1).next_bit()
    for stream in range(2, 100):  # drawing other streams must not perturb stream 1
        RngStream(9, stream).next_bit()
    assert RngStream(9, 1).next_bit() == first


def test_distinct_streams_differ():
    bits = [RngStream(7, stream).next_bit() for stream in range(1000)]
    assert 400 < sum(bits) < 600
    assert bits != [RngStream(8, stream).next_bit() for stream in range(1000)]


def test_a_stream_holds_one_bit():
    stream = RngStream(3, 4)
    stream.next_bit()
    with pytest.raises(ValueError, match="holds one bit"):
        stream.next_bit()


def test_next_bit_is_the_engines_pixel_bit():
    # 300 is a width that is not a multiple of 8: rows are 38 bytes, so pixel
    # (x, y) is stream 304*y + x.  (99, 217) and (100, 218) straddle a row
    # edge, and (175, 215) and (176, 215) the keystream's first chunk edge.
    seed = 2**200 + 5
    blank = BinaryImage(300, 300, np.zeros(300 * 300, dtype=np.uint8))
    u = encrypt([blank], seed).unishare.as_grid()
    for x, y in ((0, 0), (1, 0), (7, 0), (8, 0), (299, 0), (0, 1), (99, 217), (100, 218),
                 (175, 215), (176, 215), (177, 215), (299, 299)):
        assert RngStream(seed, 304 * y + x).next_bit() == u[y, x], (x, y)


@pytest.mark.parametrize("width, height", [(37, 4000), (300, 500), (70001, 3)])
def test_unishare_of_a_blank_secret_is_the_keystream_in_p4_rows(width, height):
    # The expected rows come from hashlib alone, and each case spans three chunks or more.
    seed, row_bytes = 2**255 + 11, (width + 7) // 8
    want = keystream_rows(b"qvmss.born.bit\0\0", seed, width, height)
    blank = BinaryImage(width, height, np.zeros(width * height, dtype=np.uint8))
    unishare = encrypt([blank], seed).unishare
    assert np.array_equal(unishare.rows, want)
    # The bits on both sides of the first two chunk edges, at bytes 8192 and 16384.
    grid = unishare.as_grid()
    for edge in (8 * 8192, 16 * 8192):
        for bit in (edge - 1, edge):
            y, x = divmod(bit, 8 * row_bytes)
            assert x < width  # a pixel, not a padding bit
            assert RngStream(seed, 8 * y * row_bytes + x).next_bit() == grid[y, x], (x, y)


@settings(max_examples=50)
@given(seed=st.integers(min_value=-(1 << 300), max_value=1 << 300),
       stream=st.integers(min_value=0, max_value=3 * 65536))
@example(seed=0, stream=65535)
@example(seed=0, stream=65536)
def test_scalar_matches_stateful_stream(seed, stream):
    want = keystream_bits(rng.BORN_TAG, seed, stream + 1)[stream]
    assert RngStream(seed, stream).next_bit() == want


@pytest.mark.parametrize("tag", [rng.BORN_TAG, rng.FIXTURE_TAG], ids=["born", "fixture"])
@pytest.mark.parametrize("width, height", [
    (37, 29), (8, 9000), (1000, 1048), (70001, 3), (1, 70000), (4096, 33),
])
@pytest.mark.parametrize("band_pixels", [8, 64, 65536, 1 << 20])
def test_packed_bands_are_the_keystream_in_p4_rows(tag, width, height, band_pixels):
    # The packed rows are drawn a band at a time, each band of whole rows (at
    # most `band_pixels` pixels, one row at least) at its own start: a band
    # may begin or end inside a chunk, and 1 MiB covers most images at once.
    want = keystream_rows(tag, 99, width, height)
    got = np.empty_like(want)
    band = max(1, band_pixels // width)
    for y in range(0, height, band):
        keystream_into(got[y:y + band], 99, start=y * got.shape[1], tag=tag)
    got[:, -1] &= last_byte_mask(width)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("start, count", [
    (100, 1000),  # inside the first chunk
    (3 * 8192 + 5, 1),  # one byte inside the fourth chunk
    (8192 - 7, 20),  # across the first chunk edge
    (2 * 8192 - 1, 8192 + 2),  # across two chunk edges
    (8192, 8192),  # exactly the second chunk
], ids=["inside", "one_byte", "across_one_edge", "across_two_edges", "whole_chunk"])
def test_keystream_into_is_the_hashlib_keystream(start, count):
    want = keystream_bytes(rng.BORN_TAG, 2**256 + 3, start + count)[start:]
    got = bytearray(count)
    keystream_into(got, 2**256 + 3, start=start)
    assert bytes(got) == want.tobytes()


def test_keystream_into_an_empty_buffer_hashes_nothing(monkeypatch):
    monkeypatch.setattr(rng, "_chunk", lambda *args: pytest.fail("hashed a chunk"))
    for start in (0, 5, 8192, 1 << 40):
        keystream_into(bytearray(), 1, start=start)
        keystream_into(np.empty(0, dtype=np.uint8), 1, start=start)


def test_keystream_into_refuses_a_negative_start():
    with pytest.raises(ValueError, match="got -1"):
        keystream_into(bytearray(1), 0, start=-1)


@pytest.mark.parametrize("index", [-1, -9])
def test_a_negative_stream_index_is_refused(index):
    with pytest.raises(ValueError, match=f"got {index}"):
        RngStream(0, index)


def test_negative_seed_wraps_mod_2_256():
    for stream in range(32):
        assert RngStream(-1, stream).next_bit() == RngStream(2**256 - 1, stream).next_bit()
        assert RngStream(5 + 2**256, stream).next_bit() == RngStream(5, stream).next_bit()


@settings(max_examples=50)
@given(seed=u64s, start=st.integers(min_value=0, max_value=1 << 48),
       cursor=st.integers(min_value=0, max_value=1 << 32))
@example(seed=5, start=0, cursor=0)  # the cursor XOR is skipped
@example(seed=5, start=0, cursor=1)
def test_vectorized_matches_scalar(seed, start, cursor):
    streams = np.arange(start, start + 64, dtype=np.uint64)
    vec = unit_array(seed, streams, cursor)
    ref = np.array([splitmix64(seed, int(i), cursor) for i in streams], dtype=np.uint64)
    assert vec.dtype == np.uint64 and np.array_equal(vec, ref)


def test_unit_draws_roughly_uniform():
    draws = unit_array(2024, np.arange(1 << 14, dtype=np.uint64), 0)
    assert abs((draws >> np.uint64(63)).mean() - 0.5) < 0.02
