import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvmss import rng
from qvmss.imaging import BinaryImage, pack_rows
from qvmss.rng import RngStream, packed_bands, unit_array
from qvmss.scheme import encrypt

u64s = st.integers(min_value=0, max_value=(1 << 64) - 1)
MASK64 = (1 << 64) - 1


def keystream_bits(tag, seed, count):
    """The first `count` bits of the keystream, from hashlib and the documented layout."""
    key = (seed % 2**256).to_bytes(32, "little")
    chunks = range(-(-count // (8 * 8192)))
    data = b"".join(hashlib.shake_128(tag + key + c.to_bytes(8, "little")).digest(8192)
                    for c in chunks)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:count]


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
    # 300x300 is two bands of a width that is not a multiple of 8, and bits
    # 65535, 65536 and 65537 straddle the keystream's first chunk edge.
    seed = 2**200 + 5
    blank = BinaryImage(300, 300, np.zeros(300 * 300, dtype=np.uint8))
    u = encrypt([blank], seed).unishare.as_grid().reshape(-1)
    for p in (0, 1, 7, 8, 299, 300, 65399, 65400, 65535, 65536, 65537, 89999):
        assert RngStream(seed, p).next_bit() == u[p], p


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
def test_packed_bands_are_the_keystream_in_p4_rows(tag, width, height, band_pixels,
                                                   monkeypatch):
    monkeypatch.setattr(rng, "BAND_PIXELS", band_pixels)
    want = pack_rows(keystream_bits(tag, 99, width * height), width)  # the images' layout
    got = np.empty_like(want)
    covered = 0
    for rows, packed in packed_bands(99, width, height, tag=tag):
        assert rows.start == covered
        got[rows] = packed
        covered = rows.stop
    assert covered == height
    assert np.array_equal(got, want)


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


def test_unit_array_into_buffers_allocates_nothing():
    streams = np.arange(7, 7 + (1 << 16), dtype=np.uint64)
    expected = unit_array(99, streams, 3)
    out = np.empty_like(streams)
    tracemalloc.start()
    try:
        # The stream indices may double as the scratch buffer.
        result = unit_array(99, streams, 3, out=out, scratch=streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is out and np.array_equal(out, expected)
    assert peak < 4096


def test_unit_draws_roughly_uniform():
    draws = unit_array(2024, np.arange(1 << 14, dtype=np.uint64), 0)
    assert abs((draws >> np.uint64(63)).mean() - 0.5) < 0.02
