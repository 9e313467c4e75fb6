import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qvmss.rng import RngStream, draw_u64, draw_unit, u64_array, unit_array

u64s = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_same_key_same_sequence():
    a = RngStream(123, 456)
    b = RngStream(123, 456)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


def test_streams_are_independent_of_draw_order():
    a = RngStream(9, 1)
    b = RngStream(9, 2)
    a_first = [a.next_u64() for _ in range(4)]
    # draining b must not perturb a fresh copy of stream 1
    [b.next_u64() for _ in range(100)]
    fresh = RngStream(9, 1)
    assert [fresh.next_u64() for _ in range(4)] == a_first


def test_distinct_streams_differ():
    draws = {draw_u64(7, stream, 0) for stream in range(1000)}
    assert len(draws) == 1000


def test_unit_in_half_open_interval():
    stream = RngStream(1, 0)
    for _ in range(1000):
        u = stream.next_unit()
        assert 0.0 <= u < 1.0


@given(seed=u64s, stream=u64s, cursor=st.integers(min_value=0, max_value=1 << 32))
def test_scalar_matches_stateful_stream(seed, stream, cursor):
    s = RngStream(seed, stream)
    s._cursor = cursor
    assert s.next_u64() == draw_u64(seed, stream, cursor)


@settings(max_examples=50)
@given(seed=u64s, start=st.integers(min_value=0, max_value=1 << 48),
       cursor=st.integers(min_value=0, max_value=1 << 32))
def test_vectorized_matches_scalar(seed, start, cursor):
    streams = np.arange(start, start + 64, dtype=np.uint64)
    vec = u64_array(seed, streams, cursor)
    ref = np.array([draw_u64(seed, int(i), cursor) for i in streams], dtype=np.uint64)
    assert np.array_equal(vec, ref)

    vec_unit = unit_array(seed, streams, cursor)
    ref_unit = np.array([draw_unit(seed, int(i), cursor) for i in streams])
    assert np.array_equal(vec_unit, ref_unit)


def test_unit_array_into_buffers_allocates_nothing():
    streams = np.arange(7, 7 + (1 << 16), dtype=np.uint64)
    expected = unit_array(99, streams, 3)
    out = np.empty(streams.size)
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
    units = unit_array(2024, np.arange(1 << 14, dtype=np.uint64), 0)
    assert abs(units.mean() - 0.5) < 0.01
    assert abs((units < 0.5).mean() - 0.5) < 0.02


def test_negative_seed_wraps_to_u64():
    assert RngStream(-1, 0).next_u64() == RngStream((1 << 64) - 1, 0).next_u64()
