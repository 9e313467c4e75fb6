import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvmss import imaging
from qvmss.imaging import (
    BinaryImage,
    PbmParseError,
    PbmVariant,
    ShapeMismatchError,
    make_fixture,
    read_pbm,
    require_same_shape,
    write_pbm,
)


def image_strategy(max_side=24):
    return st.builds(
        lambda w, h, seed: make_fixture("random", w, h, seed=seed),
        st.integers(1, max_side),
        st.integers(1, max_side),
        st.integers(0, 2**32),
    )


# ------------------------------------------------------------- BinaryImage

def test_binary_image_basic_accessors():
    img = BinaryImage(2, 2, [0, 1, 1, 0])
    assert img.ones_fraction() == 0.5
    assert np.array_equal(img.as_grid(), [[0, 1], [1, 0]])


def test_binary_image_rejects_wrong_length():
    with pytest.raises(ValueError):
        BinaryImage(2, 2, [0, 1, 1])


def test_binary_image_rejects_non_bits():
    with pytest.raises(ValueError):
        BinaryImage(2, 1, [0, 2])


@pytest.mark.parametrize("bits", [
    [0.5, 1.9],
    np.array([256, 257]),
    np.array([-255, 257]),
], ids=["fractions", "wrap_to_bits", "negative"])
def test_binary_image_rejects_values_a_uint8_cast_would_turn_into_bits(bits):
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        BinaryImage(2, 1, bits)


@pytest.mark.parametrize("bits", [
    [True, False],
    np.array([1, 0], dtype=np.uint64),
    np.array([1.0, 0.0]),
])
def test_binary_image_accepts_bits_of_any_dtype(bits):
    assert BinaryImage(2, 1, bits) == BinaryImage(2, 1, [1, 0])


def test_binary_image_rejects_empty_dimensions():
    with pytest.raises(ValueError):
        BinaryImage(0, 4, [])


def test_binary_image_is_immutable():
    img = BinaryImage(2, 1, [0, 1])
    with pytest.raises(ValueError):
        img.bits[0] = 1


def test_binary_image_does_not_freeze_caller_array():
    source = np.array([0, 1, 1, 0], dtype=np.uint8)
    BinaryImage(2, 2, source)
    source[0] = 1  # caller's buffer stays writable


def test_xor_and_complement():
    a = BinaryImage(2, 2, [0, 1, 1, 0])
    b = BinaryImage(2, 2, [1, 1, 0, 0])
    assert (a ^ b) == BinaryImage(2, 2, [1, 0, 1, 0])
    assert (a ^ BinaryImage(2, 2, [1, 1, 1, 1])) == BinaryImage(2, 2, [1, 0, 0, 1])
    assert (a ^ a) == BinaryImage(2, 2, [0, 0, 0, 0])


def test_xor_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        BinaryImage(2, 1, [0, 1]) ^ BinaryImage(1, 2, [0, 1])
    with pytest.raises(ShapeMismatchError):
        require_same_shape(BinaryImage(2, 1, [0, 1]), BinaryImage(3, 1, [0, 1, 0]))


# -------------------------------------------------------------- PBM reading

def test_read_p1_example():
    img = read_pbm(b"P1\n2 2\n0 1\n1 0\n")
    assert img == BinaryImage(2, 2, [0, 1, 1, 0])


def test_read_p1_tolerates_comments_and_packing():
    data = b"P1 # plain variant\n# full-line comment\n 2   2 \n0110\n"
    assert read_pbm(data) == BinaryImage(2, 2, [0, 1, 1, 0])


def test_read_p4_hand_packed_row():
    img = read_pbm(b"P4\n9 1\n" + bytes([0xFF, 0x80]))
    assert img == BinaryImage(9, 1, [1] * 9)


def test_read_p4_padding_bits_are_ignored():
    img = read_pbm(b"P4\n9 1\n" + bytes([0xFF, 0xFF]))
    assert img == BinaryImage(9, 1, [1] * 9)


def test_read_rejects_grayscale_magic():
    with pytest.raises(PbmParseError) as excinfo:
        read_pbm(b"P5\n2 2\n255\n\x00\x00\x00\x00")
    assert excinfo.value.offset == 0


def test_read_rejects_empty_and_garbage():
    with pytest.raises(PbmParseError):
        read_pbm(b"")
    with pytest.raises(PbmParseError):
        read_pbm(b"hello world")


def test_read_rejects_missing_dimensions():
    with pytest.raises(PbmParseError):
        read_pbm(b"P1\n")
    with pytest.raises(PbmParseError):
        read_pbm(b"P1\n2\n")
    with pytest.raises(PbmParseError):
        read_pbm(b"P1\n2 x\n0 1\n")


def test_read_rejects_zero_dimension():
    with pytest.raises(PbmParseError):
        read_pbm(b"P1\n0 2\n")


def test_read_rejects_oversized_dimensions():
    with pytest.raises(PbmParseError):
        read_pbm(b"P4\n99999999 99999999\n")


def test_read_truncated_p1_reports_offset():
    data = b"P1\n2 2\n0 1\n1\n"
    with pytest.raises(PbmParseError) as excinfo:
        read_pbm(data)
    assert excinfo.value.offset == len(data)


def test_read_truncated_p4_reports_offset():
    data = b"P4\n9 2\n" + bytes([0xFF])
    with pytest.raises(PbmParseError) as excinfo:
        read_pbm(data)
    assert excinfo.value.offset == len(data)


def test_read_rejects_dimension_past_int_digit_limit():
    with pytest.raises(PbmParseError) as excinfo:
        read_pbm(b"P4 " + b"1" * 5000 + b" 1\n\x00")
    assert excinfo.value.offset == 3


def test_read_accepts_dimension_with_long_zero_padding():
    assert read_pbm(b"P1 " + b"0" * 5000 + b"2 1\n10") == BinaryImage(2, 1, [1, 0])


def test_read_p1_short_payload_fails_before_allocating():
    data = b"P1\n1048576 64\n01\n"
    assert len(data) == 17
    tracemalloc.start()
    try:
        with pytest.raises(PbmParseError) as excinfo:
            read_pbm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert excinfo.value.offset == len(data)
    assert peak < 1 << 20


@settings(max_examples=300)
@given(data=st.one_of(
    st.binary(max_size=64),
    st.builds(lambda magic, tail: magic + tail, st.sampled_from([b"P1 ", b"P4 "]), st.binary()),
))
@example(data=b"P4 " + b"1" * 5000 + b" 1")
@example(data=b"P1\n1048576 64\n01\n")
def test_read_pbm_fuzz_yields_image_or_parse_error(data):
    try:
        assert isinstance(read_pbm(data), BinaryImage)
    except PbmParseError:
        pass


def test_read_p1_rejects_stray_raster_bytes():
    with pytest.raises(PbmParseError):
        read_pbm(b"P1\n2 2\n0 1\n1 7\n")


def test_read_p1_comment_in_raster_hides_rest_of_line():
    assert read_pbm(b"P1\n2 1\n1 #0 0\n0") == BinaryImage(2, 1, [1, 0])


def test_read_p1_ignores_bytes_after_last_pixel():
    assert read_pbm(b"P1\n1 1\n1 garbage") == BinaryImage(1, 1, [1])


def test_read_p1_stray_byte_after_comment_reports_its_offset():
    data = b"P1\n2 1\n1 # 0 #\nx0"
    with pytest.raises(PbmParseError, match="unexpected raster byte 'x'") as excinfo:
        read_pbm(data)
    assert excinfo.value.offset == data.index(b"x")


def test_read_p1_comment_at_end_of_data_reports_pixels_read():
    data = b"P1\n3 1\n1 0 # and no third pixel"
    with pytest.raises(PbmParseError, match="raster ended after 2 of 3 pixels") as excinfo:
        read_pbm(data)
    assert excinfo.value.offset == len(data)


def _reference_p1_raster(data, pos, count):
    """The byte-at-a-time P1 raster parser: the bits, or the (message, offset) it raises."""
    if len(data) - pos < count:
        return f"raster truncated: need at least {count} bytes, have {len(data) - pos}", len(data)
    bits = []
    while len(bits) < count:
        if pos >= len(data):
            return f"raster ended after {len(bits)} of {count} pixels", pos
        c = data[pos]
        if c == 0x23:  # '#'
            while pos < len(data) and data[pos] not in b"\n\r":
                pos += 1
        elif c in b"01":
            bits.append(c - 0x30)
            pos += 1
        elif c in b" \t\n\r\v\f":
            pos += 1
        else:
            return f"unexpected raster byte {chr(c)!r}", pos
    return bits


@settings(max_examples=300)
@given(width=st.integers(1, 6), height=st.integers(1, 3), raster=st.lists(
    st.sampled_from([b"0", b"1", b" ", b"\n", b"\r", b"\t", b"#", b"# 1 #", b"x", b"\xff"]),
    max_size=40,
).map(b"".join), chunk=st.sampled_from([1, 2, 3, 7, imaging._COMMENT_CHUNK]))
def test_read_p1_matches_byte_loop_reference(width, height, raster, chunk):
    header = f"P1\n{width} {height}".encode()
    data = header + b"\n" + raster
    expected = _reference_p1_raster(data, len(header), width * height)
    try:
        # Small chunks put comments across the boundaries of the blanking pass.
        with mock.patch.object(imaging, "_COMMENT_CHUNK", chunk):
            got = read_pbm(data).bits.tolist()
    except PbmParseError as exc:
        got = (str(exc), exc.offset)
        expected = (f"{expected[0]} (byte offset {expected[1]})", expected[1])
    assert got == expected


@pytest.mark.parametrize("header, line, tail", [
    (b"P1\n1 1\n", b"#\n", b"0"),
    (b"P1\n1024 1024\n", b"0#\n", b""),
], ids=["blank_comment_lines", "comment_per_pixel"])
def test_read_p1_comment_heavy_payload_peaks_below_4x(header, line, tail):
    data = header + line * ((4 << 20) // len(line)) + tail
    tracemalloc.start()
    try:
        read_pbm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(data)


@pytest.mark.parametrize("comment", [b"", b" # row"], ids=["plain", "comment_per_row"])
def test_read_p1_ordinary_file_peaks_below_3x(comment):
    image = make_fixture("random", 1024, 1024, seed=6)
    header, raster = write_pbm(image, PbmVariant.P1_ASCII).split(b"\n", 2)[1:]
    data = b"P1\n" + header + b"\n" + raster.replace(b"\n", comment + b"\n")
    tracemalloc.start()
    try:
        assert read_pbm(data) == image
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(data)


_p1_filler = st.lists(st.one_of(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f"]),
    st.builds(lambda text, eol: b"#" + text.translate(None, b"\n\r") + eol,
              st.binary(max_size=8), st.sampled_from([b"\n", b"\r"])),
)).map(b"".join)


@settings(max_examples=100)
@given(img=image_strategy(max_side=8), data=st.data())
def test_read_p1_with_random_filler_between_digits(img, data):
    raster = b"".join(data.draw(_p1_filler) + bytes([0x30 + bit]) for bit in img.bits)
    text = f"P1\n{img.width} {img.height}\n".encode() + raster + data.draw(_p1_filler)
    assert read_pbm(text) == img


# -------------------------------------------------------------- PBM writing

def test_write_p1_minimal_file():
    assert write_pbm(BinaryImage(1, 1, [1]), PbmVariant.P1_ASCII) == b"P1\n1 1\n1\n"


def test_write_p1_golden_3x2():
    img = BinaryImage(3, 2, [1, 0, 1, 0, 1, 1])
    assert write_pbm(img, PbmVariant.P1_ASCII) == b"P1\n3 2\n1 0 1\n0 1 1\n"


def test_write_p4_packs_rows_with_zero_padding():
    data = write_pbm(BinaryImage(9, 1, [1] * 9), PbmVariant.P4_PACKED)
    assert data == b"P4\n9 1\n" + bytes([0xFF, 0x80])


def test_write_p4_length_formula():
    for width, height in [(1, 1), (7, 3), (8, 2), (9, 5), (64, 64), (130, 3)]:
        img = make_fixture("random", width, height, seed=width * height)
        data = write_pbm(img, PbmVariant.P4_PACKED)
        header = f"P4\n{width} {height}\n".encode()
        assert len(data) == len(header) + height * ((width + 7) // 8)


def test_writer_output_is_reproducible():
    img = make_fixture("random", 33, 9, seed=4)
    assert write_pbm(img) == write_pbm(img)
    assert write_pbm(img, PbmVariant.P1_ASCII) == write_pbm(img, PbmVariant.P1_ASCII)


@settings(max_examples=60)
@given(img=image_strategy())
def test_round_trip_both_variants(img):
    for variant in PbmVariant:
        assert read_pbm(write_pbm(img, variant)) == img


def test_round_trip_512():
    img = make_fixture("random", 512, 512, seed=11)
    assert read_pbm(write_pbm(img, PbmVariant.P4_PACKED)) == img
    assert read_pbm(write_pbm(img, PbmVariant.P1_ASCII)) == img


# ----------------------------------------------------------------- fixtures

def test_checkerboard_fixture():
    assert make_fixture("checkerboard", 2, 2) == BinaryImage(2, 2, [0, 1, 1, 0])


def test_constant_fixtures():
    assert make_fixture("all_zero", 3, 3) == BinaryImage(3, 3, [0] * 9)
    assert make_fixture("all_one", 2, 3) == BinaryImage(2, 3, [1] * 6)


def test_random_fixture_is_deterministic():
    a = make_fixture("random", 8, 8, seed=7)
    b = make_fixture("random", 8, 8, seed=7)
    assert a == b
    assert a != make_fixture("random", 8, 8, seed=8)


def test_random_fixture_is_balanced():
    img = make_fixture("random", 256, 256, seed=3)
    assert abs(img.ones_fraction() - 0.5) < 0.01


def test_text_glyphs_fixture_structured_and_deterministic():
    a = make_fixture("text_glyphs", 64, 64)
    assert a == make_fixture("text_glyphs", 64, 64)
    assert 0.05 < a.ones_fraction() < 0.95


def test_unknown_fixture_kind():
    with pytest.raises(ValueError):
        make_fixture("plasma", 4, 4)
