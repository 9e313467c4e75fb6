import hashlib
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvmss import imaging, rng
from qvmss.imaging import (
    PBM_FORMATS,
    BinaryImage,
    PbmParseError,
    ShapeMismatchError,
    make_fixture,
    read_pbm,
    require_same_shape,
    write_pbm,
)
from qvmss.metrics import report
from qvmss.scheme import encrypt


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
        img.rows[0, 0] = 0xC0


def test_binary_image_does_not_freeze_caller_array():
    source = np.array([0, 1, 1, 0], dtype=np.uint8)
    BinaryImage(2, 2, source)
    source[0] = 1  # caller's buffer stays writable


def test_binary_image_packs_rows_msb_first_with_zero_padding():
    img = BinaryImage(9, 2, [1, 0, 0, 0, 0, 0, 0, 1, 1] + [0] * 8 + [1])
    assert img.rows.dtype == np.uint8
    assert img.rows.tolist() == [[0x81, 0x80], [0x00, 0x80]]
    assert imaging.count_ones(img.flat) == 4


def test_from_rows_wraps_packed_rows_without_a_copy():
    rows = np.array([[0x81, 0x80], [0x00, 0x80]], dtype=np.uint8)
    img = BinaryImage.from_rows(9, 2, rows)
    assert img == BinaryImage(9, 2, [1, 0, 0, 0, 0, 0, 0, 1, 1] + [0] * 8 + [1])
    assert np.shares_memory(img.rows, rows)
    assert not img.rows.flags.writeable


@pytest.mark.parametrize("rows, message", [
    (np.zeros((2, 1), dtype=np.uint8), "expected"),
    (np.zeros((2, 2), dtype=np.int64), "expected"),
    (np.array([[0, 0x40], [0, 0]], dtype=np.uint8), "padding"),
], ids=["shape", "dtype", "padding_bit"])
def test_from_rows_rejects_rows_that_are_not_clean_p4(rows, message):
    with pytest.raises(ValueError, match=message):
        BinaryImage.from_rows(9, 2, rows)


def test_xor_and_complement():
    a = BinaryImage(2, 2, [0, 1, 1, 0])
    b = BinaryImage(2, 2, [1, 1, 0, 0])
    assert (a ^ b) == BinaryImage(2, 2, [1, 0, 1, 0])
    assert (a ^ BinaryImage(2, 2, [1, 1, 1, 1])) == BinaryImage(2, 2, [1, 0, 0, 1])
    assert (a ^ a) == BinaryImage(2, 2, [0, 0, 0, 0])


def image_makers(width, height=5):
    """(source, make) for each way the package makes an image, at one size."""
    a = make_fixture("random", width, height, seed=width)
    b = make_fixture("text_glyphs", width, height)
    padding_set = f"P4\n{width} {height}\n".encode() + b"\xff" * a.rows.size
    return [
        ("bits", lambda: BinaryImage(width, height, a.as_grid().reshape(-1))),
        ("from_rows", lambda: BinaryImage.from_rows(width, height, a.rows.copy())),
        ("read_p1", lambda: read_pbm(write_pbm(a, "p1"))),
        ("read_p4", lambda: read_pbm(write_pbm(b))),
        ("read_p4_padding_set", lambda: read_pbm(padding_set)),
        # A view of the bytes when width % 8 == 0, a copy otherwise.
        ("read_p4_bytes", lambda: read_pbm(bytes(write_pbm(a)))),
        ("read_p4_trailing_bytes", lambda: read_pbm(write_pbm(a) + b"\n")),
        ("xor", lambda: a ^ b),
        ("encrypt_unishare", lambda: encrypt([a, b], width).unishare),
        ("encrypt_share", lambda: encrypt([a, b], width).shares[1]),
        *[(kind, lambda kind=kind: make_fixture(kind, width, height, seed=3))
          for kind in ("random", "checkerboard", "text_glyphs")],
    ]


@pytest.mark.parametrize("width", range(1, 18))
def test_cached_ones_is_the_popcount_of_the_rows(width):
    for source, make in image_makers(width):
        img = make()
        assert img.ones == imaging.count_ones(img.flat) == img.as_grid().sum(), source
        assert img.ones_fraction() == img.ones / (width * 5), source
        if source == "read_p4_padding_set":
            assert img.ones == width * 5  # the set padding bits count nothing


def test_ones_is_counted_once(monkeypatch):
    img = make_fixture("random", 37, 29, seed=1)
    calls = []
    count_ones = imaging.count_ones
    monkeypatch.setattr(imaging, "count_ones", lambda rows: calls.append(1) or count_ones(rows))
    assert img.ones == img.ones == round(img.ones_fraction() * 37 * 29)
    assert len(calls) == 1


@pytest.mark.parametrize("width", [8, 13, 16])
def test_images_are_built_over_rows_no_one_else_can_write(width, monkeypatch):
    # `ones` is cached, so it holds only while nobody writes an image's rows after it is
    # made: the memory under them must be immutable bytes, or an array that only the
    # image keeps alive.  A read-only view proves nothing, since its base may be written.
    built = {}
    hold = BinaryImage._hold
    monkeypatch.setattr(BinaryImage, "_hold", lambda self, w, h, rows: built.update(
        {id(self): rows}) or hold(self, w, h, rows))
    for source, make in image_makers(width):
        built.clear()
        img = make()
        root = built.pop(id(img))
        built.clear()
        while isinstance(root, np.ndarray) and root.base is not None:
            root = root.base
        if isinstance(root, bytes):
            continue
        assert isinstance(root, np.ndarray) and root.flags.owndata, (
            f"{source}: the image's rows rest on a {type(root).__name__}")
        owner = weakref.ref(root)
        del root, img
        assert owner() is None, f"{source}: something else holds the image's rows"


@pytest.mark.parametrize("convert", [bytearray, memoryview, lambda data: data.decode("latin-1"),
                                     list], ids=["bytearray", "memoryview", "str", "list"])
def test_read_pbm_names_the_types_it_takes(convert):
    data = write_pbm(make_fixture("random", 16, 5, seed=1))
    with pytest.raises(TypeError, match="takes bytes, not"):
        read_pbm(convert(data))


@pytest.mark.parametrize("width", [8, 13, 16])
def test_p4_read_views_only_immutable_bytes_that_whole_byte_rows_end(width):
    data = write_pbm(make_fixture("random", width, 5, seed=2))
    for source, viewed in [(data, width % 8 == 0), (data + b"\n", False)]:
        img = read_pbm(source)
        assert np.shares_memory(img.rows, np.frombuffer(source, np.uint8)) == viewed, source
        assert not img.rows.flags.writeable


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


def padding_bits(rows, width):
    """The bits after the last pixel of each packed row."""
    return np.unpackbits(rows, axis=1)[:, width:]


@pytest.mark.parametrize("width", range(1, 18))
def test_read_p4_clears_set_padding_bits(width, flat_image):
    clean = make_fixture("random", width, 3, seed=width)
    header = f"P4\n{width} 3\n".encode()
    dirty_rows = clean.rows.copy()
    dirty_rows[:, -1] |= (1 << (-width % 8)) - 1  # every padding bit of each row set
    dirty = read_pbm(header + dirty_rows.tobytes())
    assert dirty == clean
    assert report(dirty, clean).mismatch_fraction == 0.0
    flipped = dirty ^ flat_image(width, 3, 1)
    assert flipped == BinaryImage(width, 3, clean.as_grid().reshape(-1) ^ 1)
    assert not padding_bits(flipped.rows, width).any()
    written = np.frombuffer(write_pbm(dirty)[len(header):], dtype=np.uint8)
    assert np.array_equal(written.reshape(3, -1), clean.rows)
    assert not padding_bits(written.reshape(3, -1), width).any()


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


@pytest.mark.parametrize("data", [
    b"P1\n2 1\n1 #0 0\n0",
    # A comment that runs on past whole chunks of the blanking pass.
    b"P1\n2 1\n1 #" + b"1 " * imaging._COMMENT_CHUNK + b"1\n0",
], ids=["short", "past_whole_chunks"])
def test_read_p1_comment_in_raster_hides_rest_of_line(data):
    assert read_pbm(data) == BinaryImage(2, 1, [1, 0])


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
    st.sampled_from([b"0", b"1", b"2", b" ", b"\n", b"\r", b"\t", b"\v", b"\f", b"#",
                     b"# 1 #", b"# 0\r", b"x", b"\xff"]),
    max_size=40,
).map(b"".join), chunk=st.sampled_from([1, 2, 3, 7, imaging._COMMENT_CHUNK]))
def test_read_p1_matches_byte_loop_reference(width, height, raster, chunk):
    header = f"P1\n{width} {height}".encode()
    data = header + b"\n" + raster
    expected = _reference_p1_raster(data, len(header), width * height)
    try:
        # Small chunks put comments across the boundaries of the blanking pass.
        with mock.patch.object(imaging, "_COMMENT_CHUNK", chunk):
            got = read_pbm(data).as_grid().reshape(-1).tolist()
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


@pytest.mark.parametrize("data, size", [
    (b"P1\n" + b"#\n" * (1 << 20) + b"2 1\n01", (2, 1)),
    (b"P4\n" + b"#\n" * (1 << 20) + b"9 1\n\xff\x80", (9, 1)),
], ids=["p1", "p4"])
def test_comment_heavy_header_peaks_below_4x(data, size):
    tracemalloc.start()
    try:
        image = read_pbm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (image.width, image.height) == size
    assert peak < 4 * len(data)


@pytest.mark.parametrize("data, name", [
    (b"P1\n" + b"#\n" * 1500 + b"x 1\n0", "width"),
    (b"P4 8" + b" # \n" * 1500 + b"x\n\x00", "height"),
], ids=["width", "height"])
def test_bad_digit_after_1024_filler_runs_reports_its_offset(data, name):
    with pytest.raises(PbmParseError, match=f"expected decimal {name}") as excinfo:
        read_pbm(data)
    assert excinfo.value.offset == data.index(b"x")


@pytest.mark.parametrize("comment", [b"", b" # row"], ids=["plain", "comment_per_row"])
def test_read_p1_ordinary_file_peaks_below_3x(comment):
    image = make_fixture("random", 1024, 1024, seed=6)
    header, raster = write_pbm(image, "p1").split(b"\n", 2)[1:]
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
    bits = img.as_grid().reshape(-1)
    raster = b"".join(data.draw(_p1_filler) + bytes([0x30 + bit]) for bit in bits)
    text = f"P1\n{img.width} {img.height}\n".encode() + raster + data.draw(_p1_filler)
    assert read_pbm(text) == img


# -------------------------------------------------------------- PBM writing

def test_write_p1_minimal_file():
    image = BinaryImage(1, 1, [1])
    assert write_pbm(image, "p1") == b"P1\n1 1\n1\n"
    for variant in ("P1", "x", None):  # only the `--format` names are variants
        with pytest.raises(ValueError, match="PBM variant"):
            write_pbm(image, variant)


def test_write_p1_golden_3x2():
    img = BinaryImage(3, 2, [1, 0, 1, 0, 1, 1])
    assert write_pbm(img, "p1") == b"P1\n3 2\n1 0 1\n0 1 1\n"


def test_write_p4_packs_rows_with_zero_padding():
    data = write_pbm(BinaryImage(9, 1, [1] * 9), "p4")
    assert data == b"P4\n9 1\n" + bytes([0xFF, 0x80])


def test_write_p4_length_formula():
    for width, height in [(1, 1), (7, 3), (8, 2), (9, 5), (64, 64), (130, 3)]:
        img = make_fixture("random", width, height, seed=width * height)
        data = write_pbm(img, "p4")
        header = f"P4\n{width} {height}\n".encode()
        assert len(data) == len(header) + height * ((width + 7) // 8)


def test_writer_output_is_reproducible():
    img = make_fixture("random", 33, 9, seed=4)
    assert write_pbm(img) == write_pbm(img)
    assert write_pbm(img, "p1") == write_pbm(img, "p1")


@settings(max_examples=60)
@given(img=image_strategy())
def test_round_trip_both_variants(img):
    for variant in PBM_FORMATS:
        assert read_pbm(write_pbm(img, variant)) == img


def test_round_trip_512():
    img = make_fixture("random", 512, 512, seed=11)
    assert read_pbm(write_pbm(img, "p4")) == img
    assert read_pbm(write_pbm(img, "p1")) == img


# ----------------------------------------------------------------- fixtures

def test_checkerboard_fixture():
    assert make_fixture("checkerboard", 2, 2) == BinaryImage(2, 2, [0, 1, 1, 0])


def test_random_fixture_is_deterministic():
    a = make_fixture("random", 8, 8, seed=7)
    b = make_fixture("random", 8, 8, seed=7)
    assert a == b
    assert a != make_fixture("random", 8, 8, seed=8)


# SHA-256 of the packed rows of make_fixture("random", width, height, seed):
# one chunk of keystream or less, several chunks at widths that are and are
# not a multiple of 8 (300x300, 2048x33), a narrow image of 70000 rows, and
# rows wider than a chunk.
RANDOM_FIXTURE_GOLDEN = {
    (1, 1, 0): "76be8b528d0075f7aae98d6fa57a6d3c83ae480a8469e668d7b0af968995ac71",
    (37, 29, 0): "3fbccaee1cf97cc18b400f45ed9e3dbe0de32ff51e7b9f1f814bc6c52c57b547",
    (300, 300, 2**64 - 1): "2051cdd20b2acd0dfa6af5a495b2e7aba7dfc761ddcf75bacd2117c504ee3d50",
    (2048, 33, 2**64 - 1): "a303f21b3df11fd027d2a027ed5f8d145115a091a1e4c6f383c616e53a4caf02",
    (5, 70000, 2**64 - 1): "5ba965370bb641ed310b6a6d8d4fb0d31f365aa01deef48d451750c3ee9b08d1",
    (70001, 3, 0): "663a30d58afc1caab2b4ec503d9bb42b26b2bd58ed35f8ec9fc42d2320a822c2",
    (70001, 2, 2**64 - 1): "280dcdd5794f4ea4daf15542b928ee424c3f1b5ee0258ba78c526c6a1619cf46",
}


@pytest.mark.parametrize("width, height, seed", sorted(RANDOM_FIXTURE_GOLDEN))
def test_random_fixture_is_pinned(width, height, seed):
    rows = make_fixture("random", width, height, seed=seed).rows
    digest = hashlib.sha256(rows.tobytes()).hexdigest()
    assert digest == RANDOM_FIXTURE_GOLDEN[width, height, seed]


def test_random_fixture_peak_memory_is_the_image_plus_one_chunk():
    # The keystream is drawn straight into the packed image, about 512 KiB,
    # one 8 KiB chunk at a time, and its padding bits are cleared in place:
    # one chunk's digest, plus one chunk's worth of bookkeeping.  Measured:
    # 9.2 KiB beyond the image at widths 2048, 2047 and 2040.  One unpacked
    # byte per pixel would be 4 MiB.
    make_fixture("random", 8, 8)
    for width in (2048, 2047, 2040):
        tracemalloc.start()
        try:
            image = make_fixture("random", width, 2048, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= image.rows.nbytes + 2 * rng.CHUNK, width


# SHA-256 of the packed rows of make_fixture(kind, width, height) for the tiled
# kinds: widths that are not a multiple of 8 or of the tile width, heights below
# the text tile's 7 rows, and 2048 pixels square, where that tile is scaled 32x.
TILED_FIXTURE_GOLDEN = {
    ("checkerboard", 1, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ("checkerboard", 37, 29): "de90713f8f6a8e078ddddc51dba7043930db7cb15433936ee55e7f23809d6840",
    ("checkerboard", 5, 3): "eeec50ef53e6a8b667c61dac632344ffa9dd72edc619edd30db2d5d4df434534",
    ("checkerboard", 2048, 33): "c08a98bacb18f6b2f7eb0e888cce7cca8b17f919776c4c9d1248da9bd6f8fb2f",
    ("checkerboard", 70001, 3): "0863459a6bef140c457c9355bcf501fee59364c7006ddc629a48fdee1a57daec",
    ("checkerboard", 2048, 2048): "641c62df9d202a025b65f66d4e1edcedd3b434d9b2b1d53d09f87854fe341abd",
    ("text_glyphs", 1, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ("text_glyphs", 37, 29): "3ae5591efc7c6492abfc98c6a190c3b792401f642c009a1370ce7c8abdb006ae",
    ("text_glyphs", 5, 3): "1563ff711f239ba4a4e6a5c300a5d764288e02ef2b35720f9f9b1d247f93be30",
    ("text_glyphs", 2048, 33): "00e99efffe462592b4fabe441f5ddd8ab5e6871a42b302678ac8c84320299dc5",
    ("text_glyphs", 70001, 3): "2854f4b720e98d85b09f47ae99e9b00c72ce0774987654ff3caa1622619765de",
    ("text_glyphs", 2048, 2048): "7d7e36458b2cf95e5352ea4461d936bec637aa49d20b9985ee055b0728678262",
}


@pytest.mark.parametrize("kind, width, height", sorted(TILED_FIXTURE_GOLDEN))
def test_tiled_fixture_is_pinned(kind, width, height):
    rows = make_fixture(kind, width, height).rows
    digest = hashlib.sha256(rows.tobytes()).hexdigest()
    assert digest == TILED_FIXTURE_GOLDEN[kind, width, height]


@pytest.mark.parametrize("kind", ["checkerboard", "text_glyphs"])
def test_tiled_fixture_peak_memory_is_one_packed_image(kind):
    # The packed image is 512 KiB; the text tile's band, 224 rows of 2688
    # bytes, is 0.6 MiB.  A byte-per-pixel grid would be 4 MiB on its own.
    make_fixture(kind, 8, 8)
    tracemalloc.start()
    try:
        make_fixture(kind, 2048, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


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
