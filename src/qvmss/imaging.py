"""Binary images, bit-exact PBM I/O, and deterministic test fixtures.

Bit value 1 is an opaque/black pixel and 0 is transparent/white, which is
exactly PBM's polarity, so nothing in the pipeline ever inverts pixel values.
Both netpbm variants are supported: P1 (ASCII) and P4 (bit-packed, the
canonical output format).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng

MAX_DIMENSION = 1 << 20
MAX_PIXELS = 1 << 26
# The random fixture draws from streams with the top bit set.  `encrypt` keys
# pixel p to stream p < MAX_PIXELS, so a fixture never reuses a draw that
# `encrypt` makes under the same seed.
_FIXTURE_STREAMS = np.uint64(1 << 63)

_WHITESPACE = frozenset(b" \t\n\r\v\f")
# Whitespace and `#` comments (to the line end) may sit between header tokens.
_HEADER_FILLER = re.compile(rb"(?:[ \t\n\r\v\f]|#[^\n\r]*)*")
_DIGITS = re.compile(rb"[0-9]*")

# What each byte of a P1 raster is once its comments are blanked.
_FILLER, _DIGIT, _STRAY = 0, 1, 2
_P1_BYTE_KIND = np.full(256, _STRAY, dtype=np.uint8)
_P1_BYTE_KIND[list(_WHITESPACE)] = _FILLER
_P1_BYTE_KIND[list(b"01")] = _DIGIT
# Bytes of a P1 raster scanned per step when blanking comments.
_COMMENT_CHUNK = 1 << 16


class ShapeMismatchError(ValueError):
    """Two images that must share dimensions do not."""


class PbmParseError(ValueError):
    """Malformed PBM input; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PbmVariant(Enum):
    P1_ASCII = "p1"
    P4_PACKED = "p4"


@dataclass(frozen=True, eq=False)
class BinaryImage:
    """Width x height grid of bits stored flat in row-major order."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"dimensions must be positive, got {self.width}x{self.height}")
        raw = np.asarray(self.bits)
        # A cast to uint8 would wrap or truncate other dtypes, so check them first.
        if raw.dtype not in (np.uint8, np.bool_) and not ((raw == 0) | (raw == 1)).all():
            raise ValueError("bits must be 0 or 1")
        bits = np.array(raw, dtype=np.uint8)
        if bits.shape != (self.width * self.height,):
            raise ValueError(f"expected {self.width * self.height} bits, got shape {bits.shape}")
        if bits.max(initial=0) > 1:
            raise ValueError("bits must be 0 or 1")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.bits, other.bits)
        )

    def __xor__(self, other: "BinaryImage") -> "BinaryImage":
        require_same_shape(self, other)
        return BinaryImage(self.width, self.height, self.bits ^ other.bits)

    def ones_fraction(self) -> float:
        return float(self.bits.mean())

    def as_grid(self) -> np.ndarray:
        """(height, width) view of the bits."""
        return self.bits.reshape(self.height, self.width)


def require_same_shape(a: BinaryImage, b: BinaryImage) -> None:
    if a.width != b.width or a.height != b.height:
        raise ShapeMismatchError(
            f"image dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def _read_dimension(data: bytes, pos: int, name: str) -> tuple[int, int]:
    pos = _HEADER_FILLER.match(data, pos).end()
    if pos >= len(data):
        raise PbmParseError(f"unexpected end of input while reading {name}", pos)
    start = pos
    pos = _DIGITS.match(data, pos).end()
    if pos == start:
        raise PbmParseError(f"expected decimal {name}", start)
    digits = data[start:pos].lstrip(b"0")
    # int() refuses more than 4300 digits, so bound the length before parsing.
    if len(digits) > len(str(MAX_DIMENSION)):
        raise PbmParseError(f"{name} with {len(digits)} digits out of supported range", start)
    value = int(digits or b"0")
    if value < 1 or value > MAX_DIMENSION:
        raise PbmParseError(f"{name} {value} out of supported range", start)
    return value, pos


def read_pbm(data: bytes) -> BinaryImage:
    """Parse a P1 or P4 PBM file into a BinaryImage.

    Header comments and arbitrary whitespace are accepted; P4 row padding
    bits are ignored.  Raises PbmParseError (with a byte offset) on bad
    magic, malformed dimensions, or truncated payload.
    """
    if len(data) < 2 or data[0] != 0x50 or data[1] not in (0x31, 0x34):
        magic = data[:2].decode("ascii", errors="replace") if data else "<empty>"
        raise PbmParseError(f"unsupported magic {magic!r}, expected P1 or P4", 0)
    variant = PbmVariant.P1_ASCII if data[1] == 0x31 else PbmVariant.P4_PACKED
    if len(data) < 3 or (data[2] not in _WHITESPACE and data[2] != 0x23):
        raise PbmParseError("expected whitespace after magic", 2)

    width, pos = _read_dimension(data, 2, "width")
    height, pos = _read_dimension(data, pos, "height")
    if width * height > MAX_PIXELS:
        raise PbmParseError(f"image {width}x{height} exceeds {MAX_PIXELS} pixels", 2)

    if variant is PbmVariant.P1_ASCII:
        bits = _read_p1_raster(data, pos, width * height)
    else:
        bits = _read_p4_raster(data, pos, width, height)
    return BinaryImage(width, height, bits)


def _read_p1_raster(data: bytes, pos: int, count: int) -> np.ndarray:
    # Every pixel takes at least one byte; check before allocating `count`.
    if len(data) - pos < count:
        raise PbmParseError(
            f"raster truncated: need at least {count} bytes, have {len(data) - pos}",
            len(data),
        )
    raw = np.frombuffer(data, dtype=np.uint8, offset=pos)
    if data.find(b"#", pos) >= 0:
        raw = _blank_comments(raw)
    kind = _P1_BYTE_KIND[raw]
    stray = int(kind.argmax())  # _STRAY is the largest kind: the first stray byte, if any
    is_digit = np.equal(kind, _DIGIT, out=kind.view(np.bool_))  # reuses kind's buffer
    # Parsing stops at the count-th digit, so only a stray byte before it is an error.
    if _P1_BYTE_KIND[raw[stray]] == _STRAY and np.count_nonzero(is_digit[:stray]) < count:
        raise PbmParseError(f"unexpected raster byte {chr(raw[stray])!r}", pos + stray)
    digits = raw[is_digit][:count]
    if digits.size < count:
        raise PbmParseError(f"raster ended after {digits.size} of {count} pixels", len(data))
    return np.subtract(digits, 0x30, out=digits)


def _blank_comments(raw: np.ndarray) -> np.ndarray:
    """Copy of `raw` with each `#` comment, up to its line end, turned into spaces."""
    out = raw.copy()
    in_comment = False  # whether a comment runs on from the previous chunk
    # Chunks bound the int64 mark indices to a fixed size, however many comments there are.
    for lo in range(0, out.size, _COMMENT_CHUNK):
        chunk = out[lo:lo + _COMMENT_CHUNK]
        marks = np.flatnonzero((chunk == 0x23) | (chunk == 0x0A) | (chunk == 0x0D))
        is_hash = chunk[marks] == 0x23
        after_hash = np.concatenate(([in_comment], is_hash[:-1]))
        # A comment opens at a '#' not already inside one, and closes at the next line end.
        edges = np.zeros(chunk.size, dtype=np.int8)
        edges[marks[is_hash & ~after_hash]] = 1
        edges[marks[~is_hash & after_hash]] = -1
        edges[0] += in_comment  # a comment carried over starts the count at 1
        blank = np.cumsum(edges, dtype=np.int8).astype(bool)
        in_comment = bool(blank[-1])
        chunk[blank] = 0x20
    return out


def _read_p4_raster(data: bytes, pos: int, width: int, height: int) -> np.ndarray:
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PbmParseError("expected single whitespace before packed raster", pos)
    pos += 1
    row_bytes = (width + 7) // 8
    needed = row_bytes * height
    if len(data) - pos < needed:
        raise PbmParseError(
            f"packed raster truncated: need {needed} bytes, have {len(data) - pos}",
            len(data),
        )
    packed = np.frombuffer(data, dtype=np.uint8, count=needed, offset=pos)
    rows = np.unpackbits(packed.reshape(height, row_bytes), axis=1)[:, :width]
    return np.ascontiguousarray(rows).reshape(-1)


def write_pbm(image: BinaryImage, variant: PbmVariant = PbmVariant.P4_PACKED) -> bytes:
    """Serialize to PBM bytes; output is canonical and byte-reproducible."""
    magic = "P1" if variant is PbmVariant.P1_ASCII else "P4"
    header = f"{magic}\n{image.width} {image.height}\n".encode("ascii")
    grid = image.as_grid()
    if variant is PbmVariant.P1_ASCII:
        # Each row is "b b ... b\n": a digit then a space or, last, a newline.
        text = np.full((image.height, 2 * image.width), ord(" "), dtype=np.uint8)
        text[:, 0::2] = grid + ord("0")
        text[:, -1] = ord("\n")
        return header + text.tobytes()
    packed = np.packbits(grid, axis=1)  # zero-padded to whole bytes per row
    return header + packed.tobytes()


# 3x5 glyphs for the text_glyphs fixture, 1 = opaque.
_GLYPHS_3X5 = {
    "S": ["111", "100", "111", "001", "111"],
    "H": ["101", "101", "111", "101", "101"],
    "A": ["010", "101", "111", "101", "101"],
    "R": ["110", "101", "110", "101", "101"],
    "E": ["111", "100", "110", "100", "111"],
}
_GLYPH_TEXT = "SHARE"


def _text_tile() -> np.ndarray:
    rows = 7  # 5 glyph rows + blank line above and below
    cols = 4 * len(_GLYPH_TEXT) + 1  # 3-wide glyphs with 1-column gaps
    tile = np.zeros((rows, cols), dtype=np.uint8)
    for i, ch in enumerate(_GLYPH_TEXT):
        glyph = np.array([[int(b) for b in line] for line in _GLYPHS_3X5[ch]], dtype=np.uint8)
        tile[1:6, 1 + 4 * i : 4 + 4 * i] = glyph
    return tile


def make_fixture(kind: str, width: int, height: int, seed: int = 0) -> BinaryImage:
    """Deterministic test image: checkerboard, all_zero, all_one, random, or text_glyphs."""
    if width < 1 or height < 1:
        raise ValueError(f"dimensions must be positive, got {width}x{height}")
    if kind == "all_zero":
        bits = np.zeros(width * height, dtype=np.uint8)
    elif kind == "all_one":
        bits = np.ones(width * height, dtype=np.uint8)
    elif kind == "checkerboard":
        y, x = np.indices((height, width), dtype=np.uint32)
        bits = ((x + y) & 1).astype(np.uint8).reshape(-1)
    elif kind == "random":
        streams = np.arange(width * height, dtype=np.uint64) | _FIXTURE_STREAMS
        draws = rng.u64_array(seed, streams, 0)
        bits = (draws >> np.uint64(63)).astype(np.uint8)
    elif kind == "text_glyphs":
        tile = _text_tile()
        scale = max(1, min(width, height) // 64)
        tile = np.kron(tile, np.ones((scale, scale), dtype=np.uint8))
        reps = (height // tile.shape[0] + 1, width // tile.shape[1] + 1)
        bits = np.ascontiguousarray(np.tile(tile, reps)[:height, :width]).reshape(-1)
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    return BinaryImage(width, height, bits)
