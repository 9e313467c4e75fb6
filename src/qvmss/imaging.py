"""Binary images, bit-exact PBM I/O, and deterministic test fixtures.

Bit value 1 is an opaque/black pixel and 0 is transparent/white, which is
exactly PBM's polarity, so nothing in the pipeline ever inverts pixel values.
Both netpbm variants are supported: P1 (ASCII) and P4 (bit-packed, the
canonical output format).  A `BinaryImage` holds its pixels as P4 rows, so a
P4 read is a header parse plus at most one buffer copy (none when whole-byte
rows end the input), a P1 read packs its digits into the same rows, a P4
write is the header plus the rows' bytes, and a P1 write unpacks them.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from . import rng

MAX_DIMENSION = 1 << 20
MAX_PIXELS = 1 << 26

_WHITESPACE = b" \t\n\r\v\f"
# Whitespace runs and `#` comments (to the line end) may sit between header tokens.  One
# match takes at most 1024 of them, so the regex holds bounded state; `_read_dimension`
# repeats it until no filler is left.
_HEADER_FILLER = re.compile(rb"(?:[%s]+|#[^\n\r]*){0,1024}" % re.escape(_WHITESPACE))
_DIGITS = re.compile(rb"[0-9]*")

PBM_FORMATS = ("p1", "p4")  # the variants `write_pbm` writes, as `--format` names them

# Bytes of a P1 raster scanned per step when blanking comments.
_COMMENT_CHUNK = 1 << 16


class ShapeMismatchError(ValueError):
    """Two images that must share dimensions do not."""


class PbmParseError(ValueError):
    """Malformed PBM input; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False, init=False)
class BinaryImage:
    """Width x height grid of bits, held as read-only packed P4 rows.

    `rows` is a C-contiguous `(height, (width + 7) // 8)` uint8 array: row y
    holds pixels y*width .. y*width + width - 1, eight to a byte, most
    significant bit first, and the padding bits after the last pixel of a
    row are always 0.  So XOR, equality and popcounts run on the bytes as
    they are.  `BinaryImage(width, height, bits)` packs flat row-major 0/1
    bits; `from_rows` wraps rows that are already packed, without a copy.
    """

    width: int
    height: int
    rows: np.ndarray

    def __init__(self, width: int, height: int, bits) -> None:
        _check_dimensions(width, height)
        raw = np.asarray(bits)
        if raw.shape != (width * height,):
            raise ValueError(f"expected {width * height} bits, got shape {raw.shape}")
        # A cast to uint8 would wrap or truncate other values, so test them before it.
        if not ((raw == 0) | (raw == 1)).all():
            raise ValueError("bits must be 0 or 1")
        self._hold(width, height, pack_rows(raw.astype(np.uint8, copy=False), width))

    @classmethod
    def from_rows(cls, width: int, height: int, rows: np.ndarray) -> "BinaryImage":
        """Image over packed P4 rows, held as a read-only view, not a copy.

        `rows` must be `(height, (width + 7) // 8)` uint8 with zero padding
        bits.  The caller must not write to `rows`, or to the array it views,
        afterwards: the image caches its `ones` count on the assumption that
        its pixels never change, and `metrics.report` raises ValueError on
        the impossible counts that such a write can leave.
        """
        _check_dimensions(width, height)
        rows = np.asarray(rows)
        if rows.dtype != np.uint8 or rows.shape != (height, row_bytes(width)):
            raise ValueError(
                f"expected ({height}, {row_bytes(width)}) uint8 rows, "
                f"got {rows.shape} {rows.dtype}"
            )
        # Rows of whole bytes have no padding bits to check.
        if width % 8 and (rows[:, -1] & ~last_byte_mask(width)).any():
            raise ValueError("row padding bits must be 0")
        image = object.__new__(cls)
        image._hold(width, height, rows)
        return image

    def _hold(self, width: int, height: int, rows: np.ndarray) -> None:
        rows = np.ascontiguousarray(rows).view()  # a view, so the caller's array stays writable
        rows.flags.writeable = False
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.rows, other.rows)
        )

    def __xor__(self, other: "BinaryImage") -> "BinaryImage":
        require_same_shape(self, other)
        return BinaryImage.from_rows(self.width, self.height, self.rows ^ other.rows)

    @functools.cached_property
    def flat(self) -> np.ndarray:
        """`rows` as one flat uint8 view, made on first use and then cached."""
        return self.rows.reshape(-1)

    @functools.cached_property
    def ones(self) -> int:
        """The number of 1 pixels, popcounted on first use and then cached.

        The cache is valid because `rows` is a read-only view and nobody
        writes the array it views afterwards (see `from_rows`).
        """
        return count_ones(self.flat)

    def ones_fraction(self) -> float:
        return self.ones / (self.width * self.height)

    def as_grid(self) -> np.ndarray:
        """The bits unpacked into a new (height, width) uint8 array."""
        return np.unpackbits(self.rows, axis=1, count=self.width)


def row_bytes(width: int) -> int:
    """Bytes per packed P4 row of `width` pixels."""
    return (width + 7) // 8


def last_byte_mask(width: int) -> np.uint8:
    """The pixel bits of a row's last byte; the rest are padding."""
    return np.uint8((0xFF00 >> (1 + (width - 1) % 8)) & 0xFF)


def pack_rows(bits: np.ndarray, width: int) -> np.ndarray:
    """Flat row-major 0/1 or bool bits, `width` to a row, as new packed P4 rows.

    The images' row layout: most significant bit first, and each row
    zero-padded to whole bytes.
    """
    return np.packbits(bits.reshape(-1, width), axis=1)


def fill_keystream(rows: np.ndarray, width: int, seed: int, tag: bytes) -> None:
    """Draw the `tag` keystream under `seed` into a `width`-wide image's P4 `rows` in one
    `rng.keystream_into` pass (pixel (x, y) is bit 8*y*row_bytes + x), then clear the padding."""
    rng.keystream_into(rows, seed, tag=tag)
    if width % 8:
        rows[:, -1] &= last_byte_mask(width)


def count_ones(flat: np.ndarray) -> int:
    """Set bits in a flat uint8 array, popcounted 8 bytes at a time where the size allows."""
    if flat.size % 8 == 0:
        flat = flat.view(np.uint64)
    return int(np.bitwise_count(flat).sum())


def _check_dimensions(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ValueError(f"dimensions must be positive, got {width}x{height}")


def require_same_shape(a: BinaryImage, b: BinaryImage) -> None:
    if a.width != b.width or a.height != b.height:
        raise ShapeMismatchError(
            f"image dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def _read_dimension(data: bytes, pos: int, name: str) -> tuple[int, int]:
    while (end := _HEADER_FILLER.match(data, pos).end()) > pos:
        pos = end
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
    bits are ignored (cleared).  Raises TypeError unless data is bytes, and
    PbmParseError (with a byte offset) on bad magic, malformed dimensions,
    or truncated payload.  Either raster is read as packed P4 rows: a P4
    image whose width is a multiple of 8, read from bytes that its raster
    ends, views those bytes; any other image owns its rows.
    """
    if not isinstance(data, bytes):
        raise TypeError(f"read_pbm takes bytes, not {type(data).__name__}")
    if len(data) < 2 or data[0] != 0x50 or data[1] not in (0x31, 0x34):
        magic = data[:2].decode("ascii", errors="replace") if data else "<empty>"
        raise PbmParseError(f"unsupported magic {magic!r}, expected P1 or P4", 0)
    read_raster = _read_p1_raster if data[1] == 0x31 else _read_p4_raster
    if len(data) < 3 or (data[2] not in _WHITESPACE and data[2] != 0x23):
        raise PbmParseError("expected whitespace after magic", 2)

    width, pos = _read_dimension(data, 2, "width")
    height, pos = _read_dimension(data, pos, "height")
    if width * height > MAX_PIXELS:
        raise PbmParseError(f"image {width}x{height} exceeds {MAX_PIXELS} pixels", 2)
    return BinaryImage.from_rows(width, height, read_raster(data, pos, width, height))


def _read_p1_raster(data: bytes, pos: int, width: int, height: int) -> np.ndarray:
    count = width * height
    # Every pixel takes at least one byte; check before allocating `count`.
    if len(data) - pos < count:
        raise PbmParseError(
            f"raster truncated: need at least {count} bytes, have {len(data) - pos}",
            len(data),
        )
    raster = bytearray(memoryview(data)[pos:])  # one writable copy; a slice first would be two
    if b"#" in raster:
        _blank_comments(np.frombuffer(raster, dtype=np.uint8))
    pixels = raster.translate(None, _WHITESPACE)
    del pixels[count:]
    # Parsing stops at the count-th pixel, so only a stray byte before it is an error.
    if pixels.translate(None, b"01"):
        stray = len(raster) - len(raster.lstrip(_WHITESPACE + b"01"))  # the first stray byte
        raise PbmParseError(f"unexpected raster byte {chr(raster[stray])!r}", pos + stray)
    if len(pixels) < count:
        raise PbmParseError(f"raster ended after {len(pixels)} of {count} pixels", len(data))
    digits = np.frombuffer(pixels, dtype=np.uint8)
    return pack_rows(np.subtract(digits, 0x30, out=digits), width)


def _blank_comments(raw: np.ndarray) -> None:
    """Turn each `#` comment in `raw`, up to its line end, into spaces, in place."""
    in_comment = False  # whether a comment runs on from the previous chunk
    # Chunks bound the int64 mark indices to a fixed size, however many comments there are.
    for lo in range(0, raw.size, _COMMENT_CHUNK):
        chunk = raw[lo:lo + _COMMENT_CHUNK]
        marks = np.flatnonzero((chunk == 0x23) | (chunk == 0x0A) | (chunk == 0x0D))
        # A byte is in a comment when the last `#` or line end at or before it is a `#`.
        blank = np.repeat(np.append(in_comment, chunk[marks] == 0x23),
                          np.diff(marks, prepend=0, append=chunk.size))
        in_comment = bool(blank[-1])
        chunk[blank] = 0x20


def _read_p4_raster(data: bytes, pos: int, width: int, height: int) -> np.ndarray:
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PbmParseError("expected single whitespace before packed raster", pos)
    pos += 1
    needed = row_bytes(width) * height
    if len(data) - pos < needed:
        raise PbmParseError(
            f"packed raster truncated: need {needed} bytes, have {len(data) - pos}",
            len(data),
        )
    rows = np.frombuffer(data, dtype=np.uint8, count=needed, offset=pos).reshape(height, -1)
    # Whole-byte rows that end the bytes are used in place: read-only, with no
    # padding bits to clear, and pinning no bytes but the header.
    if width % 8 == 0 and len(data) - pos == needed:
        return rows
    rows = rows.copy()  # frees the image from `data` and makes it writable for the mask
    rows[:, -1] &= last_byte_mask(width)  # the file's padding bits may be anything
    return rows


def write_pbm(image: BinaryImage, variant: str = "p4") -> bytes:
    """Serialize to PBM bytes of a variant in PBM_FORMATS; output is canonical
    and byte-reproducible.  Any other variant is a ValueError."""
    if variant not in PBM_FORMATS:
        raise ValueError(f"PBM variant must be one of {PBM_FORMATS}, got {variant!r}")
    header = f"{variant.upper()}\n{image.width} {image.height}\n".encode("ascii")
    if variant == "p1":
        # Each row is "b b ... b\n": a digit then a space or, last, a newline.
        text = np.full((image.height, 2 * image.width), ord(" "), dtype=np.uint8)
        text[:, 0::2] = image.as_grid() + ord("0")
        text[:, -1] = ord("\n")
        return header + text.data
    # Already P4 rows with zero padding.  Joined from the array's buffer, not
    # from a tobytes() copy, the pixels are copied once.
    return header + image.rows.data


# The text_glyphs tile: "SHARE" in 3x5 glyphs a column apart, framed by blanks; '#' is opaque.
_TEXT_TILE = np.array([[ch == "#" for ch in line] for line in """
.....................
.###.#.#..#..##..###.
.#...#.#.#.#.#.#.#...
.###.###.###.##..##..
...#.#.#.#.#.#.#.#...
.###.#.#.#.#.#.#.###.
.....................
""".split()], dtype=np.uint8)


def make_fixture(kind: str, width: int, height: int, seed: int = 0) -> BinaryImage:
    """Deterministic test image: checkerboard, random, or text_glyphs.

    Each is born as packed rows: `random` drawn into them by `fill_keystream`,
    the tiled kinds as one tile-high band, packed once and repeated down.
    """
    _check_dimensions(width, height)
    if kind == "random":
        # A tag that `encrypt` never uses, so a fixture shares no bit with an encryption.
        rows = np.empty((height, row_bytes(width)), dtype=np.uint8)
        fill_keystream(rows, width, seed, rng.FIXTURE_TAG)
        return BinaryImage.from_rows(width, height, rows)
    if kind == "checkerboard":
        tile = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    elif kind == "text_glyphs":
        scale = max(1, min(width, height) // 64)
        tile = np.kron(_TEXT_TILE, np.ones((scale, scale), dtype=np.uint8))
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    band = np.tile(tile, (1, width // tile.shape[1] + 1))[:, :width]
    rows = np.resize(pack_rows(band, width), (height, row_bytes(width)))
    return BinaryImage.from_rows(width, height, rows)
