"""The benchmark's own PBM codec, kept apart from `qvmss.imaging`.

Inputs are written with `encode` and every file the program writes is read
back with `decode`, so a fault in the program's codec cannot hide itself by
being on both sides of a check.  Images are (height, width) uint8 arrays of
0/1, with 1 the black pixel, as in netpbm.
"""
from __future__ import annotations

import re

import numpy as np

_COMMENT = re.compile(rb"#[^\n\r]*")
_WHITESPACE = b" \t\n\r\v\f"


class DecodeError(ValueError):
    pass


def encode(bits: np.ndarray, variant: str, comment: str | None = None) -> bytes:
    """P1 or P4 bytes for a (height, width) bit array; `comment` goes in the header."""
    height, width = bits.shape
    magic = "P1" if variant == "p1" else "P4"
    note = f"# {comment}\n" if comment else ""
    header = f"{magic}\n{note}{width} {height}\n".encode("ascii")
    if variant == "p4":
        return header + np.packbits(bits.astype(np.uint8), axis=1).tobytes()
    # One character per pixel, separated by spaces, one raster row per line.
    text = np.full((height, 2 * width), ord(" "), dtype=np.uint8)
    text[:, 0::2] = bits + ord("0")
    text[:, -1] = ord("\n")
    return header + text.tobytes()


def _header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        if data[pos] in _WHITESPACE:
            pos += 1
        elif data[pos] == ord("#"):
            while pos < len(data) and data[pos] not in b"\n\r":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    if start == pos:
        raise DecodeError(f"header ends early at byte {start}")
    return data[start:pos], pos


def decode(data: bytes) -> tuple[str, np.ndarray]:
    """(variant, bits) of a PBM file; raises DecodeError on anything malformed."""
    magic, pos = _header_token(data, 0)
    if magic not in (b"P1", b"P4"):
        raise DecodeError(f"bad magic {magic!r}")
    dims = []
    for _ in range(2):
        token, pos = _header_token(data, pos)
        if not token.isdigit() or int(token) < 1:
            raise DecodeError(f"bad dimension {token!r}")
        dims.append(int(token))
    width, height = dims
    if magic == b"P4":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise DecodeError("no whitespace before the packed raster")
        row_bytes = (width + 7) // 8
        payload = np.frombuffer(data, dtype=np.uint8, offset=pos + 1)
        if payload.size != row_bytes * height:
            raise DecodeError(f"raster has {payload.size} bytes, expected {row_bytes * height}")
        bits = np.unpackbits(payload.reshape(height, row_bytes), axis=1)
        if bits[:, width:].any():
            raise DecodeError("nonzero padding bits")
        return "p4", np.ascontiguousarray(bits[:, :width])
    body = np.frombuffer(_COMMENT.sub(b"", data[pos:]), dtype=np.uint8)
    digits = (body == ord("0")) | (body == ord("1"))
    if not np.isin(body[~digits], np.frombuffer(_WHITESPACE, dtype=np.uint8)).all():
        raise DecodeError("raster holds a byte that is neither 0, 1 nor whitespace")
    values = body[digits] - ord("0")
    if values.size != width * height:
        raise DecodeError(f"raster has {values.size} pixels, expected {width * height}")
    return "p1", values.reshape(height, width)
