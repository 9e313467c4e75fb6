"""Universal-share (n, n+1) visual multi-secret sharing of binary images,
encrypted by running the per-pixel circuit on a bit-plane engine."""

from .imaging import (
    BinaryImage,
    PbmParseError,
    PbmVariant,
    ShapeMismatchError,
    make_fixture,
    read_pbm,
    write_pbm,
)
from .metrics import MetricsReport, report
from .rng import RngStream
from .scheme import (
    ConfigError,
    PixelOutcome,
    ShareSet,
    classical_encrypt,
    decode_pixel,
    decrypt,
    decrypt_all,
    encode_pixel,
    encrypt,
    transmitter_state,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryImage",
    "ConfigError",
    "MetricsReport",
    "PbmParseError",
    "PbmVariant",
    "PixelOutcome",
    "RngStream",
    "ShapeMismatchError",
    "ShareSet",
    "classical_encrypt",
    "decode_pixel",
    "decrypt",
    "decrypt_all",
    "encode_pixel",
    "encrypt",
    "make_fixture",
    "read_pbm",
    "report",
    "transmitter_state",
    "write_pbm",
]
