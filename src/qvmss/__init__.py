"""Universal-share (n, n+1) visual multi-secret sharing of binary images,
encrypted by running the per-pixel circuit on a bit-plane engine.

The package namespace holds the pipeline; every other name is imported from
its module (`qvmss.scheme`, `qvmss.imaging`, `qvmss.metrics`, ...)."""

from .imaging import BinaryImage, make_fixture
from .metrics import report
from .scheme import decrypt_all, encrypt

__version__ = "0.1.0"

__all__ = ["BinaryImage", "decrypt_all", "encrypt", "make_fixture", "report"]
