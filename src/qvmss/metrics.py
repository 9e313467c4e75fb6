"""Image quality and secrecy statistics: MSE, PSNR, global SSIM, Pearson
correlation, plus the bit-level helpers used by the security checks.

All metrics operate on 8-bit intensity grids; binary images are mapped
{0, 1} -> {0, 255} first so PSNR magnitudes land in the familiar regime.
Moments are population (1/N) throughout, and SSIM is the single-window
whole-image form.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .imaging import BinaryImage, ShapeMismatchError, require_same_shape

PEAK = 255.0


@dataclass(frozen=True)
class SsimParams:
    """Stabilizer constants for SSIM; defaults k1=0.01, k2=0.03, L=255."""

    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = PEAK

    @property
    def c1(self) -> float:
        return (self.k1 * self.dynamic_range) ** 2

    @property
    def c2(self) -> float:
        return (self.k2 * self.dynamic_range) ** 2


def intensity_of(image: BinaryImage) -> np.ndarray:
    """(height, width) float grid with bit 0 -> 0.0 and bit 1 -> 255.0."""
    grid = image.as_grid().astype(np.float64)
    grid *= PEAK
    return grid


def _check_grids(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"grid shapes differ: {a.shape} vs {b.shape}")


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared intensity difference."""
    _check_grids(a, b)
    diff = a.astype(np.float64, copy=False) - b.astype(np.float64, copy=False)
    diff *= diff
    return float(np.mean(diff))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(255^2 / MSE) in dB; +inf for identical grids."""
    error = mse(a, b)
    if error == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / error)


def ssim_global(a: np.ndarray, b: np.ndarray, params: SsimParams = SsimParams()) -> float:
    """Single-window SSIM over whole-image population moments."""
    _check_grids(a, b)
    if a.size < 2:
        raise ValueError("ssim_global needs at least 2 pixels")
    x = a.astype(np.float64, copy=False).reshape(-1)
    y = b.astype(np.float64, copy=False).reshape(-1)
    mu_x = float(x.mean())
    mu_y = float(y.mean())
    var_x = float(np.mean((x - mu_x) ** 2))
    var_y = float(np.mean((y - mu_y) ** 2))
    cov = float(np.mean((x - mu_x) * (y - mu_y)))
    c1, c2 = params.c1, params.c2
    numerator = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    denominator = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return numerator / denominator


def correlation(a: np.ndarray, b: np.ndarray) -> float | None:
    """Pearson coefficient; None when either grid is constant."""
    _check_grids(a, b)
    x = a.astype(np.float64, copy=False).reshape(-1)
    y = b.astype(np.float64, copy=False).reshape(-1)
    mu_x = float(x.mean())
    mu_y = float(y.mean())
    var_x = float(np.mean((x - mu_x) ** 2))
    var_y = float(np.mean((y - mu_y) ** 2))
    if var_x == 0.0 or var_y == 0.0:
        return None
    cov = float(np.mean((x - mu_x) * (y - mu_y)))
    return cov / math.sqrt(var_x * var_y)


def mismatch_fraction(a: BinaryImage, b: BinaryImage) -> float:
    """Fraction of pixel positions where the two images disagree."""
    require_same_shape(a, b)
    return float(np.mean(a.bits != b.bits))


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one image pair, JSON-serializable."""

    mse: float
    psnr_db: float
    ssim: float
    correlation: float | None
    mismatch_fraction: float
    ones_fraction_a: float
    ones_fraction_b: float
    width: int
    height: int

    def to_dict(self) -> dict:
        return {
            "mse": self.mse,
            "psnr_db": "inf" if math.isinf(self.psnr_db) else self.psnr_db,
            "ssim": self.ssim,
            "correlation": self.correlation,
            "mismatch_fraction": self.mismatch_fraction,
            "ones_fraction_a": self.ones_fraction_a,
            "ones_fraction_b": self.ones_fraction_b,
            "width": self.width,
            "height": self.height,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def report(a: BinaryImage, b: BinaryImage) -> MetricsReport:
    """Bundle every metric for a pair of equal-sized binary images."""
    require_same_shape(a, b)
    grid_a = intensity_of(a)
    grid_b = intensity_of(b)
    return MetricsReport(
        mse=mse(grid_a, grid_b),
        psnr_db=psnr(grid_a, grid_b),
        ssim=ssim_global(grid_a, grid_b),
        correlation=correlation(grid_a, grid_b),
        mismatch_fraction=mismatch_fraction(a, b),
        ones_fraction_a=a.ones_fraction(),
        ones_fraction_b=b.ones_fraction(),
        width=a.width,
        height=a.height,
    )
