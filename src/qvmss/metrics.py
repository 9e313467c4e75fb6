"""Image quality and secrecy statistics for a pair of binary images: MSE,
PSNR, global SSIM, Pearson correlation, mismatch and ones fractions.

Bits are scored on the 8-bit intensity mapping {0, 1} -> {0, 255}, so PSNR
magnitudes land in the familiar regime.  For two bit images every metric is
a closed form in the 2x2 contingency counts: the pixel count N, the ones
counts n_a and n_b, and the joint ones count n_11.  Moments are population
(1/N), SSIM is the single-window whole-image form (Wang et al., IEEE TIP
2004), and a 1-pixel image is allowed.  The counts are popcounts over the
images' packed rows; each image's own ones count is taken once and cached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import BinaryImage, count_ones, require_same_shape

PEAK = 255
SSIM_C1 = (0.01 * PEAK) ** 2
SSIM_C2 = (0.03 * PEAK) ** 2


def uniformity_bound(pixels: int) -> float:
    """4 sigma for the ones fraction of `pixels` fair bits around 1/2."""
    return 4.0 * 0.5 / math.sqrt(pixels)


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one image pair; `to_dict` is its JSON form."""

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
        # Field order is the JSON key order; JSON has no infinity, so PSNR says "inf".
        return dict(vars(self), psnr_db="inf" if math.isinf(self.psnr_db) else self.psnr_db)


def report(a: BinaryImage, b: BinaryImage) -> MetricsReport:
    """Every metric for a pair of equal-sized binary images.

    The counts are popcounts over the packed rows, whose padding bits are
    0 and so count nothing.  Each image caches its ones count and the `flat`
    view of its rows, so a pair costs one AND and one popcount, and no reshape.
    """
    require_same_shape(a, b)
    n_11 = count_ones(np.bitwise_and(a.flat, b.flat))
    return from_counts(a.width, a.height, a.ones, b.ones, n_11)


def from_counts(width: int, height: int, n_a: int, n_b: int, n_11: int) -> MetricsReport:
    """Every metric from a pair's 2x2 contingency counts.

    Numerators are exact integers and each float is one division, so MSE
    and the fractions are correctly rounded, and identical images score an
    SSIM (and, unless constant, a correlation) of exactly 1.0.  Counts that
    no pair of images has, such as n_11 > n_a, raise ValueError: an image's
    rows written after it cached its ones count would give such counts.
    """
    n = width * height
    if not 0 <= n_11 <= min(n_a, n_b) or n_a + n_b - n_11 > n:
        raise ValueError(f"no {width}x{height} image pair has counts "
                         f"n_a={n_a}, n_b={n_b}, n_11={n_11}")
    mismatches = n_a + n_b - 2 * n_11

    peak2 = PEAK * PEAK
    mse = peak2 * mismatches / n
    mean_a = PEAK * n_a / n
    mean_b = PEAK * n_b / n
    var_a = peak2 * n_a * (n - n_a) / (n * n)
    var_b = peak2 * n_b * (n - n_b) / (n * n)
    covariance = peak2 * (n * n_11 - n_a * n_b) / (n * n)

    ssim = ((2.0 * mean_a * mean_b + SSIM_C1) * (2.0 * covariance + SSIM_C2)) / (
        (mean_a * mean_a + mean_b * mean_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    )
    correlation = None
    if var_a > 0.0 and var_b > 0.0:
        correlation = covariance / math.sqrt(var_a * var_b)
    return MetricsReport(
        mse=mse,
        psnr_db=math.inf if mismatches == 0 else 10.0 * math.log10(peak2 / mse),
        ssim=ssim,
        correlation=correlation,
        mismatch_fraction=mismatches / n,
        ones_fraction_a=n_a / n,
        ones_fraction_b=n_b / n,
        width=width,
        height=height,
    )
