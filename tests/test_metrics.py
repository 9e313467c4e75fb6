import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvmss.imaging import BinaryImage, ShapeMismatchError, make_fixture
from qvmss.metrics import from_counts, report
from qvmss.rng import unit_array
from qvmss.scheme import encrypt


def flat_bits(img):
    """The image's bits unpacked, flat in row-major order."""
    return img.as_grid().reshape(-1)


def inverted(img):
    return BinaryImage(img.width, img.height, flat_bits(img) ^ 1)


def random_pair(width, height, seed):
    return (
        make_fixture("random", width, height, seed=seed),
        make_fixture("random", width, height, seed=seed + 1),
    )


def textbook_metrics(a, b):
    """Float64 reference: map bits to {0, 255} grids, then population moments."""
    x = a.as_grid() * 255.0
    y = b.as_grid() * 255.0
    error = float(np.mean((x - y) ** 2))
    mu_x, mu_y = float(x.mean()), float(y.mean())
    var_x = float(np.mean((x - mu_x) ** 2))
    var_y = float(np.mean((y - mu_y) ** 2))
    cov = float(np.mean((x - mu_x) * (y - mu_y)))
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    return {
        "mse": error,
        "psnr_db": math.inf if error == 0.0 else 10.0 * math.log10(255.0**2 / error),
        "ssim": ((2 * mu_x * mu_y + c1) * (2 * cov + c2))
        / ((mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)),
        "correlation": None if var_x == 0.0 or var_y == 0.0 else cov / math.sqrt(var_x * var_y),
        "mismatch_fraction": float(np.mean(flat_bits(a) != flat_bits(b))),
        "ones_fraction_a": float(np.mean(flat_bits(a))),
        "ones_fraction_b": float(np.mean(flat_bits(b))),
    }


# ----------------------------------------------------------------------- mse

def test_mse_identical_is_zero():
    a = make_fixture("random", 8, 8, seed=1)
    assert report(a, a).mse == 0.0


def test_mse_full_swing_is_peak_squared(flat_image):
    assert report(flat_image(5, 7, 0), flat_image(5, 7, 1)).mse == 65025.0


def test_mse_half_differing_pixels():
    a = BinaryImage(4, 4, [0] * 16)
    b = BinaryImage(4, 4, [1] * 8 + [0] * 8)
    assert report(a, b).mse == 32512.5


def test_mse_shape_mismatch(flat_image):
    with pytest.raises(ShapeMismatchError):
        report(flat_image(2, 2, 0), flat_image(3, 2, 0))


# ---------------------------------------------------------------------- psnr

def test_psnr_identical_is_infinite():
    a = make_fixture("random", 8, 8, seed=2)
    assert math.isinf(report(a, a).psnr_db)


def test_psnr_full_swing_is_zero_db(flat_image):
    assert report(flat_image(4, 4, 0), flat_image(4, 4, 1)).psnr_db == 0.0


def test_psnr_half_differing_is_ten_log_two():
    a = BinaryImage(4, 4, [0] * 16)
    b = BinaryImage(4, 4, [1] * 8 + [0] * 8)
    assert report(a, b).psnr_db == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)


def test_psnr_equals_neg_log_mismatch_for_binary_pairs():
    for seed in range(6):
        rep = report(*random_pair(32, 32, seed * 10))
        assert rep.mismatch_fraction > 0
        assert abs(rep.psnr_db + 10.0 * math.log10(rep.mismatch_fraction)) < 1e-9


# ---------------------------------------------------------------------- ssim

def test_ssim_identical_is_exactly_one():
    a = make_fixture("random", 16, 16, seed=3)
    assert report(a, a).ssim == 1.0


def test_ssim_constant_image_against_itself(flat_image):
    a = flat_image(8, 8, 1)
    assert report(a, a).ssim == 1.0


def test_ssim_checkerboard_complement_matches_hand_formula():
    board = make_fixture("checkerboard", 8, 8)
    # mean 127.5 on both sides, covariance exactly -variance
    mu, var = 127.5, 127.5**2
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    expected = ((2 * mu * mu + c1) * (-2 * var + c2)) / ((2 * mu * mu + c1) * (2 * var + c2))
    got = report(board, inverted(board)).ssim
    assert got < 0
    assert got == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------------- correlation

def test_correlation_identical_nonconstant_is_one():
    a = make_fixture("random", 16, 16, seed=4)
    assert report(a, a).correlation == 1.0


def test_correlation_complement_is_minus_one():
    img = make_fixture("checkerboard", 6, 6)
    assert report(img, inverted(img)).correlation == pytest.approx(-1.0, abs=1e-12)


def test_correlation_constant_input_is_undefined(flat_image):
    flat = flat_image(4, 4, 0)
    wavy = make_fixture("checkerboard", 4, 4)
    assert report(flat, wavy).correlation is None
    assert report(wavy, flat).correlation is None
    assert report(flat, flat).correlation is None


# ----------------------------------------------------------------- mismatch

def test_mismatch_extremes():
    img = make_fixture("random", 8, 8, seed=5)
    assert report(img, img).mismatch_fraction == 0.0
    assert report(img, inverted(img)).mismatch_fraction == 1.0


def test_mismatch_secret_vs_share_is_half():
    secret = make_fixture("random", 256, 256, seed=6)
    share_set = encrypt([secret], 7)
    assert report(secret, share_set.shares[0]).mismatch_fraction == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("width, height, seed", [(1, 1, 0), (7, 5, 1), (64, 64, 2), (257, 130, 3)])
def test_npcr_and_uaci_are_the_mismatch_fraction(width, height, seed):
    # NPCR and UACI (Wu, Noonan & Agaian, 2011) by their definitions, as fractions,
    # on the 0/255 grey levels of two binary images: a pixel that differs differs by 255.
    bits = np.random.default_rng(seed).integers(0, 2, (2, width * height), dtype=np.uint8)
    c1, c2 = 255 * bits.astype(np.int64)
    npcr = np.mean(c1 != c2)
    uaci = np.mean(np.abs(c1 - c2) / 255)
    a, b = (BinaryImage(width, height, plane) for plane in bits)
    assert npcr == report(a, b).mismatch_fraction
    assert uaci == report(a, b).mismatch_fraction


# --------------------------------------------------------------- properties

@settings(max_examples=200)
@given(
    width=st.integers(1, 32),
    height=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    density_a=st.floats(0.0, 1.0),
    density_b=st.floats(0.0, 1.0),
)
def test_report_matches_textbook_float_oracle(width, height, seed, density_a, density_b):
    draws = np.random.default_rng(seed).random((2, width * height))
    a = BinaryImage(width, height, draws[0] < density_a)
    b = BinaryImage(width, height, draws[1] < density_b)
    got = report(a, b).to_dict()
    expected = textbook_metrics(a, b)
    for field in ("mse", "mismatch_fraction", "ones_fraction_a", "ones_fraction_b"):
        assert got[field] == expected[field], field
    assert got["psnr_db"] == ("inf" if math.isinf(expected["psnr_db"]) else expected["psnr_db"])
    assert got["ssim"] == pytest.approx(expected["ssim"], abs=1e-12)
    if expected["correlation"] is None:
        assert got["correlation"] is None
    else:
        assert got["correlation"] == pytest.approx(expected["correlation"], abs=1e-12)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(2, 16), height=st.integers(2, 16))
def test_metrics_are_symmetric(seed, width, height):
    img_a, img_b = random_pair(width, height, seed)
    ab, ba = report(img_a, img_b), report(img_b, img_a)
    assert ab.mse == ba.mse
    assert ab.psnr_db == ba.psnr_db
    assert abs(ab.ssim - ba.ssim) < 1e-12
    if ab.correlation is None or ba.correlation is None:
        assert ab.correlation is None and ba.correlation is None
    else:
        assert abs(ab.correlation - ba.correlation) < 1e-12
    assert ab.mismatch_fraction == ba.mismatch_fraction


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_metrics_invariant_under_joint_pixel_permutation(seed):
    img_a, img_b = random_pair(8, 8, seed)
    order = np.argsort(unit_array(seed, np.arange(64, dtype=np.uint64), 9))
    perm_a = BinaryImage(8, 8, flat_bits(img_a)[order])
    perm_b = BinaryImage(8, 8, flat_bits(img_b)[order])

    plain, permuted = report(img_a, img_b), report(perm_a, perm_b)
    assert plain.mse == permuted.mse
    assert abs(plain.ssim - permuted.ssim) < 1e-12
    assert plain.mismatch_fraction == permuted.mismatch_fraction


@settings(max_examples=150)
@given(
    width=st.sampled_from([1, 7, 9, 63, 65]),
    height=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    density_a=st.floats(0.0, 1.0),
    density_b=st.floats(0.0, 1.0),
)
def test_packed_report_equals_closed_forms_of_unpacked_counts(
    width, height, seed, density_a, density_b
):
    # Widths off a multiple of 8 leave padding bits in each packed row.
    bits = np.random.default_rng(seed).random((2, width * height)) < [[density_a], [density_b]]
    a, b = (BinaryImage(width, height, row) for row in bits)
    expected = from_counts(
        width, height,
        np.count_nonzero(bits[0]), np.count_nonzero(bits[1]),
        np.count_nonzero(bits[0] & bits[1]),
    )
    assert report(a, b) == expected


# ------------------------------------------------------------------- report

def test_report_identical_images():
    img = make_fixture("random", 32, 32, seed=8)
    rep = report(img, img)
    assert math.isinf(rep.psnr_db)
    assert rep.mse == 0.0
    assert rep.ssim == 1.0
    assert rep.correlation == 1.0
    assert rep.mismatch_fraction == 0.0
    assert rep.ones_fraction_a == rep.ones_fraction_b


def test_report_complement_images():
    img = make_fixture("checkerboard", 8, 8)
    rep = report(img, inverted(img))
    assert rep.psnr_db == 0.0
    assert rep.correlation == pytest.approx(-1.0, abs=1e-12)
    assert rep.mismatch_fraction == 1.0


def test_report_secret_vs_share_statistics():
    secret = make_fixture("random", 256, 256, seed=9)
    share_set = encrypt([secret], 10)
    rep = report(secret, share_set.shares[0])
    assert rep.psnr_db == pytest.approx(3.01, abs=0.3)
    assert abs(rep.correlation) < 0.05
    assert rep.mismatch_fraction == pytest.approx(0.5, abs=0.02)


def test_report_json_schema(flat_image):
    img = make_fixture("random", 4, 4, seed=11)
    payload = json.loads(json.dumps(report(img, img).to_dict()))
    assert payload["psnr_db"] == "inf"
    assert set(payload) == {
        "mse", "psnr_db", "ssim", "correlation", "mismatch_fraction",
        "ones_fraction_a", "ones_fraction_b", "width", "height",
    }
    flat = flat_image(4, 4, 0)
    payload = json.loads(json.dumps(report(flat, img).to_dict()))
    assert payload["correlation"] is None
    assert isinstance(payload["psnr_db"], float)


def test_report_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        report(make_fixture("random", 4, 4, seed=1), make_fixture("random", 4, 5, seed=1))


@pytest.mark.parametrize("n_a, n_b, n_11", [
    (1, 2, 2), (2, 1, 2), (0, 0, -1), (3, 3, 1), (5, 0, 0),
], ids=["n11_above_na", "n11_above_nb", "negative_n11", "union_above_n", "na_above_n"])
def test_from_counts_rejects_counts_no_pair_has(n_a, n_b, n_11):
    with pytest.raises(ValueError, match="no 2x2 image pair"):
        from_counts(2, 2, n_a, n_b, n_11)


@pytest.mark.parametrize("n_a, n_b, n_11", [(0, 0, 0), (4, 4, 4), (2, 2, 0), (3, 3, 2)])
def test_from_counts_accepts_the_extreme_counts(n_a, n_b, n_11):
    assert from_counts(2, 2, n_a, n_b, n_11).mismatch_fraction == (n_a + n_b - 2 * n_11) / 4


def test_rows_written_after_the_ones_count_fail_loudly():
    # `from_rows` holds the caller's array without a copy, so a caller that writes it
    # afterwards leaves the cached count stale; report must refuse, not score it.
    rows = np.zeros((2, 1), dtype=np.uint8)
    img = BinaryImage.from_rows(8, 2, rows)
    assert img.ones == 0
    rows[:] = 0xFF
    with pytest.raises(ValueError, match="n_a=0, n_b=0, n_11=16"):
        report(img, img)
