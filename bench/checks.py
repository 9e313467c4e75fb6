"""Checks of the program's outputs against computations made apart from it.

Every function returns a list of failure messages; an empty list is a pass.
Nothing here compares against stored output: each expectation is derived
from the inputs the benchmark generated, or from a property of the scheme.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import pbm

PEAK = 255.0
_C1 = (0.01 * PEAK) ** 2
_C2 = (0.03 * PEAK) ** 2
_TOLERANCE = dict(rel_tol=1e-9, abs_tol=1e-9)


def read_images(directory: Path, names: list[str], variant: str,
                failures: list[str]) -> dict[str, np.ndarray]:
    """Decode each named file with the benchmark's own codec."""
    images = {}
    for name in names:
        try:
            got_variant, bits = pbm.decode((directory / name).read_bytes())
        except (OSError, pbm.DecodeError) as exc:
            failures.append(f"{name}: {exc}")
            continue
        if got_variant != variant:
            failures.append(f"{name}: written as {got_variant}, asked for {variant}")
        images[name] = bits
    return images


def check_encrypt(out_dir: Path, secrets: list[np.ndarray], seed: int,
                  variant: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """XOR identity, manifest, digests and UniShare uniformity of one encrypt."""
    failures: list[str] = []
    n = len(secrets)
    height, width = secrets[0].shape
    names = ["U.pbm", *(f"S{k}.pbm" for k in range(1, n + 1))]
    images = read_images(out_dir, names, variant, failures)
    if len(images) != len(names):
        return failures, images

    u = images["U.pbm"]
    for k, secret in enumerate(secrets, start=1):
        share = images[f"S{k}.pbm"]
        if share.shape != secret.shape:
            failures.append(f"S{k}.pbm is {share.shape}, secret is {secret.shape}")
        elif not np.array_equal(share ^ u, secret):
            bad = int(np.count_nonzero((share ^ u) != secret))
            failures.append(f"S{k} xor U differs from G{k} at {bad} pixels")

    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        failures.append(f"manifest.json: {exc}")
        return failures, images
    expected = {"seed": seed, "arity": n, "width": width, "height": height}
    for key, want in expected.items():
        if manifest.get(key) != want:
            failures.append(f"manifest {key} = {manifest.get(key)!r}, expected {want!r}")
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in names}
    if manifest.get("files") != digests:
        failures.append("manifest digests differ from the SHA-256 of the written files")

    pixels = u.size
    deviation = abs(float(u.mean()) - 0.5)
    bound = 4.0 * 0.5 / math.sqrt(pixels)
    if deviation > bound:
        failures.append(f"U ones-fraction off 1/2 by {deviation:.6f} > 4 sigma = {bound:.6f}")
    return failures, images


def check_reference_sample(images: dict[str, np.ndarray], secrets: list[np.ndarray],
                           seed: int, sample: np.ndarray, encode_pixel,
                           stream_type) -> list[str]:
    """U and every share equal the per-pixel circuit `encode_pixel` at sampled pixels."""
    u = images["U.pbm"].reshape(-1)
    shares = [images[f"S{k}.pbm"].reshape(-1) for k in range(1, len(secrets) + 1)]
    flat = [s.reshape(-1) for s in secrets]
    failures = []
    for p in sample.tolist():
        outcome = encode_pixel([int(g[p]) for g in flat], stream_type(seed, p))
        got = (int(u[p]), tuple(int(s[p]) for s in shares))
        if got != (outcome.u, outcome.s):
            failures.append(f"pixel {p}: files give {got}, encode_pixel gives "
                            f"{(outcome.u, outcome.s)}")
    return failures


def check_decrypt(rec_dir: Path, secrets: list[np.ndarray], variant: str) -> list[str]:
    """Every recovered image equals its secret."""
    failures: list[str] = []
    names = [f"G{k}_rec.pbm" for k in range(1, len(secrets) + 1)]
    images = read_images(rec_dir, names, variant, failures)
    for name, secret in zip(names, secrets):
        if name in images and not np.array_equal(images[name], secret):
            failures.append(f"{name} differs from its secret")
    return failures


def closed_form_report(a: np.ndarray, b: np.ndarray) -> dict:
    """Every metric of a binary pair from its 2x2 contingency counts alone."""
    counts = np.bincount((a.reshape(-1) * 2 + b.reshape(-1)).astype(np.intp), minlength=4)
    n00, n01, n10, n11 = (int(c) for c in counts)
    total = n00 + n01 + n10 + n11
    pa, pb = (n10 + n11) / total, (n01 + n11) / total
    mismatch = (n01 + n10) / total
    cov = PEAK * PEAK * (n11 / total - pa * pb)
    var_a, var_b = PEAK * PEAK * pa * (1 - pa), PEAK * PEAK * pb * (1 - pb)
    mu_a, mu_b = PEAK * pa, PEAK * pb
    ssim = ((2 * mu_a * mu_b + _C1) * (2 * cov + _C2)
            / ((mu_a * mu_a + mu_b * mu_b + _C1) * (var_a + var_b + _C2)))
    constant = pa in (0.0, 1.0) or pb in (0.0, 1.0)
    return {
        "mse": PEAK * PEAK * mismatch,
        "psnr_db": "inf" if mismatch == 0 else 10.0 * math.log10(1.0 / mismatch),
        "ssim": ssim,
        "correlation": None if constant else cov / math.sqrt(var_a * var_b),
        "mismatch_fraction": mismatch,
        "ones_fraction_a": pa,
        "ones_fraction_b": pb,
        "width": a.shape[1],
        "height": a.shape[0],
    }


def _agrees(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return math.isclose(got, want, **_TOLERANCE)
    return got == want


def check_report(entry: dict, a: np.ndarray, b: np.ndarray) -> list[str]:
    want = closed_form_report(a, b)
    return [f"{key} = {entry.get(key)!r}, closed form gives {value!r}"
            for key, value in want.items() if not _agrees(entry.get(key), value)]


def check_pairs(entries, expected: list[tuple[str, np.ndarray, str, np.ndarray]]) -> list[str]:
    """`metrics --pairs` output: one entry per expected pair, in order, each in closed form."""
    if not isinstance(entries, list) or len(entries) != len(expected):
        count = len(entries) if isinstance(entries, list) else "no"
        return [f"metrics --pairs gave {count} entries, expected {len(expected)}"]
    failures = []
    for entry, (name_a, a, name_b, b) in zip(entries, expected):
        if (entry.get("a"), entry.get("b")) != (name_a, name_b):
            failures.append(f"entry {entry.get('a')!r} vs {entry.get('b')!r}, "
                            f"expected {name_a!r} vs {name_b!r}")
            continue
        failures += [f"{Path(name_a).name} vs {Path(name_b).name}: {f}"
                     for f in check_report(entry, a, b)]
    return failures
