"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them alongside the pytest verdicts)."""
import json
import math
import time

import numpy as np

from qvmss.cli import main
from qvmss.imaging import make_fixture, write_pbm
from qvmss.metrics import report
from qvmss.scheme import (
    classical_encrypt,
    decrypt,
    decrypt_all,
    encrypt,
    transmitter_state,
)

SEEDS = list(range(1, 11))


def random_images(n, size, seed):
    return [make_fixture("random", size, size, seed=seed * 100 + i) for i in range(n)]


def test_criterion_1_lossless_recovery():
    started = time.perf_counter()
    cases = [(n, size) for n in (1, 2, 3, 4) for size in (8, 64)] + [(2, 512)]
    for n, size in cases:
        for seed in SEEDS:
            secrets = random_images(n, size, seed)
            share_set = encrypt(secrets, seed)
            recovered = decrypt_all(share_set)
            assert recovered == secrets, f"round trip broke at n={n} size={size} seed={seed}"
            for original, back in zip(secrets, recovered):
                rep = report(original, back)
                assert rep.ssim == 1.0
                assert rep.correlation == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: lossless recovery, ssim=corr=1.0 exactly "
          f"({len(cases) * len(SEEDS)} runs in {elapsed:.1f}s)")


def test_criterion_2_circuit_matches_classical_oracle():
    for seed in SEEDS:
        secrets = random_images(2, 64, seed)
        share_set = encrypt(secrets, seed)
        oracle = classical_encrypt(secrets, share_set.unishare)
        assert list(share_set.shares) == oracle
    print("\nPASS criterion 2: simulated circuit shares == XOR oracle for 10 seeds")


def test_criterion_3_two_branch_transmitter_states():
    for n in (1, 2, 3, 4):
        full_mask = (1 << (n + 1)) - 1
        for value in range(1 << n):
            g = [(value >> (n - 1 - j)) & 1 for j in range(n)]
            probs = abs(transmitter_state(g)) ** 2
            support = np.flatnonzero(probs)
            assert len(support) == 2
            i0, i1 = support
            assert i0 ^ i1 == full_mask, "branches must complement in every bit"
            assert np.all(np.abs(probs[support] - 0.5) <= 1e-12)
    print("\nPASS criterion 3: all transmitter states are two complementary 0.5 branches")


def test_criterion_4_share_uniformity():
    size = 256
    bound = 0.008
    failures = 0
    for seed in SEEDS:
        secrets = random_images(2, size, seed)
        share_set = encrypt(secrets, seed)
        fractions = [share_set.unishare.ones_fraction()]
        fractions += [s.ones_fraction() for s in share_set.shares]
        if any(abs(f - 0.5) > bound for f in fractions):
            failures += 1
    assert failures <= 1, f"{failures} of {len(SEEDS)} runs outside 0.5 +/- {bound}"
    print(f"\nPASS criterion 4: U and S_k ones-fraction within 0.5 +/- {bound} "
          f"({failures} failing runs out of {len(SEEDS)}, 1 allowed)")


def test_criterion_5_secrecy_statistics():
    secrets = random_images(2, 256, seed=77)
    share_set = encrypt(secrets, 77)
    for k, secret in enumerate(secrets):
        for j, share in enumerate(share_set.shares):
            rep = report(secret, share)
            assert abs(rep.psnr_db - 3.01) <= 0.3, f"psnr G{k+1} vs S{j+1}: {rep.psnr_db}"
            assert abs(rep.correlation) < 0.05, f"corr G{k+1} vs S{j+1}: {rep.correlation}"
            assert abs(rep.mismatch_fraction - 0.5) <= 0.02
    print("\nPASS criterion 5: secret-vs-share psnr=3.01+/-0.3dB, |corr|<0.05, mismatch=0.5+/-0.02")


def test_criterion_6_wrong_key_noise():
    secrets = random_images(1, 256, seed=31)
    share_set = encrypt(secrets, 31)
    wrong_unishare = make_fixture("random", 256, 256, seed=87654)
    garbage = decrypt(wrong_unishare, share_set.shares[0])
    m = report(garbage, secrets[0]).mismatch_fraction
    assert abs(m - 0.5) <= 0.02, f"wrong-key mismatch {m}"
    print(f"\nPASS criterion 6: wrong UniShare decrypts to noise (mismatch {m:.4f})")


def test_criterion_7_pairwise_xor_identity():
    for n, size in [(2, 8), (2, 64), (3, 32), (4, 16)]:
        for seed in SEEDS[:5]:
            secrets = random_images(n, size, seed)
            share_set = encrypt(secrets, seed)
            for j in range(n):
                for k in range(j + 1, n):
                    assert (share_set.shares[j] ^ share_set.shares[k]) == (
                        secrets[j] ^ secrets[k]
                    )
    print("\nPASS criterion 7: S_j xor S_k == G_j xor G_k bit-exact on every instance")


def test_criterion_8_metric_algebra(flat_image):
    for seed in SEEDS[:5]:
        a = make_fixture("random", 64, 64, seed=seed)
        b = make_fixture("random", 64, 64, seed=seed + 1000)
        rep = report(a, b)
        assert rep.mismatch_fraction > 0
        assert abs(rep.psnr_db + 10.0 * math.log10(rep.mismatch_fraction)) < 1e-9

    zeros = flat_image(16, 16, 0)
    ones = flat_image(16, 16, 1)
    assert report(zeros, ones).mse == 65025.0
    assert math.isinf(report(zeros, zeros).psnr_db)
    print("\nPASS criterion 8: psnr == -10*log10(mismatch), mse(0,255)=65025, psnr(id)=inf")


def test_criterion_9_demo_determinism(tmp_path):
    digests = []
    for name in ["a", "b"]:
        assert main(["demo", "--seed", "7", "-o", str(tmp_path / name)]) == 0
        digests.append(json.loads((tmp_path / name / "manifest.json").read_text())["files"])
    assert digests[0] == digests[1]

    secrets = []
    for i, image in enumerate(random_images(2, 512, seed=7), start=1):
        secrets.append(tmp_path / f"g{i}.pbm")
        secrets[-1].write_bytes(write_pbm(image))
    manifests = []
    for threads in ["1", "4"]:
        out = tmp_path / f"enc{threads}"
        assert main(["encrypt", "--seed", "7", "--threads", threads, *map(str, secrets),
                     "-o", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    print("\nPASS criterion 9: demo --seed 7 manifests identical across reruns, and encrypt's "
          "whatever --threads says")


def test_criterion_10_encryption_performance():
    secrets = random_images(2, 512, seed=5)
    started = time.perf_counter()
    share_set = encrypt(secrets, 5)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"512x512 n=2 encryption took {elapsed:.2f}s"
    assert share_set.width == 512 and len(share_set.shares) == 2
    print(f"\nPASS criterion 10: 512x512 n=2 bit-plane engine encryption in {elapsed:.2f}s")
