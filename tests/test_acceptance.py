"""Acceptance suite: `qvmss selftest` passes on each of ten seeds, and a
512x512, n=2 encryption keeps its time budget.

`selftest` is where the scheme's properties are computed, each at its
stated bound (4 sigma for the statistical ones, no failure allowed); this
module checks only that they pass, once per seed and per criterion.
Run with -s to see a PASS line per test.
"""
import contextlib
import functools
import io
import json
import time

import pytest

from qvmss.cli import main
from qvmss.imaging import make_fixture
from qvmss.scheme import encrypt

SEEDS = list(range(1, 11))


@functools.cache
def selftest(seed):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(["selftest", "--json", "--seed", str(seed)])
    payload = json.loads(out.getvalue())
    assert payload["passed"] == (rc == 0)
    return payload


def failures(seed, properties=None):
    return [f"seed {seed} {r['property']}: {r['detail']}" for r in selftest(seed)["results"]
            if not r["passed"] and (properties is None or r["property"] in properties)]


@pytest.mark.parametrize("seed", SEEDS)
def test_selftest_passes_on_each_seed(seed):
    assert not failures(seed), "; ".join(failures(seed))
    print(f"\nPASS selftest --seed {seed}: all {len(selftest(seed)['results'])} properties")


def assert_criterion(number, *properties):
    found = {r["property"] for seed in SEEDS for r in selftest(seed)["results"]}
    assert set(properties) <= found, f"selftest lacks {set(properties) - found}"
    failed = [f for seed in SEEDS for f in failures(seed, properties)]
    assert not failed, "; ".join(failed)
    print(f"\nPASS criterion {number}: {', '.join(properties)} on seeds 1..10")


def test_criterion_2_circuit_matches_classical_oracle():
    assert_criterion(2, "oracle_equivalence")


def test_criterion_3_two_branch_transmitter_states():
    assert_criterion(3, "two_branch_support")


def test_criterion_4_share_uniformity():
    assert_criterion(4, "unishare_uniformity", "share_uniformity")


def test_criterion_5_secrecy_statistics():
    assert_criterion(5, "share_secret_independence")


def test_criterion_10_encryption_performance():
    secrets = [make_fixture("random", 512, 512, seed=500 + i) for i in range(2)]
    started = time.perf_counter()
    share_set = encrypt(secrets, 5)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"512x512 n=2 encryption took {elapsed:.2f}s"
    assert share_set.width == 512 and len(share_set.shares) == 2
    print(f"\nPASS criterion 10: 512x512 n=2 bit-plane engine encryption in {elapsed:.2f}s")
