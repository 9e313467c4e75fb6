#!/usr/bin/env python3
"""Benchmark the batch encryption engine behind `encrypt`.

Times `encrypt` across image sizes, arities, and thread counts, and verifies
each run round-trips before reporting it.  `floor_x` is the engine's time over
its floor: the `rng.unit_array` draws for every pixel, made as the engine makes
them (one call per block into buffers every block reuses), plus the XOR oracle
`classical_encrypt`, timed in one thread on the same inputs.  `threads` is the
count asked for; `encrypt` caps it at the CPU and block counts.
"""
import argparse
import time

import numpy as np

from qvmss import rng
from qvmss.imaging import make_fixture
from qvmss.scheme import _BLOCK_PIXELS, classical_encrypt, decrypt_all, encrypt


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_case(size, arity, threads, seed, repeats):
    """Best encrypt time and best floor time, in seconds."""
    secrets = [make_fixture("random", size, size, seed=seed + i) for i in range(arity)]
    share_set = encrypt(secrets, seed, threads=threads)
    assert decrypt_all(share_set) == secrets, "round trip failed"
    seconds = best_of(repeats, lambda: encrypt(secrets, seed, threads=threads))

    def floor():
        offsets = np.arange(_BLOCK_PIXELS, dtype=np.uint64)
        streams, draws = np.empty_like(offsets), np.empty(_BLOCK_PIXELS)
        for lo in range(0, size * size, _BLOCK_PIXELS):
            m = min(_BLOCK_PIXELS, size * size - lo)
            block = np.add(offsets[:m], np.uint64(lo), out=streams[:m])
            rng.unit_array(seed, block, 0, out=draws[:m], scratch=block)
        classical_encrypt(secrets, share_set.unishare)

    return seconds, best_of(repeats, floor)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--arities", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3, help="keep the best of N runs")
    args = parser.parse_args()

    print(f"{'size':>6} {'arity':>5} {'threads':>7} {'seconds':>9} {'Mpixel/s':>9} {'floor_x':>7}")
    for size in args.sizes:
        for arity in args.arities:
            for threads in args.threads:
                seconds, floor = run_case(size, arity, threads, args.seed, args.repeats)
                rate = size * size / seconds / 1e6
                print(f"{size:>6} {arity:>5} {threads:>7} {seconds:>9.3f} {rate:>9.2f}"
                      f" {seconds / floor:>7.2f}")


if __name__ == "__main__":
    main()
