#!/usr/bin/env python3
"""Benchmark the batch encryption engine behind `encrypt`.

Times `encrypt` across image sizes, arities, and thread counts, and verifies
each run round-trips before reporting it.  Useful for checking the desk-scale
performance target (512x512, n=2, single thread, well under 10 s).
"""
import argparse
import time

from qvmss.imaging import make_fixture
from qvmss.scheme import decrypt_all, encrypt


def run_case(size, arity, threads, seed, repeats):
    secrets = [make_fixture("random", size, size, seed=seed + i) for i in range(arity)]
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        share_set = encrypt(secrets, seed, threads=threads)
        best = min(best, time.perf_counter() - started)
    assert decrypt_all(share_set) == secrets, "round trip failed"
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--arities", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3, help="keep the best of N runs")
    args = parser.parse_args()

    print(f"{'size':>6} {'arity':>5} {'threads':>7} {'seconds':>9} {'Mpixel/s':>9}")
    for size in args.sizes:
        for arity in args.arities:
            for threads in args.threads:
                seconds = run_case(size, arity, threads, args.seed, args.repeats)
                rate = size * size / seconds / 1e6
                print(f"{size:>6} {arity:>5} {threads:>7} {seconds:>9.3f} {rate:>9.2f}")


if __name__ == "__main__":
    main()
