#!/usr/bin/env python3
"""Sweep the scheme's statistical security properties over many seeds.

For each seed: encrypt two random secrets, then record the ones-fraction of
the UniShare and both shares, and the secret-vs-share PSNR / correlation /
mismatch for all four pairings.  Prints per-seed rows plus a summary against
the 4-sigma uniformity bound; exits 1 if more than one run lands outside it.
"""
import argparse
import sys

from bench_entry import positive_int

from qvmss.imaging import make_fixture
from qvmss.metrics import report, uniformity_bound
from qvmss.scheme import encrypt


def sweep_once(seed, size):
    secrets = [make_fixture("random", size, size, seed=seed * 1000 + i) for i in range(2)]
    share_set = encrypt(secrets, seed)
    fractions = [share_set.unishare.ones_fraction()] + [
        s.ones_fraction() for s in share_set.shares
    ]
    pair_stats = [
        report(g, s) for g in secrets for s in share_set.shares
    ]
    return fractions, pair_stats


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=positive_int, default=10)
    parser.add_argument("--size", type=positive_int, default=256)
    parser.add_argument("--seed", type=int, default=1, help="first seed of the sweep")
    args = parser.parse_args()

    bound = uniformity_bound(args.size * args.size)
    print(f"sweep: {args.runs} runs at {args.size}x{args.size}, "
          f"uniformity bound 0.5 +/- {bound:.6f}")
    print(f"{'seed':>6} {'U_ones':>8} {'S1_ones':>8} {'S2_ones':>8} "
          f"{'psnr_min':>8} {'psnr_max':>8} {'|corr|max':>9} {'mm_max_dev':>10}")

    failures = 0
    for seed in range(args.seed, args.seed + args.runs):
        fractions, pairs = sweep_once(seed, args.size)
        psnrs = [p.psnr_db for p in pairs]
        # A constant image has no correlation; n/a when every pair has one.
        corrs = [abs(p.correlation) for p in pairs if p.correlation is not None]
        corr = f"{max(corrs):>9.4f}" if corrs else f"{'n/a':>9}"
        mm_dev = max(abs(p.mismatch_fraction - 0.5) for p in pairs)
        uniform = all(abs(f - 0.5) <= bound for f in fractions)
        failures += not uniform
        flag = "" if uniform else "  <-- outside bound"
        print(f"{seed:>6} {fractions[0]:>8.4f} {fractions[1]:>8.4f} {fractions[2]:>8.4f} "
              f"{min(psnrs):>8.4f} {max(psnrs):>8.4f} {corr} {mm_dev:>10.4f}{flag}")

    print(f"{failures} of {args.runs} runs outside the uniformity bound")
    return 1 if failures > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
