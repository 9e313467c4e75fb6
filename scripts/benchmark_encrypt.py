#!/usr/bin/env python3
"""Benchmark the batch encryption engine behind `encrypt`.

Times `encrypt` across image sizes and arities, and verifies each run
round-trips before reporting it.  Each case runs `--repeats` times:
`seconds` is the best run, and `median_s` and `iqr_s` (upper minus lower
quartile, 0.0 below two repeats) show their spread.  `floor_s` is the best
time of the floor: one `rng.packed_bands` pass over the image, the engine's
own keystream bits, plus the XOR oracle `classical_encrypt`, on the same
inputs.  `floor_x` is the best run over the floor.

`--json PATH` appends one entry to the JSON list in PATH (made if missing):
the header of `bench_entry.py` for the imported `qvmss` sources (their git
revision, the Python and numpy versions and `nproc`) and one row per case.
"""
import argparse
import statistics
import time
from pathlib import Path

from bench_entry import append_entry

import qvmss
from qvmss import rng
from qvmss.cli import positive_int
from qvmss.imaging import make_fixture
from qvmss.scheme import MAX_ARITY, classical_encrypt, decrypt_all, encrypt


def timed(repeats, fn):
    """The wall time of each of `repeats` calls of fn, in seconds."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return times


def quartiles(values):
    """The lower quartile, median and upper quartile of values; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    lower, median, upper = statistics.quantiles(values, n=4)
    return lower, median, upper


def spread(times):
    """The median of times and their interquartile range, 0.0 below two times."""
    lower, median, upper = quartiles(times)
    return median, upper - lower


def run_case(size, arity, seed, repeats):
    """Every encrypt time and the best floor time, in seconds."""
    secrets = [make_fixture("random", size, size, seed=seed + i) for i in range(arity)]
    share_set = encrypt(secrets, seed)
    assert decrypt_all(share_set) == secrets, "round trip failed"
    times = timed(repeats, lambda: encrypt(secrets, seed))

    def floor():
        for _ in rng.packed_bands(seed, size, size):
            pass
        classical_encrypt(secrets, share_set.unishare)

    return times, min(timed(repeats, floor))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=positive_int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--arities", type=int, nargs="+", default=[1, 2, 4, 8, 16],
                        choices=range(1, MAX_ARITY + 1), metavar="N")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=positive_int, default=3,
                        help="time N runs of each case; seconds is the best of them")
    parser.add_argument("--json", metavar="PATH", help="append this run's entry to PATH")
    args = parser.parse_args()

    rows = []
    print(f"{'size':>6} {'arity':>5} {'seconds':>9} {'median_s':>9} {'iqr_s':>9}"
          f" {'Mpixel/s':>9} {'floor_x':>7}")
    for size in args.sizes:
        for arity in args.arities:
            times, floor = run_case(size, arity, args.seed, args.repeats)
            seconds, (median, iqr) = min(times), spread(times)
            rate = size * size / seconds / 1e6
            floor_x = seconds / floor
            print(f"{size:>6} {arity:>5} {seconds:>9.3f} {median:>9.3f}"
                  f" {iqr:>9.3f} {rate:>9.2f} {floor_x:>7.2f}")
            rows.append({"size": size, "arity": arity, "seconds": seconds,
                         "median_s": median, "iqr_s": iqr, "floor_s": floor, "floor_x": floor_x})
    if args.json:
        append_entry(args.json, rows, Path(qvmss.__file__).parent)


if __name__ == "__main__":
    main()
