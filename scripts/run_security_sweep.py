#!/usr/bin/env python3
"""Run `qvmss selftest`, the scheme's property suite, over many seeds.

Run S calls `qvmss selftest --json --seed S` in process; the sweep computes
no statistic of its own.  It prints `seed S: pass`, or `seed S: FAIL` with
each failed property's name and detail, and ends with `K of R runs failed
a property`.  It exits 1 when more than one run fails, or when the only run
does: each 4-sigma statistic fails by chance about once in 16,000 runs, and
a property that draws no randomness fails in every run.
"""
import argparse
import contextlib
import io
import json
import sys

from bench_entry import positive_int

from qvmss import cli


def failed_properties(seed):
    """`name: detail` of each property that `qvmss selftest --seed seed` fails."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(["selftest", "--json", "--seed", str(seed)])
    return [f"{r['property']}: {r['detail']}"
            for r in json.loads(out.getvalue())["results"] if not r["passed"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=positive_int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed of the sweep")
    args = parser.parse_args()
    failures = 0
    for seed in range(args.seed, args.seed + args.runs):
        failed = failed_properties(seed)
        failures += bool(failed)
        print(f"seed {seed}: " + ("FAIL " + "; ".join(failed) if failed else "pass"), flush=True)
    print(f"{failures} of {args.runs} runs failed a property")
    return 1 if failures > 1 or failures == args.runs else 0


if __name__ == "__main__":
    sys.exit(main())
