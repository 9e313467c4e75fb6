#!/usr/bin/env python3
"""Benchmark the `qvmss` commands as a shell user runs them.

For each size and arity, random P4 secrets are encrypted once, and three
commands are timed on them: `encrypt` of the secrets, `decrypt` of the
UniShare and every share, and `metrics --pairs` over the secrets, the shares
and the UniShare.  Each command runs `--repeats` times, each time as a new
`python -m qvmss.cli ...` process, start-up and imports included, with its
standard output discarded.  `fresh_median_s` and `fresh_iqr_s` are the
median and interquartile range of those walls.  The in-process cost of each
command is what `bench/run.py` times.

`--baseline SRC` also times the same commands on the qvmss package under the
directory SRC, such as the `src` of another checkout.  The two sides run in
turn, the order swapped every repeat, so drift on a shared host reaches
both alike; `baseline_median_s` and `baseline_iqr_s` are the baseline's.
Fresh-process walls of separate runs are not comparable: on a shared 2-CPU
host, back-to-back runs of one tree differ by up to a third.

The secrets and the encryption seed are fixed, so every run times the same
inputs.  Each command runs once untimed on each side first, and each side's
`decrypt` must give back the secrets byte for byte, or the script stops.

`--json PATH` appends one entry to the JSON list in PATH (made if missing),
with the header of `bench_entry.py` for the imported `qvmss` sources, the
baseline's revision as `baseline` when there is one, and one row per case.
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_entry import append_entry, source_revision
from benchmark_encrypt import spread, timed

import qvmss
from qvmss.cli import positive_int
from qvmss.imaging import make_fixture, write_pbm
from qvmss.scheme import MAX_ARITY

SEED = 7


def command_argvs(work, size, arity):
    """Write `arity` random size x size P4 secrets and their shares under work,
    and return each command's argv over them."""
    secrets = [str(work / f"G{i}.pbm") for i in range(1, arity + 1)]
    for i, path in enumerate(secrets):
        Path(path).write_bytes(write_pbm(make_fixture("random", size, size, seed=SEED + i)))
    shares_dir = work / "shares"
    fresh_process(Path(qvmss.__file__).parents[1],
                  ["encrypt", "--seed", str(SEED), *secrets, "-o", str(shares_dir)])
    unishare = str(shares_dir / "U.pbm")
    shares = [str(shares_dir / f"S{i}.pbm") for i in range(1, arity + 1)]
    return secrets, {
        "encrypt": ["encrypt", "--seed", str(SEED), *secrets, "-o", str(work / "enc")],
        "decrypt": ["decrypt", "-u", unishare, *shares, "-o", str(work / "dec")],
        "metrics": ["metrics", "--pairs", "--secrets", *secrets, "--shares", *shares,
                    "--unishare", unishare],
    }


def fresh_process(src, argv):
    """Run `python -m qvmss.cli argv` on the qvmss under src; it must exit 0."""
    path = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "qvmss.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: python -m qvmss.cli {' '.join(argv)} exited "
                         f"{proc.returncode}: {proc.stderr}")


def run_case(size, arity, repeats, sources):
    """One row per command: the median and IQR of its fresh-process walls on
    each of `sources`, the imported qvmss's first, taken in turn."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        secrets, argvs = command_argvs(work, size, arity)
        for command, argv in argvs.items():
            for src in sources:
                fresh_process(src, argv)
                if command == "decrypt":
                    for i, secret in enumerate(secrets, start=1):
                        recovered = (work / "dec" / f"G{i}_rec.pbm").read_bytes()
                        if recovered != Path(secret).read_bytes():
                            raise SystemExit(f"{src}: round trip failed at "
                                             f"{size}x{size}, n={arity}")
            times = [[] for _ in sources]
            for repeat in range(repeats):
                for side in (range(len(sources)) if repeat % 2 == 0
                             else reversed(range(len(sources)))):
                    times[side] += timed(1, lambda: fresh_process(sources[side], argv))
            row = {"command": command, "size": size, "arity": arity}
            for prefix, side_times in zip(("fresh", "baseline"), times):
                row[f"{prefix}_median_s"], row[f"{prefix}_iqr_s"] = spread(side_times)
            rows.append(row)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=positive_int, nargs="+", default=[256, 1024])
    parser.add_argument("--arities", type=int, nargs="+", default=[2, 8],
                        choices=range(1, MAX_ARITY + 1), metavar="N")
    parser.add_argument("--repeats", type=positive_int, default=11,
                        help="time N fresh processes of each command on each side")
    parser.add_argument("--baseline", metavar="SRC", type=Path,
                        help="also time the qvmss package under SRC, in turn")
    parser.add_argument("--json", metavar="PATH", help="append this run's entry to PATH")
    args = parser.parse_args()
    sources = [Path(qvmss.__file__).parents[1]]
    columns = ["fresh_median_s", "fresh_iqr_s"]
    if args.baseline:
        if not (args.baseline / "qvmss" / "cli.py").is_file():
            parser.error(f"argument --baseline: no qvmss package under {args.baseline}")
        sources.append(args.baseline.resolve())
        columns += ["baseline_median_s", "baseline_iqr_s"]

    rows = []
    print(f"{'command':>8} {'size':>6} {'arity':>5}", *(f"{c:>17}" for c in columns))
    for size in args.sizes:
        for arity in args.arities:
            for row in run_case(size, arity, args.repeats, sources):
                print(f"{row['command']:>8} {size:>6} {arity:>5}",
                      *(f"{row[c]:>17.4f}" for c in columns))
                rows.append(row)
    if args.json:
        fields = {"baseline": source_revision(sources[1] / "qvmss")} if args.baseline else {}
        append_entry(args.json, rows, sources[0] / "qvmss", **fields)


if __name__ == "__main__":
    main()
