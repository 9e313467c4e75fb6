#!/usr/bin/env python3
"""Benchmark the `qvmss` commands as a shell user runs them, and the engine
behind `encrypt` against its floor.

For each size and arity, random P4 secrets are encrypted once, and three
commands are timed on them: `encrypt` of the secrets, `decrypt` of the
UniShare and every share, and `metrics --pairs` over the secrets, the shares
and the UniShare.  Each command runs `--repeats` times, each time as a new
`python -m qvmss.cli ...` process, start-up and imports included.
`fresh_median_s` and `fresh_iqr_s` are the median and interquartile range
of those walls.  The in-process cost of each command is what `bench/run.py`
times.

The `engine` and `floor` rows time a worker as often, each a new `python -c`
process that reads the secrets with `read_pbm`, as `encrypt` does, and
prints the fastest of 5 `scheme.encrypt` calls and of 5 floors (one call
would time a fresh process's page faults on its first large output: 7.5
against 2.5 ms at 2048², n=16).  The floor is the least work the output
needs: one `rng.keystream_into` pass of the engine's keystream bytes and
the n XORs of the secrets with them, into buffers made beforehand.
floor_x, the engine's overhead, is the `engine` median over the `floor`'s.

`--baseline SRC` also times the same commands and worker on the qvmss
package under the directory SRC, such as the `src` of another checkout.
The two sides run in turn, the order swapped every repeat, so drift on a
shared host reaches both alike; `baseline_median_s` and `baseline_iqr_s`
are the baseline's.  Times of separate runs are not comparable: on a
shared 2-CPU host, back-to-back runs of one tree differ by up to a third.

The secrets and the seed are fixed, so every run times the same inputs.
Each command and the worker run once untimed on each side first.  Every
`decrypt` must give back the secrets byte for byte, and `decrypt_all` must
undo the worker's first `encrypt`, or the script stops.

`--json PATH` appends one entry to the JSON list in PATH (made if missing),
with the header of `bench_entry.py` for the imported `qvmss` sources, the
baseline's revision as `baseline` when there is one, and one row per case
and command, `engine` and `floor` included.
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_entry import append_entry, positive_int, source_revision, spread, timed

import qvmss
from qvmss.imaging import make_fixture, write_pbm
from qvmss.scheme import MAX_ARITY

SEED = 7

# Run as `python -c ENGINE_WORKER SEED SECRET...`: check one round trip, then
# print the fastest of 5 `encrypt` calls and of 5 floors, in seconds.
ENGINE_WORKER = """
import sys, timeit
from pathlib import Path
import numpy as np
from qvmss import rng
from qvmss.imaging import read_pbm
from qvmss.scheme import decrypt_all, encrypt

seed, secrets = int(sys.argv[1]), [read_pbm(Path(p).read_bytes()) for p in sys.argv[2:]]
if decrypt_all(encrypt(secrets, seed)) != secrets:
    sys.exit("round trip failed")
keystream = np.empty_like(secrets[0].rows)
shares = np.empty((len(secrets), *keystream.shape), dtype=np.uint8)

def floor():
    rng.keystream_into(keystream, seed)
    for secret, share in zip(secrets, shares):
        np.bitwise_xor(secret.rows, keystream, out=share)

for fn in (lambda: encrypt(secrets, seed), floor):
    print(min(timeit.repeat(fn, number=1, repeat=5)))
"""


def command_argvs(work, size, arity):
    """Write `arity` random size x size P4 secrets and their shares under work,
    and return each command's argv over them."""
    secrets = [str(work / f"G{i}.pbm") for i in range(1, arity + 1)]
    for i, path in enumerate(secrets):
        Path(path).write_bytes(write_pbm(make_fixture("random", size, size, seed=SEED + i)))
    shares_dir = work / "shares"
    fresh_process(Path(qvmss.__file__).parents[1], "-m", "qvmss.cli",
                  "encrypt", "--seed", str(SEED), *secrets, "-o", str(shares_dir))
    unishare = str(shares_dir / "U.pbm")
    shares = [str(shares_dir / f"S{i}.pbm") for i in range(1, arity + 1)]
    return secrets, {
        "encrypt": ["encrypt", "--seed", str(SEED), *secrets, "-o", str(work / "enc")],
        "decrypt": ["decrypt", "-u", unishare, *shares, "-o", str(work / "dec")],
        "metrics": ["metrics", "--pairs", "--secrets", *secrets, "--shares", *shares,
                    "--unishare", unishare],
    }


def fresh_process(src, *args):
    """Run `python args` on the qvmss under src, which must exit 0; return its stdout."""
    path = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        shown = " ".join("ENGINE_WORKER" if arg == ENGINE_WORKER else arg for arg in args)
        raise SystemExit(f"{src}: python {shown} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def run_case(size, arity, repeats, sources):
    """One row per command, then the `engine` and `floor` rows: the median and
    IQR of their times on each of `sources`, the imported qvmss's first, taken
    in turn."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        secrets, argvs = command_argvs(work, size, arity)

        def command(name, argv):
            def run(src):
                wall = timed(1, lambda: fresh_process(src, "-m", "qvmss.cli", *argv))
                if name == "decrypt" and any(
                        (work / "dec" / f"G{i}_rec.pbm").read_bytes() != Path(secret).read_bytes()
                        for i, secret in enumerate(secrets, start=1)):
                    raise SystemExit(f"{src}: round trip failed at {size}x{size}, n={arity}")
                return {name: wall}
            return run

        def worker(src):
            engine, floor = fresh_process(src, "-c", ENGINE_WORKER, str(SEED), *secrets).split()
            return {"engine": [float(engine)], "floor": [float(floor)]}

        for run in [*(command(name, argv) for name, argv in argvs.items()), worker]:
            for src in sources:
                run(src)
            times = [{} for _ in sources]
            for repeat in range(repeats):
                for side in (range(len(sources)) if repeat % 2 == 0
                             else reversed(range(len(sources)))):
                    for name, seconds in run(sources[side]).items():
                        times[side].setdefault(name, []).extend(seconds)
            for name in times[0]:
                row = {"command": name, "size": size, "arity": arity}
                for prefix, side_times in zip(("fresh", "baseline"), times):
                    row[f"{prefix}_median_s"], row[f"{prefix}_iqr_s"] = spread(side_times[name])
                rows.append(row)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=positive_int, nargs="+", default=[256, 1024])
    parser.add_argument("--arities", type=int, nargs="+", default=[2, 8],
                        choices=range(1, MAX_ARITY + 1), metavar="N")
    parser.add_argument("--repeats", type=positive_int, default=11,
                        help="time N fresh processes of each command and worker per side")
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
                      *(f"{row[c]:>17.4g}" for c in columns))
                rows.append(row)
    if args.json:
        fields = {"baseline": source_revision(sources[1] / "qvmss")} if args.baseline else {}
        append_entry(args.json, rows, sources[0] / "qvmss", **fields)


if __name__ == "__main__":
    main()
