"""The record that the benchmark scripts append to a `BENCH_*.json` file, the
timing helpers they share, and `positive_int`, the argparse type of their
counts.

Each entry starts with the same header: the git revision of the benchmarked
`qvmss` sources (with `-dirty` when a file in that package directory differs
from that revision; for sources in no git tree, the commit of this repository
that they match), the Python and numpy versions, and `nproc` (the number
of CPUs this process may run on: its CPU affinity where the platform reports
one, else the CPU count).  This module imports neither numpy nor qvmss, so a
script that judges another checkout can use it without importing either.
"""
import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def positive_int(text):
    """An argparse type: a decimal integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def spread(times):
    """The median of times and their interquartile range, 0.0 below two times."""
    lower, median, upper = quartiles(times)
    return median, upper - lower


def source_revision(package_dir):
    """`git describe --always` of the tree holding a qvmss package directory,
    with `-dirty` when a file in that directory differs from it.

    A directory in no git tree, such as one unpacked from `git archive`, is
    named by the newest commit of the repository holding these scripts whose
    `src/qvmss` has the same `*.py` files, compared by blob id; `unknown` when
    no commit has them.
    """
    def git(*args, cwd=package_dir):
        return subprocess.run(["git", *args], capture_output=True, text=True, cwd=cwd)

    try:
        described, status = git("describe", "--always"), git("status", "--porcelain", "--", ".")
        if not (described.returncode or status.returncode):
            return described.stdout.strip() + ("-dirty" if status.stdout.strip() else "")
        names = sorted(path.relative_to(package_dir).as_posix()
                       for path in Path(package_dir).rglob("*.py"))
        hashed = git("hash-object", "--", *names)  # without -w it writes nothing
        if not names or hashed.returncode:
            return "unknown"
        blobs = set(zip(names, hashed.stdout.split()))
        for commit in git("rev-list", "HEAD", cwd=ROOT).stdout.split():
            listed = git("ls-tree", "-r", commit, "--", "src/qvmss", cwd=ROOT).stdout
            entries = (line.split("\t", 1) for line in listed.splitlines())
            if blobs == {(path.removeprefix("src/qvmss/"), meta.split()[2])
                         for meta, path in entries if path.endswith(".py")}:
                return git("describe", "--always", commit, cwd=ROOT).stdout.strip()
    except OSError:
        pass
    return "unknown"


def append_entry(path, rows, package_dir, **fields):
    """Append an entry of the header for the qvmss sources in package_dir, any
    extra `fields` and `rows` to the JSON list in PATH (made if missing)."""
    path = Path(path)
    entries = json.loads(path.read_text()) if path.exists() else []
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    entries.append({"revision": source_revision(package_dir),
                    "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"), "nproc": nproc,
                    **fields, "rows": rows})
    path.write_text(json.dumps(entries, indent=2) + "\n")
