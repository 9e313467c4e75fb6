"""The record that the benchmark scripts append to a `BENCH_*.json` file.

Each entry starts with the same header: the git revision of the benchmarked
`qvmss` sources (with `-dirty` when a file in that package directory differs
from that revision), the Python and numpy versions, and `nproc` (the number
of CPUs this process may run on: its CPU affinity where the platform reports
one, else the CPU count).  This module imports neither numpy nor qvmss, so a
script that judges another checkout can use it without importing either.
"""
import importlib.metadata
import json
import os
import platform
import subprocess
from pathlib import Path


def source_revision(package_dir):
    """`git describe --always` of the tree holding a qvmss package directory,
    with `-dirty` when a file in that directory differs from it."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              cwd=package_dir)

    try:
        described, status = git("describe", "--always"), git("status", "--porcelain", "--", ".")
    except OSError:
        return "unknown"
    if described.returncode or status.returncode:
        return "unknown"
    return described.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


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
