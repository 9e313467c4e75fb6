"""Smoke tests: each script in scripts/, and the README's library example,
runs to completion on small inputs."""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, src=ROOT / "src", **kwargs):
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=ROOT, **kwargs)


def run_script(name, *args, **kwargs):
    return run_python(str(ROOT / "scripts" / name), *args, **kwargs)


def test_readme_library_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = run_python("-c", example)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["width"] == 64


def test_benchmark_encrypt_runs():
    # 300x300 is two bands, of 218 and 82 rows, so the floor crosses a band edge.
    proc = run_script("benchmark_encrypt.py", "--sizes", "16", "300", "--arities", "1", "2",
                      "--threads", "1", "2", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["size", "arity", "threads", "seconds", "median_s", "iqr_s",
                                "Mpixel/s", "floor_x"]
    assert len(lines) == 1 + 2 * 2 * 2


def test_benchmark_encrypt_appends_a_json_entry(tmp_path):
    record = tmp_path / "BENCH_encrypt.json"
    for _ in range(2):
        proc = run_script("benchmark_encrypt.py", "--sizes", "16", "--arities", "1", "2",
                          "--threads", "1", "--repeats", "3", "--json", str(record))
        assert proc.returncode == 0, proc.stderr
    entries = json.loads(record.read_text())
    assert len(entries) == 2
    for entry in entries:
        assert set(entry) == {"revision", "python", "numpy", "nproc", "rows"}
        assert [(row["size"], row["arity"], row["threads"]) for row in entry["rows"]] == [
            (16, 1, 1), (16, 2, 1)]
        for row in entry["rows"]:
            assert row["floor_x"] == row["seconds"] / row["floor_s"]
            assert row["seconds"] <= row["median_s"] and row["iqr_s"] >= 0.0


def test_benchmark_encrypt_has_no_floor_ratio_above_one_thread(tmp_path):
    # The floor is timed in one thread, so only one-thread rows are divided by it.
    record = tmp_path / "BENCH_encrypt.json"
    proc = run_script("benchmark_encrypt.py", "--sizes", "300", "--arities", "2",
                      "--threads", "1", "2", "--repeats", "1", "--json", str(record))
    assert proc.returncode == 0, proc.stderr
    one, two = json.loads(record.read_text())[0]["rows"]
    assert one["floor_x"] == one["seconds"] / one["floor_s"]
    assert two["threads"] == 2 and two["floor_x"] is None and two["floor_s"] > 0
    assert proc.stdout.splitlines()[2].split()[-1] == "-"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_benchmark_encrypt_marks_dirty_only_for_package_edits(tmp_path):
    # A checkout whose only edit is outside src/qvmss benchmarks clean code.
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src" / "qvmss", checkout / "src" / "qvmss",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (checkout / ".gitignore").write_text("__pycache__/\n")
    (checkout / "NOTES.md").write_text("notes\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=checkout, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "base")

    def revision():
        record = tmp_path / "record.json"
        record.unlink(missing_ok=True)
        proc = run_script("benchmark_encrypt.py", "--sizes", "8", "--arities", "1",
                          "--threads", "1", "--repeats", "1", "--json", str(record),
                          src=checkout / "src")
        assert proc.returncode == 0, proc.stderr
        return json.loads(record.read_text())[0]["revision"]

    clean = revision()
    assert clean and not clean.endswith("-dirty") and clean != "unknown"
    (checkout / "NOTES.md").write_text("edited\n")
    assert revision() == clean
    with open(checkout / "src" / "qvmss" / "rng.py", "a") as handle:
        handle.write("# edited\n")
    assert revision() == clean + "-dirty"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_benchmark_encrypt_records_the_cpus_it_may_use(tmp_path):
    record = tmp_path / "BENCH_encrypt.json"
    cpu = min(os.sched_getaffinity(0))
    proc = run_script("benchmark_encrypt.py", "--sizes", "16", "--arities", "1",
                      "--threads", "1", "--repeats", "1", "--json", str(record),
                      preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(record.read_text())[0]["nproc"] == 1


def test_benchmark_cli_times_each_command_as_a_fresh_process(tmp_path):
    record = tmp_path / "BENCH_cli.json"
    proc = run_script("benchmark_cli.py", "--sizes", "32", "--arities", "2", "--repeats", "1",
                      "--json", str(record))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["command", "size", "arity", "fresh_median_s", "fresh_iqr_s"]
    (entry,) = json.loads(record.read_text())
    assert set(entry) == {"revision", "python", "numpy", "nproc", "rows"}
    assert [(row["command"], row["size"], row["arity"]) for row in entry["rows"]] == [
        ("encrypt", 32, 2), ("decrypt", 32, 2), ("metrics", 32, 2)]
    for row, line in zip(entry["rows"], lines[1:]):
        assert set(row) == {"command", "size", "arity", "fresh_median_s", "fresh_iqr_s"}
        assert row["fresh_median_s"] > 0
        assert row["fresh_iqr_s"] == 0.0  # one repeat has no spread
        assert line.split()[:3] == [row["command"], "32", "2"]


def test_benchmark_cli_times_a_baseline_in_turn(tmp_path):
    record = tmp_path / "BENCH_cli.json"
    proc = run_script("benchmark_cli.py", "--sizes", "16", "--arities", "1", "--repeats", "2",
                      "--baseline", str(ROOT / "src"), "--json", str(record))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == [
        "command", "size", "arity", "fresh_median_s", "fresh_iqr_s",
        "baseline_median_s", "baseline_iqr_s"]
    (entry,) = json.loads(record.read_text())
    assert entry["baseline"] == entry["revision"]  # the same tree on both sides
    for row in entry["rows"]:
        assert row["fresh_median_s"] > 0 and row["baseline_median_s"] > 0
        assert row["fresh_iqr_s"] >= 0.0 and row["baseline_iqr_s"] >= 0.0


@pytest.mark.parametrize("script, args", [
    ("benchmark_encrypt.py", ["--repeats", "0"]),
    ("benchmark_encrypt.py", ["--sizes", "0"]),
    ("benchmark_encrypt.py", ["--arities", "17"]),
    ("run_security_sweep.py", ["--size", "0"]),
    ("benchmark_cli.py", ["--repeats", "0"]),
    ("benchmark_cli.py", ["--arities", "17"]),
    ("benchmark_cli.py", ["--baseline", "no/such/src"]),
])
def test_scripts_reject_out_of_range_counts(script, args):
    proc = run_script(script, *args)
    assert proc.returncode == 2
    assert f"argument {args[0]}" in proc.stderr and "Traceback" not in proc.stderr


def test_run_security_sweep_on_constant_images():
    # A 1x1 image is constant, so no pair has a correlation.
    proc = run_script("run_security_sweep.py", "--runs", "2", "--size", "1")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:4]
    assert all(row.split()[6] == "n/a" for row in rows)


def test_run_security_sweep_runs():
    proc = run_script("run_security_sweep.py", "--runs", "2", "--size", "32")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("sweep: 2 runs at 32x32")
    assert proc.stdout.splitlines()[-1].endswith("of 2 runs outside the uniformity bound")
