"""Smoke tests: each script in scripts/, and the README's library example,
runs to completion on small inputs."""
import io
import json
import os
import re
import shutil
import subprocess
import sys
import zipfile
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


def test_benchmark_cli_times_the_engine_and_its_floor():
    # 300x300 is 11400 keystream bytes, so the floor crosses a chunk edge.
    proc = run_script("benchmark_cli.py", "--sizes", "16", "300", "--arities", "1",
                      "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:3] for row in rows] == [
        [command, size, "1"] for size in ("16", "300")
        for command in ("encrypt", "decrypt", "metrics", "engine", "floor")]
    assert all(float(row[3]) > 0 for row in rows)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_benchmark_cli_marks_dirty_only_for_package_edits(tmp_path):
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
        proc = run_script("benchmark_cli.py", "--sizes", "8", "--arities", "1",
                          "--repeats", "1", "--json", str(record),
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


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_source_revision_names_the_commit_an_archive_matches(tmp_path):
    # An unpacked `git archive` is in no git tree: it is named by the newest commit whose
    # src/qvmss it matches, and is unknown once a file in it is edited.
    archive = subprocess.run(["git", "archive", "--format=zip", "HEAD", "src/qvmss"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as unpacked:
        unpacked.extractall(tmp_path)
    package = tmp_path / "src" / "qvmss"

    def revision():
        proc = run_python("-c", "import sys; from bench_entry import source_revision; "
                                "print(source_revision(sys.argv[1]))", str(package),
                          src=ROOT / "scripts")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    head = subprocess.run(["git", "describe", "--always", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert revision() == head
    with open(package / "rng.py", "a") as handle:
        handle.write("# edited\n")
    assert revision() == "unknown"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_benchmark_cli_records_the_cpus_it_may_use(tmp_path):
    record = tmp_path / "BENCH_cli.json"
    cpu = min(os.sched_getaffinity(0))
    proc = run_script("benchmark_cli.py", "--sizes", "16", "--arities", "1",
                      "--repeats", "1", "--json", str(record),
                      preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(record.read_text())[0]["nproc"] == 1


def test_benchmark_cli_appends_a_json_entry(tmp_path):
    record = tmp_path / "BENCH_cli.json"
    record.write_text('[{"earlier": "entry"}]')
    for _ in range(2):
        proc = run_script("benchmark_cli.py", "--sizes", "16", "--arities", "1", "2",
                          "--repeats", "1", "--json", str(record))
        assert proc.returncode == 0, proc.stderr
    earlier, *entries = json.loads(record.read_text())  # appended after what was there
    assert earlier == {"earlier": "entry"}
    assert len(entries) == 2
    for entry in entries:
        assert set(entry) == {"revision", "python", "numpy", "nproc", "rows"}
        assert [(row["command"], row["size"], row["arity"]) for row in entry["rows"]] == [
            (command, 16, arity) for arity in (1, 2)
            for command in ("encrypt", "decrypt", "metrics", "engine", "floor")]


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
        ("encrypt", 32, 2), ("decrypt", 32, 2), ("metrics", 32, 2), ("engine", 32, 2),
        ("floor", 32, 2)]
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



def test_benchmark_cli_stops_when_a_side_fails_its_round_trip(tmp_path):
    # The baseline's decrypt_all, which no timed command calls, loses the last secret:
    # only the engine worker's round trip check can catch it, and it names that side.
    baseline = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "qvmss", baseline / "qvmss",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(baseline / "qvmss" / "scheme.py", "a") as handle:
        handle.write("_decrypt_all = decrypt_all\n"
                     "decrypt_all = lambda share_set: _decrypt_all(share_set)[:-1]\n")
    proc = run_script("benchmark_cli.py", "--sizes", "8", "--arities", "1", "--repeats", "1",
                      "--baseline", str(baseline))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"{baseline}: python -c ENGINE_WORKER 7 ")
    assert proc.stderr.rstrip().endswith("exited 1: round trip failed")

# A checkout's bench/run.py stand-in: it logs its call and whether its src/ held
# bytecode, leaves some behind, and prints the fixed result for its seed last.
STUB_RUN = """
import json, sys
from pathlib import Path
root = Path(__file__).resolve().parents[1]
seed = sys.argv[sys.argv.index("--seed") + 1]
cache = root / "src" / "pkg" / "__pycache__"
with open(root.parent / "calls.log", "a") as log:
    log.write(f"{root.name} {' '.join(sys.argv[1:])} {cache.exists()}\\n")
cache.mkdir(exist_ok=True)
print("progress")
print(json.dumps(json.loads((root / "results.json").read_text())[seed]))
"""


def stub_checkout(path, results, run=STUB_RUN):
    """A checkout whose bench/run.py is `run`: by default, it prints
    results[seed] as its result line."""
    (path / "bench").mkdir(parents=True)
    (path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(run)
    (path / "results.json").write_text(json.dumps(results))


def run_judge(tmp_path, baseline, change, *args, change_run=STUB_RUN):
    """Run bench_pairs.py, as a copy inside a stand-in change checkout, against
    a stand-in baseline checkout: each prints its results[seed], unless the
    change's bench/run.py is `change_run`."""
    stub_checkout(tmp_path / "base", baseline)
    stub_checkout(tmp_path / "change", change, change_run)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change")
    (tmp_path / "change" / "scripts").mkdir()
    for script in ("bench_pairs.py", "bench_entry.py"):
        shutil.copy(ROOT / "scripts" / script, tmp_path / "change" / "scripts")
    # The judge imports nothing of the program it judges.
    return run_python(str(tmp_path / "change" / "scripts" / "bench_pairs.py"),
                      str(tmp_path / "base"), *args, src=tmp_path / "no-such-src")


def bench_result(correct=True, failed=0, **values):
    units = {"setup_s": "s", "encrypt_s": "s", "metrics_s": "s", "secret_mpx_s": "Mpx/s",
             "peak_rss_mib": "MiB"}
    values = {"setup_s": 0.2, "encrypt_s": 0.003, "metrics_s": 0.005, "secret_mpx_s": 50.0,
              "peak_rss_mib": 80.0, **values}
    return {"correct": correct, "attempted": 9, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def test_bench_pairs_alternates_two_checkouts_and_judges_each_metric(tmp_path):
    # Ten pairs, seeds 1..10.  The change wins metrics_s and secret_mpx_s on every sound
    # pair, ties setup_s, and has a peak RSS 25% above the baseline's.  The baseline's
    # encrypt_s spreads wider than its bound, and the change sits inside that spread.
    # Pair 3's change run is wrong, and pair 5's baseline run failed an operation.
    baseline = {str(seed): bench_result(metrics_s=0.005 + 0.0001 * seed,
                                        encrypt_s=0.003 + 0.0003 * seed,
                                        failed=2 if seed == 5 else 0)
                for seed in range(1, 11)}
    change = {str(seed): bench_result(correct=seed != 3, metrics_s=0.004, secret_mpx_s=60.0,
                                      encrypt_s=0.0045, peak_rss_mib=100.0)
              for seed in range(1, 11)}
    proc = run_judge(tmp_path, baseline, change, "--workload", "high-arity", "--pairs", "10",
                     "--seconds", "45")
    assert proc.returncode == 0, proc.stderr

    calls = (tmp_path / "calls.log").read_text().splitlines()
    order = [("base", "change"), ("change", "base")] * 5
    assert [call.split()[0] for call in calls] == [side for pair in order for side in pair]
    for index, call in enumerate(calls):
        assert call.split()[1:] == ["--workload", "high-arity", "--seconds", "45.0",
                                    "--seed", str(index // 2 + 1), "--trace", "0", "False"]

    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("lost:")] == [
        "lost: pair 3 change (correct false, failed 0)",
        "lost: pair 5 baseline (correct true, failed 2)"]
    assert "metrics_s: baseline 0.0051 0.0052 0.0053 0.0054 lost 0.0056" in proc.stdout
    rows = {line.split()[0]: line.split() for line in lines[lines.index(next(
        line for line in lines if line.startswith("metric "))) + 1:]}
    assert {name: row[-2:] for name, row in rows.items()} == {
        "setup_s": ["1/10", "-"],  # ties, but pair 5's baseline run is lost
        "encrypt_s": ["6/10", "unresolved"],  # IQR 0.00375..0.00555 is 38% of 0.0048
        "metrics_s": ["9/10", "gain"],
        "secret_mpx_s": ["9/10", "gain"],
        "peak_rss_mib": ["1/10", "worse"],
    }
    assert rows["metrics_s"][2:8] == ["0.00525", "0.0056", "0.00585", "0.004", "0.004", "0.004"]


@pytest.mark.parametrize("stderr, reason", [
    ("warming up\nValueError: no such workload\n  \n",
     "exit 1, no result line: ValueError: no such workload"),
    ("", "exit 1, no result line"),
], ids=["stderr", "silent"])
def test_bench_pairs_says_why_a_run_was_lost(tmp_path, stderr, reason):
    # The change's bench/run.py exits 1 before its result line.
    failing_run = f"import sys\nprint('progress')\nsys.stderr.write({stderr!r})\nsys.exit(1)\n"
    results = {"1": bench_result()}
    proc = run_judge(tmp_path, results, results, "--workload", "paper-n2", "--pairs", "1",
                     "--seconds", "1", change_run=failing_run)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("lost:")] == [
        f"lost: pair 1 change ({reason})"]


def test_bench_pairs_appends_a_json_entry(tmp_path):
    # Three pairs: the change's metrics_s is lower in each, and pair 2's change run is lost.
    baseline = {str(seed): bench_result(metrics_s=0.005 + 0.001 * seed) for seed in (1, 2, 3)}
    change = {str(seed): bench_result(correct=seed != 2, metrics_s=0.004) for seed in (1, 2, 3)}
    record = tmp_path / "BENCH_pairs.json"
    for _ in range(2):
        proc = run_judge(tmp_path, baseline, change, "--workload", "paper-n2", "--pairs", "3",
                         "--seconds", "2", "--json", str(record))
        assert proc.returncode == 0, proc.stderr
        shutil.rmtree(tmp_path / "base")
        shutil.rmtree(tmp_path / "change")
    entries = json.loads(record.read_text())
    assert len(entries) == 2
    for entry in entries:
        assert set(entry) == {"revision", "python", "numpy", "nproc", "baseline", "workload",
                              "pairs", "seconds", "rows"}
        # Neither stand-in is a git checkout.
        assert (entry["revision"], entry["baseline"]) == ("unknown", "unknown")
        assert (entry["workload"], entry["pairs"], entry["seconds"]) == ("paper-n2", 3, 2.0)
        rows = {row["metric"]: row for row in entry["rows"]}
        assert list(rows) == ["setup_s", "encrypt_s", "metrics_s", "secret_mpx_s",
                              "peak_rss_mib"]
        assert rows["metrics_s"] == {"metric": "metrics_s", "unit": "s",
                                     "baseline": [0.006, 0.007, 0.008],
                                     "change": [0.004, 0.004, 0.004],
                                     "wins": 2, "verdict": "-"}
        assert rows["setup_s"]["wins"] == 0 and rows["setup_s"]["verdict"] == "-"


@pytest.mark.parametrize("script, args", [
    ("benchmark_cli.py", ["--sizes", "0"]),
    ("benchmark_cli.py", ["--sizes", "x"]),
    ("run_security_sweep.py", ["--runs", "0"]),
    ("run_security_sweep.py", ["--size", "0"]),
    ("benchmark_cli.py", ["--repeats", "0"]),
    ("benchmark_cli.py", ["--arities", "17"]),
    ("benchmark_cli.py", ["--baseline", "no/such/src"]),
    ("bench_pairs.py", ["--pairs", "0", "base", "--workload", "w", "--seconds", "1"]),
    ("bench_pairs.py", ["--pairs", "x", "base", "--workload", "w", "--seconds", "1"]),
    ("bench_pairs.py", ["--seconds", "nan", "base", "--workload", "w", "--pairs", "1"]),
    ("bench_pairs.py", ["--seconds", "inf", "base", "--workload", "w", "--pairs", "1"]),
    ("bench_pairs.py", ["--seconds", "0", "base", "--workload", "w", "--pairs", "1"]),
    ("bench_pairs.py", ["--seconds", "-1", "base", "--workload", "w", "--pairs", "1"]),
])
def test_scripts_reject_out_of_range_counts(script, args):
    proc = run_script(script, *args)
    assert proc.returncode == 2
    assert f"argument {args[0]}" in proc.stderr and "Traceback" not in proc.stderr
    if args[1] == "x":  # every script says the same of a count that is not a number
        assert "not an integer: 'x'" in proc.stderr


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
