#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `qvmss` command line.

    python3 bench/run.py --workload paper-n2 --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --quick

One client drives `qvmss.cli.main(argv)` in this process as a closed loop:
each command starts only after the previous one has returned.  A round is
`encrypt`, then `decrypt` of every share, then one `metrics` command, and
every output of the round is checked by `checks.py` before the next round.
The inputs are made from `--seed` alone.  The fixed kernel of
`reference.py` runs just before each command, and `--trace 0` reports
every end-to-end time rescaled by it, as if the kernel took REFERENCE_S:
this cancels most of the drift of a shared host.  `--trace 1` alternates
traced and untraced rounds and reports the per-layer metrics, in plain
seconds, from the traced ones.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  See README.md for the
workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import images
import pbm
import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SAMPLE_PIXELS = 32  # pixels per round checked against the per-pixel circuit
REFERENCE_S = 0.1  # the nominal time of one reference kernel: the scale of every reported time
CHECK_SPANS = {"qsim.encode_pixel", "floor.unit_array", "scheme.classical_encrypt"}
OPS = ("encrypt", "decrypt", "metrics")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    quick_size: int
    kinds: tuple[str, ...]
    variant: str
    threads: int
    pairs: bool  # metrics --pairs over the whole grid, else one recovery pair


WORKLOADS = {w.name: w for w in (
    Workload("paper-n2", 1024, 64, ("noise", "text"), "p4", 1, True),
    Workload("high-arity", 256, 32, ("noise", "text", "checkerboard", "blank") * 2, "p4",
             min(2, nproc()), True),
    Workload("ascii-io", 1024, 64, ("text",), "p1", 1, False),
)}

E2E_UNITS = {"setup_s": "s", "encrypt_s": "s", "metrics_s": "s", "secret_mpx_s": "Mpx/s",
             "peak_rss_mib": "MiB"}
MEASURED_UNITS = {"measured.setup_s": "s", "measured.encrypt_s": "s", "measured.decrypt_s": "s",
                  "measured.metrics_s": "s", "measured.secret_mpx_s": "Mpx/s",
                  "host.reference_numpy_ms": "ms", "host.reference_python_ms": "ms"}
LAYER_UNITS = {
    "scheme.encrypt_s": "s", "scheme.engine_self_s": "s", "scheme.engine_floor_ratio": "x",
    "rng.unit_array_s": "s", "rng.draws_per_pixel": "draws/px",
    "imaging.read_pbm_s": "s", "imaging.write_pbm_s": "s",
    "imaging.read_mb_s": "MB/s", "imaging.write_mb_s": "MB/s",
    "metrics.report_ms": "ms", "metrics.pairs": "count", "scheme.decrypt_s": "s",
    "cli.self_s": "s", "qsim.reference_pixel_us": "us", "trace.overhead_s": "s",
    "host.reference_numpy_ms": "ms", "host.reference_python_ms": "ms",
}


@dataclass
class Round:
    index: int
    traced: bool
    times: dict[str, float] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    wrong: int = 0  # operations that exited 0 but whose output failed a check
    reference: dict[str, tuple[float, float]] = field(default_factory=dict)
    setup: float | None = None  # the import timed just before the round, s

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    def ref(self, op: str) -> float:
        """Seconds the reference kernel took just before command `op`: numpy and Python parts."""
        return sum(self.reference[op])


class Session:
    """One workload's inputs and working directory, and the loaded program."""

    def __init__(self, workload: Workload, seed: int, size: int, work: Path, qvmss):
        self.workload, self.seed, self.q = workload, seed, qvmss
        self.tracer = spans.Tracer()
        index = list(WORKLOADS).index(workload.name)
        gen = np.random.default_rng([seed, index])
        self.secrets = [images.KINDS[k](gen, size, size) for k in workload.kinds]
        self.cli_seed = int.from_bytes(
            hashlib.sha256(f"{workload.name}:{seed}".encode()).digest()[:8], "big")
        self.inputs = [str(work / f"G{k}.pbm") for k in range(1, len(self.secrets) + 1)]
        for path, bits in zip(self.inputs, self.secrets):
            Path(path).write_bytes(pbm.encode(bits, workload.variant, "qvmss benchmark input"))
        self.enc, self.rec = work / "enc", work / "rec"

    @property
    def secret_pixels(self) -> int:
        return len(self.secrets) * self.secrets[0].size

    def _invoke(self, argv: list[str], traced: bool) -> tuple[float, int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli.main") if traced else contextlib.nullcontext()
        gc.collect()  # so no command pays for garbage an earlier one or a check left
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.q.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a stopped benchmark
            code = None
            err.write(traceback.format_exc())
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def round(self, index: int, traced: bool, fault: str | None = None) -> Round:
        w, result = self.workload, Round(index, traced)
        self.tracer.round = index
        shutil.rmtree(self.enc, ignore_errors=True)
        shutil.rmtree(self.rec, ignore_errors=True)
        n = len(self.secrets)
        unishare = str(self.enc / "U.pbm")
        shares = [str(self.enc / f"S{k}.pbm") for k in range(1, n + 1)]
        recovered = str(self.rec / "G1_rec.pbm")
        if w.pairs:
            metrics_argv = ["metrics", "--pairs", "--secrets", *self.inputs,
                            "--shares", *shares, "--unishare", unishare]
        else:
            metrics_argv = ["metrics", self.inputs[0], recovered]
        commands = {
            "encrypt": ["encrypt", "--seed", str(self.cli_seed), "--threads", str(w.threads),
                        "--format", w.variant, *self.inputs, "-o", str(self.enc)],
            "decrypt": ["decrypt", "--format", w.variant, "-u", unishare, *shares,
                        "-o", str(self.rec)],
            "metrics": metrics_argv,
        }
        outcome = {}
        with self.tracer.patched(self.q.cli, self.q.metrics, self.q.rng) if traced \
                else contextlib.nullcontext():
            for op, argv in commands.items():
                result.reference[op] = reference.time_kernel(w.threads)
                elapsed, code, out, err = self._invoke(argv, traced)
                result.times[op] = elapsed
                outcome[op] = (code, out, err)
                if op == "encrypt" and fault:
                    self._inject(fault, index)

        found = self._check(index, traced, outcome)
        for op in OPS:
            code, _, err = outcome[op]
            messages = [] if code == 0 else [f"exit code {code}: {err.strip()[-400:]}"]
            if code == 0 and found[op]:
                result.wrong += 1
            messages += found[op]
            if messages:
                result.failures[op] = messages
        return result

    def _inject(self, fault: str, index: int) -> None:
        """Corrupt the encrypt output the way a faulty program would have written it."""
        if fault == "flip":
            path = self.enc / "S1.pbm"
            variant, bits = pbm.decode(path.read_bytes())
            pixel = int(np.random.default_rng([self.seed, index]).integers(bits.size))
            bits = bits.copy()
            bits.reshape(-1)[pixel] ^= 1
            path.write_bytes(pbm.encode(bits, variant))
        elif fault == "digest":
            path = self.enc / "manifest.json"
            manifest = json.loads(path.read_text())
            digest = manifest["files"]["U.pbm"]
            manifest["files"]["U.pbm"] = ("1" if digest[0] == "0" else "0") + digest[1:]
            path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        else:
            raise ValueError(f"unknown fault {fault!r}")

    def _check(self, index: int, traced: bool, outcome) -> dict[str, list[str]]:
        w, q = self.workload, self.q
        found: dict[str, list[str]] = {op: [] for op in OPS}
        failures, written = checks.check_encrypt(self.enc, self.secrets, self.cli_seed, w.variant)
        found["encrypt"] += failures
        n = len(self.secrets)
        complete = len(written) == n + 1
        if complete:
            gen = np.random.default_rng([self.seed, index, 1])
            sample = gen.integers(0, self.secrets[0].size, SAMPLE_PIXELS)
            span = self.tracer.span("qsim.encode_pixel", SAMPLE_PIXELS) if traced \
                else contextlib.nullcontext()
            with span:
                found["encrypt"] += checks.check_reference_sample(
                    written, self.secrets, self.cli_seed, sample,
                    q.scheme.encode_pixel, q.rng.RngStream)
            if traced:
                self._time_floor(written)
        found["decrypt"] += checks.check_decrypt(self.rec, self.secrets, w.variant)

        code, out, _ = outcome["metrics"]
        if code == 0:
            found["metrics"] += self._check_metrics(out, written if complete else None)
        return found

    def _time_floor(self, written: dict[str, np.ndarray]) -> None:
        """Time the engine's floor on this round's inputs, in one thread.

        The floor is one `rng.unit_array` call over every pixel, then the XOR
        oracle `scheme.classical_encrypt`: the draw and the arithmetic that
        any engine must do.
        """
        height, width = self.secrets[0].shape
        image = lambda bits: self.q.BinaryImage(width, height, bits.reshape(-1))
        secrets = [image(g) for g in self.secrets]
        mask = image(written["U.pbm"])
        streams = np.arange(width * height, dtype=np.uint64)
        with self.tracer.span("floor.unit_array", width * height):
            self.q.rng.unit_array(self.cli_seed, streams, 0)
        with self.tracer.span("scheme.classical_encrypt", width * height):
            self.q.scheme.classical_encrypt(secrets, mask)

    def _check_metrics(self, out: str, written: dict[str, np.ndarray] | None) -> list[str]:
        try:
            report = json.loads(out)
        except ValueError as exc:
            return [f"metrics output is not JSON: {exc}"]
        if not self.workload.pairs:
            failures: list[str] = []
            rec = checks.read_images(self.rec, ["G1_rec.pbm"], self.workload.variant, failures)
            if failures or not isinstance(report, dict):
                return failures or ["metrics output is not one report"]
            return checks.check_report(report, self.secrets[0], rec["G1_rec.pbm"])
        if written is None:
            return ["shares unreadable, so the pair metrics cannot be checked"]
        n = len(self.secrets)
        named_secrets = list(zip(self.inputs, self.secrets))
        named_shares = [(str(self.enc / f"S{k}.pbm"), written[f"S{k}.pbm"])
                        for k in range(1, n + 1)]
        u = (str(self.enc / "U.pbm"), written["U.pbm"])
        expected = [(*g, *s) for g in named_secrets for s in named_shares]
        expected += [(*g, *u) for g in named_secrets]
        expected += [(*s, *u) for s in named_shares]
        return checks.check_pairs(report, expected)


def load_program():
    """Import the package from the checkout's src/, or stop with exit code 1."""
    if not (SRC / "qvmss" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'qvmss'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qvmss
    import qvmss.cli
    import qvmss.metrics
    import qvmss.rng
    import qvmss.scheme
    return qvmss


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing qvmss.cli: what `setup_s` samples."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qvmss.cli"], env=env, cwd=ROOT, check=True,
                   capture_output=True)
    return time.perf_counter() - start


def run_rounds(session: Session, seconds: float, trace: bool) -> list[Round]:
    """A warm-up round, then rounds for about `seconds`.

    With trace, every other round is traced.  Without, a fresh interpreter
    imports qvmss.cli before each timed round, after one untimed import, so
    that `setup_s` samples the host across the whole run.
    """
    rounds = [session.round(0, traced=False)]
    if not trace:
        import_seconds()
    minimum = 2 if trace else 1
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        index = len(rounds)
        setup = None if trace else import_seconds()
        rounds.append(session.round(index, traced=trace and index % 2 == 1))
        rounds[-1].setup = setup
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return rounds


def end_to_end(session: Session, timed: list[Round]) -> dict[str, float]:
    """Medians over the rounds, each time taken at reference speed (see `at_reference`)."""
    med = statistics.median
    at = at_reference
    return {
        "setup_s": med(at(r, "encrypt", r.setup) for r in timed),
        "encrypt_s": med(at(r, "encrypt") for r in timed),
        "metrics_s": med(at(r, "metrics") for r in timed),
        "secret_mpx_s": med(session.secret_pixels / 1e6 / sum(at(r, op) for op in OPS)
                            for r in timed),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def at_reference(r: Round, op: str, seconds: float | None = None) -> float:
    """Command `op` of round `r` (or `seconds` next to it), rescaled to a host on
    which the reference kernel takes REFERENCE_S.

    The kernel runs just before each command, so a host that is slow for the
    command is slow for the kernel too, and the ratio cancels the slowdown.
    """
    return (r.times[op] if seconds is None else seconds) * REFERENCE_S / r.ref(op)


def as_measured(session: Session, timed: list[Round]) -> dict[str, float]:
    """The same medians in plain seconds, and the reference kernel's own time."""
    med = statistics.median
    return {
        "measured.setup_s": med(r.setup for r in timed),
        "measured.encrypt_s": med(r.times["encrypt"] for r in timed),
        "measured.decrypt_s": med(r.times["decrypt"] for r in timed),
        "measured.metrics_s": med(r.times["metrics"] for r in timed),
        "measured.secret_mpx_s": med(session.secret_pixels / 1e6 / r.wall for r in timed),
        "host.reference_numpy_ms": 1e3 * med(r.reference["encrypt"][0] for r in timed),
        "host.reference_python_ms": 1e3 * med(r.reference["encrypt"][1] for r in timed),
    }


def _round_layers(round_spans: list[spans.Span]) -> dict[str, float]:
    selfs = spans.self_times(round_spans)
    named: dict[str, list[spans.Span]] = {}
    for s in round_spans:
        named.setdefault(s.name, []).append(s)
    total = lambda name: sum(s.duration for s in named.get(name, []))
    size = lambda name: sum(s.size for s in named.get(name, []))
    encrypt_s = total("scheme.encrypt")
    reports = named.get("metrics.report", [])
    return {
        "scheme.encrypt_s": encrypt_s,
        "scheme.engine_self_s": sum(selfs[s.id] for s in named["scheme.encrypt"]),
        "scheme.engine_floor_ratio":
            encrypt_s / (total("floor.unit_array") + total("scheme.classical_encrypt")),
        "rng.unit_array_s": total("rng.unit_array"),
        "rng.draws_per_pixel": size("rng.unit_array") / size("scheme.encrypt"),
        "imaging.read_pbm_s": total("imaging.read_pbm"),
        "imaging.write_pbm_s": total("imaging.write_pbm"),
        "imaging.read_mb_s": size("imaging.read_pbm") / total("imaging.read_pbm") / 1e6,
        "imaging.write_mb_s": size("imaging.write_pbm") / total("imaging.write_pbm") / 1e6,
        "metrics.report_ms": 1e3 * total("metrics.report") / len(reports),
        "metrics.pairs": len(reports),
        "scheme.decrypt_s": total("scheme.decrypt"),
        "cli.self_s": sum(selfs[s.id] for s in named["cli.main"]),
        "qsim.reference_pixel_us": 1e6 * total("qsim.encode_pixel") / size("qsim.encode_pixel"),
    }


def per_layer(session: Session, rounds: list[Round]) -> tuple[dict[str, float], float]:
    """Medians over the traced rounds, and the traced-minus-untraced round time.

    `trace.overhead_s` is the number of spans a traced round's commands open,
    times the measured cost of one span around a no-op.  The difference of
    round medians is returned beside it as a cross-check only: rounds drift
    by far more than tracing costs, so that difference cannot measure it.
    """
    by_round: dict[int, list[spans.Span]] = {}
    for s in session.tracer.spans:
        by_round.setdefault(s.round, []).append(s)
    traced = [r for r in rounds if r.traced and not r.failures]
    untraced = [r for r in rounds[1:] if not r.traced]
    if not traced:
        sys.exit("error: every traced round had a failed operation; no per-layer figures")
    layers = [_round_layers(by_round[r.index]) for r in traced]
    result = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    cost = session.tracer.wrapper_cost()
    opened = [sum(s.name not in CHECK_SPANS for s in by_round[r.index]) for r in traced]
    result["trace.overhead_s"] = cost * statistics.median(opened)
    for part, name in enumerate(("numpy", "python")):
        result[f"host.reference_{name}_ms"] = 1e3 * statistics.median(
            r.reference["encrypt"][part] for r in traced)
    difference = (statistics.median(r.wall for r in traced)
                  - statistics.median(r.wall for r in untraced))
    return result, difference


def versions() -> str:
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {nproc()}")


def accounting(session: Session, rounds: list[Round]) -> tuple[int, int, int]:
    """Print the per-workload counts and every failure; return (attempted, failed, wrong)."""
    w = session.workload
    attempted = len(rounds) * len(OPS)
    failed = sum(len(r.failures) for r in rounds)
    wrong = sum(r.wrong for r in rounds)
    print(f"{w.name}: {len(rounds)} rounds (1 warm-up), attempted {attempted}, "
          f"failed {failed}")
    for r in rounds:
        for op, messages in r.failures.items():
            print(f"  FAILED round {r.index} {op}: " + "; ".join(messages[:3]))
    return attempted, failed, wrong


def print_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    for name, value in values.items():
        print(f"  {name:<28} {value:>14.6f} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> None:
    qvmss = load_program()
    print(f"qvmss benchmark: workload {workload.name}, seed {seed}, {seconds:g} s, "
          f"trace {int(trace)}")
    print(f"{versions()}, encrypt threads {workload.threads}")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        session = Session(workload, seed, workload.size, Path(work), qvmss)
        h, w = session.secrets[0].shape
        print(f"inputs: {len(session.secrets)} x {w}x{h} {workload.variant} "
              f"({', '.join(workload.kinds)}), cli seed {session.cli_seed}")
        rounds = run_rounds(session, seconds, trace)
    attempted, failed, wrong = accounting(session, rounds)
    if trace:
        path = BENCH / "out" / f"spans-{workload.name}-seed{seed}.json"
        session.tracer.dump(path)
        print(f"spans: {len(session.tracer.spans)} written to {path.relative_to(ROOT)}")
        layers, difference = per_layer(session, rounds)
        metrics = print_metrics(layers, LAYER_UNITS)
        print(f"  cross-check: traced minus untraced round, medians: {difference:+.6f} s")
    else:
        timed = rounds[1:]
        print(f"end-to-end medians over {len(timed)} rounds, and one import before each:")
        metrics = print_metrics(end_to_end(session, timed), E2E_UNITS)
        print("the same medians as measured, and the reference kernel:")
        print_metrics(as_measured(session, timed), MEASURED_UNITS)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def quick(seed: int) -> int:
    """Every workload on small inputs, every check, and two injected faults each."""
    qvmss = load_program()
    print(f"qvmss benchmark, quick mode: seed {seed}, {versions()}")
    expected = {(3, "encrypt"), (3, "decrypt"), (4, "encrypt")}
    import_seconds()
    ok, attempted, failed = True, 0, 0
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
            session = Session(workload, seed, workload.quick_size, Path(work), qvmss)
            rounds = [session.round(0, False), session.round(1, False),
                      session.round(2, True), session.round(3, False, fault="flip"),
                      session.round(4, False, fault="digest")]
        counts = accounting(session, rounds)
        attempted, failed = attempted + counts[0], failed + counts[1]
        got = {(r.index, op) for r in rounds for op in r.failures}
        rounds[1].setup = import_seconds()
        print_metrics(end_to_end(session, rounds[1:2]), E2E_UNITS)
        print_metrics(per_layer(session, rounds[:3])[0], LAYER_UNITS)
        if got != expected:
            ok = False
            print(f"  QUICK FAILED: failed operations {sorted(got)}, expected {sorted(expected)}")
    print("quick mode: " + ("every check passed and every injected fault was caught"
                            if ok else "FAILED"))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="all workloads on small inputs, with two injected faults")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.quick:
        return quick(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
