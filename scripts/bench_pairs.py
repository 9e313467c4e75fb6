#!/usr/bin/env python3
"""Compare this checkout's benchmark against a baseline checkout, in pairs.

    python3 scripts/bench_pairs.py BASELINE --workload high-arity --pairs 10 --seconds 45

BASELINE is another full checkout, such as a `git archive` of the parent
commit unpacked in a scratch directory.  Each pair runs `bench/run.py
--trace 0` of the baseline and of this checkout in turn, both with the same
seed: 1 for the first pair, one more for each pair after it.  The order
swaps every pair, so drift on a shared host reaches both sides alike, and
every `__pycache__` under each side's `src/` is removed before each run, so
neither side runs on bytecode that the other compiled or that is stale.

For each end-to-end metric in this checkout's BENCHMARK.json, the script
prints each side's median and quartiles, and how many pairs the change wins
in the direction of the metric's `better` field; a tie wins for neither
side.  A run that is not `correct`, or that has `failed > 0`, loses its pair
on every metric, and the script lists it.  The verdict is `gain` when the
change wins at least nine tenths of the pairs and the medians differ by more
than the baseline's interquartile range, and `worse` when the change's
median is worse than the baseline's by more than the metric's `bound`.
Otherwise it is `unresolved` when the baseline's interquartile range is
wider than the bound (as a share of the baseline's median), unless every
run of the change is better than every run of the baseline, or when a side
has no sound run; and `-` when the change is within its bound of a baseline
that is steady enough to tell.

`--json PATH` appends one entry to the JSON list in PATH (made if missing):
the header of `bench_entry.py` for this checkout's `src/qvmss`, the
baseline's revision as `baseline`, the workload, the number of pairs and the
seconds of each run, and one row per metric: its unit, each side's
quartiles over its sound runs (null when it has none), the change's wins and
the verdict.  The script imports nothing of either checkout's program.
"""
import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from bench_entry import append_entry, positive_int, quartiles, source_revision

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("baseline", "change")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(checkout, workload, seconds, seed):
    """The last line of `bench/run.py --trace 0` in checkout, as a dict.

    A run that ends without a result line gives an unsound result that says why,
    with the last non-empty line the run wrote to stderr.
    """
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
            "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        said = [line.strip() for line in proc.stderr.splitlines() if line.strip()]
        return {"correct": False, "failed": None, "metrics": {},
                "error": ": ".join([f"exit {proc.returncode}, no result line", *said[-1:]])}


def is_sound(result):
    return result["correct"] is True and result["failed"] == 0


def lower_is_better(metric):
    return END_TO_END[metric]["better"] == "lower"


def change_wins(metric, base, change):
    """1 if the change wins this pair on metric, else 0; a lost run loses its pair."""
    if not is_sound(base) or not is_sound(change):
        return int(is_sound(change))
    a, b = base["metrics"][metric]["value"], change["metrics"][metric]["value"]
    return int(b < a if lower_is_better(metric) else b > a)


def verdict(metric, pairs, wins, base, change):
    """The verdict on metric from each side's values in its sound runs."""
    lower, base_median, upper = quartiles(base)
    sign = 1 if lower_is_better(metric) else -1
    better_by = (base_median - quartiles(change)[1]) * sign
    if 10 * wins >= 9 * pairs and better_by > upper - lower:
        return "gain"
    bound = END_TO_END[metric]["bound"]
    if -better_by / base_median > bound:
        return "worse"
    apart = max(sign * v for v in change) < min(sign * v for v in base)
    if upper - lower > bound * base_median and not apart:
        return "unresolved"
    return "-"


def report(results):
    """Print the lost runs, each metric's values run by run, and one row per
    metric; return those rows."""
    for index, pair in enumerate(results, start=1):
        for side in SIDES:
            result = pair[side]
            if not is_sound(result):
                reason = result.get("error") or (f"correct {json.dumps(result['correct'])}, "
                                                 f"failed {result['failed']}")
                print(f"lost: pair {index} {side} ({reason})")
    sound = {}
    for metric in END_TO_END:
        values = {side: [p[side]["metrics"][metric]["value"] if is_sound(p[side]) else None
                         for p in results] for side in SIDES}
        print(f"{metric}: " + " | ".join(
            f"{side} " + " ".join("lost" if v is None else f"{v:.6g}" for v in values[side])
            for side in SIDES))
        sound[metric] = {side: [v for v in values[side] if v is not None] for side in SIDES}
    print(f"{'metric':<14} {'unit':<6}"
          + "".join(f" {side + ' q1':>14} {side + ' med':>14} {side + ' q3':>14}"
                    for side in SIDES)
          + f" {'wins':>6} verdict")
    rows = []
    for metric, spec in END_TO_END.items():
        values = sound[metric]
        wins = sum(change_wins(metric, p["baseline"], p["change"]) for p in results)
        cells = "".join(" " + " ".join(f"{v:>14.6g}" for v in quartiles(values[side]))
                        if values[side] else f" {'-':>14} {'-':>14} {'-':>14}"
                        for side in SIDES)
        judged = (verdict(metric, len(results), wins, values["baseline"], values["change"])
                  if all(values.values()) else "unresolved")
        print(f"{metric:<14} {spec['unit']:<6}{cells} {f'{wins}/{len(results)}':>6} {judged}")
        rows.append({"metric": metric, "unit": spec["unit"],
                     **{side: list(quartiles(values[side])) if values[side] else None
                        for side in SIDES},
                     "wins": wins, "verdict": judged})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", type=Path, help="another full checkout")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=positive_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", metavar="PATH", help="append this run's entry to PATH")
    args = parser.parse_args()
    if not 0 < args.seconds < math.inf:  # bench/run.py would never stop on NaN or inf
        parser.error(f"argument --seconds: must be positive and finite, got {args.seconds}")
    if not (args.baseline / "bench" / "run.py").is_file():
        parser.error(f"argument baseline: no bench/run.py under {args.baseline}")
    checkouts = {"baseline": args.baseline.resolve(), "change": ROOT}

    results = []
    for index in range(args.pairs):
        seed = index + 1
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {side: run_benchmark(checkouts[side], args.workload, args.seconds, seed)
                for side in order}
        results.append(pair)
        print(f"pair {index + 1} seed {seed}: {' then '.join(order)}", flush=True)
    rows = report(results)
    if args.json:
        append_entry(args.json, rows, ROOT / "src" / "qvmss",
                     baseline=source_revision(checkouts["baseline"] / "src" / "qvmss"),
                     workload=args.workload, pairs=args.pairs, seconds=args.seconds)


if __name__ == "__main__":
    main()
