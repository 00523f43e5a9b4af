#!/usr/bin/env python3
"""Alternating parent/change runs of the end-to-end benchmark.

    scripts/perf_pairs.py [--base REV] [--pairs N] [--workload W ...]
                          [--seconds S] [--seed N] [--trace 0|1]
                          [--metric NAME ...] [--json FILE]

Compares this checkout (the change, uncommitted edits included) with the
revision REV (the parent; default HEAD).  REV's files are extracted with
`git archive` into a temporary directory outside the repository, which also
holds its build tree, so nothing is written to the repository or under
perfbench/.  For each workload the script runs `python3 perfbench/run.py`
on both sides N times, alternating which side goes first, after one
untimed 1 s run per side that builds it.  Only settings the benchmark takes
are passed on (--workload, --seed, --seconds, --trace).

For each workload and metric it prints each side's median, quartiles and
range, and the number of pairs the change wins (ties count for neither).
--trace 0 reports BENCHMARK.json's end-to-end metrics, --trace 1 its
per-layer ones.  Exits 1 if any run reports `correct: false`, 2 on a usage
or build error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quantile(values, q):
    """The q-quantile of `values` by linear interpolation between the
    closest ranks (numpy's default, statistics.quantiles' "inclusive")."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values):
    """min, first quartile, median, third quartile and max."""
    return {"min": min(values), "q1": quantile(values, 0.25),
            "median": quantile(values, 0.5), "q3": quantile(values, 0.75),
            "max": max(values)}


def wins(base, change, better):
    """Pairs in which the change is strictly better; ties win nothing."""
    if len(base) != len(change):
        raise ValueError("unpaired runs")
    if better == "lower":
        return sum(1 for b, c in zip(base, change) if c < b)
    return sum(1 for b, c in zip(base, change) if c > b)


def order(pair_index):
    """Which side runs first in a pair: the parent in even pairs."""
    return ("base", "change") if pair_index % 2 == 0 else ("change", "base")


def fail(message):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def run_bench(side_root, env, workload, args, seconds):
    """One run of perfbench/run.py from `side_root`: its result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    proc = subprocess.run(command, cwd=side_root, env=env, text=True,
                          stdout=subprocess.PIPE)
    if proc.returncode not in (0, 1):
        fail(f"{' '.join(command)} in {side_root} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def extract(rev, into):
    """REV's tracked files, as `git archive` writes them, under `into`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        fail(f"git archive {rev} failed")
    if subprocess.run(["tar", "-x", "-C", str(into)],
                      input=archive.stdout).returncode != 0:
        fail("could not unpack the archive")


def print_table(workload, metrics, runs, declared):
    print(f"\n{workload}: {len(runs['base'])} pairs")
    print(f"{'metric':28} {'side':7} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12}  wins")
    for name in metrics:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        for side, values in (("parent", base), ("change", change)):
            s = summary(values)
            won = ""
            if side == "change":
                won = f"{wins(base, change, declared[name])}/{len(base)}"
            print(f"{name:28} {side:7} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['min']:12.6g} {s['max']:12.6g}  {won}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metric", action="append")
    parser.add_argument("--json")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["better"] for m in wanted}
    metrics = args.metric or list(declared)
    unknown = [name for name in metrics if name not in declared]
    if unknown:
        fail("unknown metric(s) for this trace mode: " + ", ".join(unknown))
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds or benchmark["run_seconds"]

    results = {}
    correct = True
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as workdir:
        base_root = Path(workdir) / "src"
        base_root.mkdir()
        extract(args.base, base_root)
        sides = {
            "base": (base_root, dict(os.environ, CARGO_TARGET_DIR=str(
                Path(workdir) / "build"))),
            "change": (ROOT, dict(os.environ)),
        }
        for workload in workloads:
            for side in ("base", "change"):  # builds the side; not kept
                root, env = sides[side]
                result = run_bench(root, env, workload, args, 1)
                correct = correct and result["correct"]
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                for side in order(i):
                    root, env = sides[side]
                    result = run_bench(root, env, workload, args, seconds)
                    correct = correct and result["correct"]
                    runs[side].append(result)
            results[workload] = runs
            print_table(workload, metrics, runs, declared)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"base": args.base, "seconds": seconds, "trace": args.trace,
             "runs": results}, indent=1) + "\n")
    if not correct:
        print("perf_pairs: a run reported correct: false", file=sys.stderr)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
