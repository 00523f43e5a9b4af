#!/usr/bin/env python3
"""Compare google-benchmark JSON results against a committed baseline.

The micro benches emit google-benchmark JSON via their --json-out= flag
(see bench/common.hpp).  This script checks the measured throughput
(items_per_second / bytes_per_second, falling back to real_time) against
BENCH_micro.json and fails when a benchmark regressed beyond the tolerance
band.  Faster-than-baseline results always pass; refresh the baseline with
--update after intentional performance work (it replaces only the rows the
given results measured).

Usage:
  # regenerate results
  build/bench/bench_micro_components --json-out=/tmp/components.json
  build/bench/bench_micro_simulation --json-out=/tmp/simulation.json
  # check
  scripts/bench_check.py /tmp/components.json /tmp/simulation.json
  # refresh the committed baseline
  scripts/bench_check.py --update /tmp/components.json /tmp/simulation.json
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_micro.json"

# Throughput metrics: bigger is better.  real_time (smaller is better) is
# the fallback for benchmarks that report neither.
THROUGHPUT_METRICS = ("items_per_second", "bytes_per_second")


def extract(results_path):
    """benchmark name -> {metric: value} from google-benchmark JSON."""
    with open(results_path) as fh:
        doc = json.load(fh)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue  # keep per-run entries; aggregates would double-count
        name = bench["name"]
        metrics = {}
        for metric in THROUGHPUT_METRICS:
            if metric in bench:
                metrics[metric] = bench[metric]
        # real_time rides along even when a throughput metric exists: ratio
        # entries (e.g. the sharded speedup-vs-1-shard curve) compare wall
        # time between two benchmarks.
        if "real_time" in bench:
            metrics.setdefault("real_time", bench["real_time"])
        if metrics:
            out[name] = metrics
    return out


def merge_results(paths):
    merged = {}
    for path in paths:
        for name, metrics in extract(path).items():
            if name in merged:
                print(f"warning: {name} appears in more than one results file;"
                      " keeping the last occurrence", file=sys.stderr)
            merged[name] = metrics
    return merged


def check(baseline, measured, tolerance):
    """Returns (failures, warnings) as lists of human-readable strings."""
    failures = []
    warnings = []
    for name, base_metrics in sorted(baseline.get("benchmarks", {}).items()):
        if name not in measured:
            warnings.append(f"{name}: in baseline but not in results (skipped)")
            continue
        for metric, base_value in base_metrics.items():
            got = measured[name].get(metric)
            if got is None or base_value <= 0:
                continue
            if metric == "real_time":  # smaller is better
                ratio = base_value / got if got > 0 else 0.0
                bound_desc = f"<= {base_value * (1 + tolerance):.4g}"
                ok = got <= base_value * (1 + tolerance)
            else:  # throughput: bigger is better
                ratio = got / base_value
                bound_desc = f">= {base_value * (1 - tolerance):.4g}"
                ok = got >= base_value * (1 - tolerance)
            line = (f"{name} {metric}: measured {got:.4g} vs baseline "
                    f"{base_value:.4g} ({ratio:.2f}x, require {bound_desc})")
            if ok:
                print(f"  ok   {line}")
            else:
                failures.append(line)
    for name in sorted(set(measured) - set(baseline.get("benchmarks", {}))):
        warnings.append(f"{name}: measured but not in baseline "
                        "(add via --update)")
    return failures, warnings


def measured_ratio(entry, measured):
    """value(numerator)/value(denominator) for a ratio entry, or None."""
    metric = entry.get("metric", "real_time")
    num = measured.get(entry.get("numerator", ""), {}).get(metric)
    den = measured.get(entry.get("denominator", ""), {}).get(metric)
    if num is None or den is None or den == 0:
        return None
    return num / den


def check_ratios(baseline, measured, default_tolerance):
    """Derived-ratio entries: numerator/denominator of a metric across two
    benchmarks (e.g. speedup vs the 1-shard run).  Each entry carries its
    own tolerance, and `warn_only: true` downgrades a miss to a warning —
    parallel speedups depend on how many cores the runner actually grants.
    Returns (failures, warnings)."""
    failures = []
    warnings = []
    for name, entry in sorted(baseline.get("ratios", {}).items()):
        got = measured_ratio(entry, measured)
        if got is None:
            warnings.append(f"ratio {name}: operands not in results (skipped)")
            continue
        base_value = entry.get("value")
        if base_value is None or base_value <= 0:
            warnings.append(f"ratio {name}: no baseline value (skipped)")
            continue
        tolerance = entry.get("tolerance", default_tolerance)
        ok = got >= base_value * (1 - tolerance)
        line = (f"ratio {name}: measured {got:.3f} vs baseline "
                f"{base_value:.3f} (require >= "
                f"{base_value * (1 - tolerance):.3f})")
        if ok:
            print(f"  ok   {line}")
        elif entry.get("warn_only"):
            warnings.append(f"{line} [warn-only]")
        else:
            failures.append(line)
    return failures, warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+",
                        help="google-benchmark JSON files (from --json-out=)")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed fractional regression "
                             "(default: baseline file's value, else 0.35)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 "
                             "(for noisy shared CI runners)")
    parser.add_argument("--update", action="store_true",
                        help="re-pin the baseline rows these results "
                             "measured; other rows are kept")
    args = parser.parse_args()

    measured = merge_results(args.results)
    if not measured:
        print("error: no benchmark entries found in results", file=sys.stderr)
        return 2

    if args.update:
        # Replace only the rows these results measured: every other pinned
        # row, the tolerance and the hand-authored ratio entries stay.
        baseline = (json.loads(args.baseline.read_text())
                    if args.baseline.exists() else {})
        baseline["schema"] = "ars-bench-baseline-v1"
        if args.tolerance is not None or "tolerance" not in baseline:
            baseline["tolerance"] = (args.tolerance
                                     if args.tolerance is not None else 0.35)
        rows = {**baseline.get("benchmarks", {}), **measured}
        baseline["benchmarks"] = dict(sorted(rows.items()))
        # Refresh each ratio's pinned value when both of its operands ran.
        for entry in baseline.get("ratios", {}).values():
            got = measured_ratio(entry, measured)
            if got is not None:
                entry["value"] = got
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {args.baseline} ({len(measured)} of {len(rows)} "
              "benchmarks updated)")
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found "
              "(create one with --update)", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = baseline.get("tolerance", 0.35)

    print(f"checking {len(measured)} measured benchmarks against "
          f"{args.baseline.name} (tolerance {tolerance:.0%})")
    failures, warnings = check(baseline, measured, tolerance)
    ratio_failures, ratio_warnings = check_ratios(baseline, measured, tolerance)
    failures += ratio_failures
    warnings += ratio_warnings
    for warning in warnings:
        print(f"  warn {warning}")
    for failure in failures:
        print(f"  FAIL {failure}")
    if failures:
        if args.warn_only:
            print(f"{len(failures)} regression(s) beyond tolerance "
                  "(ignored: --warn-only)")
            return 0
        print(f"{len(failures)} regression(s) beyond tolerance")
        return 1
    print("all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
