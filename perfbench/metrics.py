"""Turn what the perfbench binary measured into the benchmark's metrics.

Pure functions, no I/O: run.py feeds them the binary's JSON document and
the pinned expectations from spec.json; test_metrics.py covers them.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles tried for a tail, highest first.  A tail is only reported at
# a percentile that leaves at least MIN_BEYOND samples above it.
PERCENTILE_LADDER = (90.0, 75.0, 50.0)
MIN_BEYOND = 10

# Sample series reported as a median and a tail: series -> metric prefix.
TAILED_SERIES = {"seed_run_ms": "seed_run_ms", "slice_ms": "sim.slice_ms"}

# Relative tolerance of a pinned value.  Simulated results are exact; the
# tolerance only absorbs the last digit of the JSON round trip.
PIN_REL_TOL = 1e-9


def valid_name(name):
    """Metric and workload names: [A-Za-z0-9_.-]+, starting with a letter or
    digit, at most 64 characters."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def invalid_names(benchmark):
    """Names in a BENCHMARK.json document that break the naming rule, or are
    used twice."""
    names = [w["name"] for w in benchmark.get("workloads", [])]
    names += [m["name"] for m in benchmark.get("end_to_end", [])]
    names += [m["name"] for m in benchmark.get("per_layer", [])]
    bad = [n for n in names if not valid_name(n)]
    seen = set()
    for name in names:
        if name in seen and name not in bad:
            bad.append(name)
        seen.add(name)
    return bad


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile: (value, number of samples above its rank)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values):
    """The highest ladder percentile with at least MIN_BEYOND samples beyond
    it: (percentile, value), or (None, None) when even the median leaves
    fewer than MIN_BEYOND samples above it."""
    ordered = sorted(values)
    if not ordered:
        return None, None
    for pct in PERCENTILE_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= MIN_BEYOND:
            return pct, value
    return None, None


def derive(raw):
    """Metrics from the binary's document: every sample series becomes its
    median (tailed series also a p90 under the percentile rule), every exact
    value is copied.  Returns (metrics, notes)."""
    metrics = dict(raw.get("values", {}))
    notes = []
    for series, values in raw.get("samples", {}).items():
        if not values:
            continue
        if series in TAILED_SERIES:
            prefix = TAILED_SERIES[series]
            metrics[prefix + "_p50"] = statistics.median(values)
            pct, value = tail_percentile(values)
            if pct is not None:
                metrics[prefix + "_p90"] = value
                metrics[prefix + "_samples"] = len(values)
                if pct != 90.0:
                    notes.append(f"{prefix}_p90 is p{pct:g}: only "
                                 f"{len(values)} samples")
            else:
                notes.append(f"{prefix}_p90 omitted: only {len(values)} "
                             f"samples")
        else:
            metrics[series] = statistics.median(values)
    return metrics, notes


def pins_for(spec, workload, seed, traced):
    """Pinned expectations that a (workload, seed) run in this trace mode
    measures: seed-independent pins plus the seed's own, less the
    workload's `traced_only` keys in an untraced run."""
    entry = spec.get("workloads", {}).get(workload, {})
    pins = dict(entry.get("pinned", {}))
    pins.update(entry.get("pinned_by_seed", {}).get(str(seed), {}))
    if not traced:
        for name in entry.get("traced_only", []):
            pins.pop(name, None)
    return pins


def pin_checks(pins, metrics):
    """One check per pinned value.  A pinned value that drifted, or that the
    run no longer reports (a message type that vanished, say), is a failed
    operation, not a speed change."""
    checks = []
    for name, expected in sorted(pins.items()):
        actual = metrics.get(name)
        ok = actual is not None and math.isclose(
            actual, expected, rel_tol=PIN_REL_TOL, abs_tol=0.0)
        checks.append({"name": "pin." + name, "ok": ok,
                       "detail": f"{actual!r} (pinned {expected!r})"})
    return checks


def count_failures(checks):
    """(attempted, failed) over correctness operations."""
    attempted = len(checks)
    failed = sum(1 for check in checks if not check["ok"])
    return attempted, failed


def failed_frac(attempted, failed):
    return failed / attempted if attempted else 1.0


def result_line(checks, metrics, wanted):
    """The benchmark's final JSON object.  `wanted` is the list of metric
    declarations (name, unit) to report; a metric this workload does not
    exercise reads 0."""
    attempted, failed = count_failures(checks)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }
