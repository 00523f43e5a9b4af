#!/usr/bin/env python3
"""End-to-end benchmark of the autoresched simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the simulator's libraries and the
perfbench binary from source (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload for S seconds of
timed passes after one untimed warm-up pass.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (the
recording fault policy, 1 s slices and codec/registry replays run only
then).  Prints a table, then one JSON line: correct, attempted, failed and
metrics.  Exits 1 if any correctness operation failed, 2 on a usage or
build error (without printing a result).

Correctness operations are the workload's own checks (see the C++ sources)
plus every pinned value in perfbench/spec.json for this seed and trace
mode.
`--update-pins` rewrites those pins from this run; use it only for a change
that alters simulated behaviour on purpose.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave the checkout as it was
sys.path.insert(0, str(HERE))

import metrics as m  # noqa: E402

def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once and build incrementally; build output goes to stderr
    so stdout carries only the report."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "include" / "ars").is_dir():
        fail(f"simulator sources (src/, include/) not found in {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    build_dir = (target if target.is_absolute() else Path.cwd() / target) \
        / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def measure(binary, args):
    # Timed passes, the warm-up and the traced extras take a few times
    # --seconds at most.
    timeout_s = 3 * args.seconds + 120
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=timeout_s, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout_s} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def print_table(wanted, values, layers, workload):
    print(f"{'metric':34} {'value':>16}  unit   moves")
    for decl in wanted:
        name = decl["name"]
        layer = layers.get(name, {})
        applies = workload in layer.get("workloads", [workload])
        shown = f"{values.get(name, 0.0):16.6g}" if applies else f"{'n/a':>16}"
        moves = ", ".join(layer.get("moves", []))
        print(f"{name:34} {shown}  {decl['unit']:6} {moves}")


def update_pins(spec_path, spec, workload, seed, values):
    entry = spec["workloads"][workload]
    keys = entry["pin_keys"]
    pinned = {k: values[k] for k in keys if k in values}
    if "pinned_by_seed" in entry:
        entry["pinned_by_seed"].setdefault(str(seed), {}).update(pinned)
    else:
        entry.setdefault("pinned", {}).update(pinned)
    spec_path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} values for {workload}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec_path = HERE / "spec.json"
    spec = json.loads(spec_path.read_text())
    bad = m.invalid_names(benchmark)
    if bad:
        fail("invalid or duplicate metric names: " + ", ".join(bad))
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed is None:
        args.seed = spec["seeds"]["default"]
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    raw = measure(build(), args)
    values, notes = m.derive(raw)
    checks = raw["checks"] + m.pin_checks(
        m.pins_for(spec, args.workload, args.seed, args.trace), values)
    attempted, failed = m.count_failures(checks)
    values["failed_frac"] = m.failed_frac(attempted, failed)
    if args.update_pins:
        update_pins(spec_path, spec, args.workload, args.seed, values)

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print_table(wanted, values, spec.get("layers", {}), args.workload)
    for note in notes:
        print("note:", note)
    for check in checks:
        if not check["ok"]:
            print(f"FAILED {check['name']}: {check['detail']}")
    result = m.result_line(checks, values, wanted)
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
