#!/usr/bin/env sh
# Run every deterministic output CI checks, with CI's flags, into one tree:
#
#   $ scripts/ci_campaigns.sh BUILD_DIR OUT_DIR
#
# OUT_DIR/<campaign>/ gets each chaos_campaign's report (report.json), its
# per-seed traces (trace.<cell>_seed<N>.jsonl) and metrics snapshots
# (metrics.<cell>_seed<N>.json); failing seeds leave flight-recorder
# bundles in OUT_DIR/bundles/.  OUT_DIR/stdout/ gets the stdout of the
# paper benches and the quickstart example.  Runs from the repo root (the
# plans are read from there) and stops at the first failing command.
#
# Every output is a pure function of the build, so two builds of the same
# simulation give trees that `diff -r` finds identical: build the parent
# commit in a scratch clone, run this script once per build, and diff.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
BUILD=$(cd "$1" && pwd)
mkdir -p "$2"
OUT=$(cd "$2" && pwd)
cd "$(dirname "$0")/.."

# campaign NAME FLAGS...: one chaos_campaign run into OUT/NAME/.
campaign() {
  name=$1
  shift
  mkdir -p "$OUT/$name"
  "$BUILD/tools/chaos_campaign" "$@" --out="$OUT/$name/report.json" \
    --trace-out="$OUT/$name/trace.jsonl" \
    --metrics-out="$OUT/$name/metrics.json"
}

# Fault-injection sweep: 25 seeds per shipped plan.
campaign chaos --seeds=25 \
  --plan=plans/control-loss.json --plan=plans/churn.json \
  --replay-passing=2 --bundle-dir="$OUT/bundles"
# Large cluster: 16 hosts with delta heartbeats under the heavy plan.
campaign large --seeds=5 --hosts=16 --apps=8 \
  --plan=plans/large-cluster.json --delta-heartbeats
# Migration-window faults (trace_critpath reads these traces).
campaign migration-storm --seeds=25 \
  --plan=plans/migration-storm.json \
  --replay-passing=2 --bundle-dir="$OUT/bundles"
# Pre-copy storm.
campaign precopy-storm --seeds=25 --precopy \
  --plan=plans/precopy-storm.json \
  --replay-passing=2 --bundle-dir="$OUT/bundles"
# Resize-window faults on two malleable jobs.
campaign resize-storm --seeds=25 --hosts=8 \
  --malleable-jobs=2 --horizon=700 \
  --plan=plans/resize-storm.json \
  --replay-passing=2 --bundle-dir="$OUT/bundles"
# Checkpoint storm: 25 seeds x {periodic, cooperative} x two MTBFs.
campaign ckpt-storm --seeds=25 --plan=ckpt-storm \
  --mtbf=120,300 --horizon=1000 --state-mb=60 \
  --aggregate-mbps=12 --replay-passing=2 --bundle-dir="$OUT/bundles"

# The paper benches and the end-to-end example print only simulated
# numbers.
mkdir -p "$OUT/stdout"
for bench in bench_table2_policies bench_fig5_overhead_load \
             bench_fig6_overhead_comm bench_fig7_efficiency_cpu \
             bench_fig8_efficiency_comm bench_ablation_recovery; do
  "$BUILD/bench/$bench" > "$OUT/stdout/$bench.txt"
done
"$BUILD/examples/quickstart" > "$OUT/stdout/quickstart.txt"
