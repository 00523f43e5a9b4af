#!/usr/bin/env python3
"""Generate a sharded-cluster plan JSON (core::load_cluster_plan format).

A cluster plan parameterizes core::ShardedCluster — the scaling scenario on
the parallel sharded DES core — without recompiling: fleet size, shard
count, registry topology and load mix.  The committed
plans/huge-cluster.json (100k hosts) and plans/huge-cluster-smoke.json (CI
size) were produced by this script; regenerate or derive new ones with:

  scripts/gen_cluster_plan.py --hosts 100000 --shards 8 --duration 120 \
      --name huge-cluster --no-tracing --out plans/huge-cluster.json
  scripts/gen_cluster_plan.py --hosts 2000 --shards 4 --duration 30 \
      --name huge-cluster-smoke --out plans/huge-cluster-smoke.json

The C++ loader is the one schema: it refuses unknown keys, wrong types and
out-of-range values, naming the key ("plan.hots: $.hots: unknown key"), so
a typo in a hand-edited plan is an error, never a silent default.

Faults are written into a plan by hand, as a "faults" array of the same
fault objects a chaos fault plan holds (plans/control-loss.json shows
them); plans/huge-cluster-smoke.json carries a loss window, a monitor stall
and a registry cold restart.  Regenerating it drops them, so add them back.
"""

import argparse
import json
import pathlib
import sys


def build_plan(args: argparse.Namespace) -> dict:
    plan = {
        "name": args.name,
        "hosts": args.hosts,
        "shards": args.shards,
        "duration": args.duration,
        "cross_latency": args.cross_latency,
        "hierarchical": not args.flat,
        "delta_heartbeats": not args.full_heartbeats,
        "seed": args.seed,
        "busy_fraction": args.busy_fraction,
        "overloaded_fraction": args.overloaded_fraction,
        "tracing": not args.no_tracing,
        "trace_capacity": args.trace_capacity,
    }
    return plan


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--name", default=None, help="plan name (default: derived)")
    parser.add_argument("--hosts", type=int, default=100_000)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="virtual seconds to simulate")
    parser.add_argument("--cross-latency", type=float, default=0.005,
                        dest="cross_latency",
                        help="inter-shard fabric latency / lookahead, seconds")
    parser.add_argument("--flat", action="store_true",
                        help="single root registry (all heartbeats cross-shard)"
                        " instead of one child registry per shard")
    parser.add_argument("--full-heartbeats", action="store_true",
                        dest="full_heartbeats",
                        help="disable delta-heartbeat coalescing")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--busy-fraction", type=float, default=0.30,
                        dest="busy_fraction")
    parser.add_argument("--overloaded-fraction", type=float, default=0.05,
                        dest="overloaded_fraction")
    parser.add_argument("--no-tracing", action="store_true", dest="no_tracing",
                        help="disable tracing (cheaper bench runs)")
    parser.add_argument("--trace-capacity", type=int, default=4096,
                        dest="trace_capacity",
                        help="per-shard trace ring capacity")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="output file (default: stdout)")
    args = parser.parse_args()

    if args.hosts < 1 or args.shards < 1:
        parser.error("--hosts and --shards must be >= 1")
    if args.name is None:
        args.name = f"cluster-{args.hosts}x{args.shards}"

    text = json.dumps(build_plan(args), indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
