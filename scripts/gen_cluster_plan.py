#!/usr/bin/env python3
"""Generate a sharded-cluster plan JSON (core::load_cluster_plan format).

A cluster plan parameterizes core::ShardedCluster — the scaling scenario on
the parallel sharded DES core — without recompiling: fleet size, shard
count, registry topology, load mix, and chaos windows.  The committed
plans/huge-cluster.json (100k hosts) and plans/huge-cluster-smoke.json (CI
size) were produced by this script; regenerate or derive new ones with:

  scripts/gen_cluster_plan.py --hosts 100000 --shards 8 \
      --duration 120 --out plans/huge-cluster.json
  scripts/gen_cluster_plan.py --hosts 2000 --shards 4 --duration 30 \
      --name huge-cluster-smoke --out plans/huge-cluster-smoke.json

Unknown keys are ignored by the C++ loader, so plans written by newer
versions of this script stay loadable — which also means a typo in a
hand-edited plan silently becomes a default.  `--check FILE` closes that
gap: it validates a plan against the schema this script generates,
rejecting unknown top-level keys and reporting every error with the
offending key path ($.hots: unknown key).

Per-host crash-rate failures (a mean time between crashes) are not part of
a cluster plan: they are a chaos fault plan's host_crash_rate fault, swept
with `tools/chaos_campaign --plan=ckpt-storm --mtbf=M1,M2,...`.
"""

import argparse
import json
import numbers
import pathlib
import sys

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# Top-level plan schema: key -> (predicate, description).  Mirrors
# build_plan() below and core::load_cluster_plan's known keys.
_SCHEMA = {
    "name": (lambda v: isinstance(v, str) and v != "", "non-empty string"),
    "hosts": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "shards": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "duration": (
        lambda v: _is_num(v) and v > 0,
        "number > 0",
    ),
    "cross_latency": (
        lambda v: _is_num(v) and v >= 0,
        "number >= 0",
    ),
    "hierarchical": (lambda v: isinstance(v, bool), "boolean"),
    "delta_heartbeats": (lambda v: isinstance(v, bool), "boolean"),
    "seed": (lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "busy_fraction": (
        lambda v: _is_num(v) and 0 <= v <= 1,
        "number in [0, 1]",
    ),
    "overloaded_fraction": (
        lambda v: _is_num(v) and 0 <= v <= 1,
        "number in [0, 1]",
    ),
    "tracing": (lambda v: isinstance(v, bool), "boolean"),
    "trace_capacity": (
        lambda v: _is_int(v) and v >= 0,
        "integer >= 0",
    ),
    "generator": (lambda v: isinstance(v, str), "string"),
    "message_loss": (
        lambda v: _is_num(v) and 0 <= v <= 1,
        "number in [0, 1]",
    ),
    "loss_from": (
        lambda v: _is_num(v) and v >= 0,
        "number >= 0",
    ),
    "loss_until": (
        lambda v: _is_num(v) and v >= 0,
        "number >= 0",
    ),
    "crash_hosts": (
        lambda v: _is_int(v) and v >= 0,
        "integer >= 0",
    ),
    "crash_at": (
        lambda v: _is_num(v) and v >= 0,
        "number >= 0",
    ),
    "crash_until": (
        lambda v: _is_num(v) and v >= 0,
        "number >= 0",
    ),
}

_REQUIRED = ("name", "hosts", "shards", "duration")


def validate_plan(plan) -> list:
    """Schema errors as '$.key: what' strings; empty when the plan is valid."""
    if not isinstance(plan, dict):
        return ["$: expected a JSON object"]
    errors = []
    for key in sorted(plan):
        if key not in _SCHEMA:
            errors.append(f"$.{key}: unknown key")
    for key in _REQUIRED:
        if key not in plan:
            errors.append(f"$.{key}: required key is missing")
    for key, (accept, want) in _SCHEMA.items():
        if key in plan and not accept(plan[key]):
            errors.append(f"$.{key}: expected {want}, got {plan[key]!r}")
    return sorted(errors)


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
        "generator": "scripts/gen_cluster_plan.py",
    }
    if args.message_loss > 0:
        plan["message_loss"] = args.message_loss
        plan["loss_from"] = args.loss_from
        plan["loss_until"] = (
            args.loss_until if args.loss_until > 0 else args.duration
        )
    if args.crash_hosts > 0:
        plan["crash_hosts"] = args.crash_hosts
        plan["crash_at"] = args.crash_at
        plan["crash_until"] = (
            args.crash_until if args.crash_until > 0 else args.duration
        )
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
    parser.add_argument("--message-loss", type=float, default=0.0,
                        dest="message_loss")
    parser.add_argument("--loss-from", type=float, default=0.0,
                        dest="loss_from")
    parser.add_argument("--loss-until", type=float, default=0.0,
                        dest="loss_until", help="default: plan duration")
    parser.add_argument("--crash-hosts", type=int, default=0,
                        dest="crash_hosts",
                        help="first N hosts of each shard crash")
    parser.add_argument("--crash-at", type=float, default=0.0,
                        dest="crash_at")
    parser.add_argument("--crash-until", type=float, default=0.0,
                        dest="crash_until", help="default: plan duration")
    parser.add_argument("--no-tracing", action="store_true", dest="no_tracing",
                        help="disable tracing (cheaper bench runs)")
    parser.add_argument("--trace-capacity", type=int, default=4096,
                        dest="trace_capacity",
                        help="per-shard trace ring capacity")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        metavar="FILE",
                        help="validate an existing plan file against the"
                        " schema instead of generating one")
    args = parser.parse_args()

    if args.check is not None:
        try:
            plan = json.loads(args.check.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{args.check}: {exc}", file=sys.stderr)
            return 1
        errors = validate_plan(plan)
        for error in errors:
            print(f"{args.check}: {error}", file=sys.stderr)
        if not errors:
            print(f"{args.check}: ok", file=sys.stderr)
        return 1 if errors else 0

    if args.hosts < 1 or args.shards < 1:
        parser.error("--hosts and --shards must be >= 1")
    if args.name is None:
        args.name = f"cluster-{args.hosts}x{args.shards}"

    plan = build_plan(args)
    errors = validate_plan(plan)
    if errors:  # the generator drifting from its own schema is a bug
        for error in errors:
            print(f"generated plan: {error}", file=sys.stderr)
        return 1
    text = json.dumps(plan, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
