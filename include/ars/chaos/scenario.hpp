#pragma once
// Standard chaos scenario (ars::chaos layer 3, shared by the campaign
// runner and the tests): a small cluster running several checkpointing
// applications under a CPU hog (to provoke real migrations), with a
// FaultPlan armed against it and the invariants checked at the horizon.
//
// One ScenarioOptions value — cluster shape, seed, plan — fully determines
// the run, including the trace: run_scenario(options) twice and the
// returned trace hashes are identical.

#include <cstdint>
#include <string>

#include "ars/chaos/faultplan.hpp"
#include "ars/chaos/injector.hpp"
#include "ars/chaos/invariants.hpp"

namespace ars::chaos {

struct ScenarioOptions {
  int hosts = 4;  // ws1..wsN; the registry lives on ws1
  int apps = 3;   // checkpointing counter apps, staggered starts
  int iterations = 60;
  int checkpoint_every = 10;
  double horizon = 700.0;
  std::uint64_t seed = 1;
  FaultPlan plan;
  /// Deliberately breaks the rescheduler (the lease sweeper never fires) to
  /// prove the invariant checker catches a broken build — crash faults then
  /// strand their applications forever.
  bool sabotage_lease_expiry = false;
  /// Deliberately breaks the migration transaction (aborts skip the
  /// roll-back to source-side execution) to prove the no-lost-process
  /// invariant catches a broken protocol.
  bool sabotage_migration_rollback = false;
  /// CPU hog on ws1 so the run exercises real migrations, not just faults.
  bool with_load = true;
  /// Copy the full JSON-lines trace into the report (hashing is always on).
  bool keep_trace = false;
  /// Monitors send compact lease renewals between full-status keyframes.
  bool delta_heartbeats = false;
  /// Malleable (resizable) jobs riding alongside the checkpointing apps;
  /// > 0 also enables the registry's resize planner, so the run exercises
  /// grow/shrink transactions that resize-window faults can hit.
  int malleable_jobs = 0;
  /// Deliberately leaks freshly spawned ranks on a failed redistribution
  /// (no rollback) to prove the no-lost-rank invariant catches it.
  bool sabotage_resize_rollback = false;
  /// Iterative pre-copy migration: the apps carry a block-structured state
  /// large enough for multi-round pre-copy (plus an entry erased mid-run to
  /// exercise tombstones), and the middleware ships dirty deltas in the
  /// background instead of stop-and-copy.
  bool precopy = false;
  /// Checkpoint scheduling strategy driven from poll-points ("periodic" |
  /// "cooperative"; empty keeps the legacy every-N-iterations checkpoint).
  /// DESIGN.md §17: checkpoints flow through the shared store and the
  /// waste ledger; "cooperative" also enables the registry's I/O scheduler.
  std::string ckpt_strategy;
  /// Per-host MTBF assumed by the Young/Daly interval (seconds).
  double ckpt_mtbf = 300.0;
  /// Aggregate shared-store bandwidth in MB/s (0 = unlimited): the
  /// interference knob — N concurrent writers share this fluid-flow.
  double ckpt_aggregate_mbps = 0.0;
  /// Opaque state each app drags along (MB): sizes the checkpoint writes.
  double ckpt_state_mb = 0.0;
  /// Deliberately breaks the store's atomic shadow-commit (an aborted
  /// write replaces the previous checkpoint, torn) to prove the
  /// no-torn-checkpoint invariant catches it.
  bool sabotage_torn_checkpoint = false;
};

struct ScenarioReport {
  InvariantReport invariants;
  std::uint64_t trace_hash = 0;  // FNV-1a of the full JSON-lines trace
  /// Captured when keep_trace is set OR any invariant was violated: a
  /// failing run always yields its black-box trace for the flight
  /// recorder, no re-run needed.
  std::string trace_jsonl;
  /// Metrics snapshot (MetricsRegistry::to_json), captured alongside the
  /// trace under the same rule.
  std::string metrics_json;
  std::uint64_t events_executed = 0;
  double final_time = 0.0;
  std::size_t migration_attempts = 0;
  std::size_t migrations_succeeded = 0;
  std::size_t migrations_aborted = 0;      // pre-commit, rolled back to source
  std::size_t migrations_rolled_back = 0;  // post-commit destination loss
  std::size_t precopy_rounds = 0;          // pre-copy rounds shipped, all txns
  std::size_t resizes_attempted = 0;   // terminal resize outcomes
  std::size_t resizes_committed = 0;
  std::size_t resizes_aborted = 0;
  std::size_t resizes_rolled_back = 0;  // partial-rollback expands
  long long ghost_ranks = 0;            // must stay 0 (no-lost-rank)
  FaultInjector::Stats faults;
  std::uint64_t messages_dropped = 0;  // network total (all reasons)
  // -- checkpoint I/O and failure waste (DESIGN.md §17) ----------------------
  std::size_t ckpt_commits = 0;    // shared-store writes that committed
  std::size_t ckpt_aborts = 0;     // in-flight writes dropped (crash/preempt)
  std::size_t ckpt_deferred = 0;   // cooperative defer verdicts honoured
  std::size_t ckpt_preempted = 0;  // cooperative preemptions suffered
  std::size_t torn_restores = 0;   // must stay 0 (no-torn-checkpoint)
  double waste_overhead_s = 0.0;   // store time burned on writes
  double waste_lost_work_s = 0.0;  // progress lost to crashes
  double waste_restart_s = 0.0;    // checkpoint read-back on relaunch
  [[nodiscard]] double waste_total_s() const noexcept {
    return waste_overhead_s + waste_lost_work_s + waste_restart_s;
  }
  /// Canonical decision log (registry::Registry::decision_log) and its
  /// FNV-1a digest — the byte-identical comparison for scan equivalence.
  std::size_t decisions = 0;
  std::uint64_t decision_log_hash = 0;

  [[nodiscard]] bool ok() const noexcept { return invariants.ok(); }
};

[[nodiscard]] ScenarioReport run_scenario(const ScenarioOptions& options);

}  // namespace ars::chaos
