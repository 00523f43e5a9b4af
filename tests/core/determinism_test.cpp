// Determinism regression test (ISSUE 2): the Figure-7 migration scenario,
// run twice with identical configuration, must produce a byte-identical
// observability trace — every span and instant event, in order, with
// identical virtual timestamps — plus identical engine event counts.
//
// This pins the FIFO guarantee of the event queue across rewrites: any
// reordering of same-timestamp events (scheduler decisions, MPI deliveries,
// monitor ticks) shows up as a trace diff long before it corrupts results.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ars/apps/test_tree.hpp"
#include "ars/chaos/scenario.hpp"
#include "ars/core/runtime.hpp"
#include "ars/host/hog.hpp"
#include "ars/rules/policy.hpp"
#include "ars/support/hash.hpp"

namespace ars::core {
namespace {

struct Fingerprint {
  std::string trace_jsonl;          // full obs timeline, one event per line
  std::uint64_t events_executed = 0;
  double final_now = 0.0;
  std::size_t migrations = 0;
  bool migrated = false;
};

/// Compact Figure-7 shape: a migration-enabled app starts, a CPU hog then
/// overloads its workstation, and the rescheduler migrates the app away.
Fingerprint run_figure7_scenario() {
  rules::MigrationPolicy policy = rules::paper_policy2();
  policy.set_warmup(20.0);
  ReschedulerRuntime runtime{make_cluster(2, policy)};
  runtime.start_rescheduler();
  runtime.trace().start(10.0);

  // The Figure-7 bench's workload, scaled down (2^16 nodes instead of 2^18)
  // to keep the test quick.  The tree must still be mid-SORT when the hog
  // arrives at t=60 — smaller trees finish before the overload and nothing
  // migrates.
  apps::TestTree::Params params;
  params.levels = 16;
  params.build_work_per_knode = 0.20;
  params.fill_work_per_knode = 0.10;
  params.sort_work_per_knode = 1.13;
  params.sum_work_per_knode = 0.10;
  params.chunk_work = 0.6;
  params.node_overhead_bytes = 220;
  apps::TestTree::Result result;
  runtime.engine().schedule_at(30.0, [&] {
    runtime.launch_app("ws1", apps::TestTree::make(params, &result),
                       "test_tree", apps::TestTree::schema(params));
  });
  host::CpuHog hog{runtime.host("ws1"),
                   {.threads = 3, .duration = 300.0, .name = "additional"}};
  runtime.engine().schedule_at(60.0, [&] { hog.start(); });

  runtime.run_until(500.0);

  Fingerprint fp;
  fp.trace_jsonl = runtime.tracer().to_jsonl();
  fp.events_executed = runtime.engine().events_executed();
  fp.final_now = runtime.engine().now();
  fp.migrations = runtime.middleware().history().size();
  fp.migrated = !runtime.middleware().history().empty() &&
                runtime.middleware().history().front().succeeded;
  return fp;
}

TEST(DeterminismFigure7, TraceAndEventSequenceAreByteIdentical) {
  const Fingerprint first = run_figure7_scenario();
  const Fingerprint second = run_figure7_scenario();

  // The scenario must actually exercise the interesting machinery —
  // otherwise identical traces would be a vacuous guarantee.
  EXPECT_TRUE(first.migrated) << "scenario did not migrate; widen the load";
  EXPECT_GT(first.trace_jsonl.size(), 0U);
  // Causal contexts are ON in this trace (txn-tagged events present), so
  // byte-identity covers the obs-v2 tagging, not just the bare timeline.
  EXPECT_NE(first.trace_jsonl.find("\"txn\""), std::string::npos)
      << "trace carries no causal contexts; determinism check is vacuous";

  // Digests first, so a failure message shows them compactly.
  EXPECT_EQ(support::fnv1a(first.trace_jsonl),
            support::fnv1a(second.trace_jsonl));
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "same seed, different timeline: event ordering is not deterministic";
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_DOUBLE_EQ(first.final_now, second.final_now);
  EXPECT_EQ(first.migrations, second.migrations);
}

// Chaos extension (ISSUE 3): determinism must survive fault injection.
// The same seed and the same FaultPlan — probabilistic message loss, a
// monitor stall, a registry cold restart — must replay to a byte-identical
// trace; a different seed must not.
TEST(DeterminismChaos, SameSeedAndFaultPlanAreByteIdentical) {
  chaos::ScenarioOptions options;
  options.seed = 5;
  options.plan = *chaos::FaultPlan::builtin("control-loss");
  options.keep_trace = true;

  const chaos::ScenarioReport first = chaos::run_scenario(options);
  const chaos::ScenarioReport second = chaos::run_scenario(options);

  // Vacuity guard: the faults must actually have fired.
  EXPECT_GT(first.faults.messages_dropped, 0U);
  EXPECT_EQ(first.faults.registry_crashes, 1);

  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "same seed + same fault plan, different timeline: fault injection "
         "is not deterministic";
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_DOUBLE_EQ(first.final_time, second.final_time);

  chaos::ScenarioOptions reseeded = options;
  reseeded.seed = 6;
  const chaos::ScenarioReport third = chaos::run_scenario(reseeded);
  EXPECT_NE(first.trace_hash, third.trace_hash)
      << "different seeds produced identical runs: the seed is not wired "
         "through the injector";
}

}  // namespace
}  // namespace ars::core
