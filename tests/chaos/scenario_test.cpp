// End-to-end chaos scenario: the shipped fault plans hold every invariant,
// a deliberately broken build is caught by the checker, and (plan, seed)
// fully determines the run down to the trace bytes.

#include "ars/chaos/scenario.hpp"

#include <gtest/gtest.h>

namespace ars::chaos {
namespace {

TEST(ChaosScenarioTest, FaultFreeBaselinePasses) {
  ScenarioOptions options;
  options.hosts = 3;
  options.apps = 2;
  options.horizon = 400.0;
  options.seed = 3;
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  EXPECT_EQ(report.invariants.exits_seen, 2u);
  EXPECT_EQ(report.messages_dropped, 0u);
}

TEST(ChaosScenarioTest, BuiltinPlansHoldAllInvariants) {
  for (const std::string& name : FaultPlan::builtin_names()) {
    const auto plan = FaultPlan::builtin(name);
    ASSERT_TRUE(plan.has_value());
    ScenarioOptions options;
    options.seed = 7;
    options.plan = *plan;
    const ScenarioReport report = run_scenario(options);
    EXPECT_TRUE(report.ok())
        << "plan " << name << ":\n"
        << report.invariants.summary();
    EXPECT_EQ(report.invariants.exits_seen, 3u) << "plan " << name;
  }
}

TEST(ChaosScenarioTest, ControlLossPlanActuallyDisturbsTheRun) {
  ScenarioOptions options;
  options.seed = 7;
  options.plan = *FaultPlan::builtin("control-loss");
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  // The plan drops 30 % of control traffic for 160 s and crashes the
  // registry — a run that saw no disturbance would prove nothing.
  EXPECT_GT(report.faults.messages_dropped, 0u);
  EXPECT_GT(report.faults.messages_duplicated, 0u);
  EXPECT_EQ(report.faults.registry_crashes, 1);
  EXPECT_GT(report.messages_dropped, 0u);
}

TEST(ChaosScenarioTest, SabotagedLeaseExpiryIsCaughtByTheChecker) {
  // With lease expiry disabled, the crashed host's application is never
  // relaunched from its checkpoint — the build is broken and the invariant
  // checker must say so.
  ScenarioOptions options;
  options.seed = 1;
  options.plan = *FaultPlan::builtin("churn");
  options.sabotage_lease_expiry = true;
  const ScenarioReport report = run_scenario(options);
  ASSERT_FALSE(report.ok());
  bool unfinished_app = false;
  for (const Violation& violation : report.invariants.violations) {
    if (violation.invariant == "exactly-once-finish" ||
        violation.invariant == "deadlock-watchdog") {
      unfinished_app = true;
    }
  }
  EXPECT_TRUE(unfinished_app) << report.invariants.summary();
}

TEST(ChaosScenarioTest, SameSeedAndPlanReplayByteIdentical) {
  ScenarioOptions options;
  options.seed = 11;
  options.plan = *FaultPlan::builtin("control-loss");
  options.keep_trace = true;
  const ScenarioReport first = run_scenario(options);
  const ScenarioReport second = run_scenario(options);
  EXPECT_TRUE(first.ok()) << first.invariants.summary();
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);  // byte-identical

  ScenarioOptions other = options;
  other.seed = 12;
  const ScenarioReport third = run_scenario(other);
  EXPECT_NE(first.trace_hash, third.trace_hash);
}

TEST(ChaosScenarioTest, ChurnSeed5DecisionsMatchGolden) {
  // Captured from the registry that still carried the pre-index full-table
  // scan, where indexed and scanned runs of this seed agreed byte for byte.
  // The trace hash is deliberately not pinned: a trace-only change must not
  // break this test.
  ScenarioOptions options;
  options.seed = 5;
  options.plan = *FaultPlan::builtin("churn");
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  EXPECT_EQ(report.decisions, 4U);
  EXPECT_EQ(report.decision_log_hash, 17007880389943577313ULL);
  EXPECT_EQ(report.events_executed, 4062U);
}

TEST(ChaosScenarioTest, DeltaHeartbeatsHoldAllInvariants) {
  // Compact lease renewals between keyframes must not break liveness: the
  // registry still sees fresh leases through crashes and recoveries.
  ScenarioOptions options;
  options.seed = 3;
  options.plan = *FaultPlan::builtin("churn");
  options.delta_heartbeats = true;
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
}

}  // namespace
}  // namespace ars::chaos
