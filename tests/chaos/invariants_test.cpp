// The invariant checker reads the run's trace: a trace whose ring evicted
// events is refused as incomplete rather than passed on partial evidence.

#include "ars/chaos/invariants.hpp"

#include <gtest/gtest.h>

#include "ars/host/hog.hpp"
#include "ars/rules/policy.hpp"

namespace ars::chaos {
namespace {

/// A 3-host cluster whose ws1 a CPU hog overloads for two minutes: the
/// monitors change state and consult the registry, which traces them.
InvariantReport check_overload_run(std::size_t trace_capacity,
                                   std::size_t* dropped) {
  core::ClusterConfig config = core::make_cluster(3, rules::paper_policy2());
  config.trace.capacity = trace_capacity;
  core::ReschedulerRuntime runtime{config};
  host::CpuHog hog{runtime.host("ws1"), {.threads = 3, .duration = 120.0}};
  runtime.start_rescheduler();
  hog.start();
  runtime.run_until(200.0);
  *dropped = runtime.tracer().dropped();
  InvariantChecker checker{runtime};
  for (const std::string& host_name : runtime.host_names()) {
    checker.expect_alive(host_name);
  }
  return checker.check();
}

TEST(InvariantCheckerTest, RefusesATraceWhoseRingDroppedEvents) {
  std::size_t dropped = 0;
  const InvariantReport clipped = check_overload_run(8, &dropped);
  ASSERT_GT(dropped, 0u);
  ASSERT_EQ(clipped.violations.size(), 1u) << clipped.summary();
  EXPECT_EQ(clipped.violations[0].invariant, "trace-complete");

  // The same run with the default ring keeps every event and is clean.
  const InvariantReport whole = check_overload_run(1 << 16, &dropped);
  EXPECT_EQ(dropped, 0u);
  EXPECT_TRUE(whole.ok()) << whole.summary();
}

}  // namespace
}  // namespace ars::chaos
