// Cross-cutting integration tests: rule-file-driven monitors, runtime
// evacuation, trace export, and whole-run determinism.

#include <gtest/gtest.h>

#include "ars/apps/test_tree.hpp"
#include "ars/core/runtime.hpp"
#include "ars/host/hog.hpp"
#include "ars/rules/rulefile.hpp"

namespace ars::core {
namespace {

TEST(RuleDrivenMonitor, Figure3FileClassifiesLiveHost) {
  // Wire a monitor whose classifier evaluates the paper's verbatim Figure 3
  // rule file against the live simulated host.
  ReschedulerRuntime runtime{make_cluster(2, rules::paper_policy2())};
  auto engine_or = rules::RuleEngine::from_text(rules::paper_figure3_text());
  ASSERT_TRUE(engine_or.has_value());
  auto rule_engine =
      std::make_shared<rules::RuleEngine>(std::move(*engine_or));
  auto sensors = std::make_shared<monitor::HostSensorSource>(
      runtime.host("ws1"), runtime.network(),
      runtime.network().id_of("ws1"));

  monitor::Monitor::Config config;
  config.registry_host = "ws1";
  config.registry_port = runtime.scheduler().port();
  config.policy = rules::paper_policy2();
  config.classifier = monitor::classifier_from_rules(rule_engine, sensors);
  monitor::Monitor rule_monitor{runtime.host("ws1"), runtime.network(),
                                config};
  runtime.scheduler().start();
  rule_monitor.start();

  runtime.run_until(30.0);
  EXPECT_EQ(rule_monitor.state(), rules::SystemState::kFree);

  // Saturate the CPU: idle% -> 0 < 45 -> the file says overloaded.
  host::CpuHog hog{runtime.host("ws1"), {.threads = 1}};
  hog.start();
  runtime.run_until(100.0);
  EXPECT_EQ(rule_monitor.state(), rules::SystemState::kOverloaded);

  // Release it: idle% -> 100 -> free again.
  hog.stop();
  runtime.run_until(150.0);
  EXPECT_EQ(rule_monitor.state(), rules::SystemState::kFree);
}

TEST(RuntimeEvacuation, DrainsAHostEndToEnd) {
  ReschedulerRuntime runtime{make_cluster(3, rules::paper_policy2())};
  runtime.start_rescheduler();
  apps::TestTree::Params params;
  params.levels = 16;
  apps::TestTree::Result result;
  runtime.launch_app("ws2", apps::TestTree::make(params, &result),
                     "test_tree", apps::TestTree::schema(params));
  runtime.engine().schedule_at(15.0,
                               [&] { runtime.evacuate_host("ws2", "test"); });
  runtime.run_until(1000.0);
  EXPECT_TRUE(result.finished);
  EXPECT_NE(result.finished_on, "ws2");
  EXPECT_EQ(result.migrations, 1);
  EXPECT_DOUBLE_EQ(result.sum, apps::TestTree::expected_sum(params));
  EXPECT_EQ(runtime.scheduler().evacuations_commanded(), 1);
  EXPECT_THROW(runtime.evacuate_host("nosuch", "x"), std::out_of_range);
}

TEST(TraceCsv, ExportsHeaderAndRows) {
  ReschedulerRuntime runtime{make_cluster(2, rules::paper_policy2())};
  runtime.trace().start(10.0);
  runtime.run_until(35.0);
  const std::string csv = runtime.trace().to_csv();
  EXPECT_EQ(csv.rfind("t,host,load1,load5,cpu_util,tx_bps,rx_bps,processes\n",
                      0),
            0U);
  // 3 sampling instants x 2 hosts + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);
  EXPECT_NE(csv.find("ws1"), std::string::npos);
  EXPECT_NE(csv.find("ws2"), std::string::npos);
}

TEST(Determinism, IdenticalRunsProduceIdenticalTraces) {
  const auto run_once = [] {
    ReschedulerRuntime runtime{make_cluster(3, rules::paper_policy2())};
    runtime.start_rescheduler();
    runtime.trace().start(10.0);
    apps::TestTree::Params params;
    params.levels = 15;
    apps::TestTree::Result result;
    runtime.launch_app("ws1", apps::TestTree::make(params, &result),
                       "test_tree", apps::TestTree::schema(params));
    host::CpuHog hog{runtime.host("ws1"), {.threads = 3}};
    runtime.engine().schedule_at(10.0, [&] { hog.start(); });
    runtime.run_until(600.0);
    return std::make_pair(runtime.trace().to_csv(),
                          runtime.middleware().history().size());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);    // byte-identical traces
  EXPECT_EQ(first.second, second.second);  // same migration count
}

TEST(Determinism, EventCountsAreStable) {
  const auto run_once = [] {
    ReschedulerRuntime runtime{make_cluster(2, rules::paper_policy2())};
    runtime.start_rescheduler();
    runtime.run_until(300.0);
    return runtime.engine().events_executed();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ars::core
