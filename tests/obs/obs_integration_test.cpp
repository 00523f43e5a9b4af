// End-to-end observability: drive the quickstart scenario (overload ws1,
// autonomic migration to a free host) through ReschedulerRuntime and assert
// the trace contains every migration phase span, the scheduler decision
// with its why-not counts, monitor state transitions, commander signal
// delivery, and that the Chrome trace export round-trips through the obs
// JSON parser.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "ars/apps/test_tree.hpp"
#include "ars/core/runtime.hpp"
#include "ars/host/hog.hpp"
#include "ars/obs/json.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/support/log.hpp"

namespace ars::core {
namespace {

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The LogBridge only mirrors records the level filter admits; HPCM
    // narrates migrations at INFO.
    saved_level_ = support::Logger::global().level();
    support::Logger::global().set_level(support::LogLevel::kInfo);
  }

  void TearDown() override {
    support::Logger::global().set_level(saved_level_);
  }

  // One full autonomic-rescheduling run, instrumented end to end.
  void run_scenario() {
    auto config = make_cluster(3, rules::paper_policy2());
    config.forward_logs_to_trace = true;
    runtime_ = std::make_unique<ReschedulerRuntime>(std::move(config));
    runtime_->start_rescheduler();

    apps::TestTree::Params params;
    params.levels = 16;
    runtime_->launch_app("ws1", apps::TestTree::make(params, &result_),
                         "test_tree", apps::TestTree::schema(params));
    hog_ = std::make_unique<host::CpuHog>(
        runtime_->host("ws1"),
        host::CpuHog::Options{.threads = 3, .name = "additional"});
    runtime_->engine().schedule_at(20.0, [this] { hog_->start(); });
    runtime_->run_until(1200.0);
    ASSERT_TRUE(result_.finished);
    ASSERT_EQ(result_.migrations, 1);
  }

  std::unique_ptr<ReschedulerRuntime> runtime_;
  std::unique_ptr<host::CpuHog> hog_;
  apps::TestTree::Result result_;
  support::LogLevel saved_level_ = support::LogLevel::kWarn;
};

TEST_F(ObsIntegrationTest, FullMigrationEmitsEveryPhaseSpan) {
  run_scenario();
  const obs::Tracer& tracer = runtime_->tracer();

  // Each HPCM phase produced >= 1 *completed* span for the migrated process.
  for (const char* phase :
       {"migration.signal", "migration.poll_point", "migration",
        "migration.spawn", "migration.collect", "migration.restore"}) {
    const auto spans = tracer.spans_named(phase);
    ASSERT_FALSE(spans.empty()) << phase;
    // The track is the MPI process name: app name + rank suffix.
    EXPECT_EQ(spans.front().track, "test_tree.0") << phase;
    EXPECT_GE(spans.front().duration(), 0.0) << phase;
  }

  // The envelope span names source and destination, and agrees with the
  // middleware's own migration history.
  const auto envelope = tracer.spans_named("migration");
  ASSERT_EQ(envelope.size(), 1u);
  std::string source;
  std::string dest;
  for (const obs::Attr& attr : envelope.front().attrs) {
    if (attr.key == "source") {
      source = std::get<std::string>(attr.value);
    } else if (attr.key == "dest") {
      dest = std::get<std::string>(attr.value);
    }
  }
  ASSERT_EQ(runtime_->middleware().history().size(), 1u);
  const auto& timeline = runtime_->middleware().history().front();
  EXPECT_EQ(source, timeline.source);
  EXPECT_EQ(dest, timeline.destination);
  EXPECT_EQ(source, "ws1");
  EXPECT_NE(dest, "ws1");

  // The phases nest inside the envelope.
  const auto spawn = tracer.spans_named("migration.spawn");
  EXPECT_GE(spawn.front().begin, envelope.front().begin);
  EXPECT_LE(spawn.front().end, envelope.front().end + 1e-9);

  // The destination resumed the process.
  bool resumed = false;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.name == "migration.resumed") {
      resumed = true;
    }
  }
  EXPECT_TRUE(resumed);
}

TEST_F(ObsIntegrationTest, SchedulerMonitorAndCommanderAreOnTheTrace) {
  run_scenario();
  const obs::Tracer& tracer = runtime_->tracer();

  // At least one scheduler decision, counting every registered host.
  const obs::TraceEvent* decision = nullptr;
  bool transition_to_overloaded = false;
  bool commander_signal = false;
  bool bridged_log = false;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.name == "scheduler.decision") {
      // Later consults find nothing left to migrate ("no-process"); the
      // interesting record is the one that picked a destination.
      for (const obs::Attr& attr : event.attrs) {
        if (attr.key == "kind" &&
            std::get<std::string>(attr.value) == "migrate") {
          decision = &event;
        }
      }
    } else if (event.name == "monitor.state_transition") {
      for (const obs::Attr& attr : event.attrs) {
        if (attr.key == "to" &&
            std::get<std::string>(attr.value) == "overloaded") {
          transition_to_overloaded = true;
        }
      }
    } else if (event.name == "commander.signal") {
      commander_signal = true;
    } else if (event.name == "log") {
      bridged_log = true;  // LogBridge mirrored ARS_LOG_* records
    }
  }
  ASSERT_NE(decision, nullptr);
  double counted = 0.0;
  bool refused = false;
  std::string destination;
  for (const obs::Attr& attr : decision->attrs) {
    if (attr.key == "eligible" || attr.key.starts_with("no.")) {
      counted += std::get<double>(attr.value);
      refused |= attr.key.starts_with("no.");
    } else if (attr.key == "destination") {
      destination = std::get<std::string>(attr.value);
    }
  }
  EXPECT_EQ(counted, 3.0);  // every registered host is counted once
  EXPECT_TRUE(refused);     // the overloaded source, at least
  EXPECT_EQ(destination, runtime_->middleware().history().front().destination);
  EXPECT_TRUE(transition_to_overloaded);
  EXPECT_TRUE(commander_signal);
  EXPECT_TRUE(bridged_log);
  EXPECT_FALSE(tracer.spans_named("scheduler.decide").empty());
}

TEST_F(ObsIntegrationTest, MetricsCoverTheWholeLifecycle) {
  run_scenario();
  obs::MetricsRegistry& metrics = runtime_->metrics();

  EXPECT_GE(metrics.counter("migration.requests").value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter("migration.completed").value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter("migration.failures").value(), 0.0);
  EXPECT_GE(metrics.counter("scheduler.consults").value(), 1.0);
  EXPECT_GE(
      metrics.counter("scheduler.decisions", {{"outcome", "migrate"}}).value(),
      1.0);
  EXPECT_GE(metrics.counter("monitor.consults_sent").value(), 1.0);
  EXPECT_GE(metrics.counter("commander.commands_received").value(), 1.0);
  EXPECT_GE(
      metrics.counter("rules.state_transitions", {{"to", "overloaded"}})
          .value(),
      1.0);

  const obs::Histogram* total = metrics.find_histogram("migration.total_time");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count(), 1u);
  EXPECT_GT(total->mean(), 0.0);
  const obs::Histogram* bytes = metrics.find_histogram("migration.data_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->sum(), 0.0);

  // Both exporters stay well-formed on real data.
  const std::string prom = metrics.to_prometheus();
  EXPECT_NE(prom.find("migration_completed 1\n"), std::string::npos);
  EXPECT_TRUE(obs::json_parse(metrics.to_json()).has_value());
}

TEST_F(ObsIntegrationTest, ChromeTraceExportRoundTripsWithMigrationStory) {
  run_scenario();
  const auto doc = obs::json_parse(runtime_->tracer().to_chrome_trace());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<std::string> begun;
  std::set<std::string> ended;
  bool decision_counting_every_host = false;
  for (const obs::JsonValue& event : events->as_array()) {
    const std::string& ph = event.find("ph")->as_string();
    const std::string& name = event.find("name")->as_string();
    if (ph == "b") {
      begun.insert(name);
    } else if (ph == "e") {
      ended.insert(name);
    } else if (ph == "i" && name == "scheduler.decision") {
      const obs::JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      double counted = 0.0;
      for (const auto& [key, value] : args->as_object()) {
        if ((key == "eligible" || key.starts_with("no.")) &&
            value.is_number()) {
          counted += value.as_number();
        }
      }
      decision_counting_every_host |= counted == 3.0;
    }
  }
  for (const char* phase :
       {"migration.signal", "migration.poll_point", "migration",
        "migration.spawn", "migration.collect", "migration.restore"}) {
    EXPECT_TRUE(begun.contains(phase)) << phase;
    EXPECT_TRUE(ended.contains(phase)) << phase;
  }
  EXPECT_TRUE(decision_counting_every_host);
}

}  // namespace
}  // namespace ars::core
