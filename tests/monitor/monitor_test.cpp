#include "ars/monitor/monitor.hpp"

#include <gtest/gtest.h>

#include "ars/core/sharded_cluster.hpp"
#include "ars/host/hog.hpp"
#include "ars/net/commhog.hpp"
#include "ars/rules/rulefile.hpp"

namespace ars::monitor {
namespace {

using rules::SystemState;
using sim::Engine;

class SensorTest : public ::testing::Test {
 protected:
  SensorTest()
      : net_(engine_),
        host_(engine_, spec()),
        sensors_(host_, net_, net_.attach(host_)) {}

  static host::HostSpec spec() {
    host::HostSpec s;
    s.name = "ws1";
    return s;
  }

  Engine engine_;
  net::Network net_;
  host::Host host_;
  HostSensorSource sensors_;
};

TEST_F(SensorTest, ProcessorStatusReportsIdlePercent) {
  engine_.run_until(50.0);
  EXPECT_DOUBLE_EQ(*sensors_.sample(kScriptProcessorStatus, ""), 100.0);
  host::CpuHog hog{host_, {.threads = 1}};
  hog.start();
  engine_.run_until(100.0);
  EXPECT_NEAR(*sensors_.sample(kScriptProcessorStatus, ""), 0.0, 1.0);
}

TEST_F(SensorTest, LoadAverageSensors) {
  host::CpuHog hog{host_, {.threads = 2}};
  hog.start();
  engine_.run_until(600.0);
  EXPECT_NEAR(*sensors_.sample(kScriptLoadAvg1, ""), 2.0, 0.1);
  EXPECT_GT(*sensors_.sample(kScriptLoadAvg5, ""), 1.0);
}

TEST_F(SensorTest, ProcessAndSocketSensors) {
  host_.set_ambient_process_count(148);
  host_.processes().register_process("x", 0.0);
  EXPECT_DOUBLE_EQ(*sensors_.sample(kScriptProcessCount, ""), 149.0);
  host_.set_established_sockets(701);
  EXPECT_DOUBLE_EQ(*sensors_.sample(kScriptNtStatIpv4, "ESTABLISHED"), 701.0);
  EXPECT_DOUBLE_EQ(*sensors_.sample(kScriptNtStatIpv4, "TIME_WAIT"), 0.0);
}

TEST_F(SensorTest, MemoryAndDiskSensors) {
  EXPECT_DOUBLE_EQ(*sensors_.sample(kScriptMemFree, ""), 100.0);
  host_.memory().reserve(host_.memory().total() / 2);
  EXPECT_DOUBLE_EQ(*sensors_.sample(kScriptMemFree, ""), 50.0);
  EXPECT_GT(*sensors_.sample(kScriptDiskFree, ""), 0.0);
}

TEST_F(SensorTest, UnknownScriptFails) {
  EXPECT_FALSE(sensors_.sample("made_up.sh", "").has_value());
  EXPECT_FALSE(sensors_.sample(kScriptNetFlow, "sideways").has_value());
}

TEST_F(SensorTest, SnapshotIsSelfConsistent) {
  host_.set_ambient_process_count(60);
  engine_.run_until(20.0);
  const auto status = sensors_.snapshot();
  EXPECT_EQ(status.host, "ws1");
  EXPECT_EQ(status.processes, 60);
  EXPECT_DOUBLE_EQ(status.timestamp, 20.0);
}

TEST_F(SensorTest, Figure3RulesEvaluateAgainstLiveHost) {
  // The paper's verbatim rule file classifies this simulated host.
  auto engine = rules::RuleEngine::from_text(rules::paper_figure3_text());
  ASSERT_TRUE(engine.has_value());
  engine_.run_until(50.0);
  // Idle host: 100% idle, 0 sockets -> free.
  EXPECT_EQ(*engine->evaluate_all(sensors_), SystemState::kFree);
  // Saturate the CPU: idle -> 0% (< 45) -> overloaded.
  host::CpuHog hog{host_, {.threads = 1}};
  hog.start();
  engine_.run_until(100.0);
  EXPECT_EQ(*engine->evaluate_all(sensors_), SystemState::kOverloaded);
}

TEST(ClassifierTest, PolicyClassifierBands) {
  const Classifier classify =
      classifier_from_policy(rules::paper_policy2());
  xmlproto::DynamicStatus idle;
  idle.load1 = 0.2;
  idle.processes = 60;
  EXPECT_EQ(classify(idle), SystemState::kFree);
  xmlproto::DynamicStatus busy = idle;
  busy.load1 = 1.2;
  EXPECT_EQ(classify(busy), SystemState::kBusy);
  xmlproto::DynamicStatus overloaded = idle;
  overloaded.load1 = 2.5;
  EXPECT_EQ(classify(overloaded), SystemState::kOverloaded);
}

class MonitorEntityTest : public ::testing::Test {
 protected:
  MonitorEntityTest() : net_(engine_) {
    for (const char* name : {"ws1", "registry"}) {
      host::HostSpec s;
      s.name = name;
      hosts_.push_back(std::make_unique<host::Host>(engine_, s));
      net_.attach(*hosts_.back());
    }
    registry_endpoint_ = &net_.bind("registry", 5000);
  }

  Monitor::Config config() {
    Monitor::Config c;
    c.registry_host = "registry";
    c.registry_port = 5000;
    c.commander_port = 5001;
    c.policy = rules::paper_policy2();
    return c;
  }

  /// Drain the registry inbox into typed messages.
  std::vector<xmlproto::ProtocolMessage> drain() {
    std::vector<xmlproto::ProtocolMessage> out;
    while (auto wire = registry_endpoint_->inbox.try_recv()) {
      auto message = xmlproto::decode(wire->payload);
      if (message.has_value()) {
        out.push_back(std::move(*message));
      }
    }
    return out;
  }

  Engine engine_;
  net::Network net_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  net::Endpoint* registry_endpoint_ = nullptr;
};

TEST_F(MonitorEntityTest, RegistersThenHeartbeats) {
  Monitor monitor{*hosts_[0], net_, config()};
  monitor.start();
  engine_.run_until(35.0);
  const auto messages = drain();
  ASSERT_GE(messages.size(), 3U);
  EXPECT_TRUE(std::holds_alternative<xmlproto::RegisterMsg>(messages[0]));
  int updates = 0;
  for (const auto& m : messages) {
    updates += std::holds_alternative<xmlproto::UpdateMsg>(m) ? 1 : 0;
  }
  // 10 s frequency on a free host: updates at ~0,10,20,30.
  EXPECT_GE(updates, 3);
  EXPECT_EQ(monitor.state(), SystemState::kFree);
}

TEST_F(MonitorEntityTest, DeltaHeartbeatsCoalesceUnchangedState) {
  Monitor::Config c = config();
  c.delta_heartbeats = true;
  c.full_status_every = 6;
  Monitor monitor{*hosts_[0], net_, c};
  monitor.start();
  // Idle host, 10 s cycles: ~10 cycles by t=95 with no state change.
  engine_.run_until(95.0);
  EXPECT_GE(monitor.renewals_sent(), 6);
  // Keyframes only on the first cycle and every 6th after it.
  EXPECT_LE(monitor.updates_sent(), 3);
  int full = 0;
  int renewals = 0;
  for (const auto& m : drain()) {
    if (std::holds_alternative<xmlproto::UpdateMsg>(m)) {
      ++full;
    } else if (const auto* batch =
                   std::get_if<xmlproto::UpdateBatchMsg>(&m)) {
      ASSERT_EQ(batch->renewals.size(), 1U);
      EXPECT_EQ(batch->renewals[0].host, "ws1");
      EXPECT_EQ(batch->renewals[0].state, "free");
      ++renewals;
    }
  }
  EXPECT_EQ(full, monitor.updates_sent());
  EXPECT_EQ(renewals, monitor.renewals_sent());
}

TEST_F(MonitorEntityTest, DeltaHeartbeatsKeyframeOnStateChange) {
  Monitor::Config c = config();
  c.delta_heartbeats = true;
  c.full_status_every = 1000;  // keyframes only via state changes here
  Monitor monitor{*hosts_[0], net_, c};
  monitor.start();
  host::CpuHog hog{*hosts_[0], {.threads = 3}};
  engine_.schedule_at(50.0, [&] { hog.start(); });
  engine_.run_until(250.0);
  EXPECT_NE(monitor.state(), SystemState::kFree);
  // Every renewal's state must match the latest keyframe: a state change
  // always goes out as a full UpdateMsg, never as a compact renewal.
  std::string keyframe_state;
  for (const auto& m : drain()) {
    if (const auto* update = std::get_if<xmlproto::UpdateMsg>(&m)) {
      keyframe_state = update->status.state;
    } else if (const auto* batch =
                   std::get_if<xmlproto::UpdateBatchMsg>(&m)) {
      ASSERT_EQ(batch->renewals.size(), 1U);
      EXPECT_EQ(batch->renewals[0].state, keyframe_state);
    }
  }
  EXPECT_GE(monitor.updates_sent(), 2);  // initial + the transitions
}

TEST_F(MonitorEntityTest, ConsultsAfterSustainedOverload) {
  Monitor monitor{*hosts_[0], net_, config()};
  monitor.start();
  host::CpuHog hog{*hosts_[0], {.threads = 3}};
  engine_.schedule_at(50.0, [&] { hog.start(); });
  // Policy warm-up is 60 s; load averages also need time to rise past 2.
  engine_.run_until(250.0);
  EXPECT_EQ(monitor.state(), SystemState::kOverloaded);
  EXPECT_GE(monitor.consults_sent(), 1);
  bool saw_consult = false;
  for (const auto& m : drain()) {
    if (const auto* consult = std::get_if<xmlproto::ConsultMsg>(&m)) {
      saw_consult = true;
      EXPECT_EQ(consult->host, "ws1");
    }
  }
  EXPECT_TRUE(saw_consult);
}

TEST_F(MonitorEntityTest, NoConsultBeforeWarmup) {
  Monitor monitor{*hosts_[0], net_, config()};
  monitor.start();
  host::CpuHog hog{*hosts_[0], {.threads = 3}};
  engine_.schedule_at(10.0, [&] { hog.start(); });
  // By t=60 the load average may cross 2, but the warm-up (60 s of
  // *sustained* overload) cannot have elapsed yet.
  engine_.run_until(60.0);
  EXPECT_EQ(monitor.consults_sent(), 0);
}

TEST_F(MonitorEntityTest, ShortSpikeIsAbsorbed) {
  // A short task raises load briefly; the warm-up avoids fault migration.
  Monitor monitor{*hosts_[0], net_, config()};
  monitor.start();
  host::CpuHog hog{*hosts_[0], {.threads = 3, .duration = 40.0}};
  engine_.schedule_at(30.0, [&] { hog.start(); });
  engine_.run_until(400.0);
  EXPECT_EQ(monitor.consults_sent(), 0);
  EXPECT_NE(monitor.state(), SystemState::kOverloaded);
}

TEST_F(MonitorEntityTest, RegistersMigratableProcesses) {
  hosts_[0]->processes().register_process("test_tree", 5.0, true, "tree");
  hosts_[0]->processes().register_process("daemon", 1.0, false);
  Monitor monitor{*hosts_[0], net_, config()};
  monitor.start();
  engine_.run_until(15.0);
  int process_registrations = 0;
  for (const auto& m : drain()) {
    if (const auto* preg = std::get_if<xmlproto::ProcessRegisterMsg>(&m)) {
      ++process_registrations;
      EXPECT_EQ(preg->name, "test_tree");
      EXPECT_EQ(preg->schema_name, "tree");
    }
  }
  EXPECT_EQ(process_registrations, 1);  // only the migration-enabled one
}

TEST_F(MonitorEntityTest, DeregistersGoneProcesses) {
  const auto pid =
      hosts_[0]->processes().register_process("test_tree", 5.0, true, "t");
  Monitor monitor{*hosts_[0], net_, config()};
  monitor.start();
  engine_.run_until(15.0);
  (void)drain();
  hosts_[0]->processes().deregister(pid);
  engine_.run_until(30.0);
  bool saw_dereg = false;
  for (const auto& m : drain()) {
    if (const auto* dereg = std::get_if<xmlproto::ProcessDeregisterMsg>(&m)) {
      saw_dereg = true;
      EXPECT_EQ(dereg->pid, pid);
    }
  }
  EXPECT_TRUE(saw_dereg);
}

TEST_F(MonitorEntityTest, StopHaltsTraffic) {
  Monitor monitor{*hosts_[0], net_, config()};
  monitor.start();
  engine_.run_until(25.0);
  monitor.stop();
  (void)drain();
  engine_.run_until(100.0);
  EXPECT_TRUE(drain().empty());
}

TEST(MonitorShardTest, RegistryOnAnotherShardHearsHeartbeatsThroughTheRouter) {
  // Flat two-shard cluster: the one registry lives on shard 0, so shard 1's
  // monitors cannot resolve its host on their own network and post by name
  // through the shard router.
  core::ShardedClusterOptions options;
  options.shards = 2;
  options.hosts = 8;
  options.duration = 60.0;
  options.hierarchical = false;
  core::ShardedCluster cluster{options};
  ASSERT_TRUE(cluster.network(0).find_id("root").has_value());
  ASSERT_EQ(cluster.network(1).find_id("root"), std::nullopt);
  const core::ShardedClusterReport report = cluster.run();

  // Four monitors, a registration and a heartbeat every 10 s each.
  EXPECT_GE(report.cross_messages, 4U * 6U);
  EXPECT_EQ(report.dropped, 0U);
  EXPECT_EQ(report.registered_hosts, options.hosts);
  const auto& leases = cluster.root_registry().hosts();
  for (const char* name : {"ws000004", "ws000005", "ws000006", "ws000007"}) {
    ASSERT_TRUE(cluster.network(1).find_id(name).has_value()) << name;
    const auto it = leases.find(name);
    ASSERT_NE(it, leases.end()) << name;
    EXPECT_GE(it->second.last_update, options.duration - 10.0) << name;
    EXPECT_NE(it->second.state, SystemState::kUnavailable) << name;
  }
}

}  // namespace
}  // namespace ars::monitor
