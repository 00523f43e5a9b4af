// Scheduler decision why-not record: every registered host is counted
// exactly once (the counts sum to the registered hosts), each destination
// check a free host can fail has its own count, and the record surfaces
// both through Decision::why_not and as numeric attributes of the
// "scheduler.decision" trace event.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/registry/registry.hpp"

namespace ars::registry {
namespace {

using rules::SystemState;

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : net_(engine_) {
    engine_.attach_sinks(&tracer_, &metrics_);
    for (const char* name : {"hub", "ws1", "ws2", "ws3", "ws4", "ws5"}) {
      host::HostSpec s;
      s.name = name;
      hosts_.push_back(std::make_unique<host::Host>(engine_, s));
      net_.attach(*hosts_.back());
    }
    build(AuditMode::kAuto);
  }

  void build(AuditMode audit) {
    registry_.reset();
    Registry::Config config;
    config.policy = rules::paper_policy2();
    config.audit = audit;
    registry_ = std::make_unique<Registry>(*hosts_[0], net_, config);
    registry_->start();
  }

  void post(const std::string& from, const xmlproto::ProtocolMessage& m) {
    net::Message wire;
    wire.src_host = from;
    wire.dst_host = "hub";
    wire.dst_port = registry_->port();
    wire.payload = xmlproto::encode(m);
    net_.post(std::move(wire));
  }

  void register_host(const std::string& name,
                     std::uint64_t memory_bytes = 128ULL << 20) {
    xmlproto::RegisterMsg reg;
    reg.info.host = name;
    reg.info.memory_bytes = memory_bytes;
    reg.info.disk_bytes = 20ULL << 30;
    reg.info.cpu_speed = 1.0;
    reg.monitor_port = 5999;
    reg.commander_port = 6000;
    post(name, reg);
  }

  void update_host(const std::string& name, SystemState state,
                   double load1 = 0.2, int processes = 60) {
    xmlproto::UpdateMsg update;
    update.status.host = name;
    update.status.state = std::string(rules::to_string(state));
    update.status.load1 = load1;
    update.status.processes = processes;
    update.status.timestamp = engine_.now();
    post(name, update);
  }

  void register_process(const std::string& host, int pid,
                        const std::string& name,
                        const std::string& schema = "") {
    xmlproto::ProcessRegisterMsg msg;
    msg.host = host;
    msg.pid = pid;
    msg.name = name;
    msg.start_time = 0.0;
    msg.migration_enabled = true;
    msg.schema_name = schema;
    post(host, msg);
  }

  void consult(const std::string& host) {
    xmlproto::ConsultMsg msg;
    msg.host = host;
    msg.reason = "overloaded for 80s";
    post(host, msg);
  }

  [[nodiscard]] int registered() const {
    return static_cast<int>(registry_->hosts().size());
  }

  /// The last "scheduler.decision" instant on the trace.
  [[nodiscard]] const obs::TraceEvent* last_decision_event() const {
    const obs::TraceEvent* found = nullptr;
    for (const obs::TraceEvent& event : tracer_.events()) {
      if (event.name == "scheduler.decision") {
        found = &event;
      }
    }
    return found;
  }

  sim::Engine engine_;
  net::Network net_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::unique_ptr<Registry> registry_;
};

TEST_F(AuditTest, ChooseDestinationRecordsEveryVerdict) {
  // A schema whose memory floor ws3 cannot meet.
  hpcm::ApplicationSchema schema{"heavy"};
  hpcm::ResourceRequirements req;
  req.min_memory_bytes = 64ULL << 20;
  schema.set_requirements(req);
  registry_->register_schema(schema);

  register_host("ws1");                     // the (overloaded) source
  register_host("ws2");                     // busy -> not free
  register_host("ws3", /*memory=*/8 << 20); // free but too small
  register_host("ws4");                     // free and roomy -> chosen
  register_host("ws5");                     // also eligible, not first
  update_host("ws1", SystemState::kOverloaded, 2.8, 160);
  update_host("ws2", SystemState::kBusy, 1.2);
  update_host("ws3", SystemState::kFree);
  update_host("ws4", SystemState::kFree);
  update_host("ws5", SystemState::kFree);
  engine_.run_until(1.0);

  WhyNot why_not;
  const auto destination =
      registry_->choose_destination("ws1", "heavy", &why_not);
  ASSERT_TRUE(destination.has_value());
  EXPECT_EQ(*destination, "ws4");

  // Each registered host counted once: the source by its state.
  EXPECT_EQ(why_not.total(), 5);
  EXPECT_EQ(why_not.overloaded, 1);  // ws1
  EXPECT_EQ(why_not.busy, 1);        // ws2
  EXPECT_EQ(why_not.resources, 1);   // ws3
  EXPECT_EQ(why_not.eligible, 2);    // ws4 (chosen) and ws5
  EXPECT_EQ(why_not.source, 0);      // not free, so counted as overloaded
}

TEST_F(AuditTest, DrainingHostIsRejectedWithReason) {
  register_host("ws1");
  register_host("ws2");
  update_host("ws1", SystemState::kOverloaded, 2.8, 160);
  update_host("ws2", SystemState::kFree);
  engine_.run_until(1.0);
  registry_->request_evacuation("ws2", "maintenance");
  engine_.run_until(2.0);

  WhyNot why_not;
  const auto destination = registry_->choose_destination("ws1", "", &why_not);
  EXPECT_FALSE(destination.has_value());
  EXPECT_EQ(why_not.draining, 1);
  EXPECT_EQ(why_not.overloaded, 1);
  EXPECT_EQ(why_not.eligible, 0);
  EXPECT_EQ(why_not.total(), 2);
}

TEST_F(AuditTest, ConsultProducesDecisionWithAuditAndTraceEvent) {
  register_host("ws1");
  register_host("ws2");
  register_host("ws3");
  update_host("ws1", SystemState::kOverloaded, 2.8, 160);
  update_host("ws2", SystemState::kBusy, 1.2);
  update_host("ws3", SystemState::kFree);
  register_process("ws1", 42, "tree");
  engine_.run_until(1.0);

  consult("ws1");
  engine_.run_until(2.0);

  ASSERT_EQ(registry_->decisions().size(), 1u);
  const Decision& decision = registry_->decisions().front();
  EXPECT_EQ(decision.destination, "ws3");
  EXPECT_EQ(decision.why_not.total(), 3);
  EXPECT_EQ(decision.why_not.overloaded, 1);
  EXPECT_EQ(decision.why_not.busy, 1);
  EXPECT_EQ(decision.why_not.eligible, 1);

  // The decision is also on the trace: `eligible` and each nonzero count
  // as a number, under keys that fit std::string's inline buffer.
  const obs::TraceEvent* decision_event = last_decision_event();
  ASSERT_NE(decision_event, nullptr);
  std::map<std::string, double> counts;
  for (const obs::Attr& attr : decision_event->attrs) {
    EXPECT_LE(attr.key.size(), 15u) << attr.key;
    if (attr.key == "eligible" || attr.key.starts_with("no.")) {
      ASSERT_TRUE(std::holds_alternative<double>(attr.value)) << attr.key;
      counts[attr.key] = std::get<double>(attr.value);
    }
  }
  EXPECT_EQ(counts, (std::map<std::string, double>{
                        {"eligible", 1.0},
                        {"no.busy", 1.0},
                        {"no.overloaded", 1.0}}));

  // And the scheduler.decide span + metrics recorded the consult.
  ASSERT_EQ(tracer_.spans_named("scheduler.decide").size(), 1u);
  EXPECT_DOUBLE_EQ(metrics_.counter("scheduler.consults").value(), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics_.counter("scheduler.decisions", {{"outcome", "migrate"}})
          .value(),
      1.0);
  const obs::Histogram* latency =
      metrics_.find_histogram("scheduler.decision_latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);
  EXPECT_NEAR(latency->mean(), 0.002, 1e-9);
}

TEST_F(AuditTest, AuditOffKeepsTheCountsOffTheTrace) {
  build(AuditMode::kOff);
  register_host("ws1");
  register_host("ws2");
  update_host("ws1", SystemState::kOverloaded, 2.8, 160);
  update_host("ws2", SystemState::kFree);
  register_process("ws1", 42, "tree");
  engine_.run_until(1.0);
  consult("ws1");
  engine_.run_until(2.0);

  // The decision records its counts either way...
  ASSERT_EQ(registry_->decisions().size(), 1u);
  EXPECT_EQ(registry_->decisions().front().why_not.eligible, 1);
  EXPECT_EQ(registry_->decisions().front().why_not.total(), 2);
  // ...but kOff keeps them off the event.
  const obs::TraceEvent* decision_event = last_decision_event();
  ASSERT_NE(decision_event, nullptr);
  for (const obs::Attr& attr : decision_event->attrs) {
    EXPECT_NE(attr.key, "eligible");
    EXPECT_FALSE(attr.key.starts_with("no.")) << attr.key;
  }
}

TEST_F(AuditTest, FreeSourceIsCountedAsSourceInAnEvacuation) {
  register_host("ws1");  // free, evacuated: the source comes first
  register_host("ws2");
  register_host("ws3");
  update_host("ws1", SystemState::kFree);
  update_host("ws2", SystemState::kFree);
  update_host("ws3", SystemState::kBusy, 1.2);
  register_process("ws1", 42, "tree");
  engine_.run_until(1.0);
  registry_->request_evacuation("ws1", "maintenance");
  engine_.run_until(2.0);

  ASSERT_EQ(registry_->decisions().size(), 1u);
  const Decision& decision = registry_->decisions().front();
  EXPECT_EQ(decision.destination, "ws2");
  EXPECT_EQ(decision.why_not.source, 1);
  EXPECT_EQ(decision.why_not.draining, 0);
  EXPECT_EQ(decision.why_not.eligible, 1);
  EXPECT_EQ(decision.why_not.busy, 1);
  EXPECT_EQ(decision.why_not.total(), registered());
}

TEST_F(AuditTest, SuspectDestinationIsCountedInTheReplan) {
  register_host("ws1");
  register_host("ws2");
  register_host("ws3");
  update_host("ws1", SystemState::kOverloaded, 2.8, 160);
  update_host("ws2", SystemState::kFree);
  update_host("ws3", SystemState::kFree);
  register_process("ws1", 42, "tree");
  engine_.run_until(1.0);
  consult("ws1");
  engine_.run_until(2.0);

  // The migration to ws2 aborts there: ws2 turns suspect and the
  // registry re-plans at once.
  xmlproto::MigrationOutcomeMsg outcome;
  outcome.process = "tree";
  outcome.source = "ws1";
  outcome.destination = "ws2";
  outcome.outcome = "aborted";
  outcome.reason = "dest-failed";
  outcome.phase = "init";
  post("ws1", outcome);
  engine_.run_until(4.0);

  ASSERT_EQ(registry_->decisions().size(), 2u);
  EXPECT_EQ(registry_->decisions()[0].destination, "ws2");
  const Decision& replan = registry_->decisions()[1];
  EXPECT_EQ(replan.destination, "ws3");
  EXPECT_EQ(replan.why_not.suspect, 1);
  EXPECT_EQ(replan.why_not.eligible, 1);
  EXPECT_EQ(replan.why_not.overloaded, 1);
  EXPECT_EQ(replan.why_not.total(), registered());
}

TEST_F(AuditTest, GhostHostIsCountedAsUnregistered) {
  register_host("ws1");
  update_host("ws1", SystemState::kOverloaded, 2.8, 160);
  register_process("ws1", 42, "tree");
  update_host("ws2", SystemState::kFree);  // its Update overtook its Register
  engine_.run_until(1.0);
  consult("ws1");
  engine_.run_until(2.0);

  ASSERT_EQ(registry_->decisions().size(), 1u);
  const Decision& decision = registry_->decisions().front();
  EXPECT_TRUE(decision.destination.empty());
  EXPECT_EQ(decision.why_not.unregistered, 1);
  EXPECT_EQ(decision.why_not.overloaded, 1);
  EXPECT_EQ(decision.why_not.eligible, 0);
  EXPECT_EQ(decision.why_not.total(), registered());
}

TEST_F(AuditTest, PolicyRefusalIsCounted) {
  register_host("ws1");
  register_host("ws2");
  register_host("ws3");
  update_host("ws1", SystemState::kOverloaded, 2.8, 160);
  // Free by its monitor, but over the policy's 100-process destination
  // condition.
  update_host("ws2", SystemState::kFree, 0.2, 120);
  update_host("ws3", SystemState::kFree);
  engine_.run_until(1.0);

  WhyNot why_not;
  EXPECT_EQ(registry_->choose_destination("ws1", "", &why_not), "ws3");
  EXPECT_EQ(why_not.policy, 1);
  EXPECT_EQ(why_not.eligible, 1);
  EXPECT_EQ(why_not.overloaded, 1);
  EXPECT_EQ(why_not.total(), registered());
}

TEST_F(AuditTest, InflightClaimIsCounted) {
  // A 100 MiB memory floor a 128 MiB host meets once.
  hpcm::ApplicationSchema schema{"heavy"};
  hpcm::ResourceRequirements req;
  req.min_memory_bytes = 100ULL << 20;
  schema.set_requirements(req);
  registry_->register_schema(schema);
  register_host("ws1");
  register_host("ws2");
  register_host("ws3");
  update_host("ws1", SystemState::kOverloaded, 2.8, 160);
  update_host("ws2", SystemState::kOverloaded, 2.8, 160);
  update_host("ws3", SystemState::kFree);
  register_process("ws1", 41, "left", "heavy");
  register_process("ws2", 42, "right", "heavy");
  engine_.run_until(1.0);
  // The first migration's claim holds 100 of ws3's 128 MiB until its
  // outcome: the second consult finds ws3 exhausted.
  consult("ws1");
  engine_.run_until(2.0);
  consult("ws2");
  engine_.run_until(3.0);

  ASSERT_EQ(registry_->decisions().size(), 2u);
  EXPECT_EQ(registry_->decisions()[0].destination, "ws3");
  EXPECT_EQ(registry_->decisions()[0].why_not.eligible, 1);
  const Decision& second = registry_->decisions()[1];
  EXPECT_TRUE(second.destination.empty());
  EXPECT_EQ(second.why_not.inflight, 1);
  EXPECT_EQ(second.why_not.overloaded, 2);
  EXPECT_EQ(second.why_not.total(), registered());
}

TEST_F(AuditTest, StateCountsAreTheIndexListSizes) {
  for (const char* name : {"ws1", "ws2", "ws3", "ws4", "ws5"}) {
    register_host(name);
  }
  const auto heartbeats = [&] {
    update_host("ws1", SystemState::kOverloaded, 2.8, 160);
    update_host("ws2", SystemState::kBusy, 1.2);
    update_host("ws3", SystemState::kBusy, 1.2);
    update_host("ws5", SystemState::kFree);
  };
  heartbeats();
  update_host("ws4", SystemState::kFree);
  engine_.run_until(30.0);
  heartbeats();  // ws4 falls silent: its lease lapses at the next sweeps
  engine_.run_until(45.0);
  ASSERT_EQ(registry_->host_state("ws4"), SystemState::kUnavailable);

  WhyNot why_not;
  EXPECT_EQ(registry_->choose_destination("ws1", "", &why_not), "ws5");
  EXPECT_EQ(why_not.overloaded, 1);
  EXPECT_EQ(why_not.busy, 2);
  EXPECT_EQ(why_not.unavailable, 1);
  EXPECT_EQ(why_not.eligible, 1);
  EXPECT_EQ(why_not.total(), registered());
  for (const auto& [state, count] :
       {std::pair{SystemState::kBusy, why_not.busy},
        std::pair{SystemState::kOverloaded, why_not.overloaded},
        std::pair{SystemState::kUnavailable, why_not.unavailable}}) {
    EXPECT_EQ(registry_->indexed_count(state),
              static_cast<std::size_t>(count));
  }
}

TEST_F(AuditTest, LeaseExpirationIsCountedAndTraced) {
  register_host("ws1");
  update_host("ws1", SystemState::kFree);
  engine_.run_until(1.0);
  engine_.run_until(120.0);  // default 35 s lease lapses, no heartbeats
  EXPECT_GE(metrics_.counter("registry.lease_expirations").value(), 1.0);
  bool traced = false;
  for (const obs::TraceEvent& event : tracer_.events()) {
    if (event.name == "registry.lease_expired") {
      traced = true;
    }
  }
  EXPECT_TRUE(traced);
}

}  // namespace
}  // namespace ars::registry
