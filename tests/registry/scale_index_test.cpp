// Tests for the registry's per-state index and the stale-state decision
// bugfix regressions:
//
//   * the index tracks every state transition and keeps the free list in
//     registration order (the first-fit scan order);
//   * the free-list walk returns exactly the free hosts other than the
//     source, in registration order, and its why-not counts add up to
//     every registered host; a churn's decisions match a golden log;
//   * re-admission after a lease expiry must not reuse pre-crash status;
//   * restarts of one crashed host's processes spread across free hosts;
//   * Update-before-Register ghosts are never command targets (no message
//     is ever posted to port 0);
//   * restarts with no capacity park on a retry list the sweeper drains.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "ars/obs/metrics.hpp"
#include "ars/registry/registry.hpp"
#include "ars/support/rng.hpp"

namespace ars::registry {
namespace {

using rules::SystemState;
using sim::Engine;

double counter_value(const obs::MetricsRegistry& metrics,
                     const std::string& name,
                     const obs::Labels& labels = {}) {
  const obs::Counter* counter = metrics.find_counter(name, labels);
  return counter == nullptr ? 0.0 : counter->value();
}

class ScaleIndexTest : public ::testing::Test {
 protected:
  void build(Registry::Config config = {}) {
    engine_.attach_sinks(nullptr, &metrics_);
    net_ = std::make_unique<net::Network>(engine_);
    for (const char* name : {"hub", "ws1", "ws2", "ws3", "ws4", "ws5"}) {
      host::HostSpec s;
      s.name = name;
      hosts_.push_back(std::make_unique<host::Host>(engine_, s));
      net_->attach(*hosts_.back());
    }
    config.policy = rules::paper_policy2();
    config.lease_ttl = 25.0;
    registry_ = std::make_unique<Registry>(*hosts_[0], *net_, config);
    registry_->start();
  }

  void post(const std::string& from, const xmlproto::ProtocolMessage& m) {
    net::Message wire;
    wire.src_host = from;
    wire.dst_host = "hub";
    wire.dst_port = registry_->port();
    wire.payload = xmlproto::encode(m);
    net_->post(std::move(wire));
  }

  static xmlproto::RegisterMsg register_msg(const std::string& name,
                                            int commander_port = 6000) {
    xmlproto::RegisterMsg reg;
    reg.info.host = name;
    reg.info.memory_bytes = 128ULL << 20;
    reg.info.disk_bytes = 20ULL << 30;
    reg.info.cpu_speed = 1.0;
    reg.monitor_port = 5999;
    reg.commander_port = commander_port;
    return reg;
  }

  xmlproto::UpdateMsg update_msg(const std::string& name, SystemState state,
                                 double load1 = 0.2) {
    xmlproto::UpdateMsg update;
    update.status.host = name;
    update.status.state = std::string(rules::to_string(state));
    update.status.load1 = load1;
    update.status.processes = 60;
    update.status.timestamp = engine_.now();
    return update;
  }

  void register_host(const std::string& name, int commander_port = 6000) {
    post(name, register_msg(name, commander_port));
  }

  void update_host(const std::string& name, SystemState state,
                   double load1 = 0.2) {
    post(name, update_msg(name, state, load1));
  }

  void register_process(const std::string& host, int pid,
                        const std::string& name,
                        const std::string& schema = "") {
    xmlproto::ProcessRegisterMsg msg;
    msg.host = host;
    msg.pid = pid;
    msg.name = name;
    msg.schema_name = schema;
    msg.migration_enabled = true;
    post(host, msg);
  }

  void consult(const std::string& from) {
    xmlproto::ConsultMsg msg;
    msg.host = from;
    msg.reason = "test";
    post(from, msg);
  }

  /// RelaunchCmd/MigrateCmd/ConsultMsg counts drained from an endpoint.
  static int drain_count(net::Endpoint& endpoint, const char* type) {
    int count = 0;
    while (auto wire = endpoint.inbox.try_recv()) {
      const auto message = xmlproto::decode(wire->payload);
      if (message.has_value() && xmlproto::message_type(*message) == type) {
        ++count;
      }
    }
    return count;
  }

  Engine engine_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::unique_ptr<Registry> registry_;
};

TEST_F(ScaleIndexTest, IndexTracksEveryStateTransition) {
  build();
  register_host("ws1");
  register_host("ws2");
  register_host("ws3");
  engine_.run_until(0.5);
  // Register-only hosts are admitted optimistically as free.
  EXPECT_EQ(registry_->indexed_count(SystemState::kFree), 3U);
  EXPECT_TRUE(registry_->index_consistent());

  update_host("ws2", SystemState::kBusy, 1.5);
  update_host("ws3", SystemState::kOverloaded, 3.0);
  engine_.run_until(1.0);
  EXPECT_EQ(registry_->indexed_hosts(SystemState::kFree),
            std::vector<std::string>{"ws1"});
  EXPECT_EQ(registry_->indexed_hosts(SystemState::kBusy),
            std::vector<std::string>{"ws2"});
  EXPECT_EQ(registry_->indexed_hosts(SystemState::kOverloaded),
            std::vector<std::string>{"ws3"});
  EXPECT_TRUE(registry_->index_consistent());

  update_host("ws2", SystemState::kFree);
  engine_.run_until(1.5);
  EXPECT_EQ(registry_->indexed_count(SystemState::kFree), 2U);

  // All leases lapse: everything migrates to the unavailable list.
  engine_.run_until(60.0);
  EXPECT_EQ(registry_->indexed_count(SystemState::kFree), 0U);
  EXPECT_EQ(registry_->indexed_count(SystemState::kUnavailable), 3U);
  EXPECT_TRUE(registry_->index_consistent());
}

TEST_F(ScaleIndexTest, FreeListFollowsRegistrationOrderNotName) {
  build();
  // ws3 registers before ws1: the free list (= first-fit order) must not
  // fall back to the host table's name order.
  register_host("ws3");
  engine_.run_until(0.2);
  register_host("ws1");
  update_host("ws3", SystemState::kFree);
  update_host("ws1", SystemState::kFree);
  engine_.run_until(0.5);
  EXPECT_EQ(registry_->indexed_hosts(SystemState::kFree),
            (std::vector<std::string>{"ws3", "ws1"}));
  EXPECT_EQ(registry_->first_fit_destination("src", ""), "ws3");
}

TEST_F(ScaleIndexTest, IndexedAndLegacyEligiblesAgreeUnderChurn) {
  build();
  const int kHosts = 40;
  std::vector<std::string> names;
  std::map<std::string, SystemState> delivered;
  for (int i = 0; i < kHosts; ++i) {
    names.push_back("n" + std::to_string(100 + i));
    registry_->deliver(register_msg(names.back()), names.back());
    registry_->deliver(update_msg(names.back(), SystemState::kFree),
                       names.back());
    delivered[names.back()] = SystemState::kFree;
  }
  support::Rng rng{7};
  const SystemState states[] = {SystemState::kFree, SystemState::kBusy,
                                SystemState::kOverloaded};
  for (int round = 0; round < 50; ++round) {
    for (int flip = 0; flip < 6; ++flip) {
      const auto& name =
          names[static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1))];
      const SystemState state = states[rng.uniform_int(0, 2)];
      registry_->deliver(update_msg(name, state), name);
      delivered[name] = state;
    }
    ASSERT_TRUE(registry_->index_consistent());
    const auto& source =
        names[static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1))];
    // The oracle, from the states this test delivered: every free host
    // other than the source, in registration order.
    std::vector<std::string> expected;
    int busy = 0;
    int overloaded = 0;
    for (const std::string& name : names) {
      busy += delivered[name] == SystemState::kBusy ? 1 : 0;
      overloaded += delivered[name] == SystemState::kOverloaded ? 1 : 0;
      if (delivered[name] == SystemState::kFree && name != source) {
        expected.push_back(name);
      }
    }
    WhyNot why_not;
    const auto eligible =
        registry_->eligible_destinations(source, "", &why_not);
    std::vector<std::string> walked;
    for (const HostEntry* entry : eligible) {
      walked.push_back(entry->info.host);
    }
    EXPECT_EQ(walked, expected) << "round " << round;
    // Every registered host is counted once.
    EXPECT_EQ(why_not.total(), kHosts) << "round " << round;
    EXPECT_EQ(why_not.eligible, static_cast<int>(expected.size()));
    EXPECT_EQ(why_not.busy, busy);
    EXPECT_EQ(why_not.overloaded, overloaded);
    EXPECT_EQ(why_not.source,
              delivered[source] == SystemState::kFree ? 1 : 0);
  }
}

// The decisions of a 24-host churn, captured from the registry that still
// carried the pre-index full-table scan (and matched it byte for byte):
// the free-list walk must keep reproducing them.
TEST_F(ScaleIndexTest, ChurnDecisionLogMatchesGolden) {
  build();
  const int kHosts = 24;
  std::vector<std::string> names;
  for (int i = 0; i < kHosts; ++i) {
    names.push_back("n" + std::to_string(100 + i));
    registry_->deliver(register_msg(names.back()), names.back());
    registry_->deliver(update_msg(names.back(), SystemState::kFree),
                       names.back());
    xmlproto::ProcessRegisterMsg proc;
    proc.host = names.back();
    proc.pid = 500 + i;
    proc.name = "app" + std::to_string(i);
    proc.migration_enabled = true;
    registry_->deliver(proc, names.back());
  }
  support::Rng rng{11};
  const SystemState states[] = {SystemState::kFree, SystemState::kBusy,
                                SystemState::kOverloaded};
  double t = 0.0;
  for (int round = 0; round < 30; ++round) {
    for (int flip = 0; flip < 4; ++flip) {
      const auto& name =
          names[static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1))];
      registry_->deliver(update_msg(name, states[rng.uniform_int(0, 2)]),
                         name);
    }
    xmlproto::ConsultMsg msg;
    msg.host = names[static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1))];
    msg.reason = "churn";
    registry_->deliver(msg, msg.host);
    t += 1.0;
    engine_.run_until(t);
  }
  EXPECT_EQ(registry_->decision_log(),
            "0.002000 n101 -> n100 pid=501 name=app1\n"
            "1.002000 n110 -> n100 pid=510 name=app10\n"
            "2.002000 n115 -> n100 pid=515 name=app15\n"
            "3.002000 n111 -> n100 pid=511 name=app11\n"
            "4.002000 n112 -> n100 pid=512 name=app12\n"
            "5.002000 n114 -> n100 pid=514 name=app14\n"
            "6.002000 n105 -> n100 pid=505 name=app5\n"
            "7.002000 n109 -> n100 pid=509 name=app9\n"
            "8.002000 n110 -> - pid=0 name=\n"
            "9.002000 n114 -> - pid=0 name=\n"
            "10.002000 n113 -> n103 pid=513 name=app13\n"
            "11.002000 n107 -> n101 pid=507 name=app7\n"
            "12.002000 n123 -> n101 pid=523 name=app23\n"
            "13.002000 n112 -> - pid=0 name=\n"
            "14.002000 n113 -> - pid=0 name=\n"
            "15.002000 n100 -> n102 pid=500 name=app0\n"
            "16.002000 n101 -> - pid=0 name=\n"
            "17.002000 n123 -> - pid=0 name=\n"
            "18.002000 n118 -> n102 pid=518 name=app18\n"
            "19.002000 n100 -> - pid=0 name=\n"
            "20.002000 n102 -> n103 pid=502 name=app2\n"
            "21.002000 n123 -> - pid=0 name=\n"
            "22.002000 n117 -> n103 pid=517 name=app17\n"
            "23.002000 n118 -> - pid=0 name=\n"
            "24.002000 n120 -> n101 pid=520 name=app20\n"
            "25.002000 n101 -> - pid=0 name=\n"
            "26.002000 n105 -> - pid=0 name=\n"
            "27.002000 n115 -> - pid=0 name=\n"
            "28.002000 n108 -> n101 pid=508 name=app8\n"
            "29.002000 n110 -> - pid=0 name=\n");
}

// Bugfix regression: a host whose lease expired (crash) and that then
// re-registers (reboot) used to flip straight back to `free` with its
// pre-crash status — and could win the very next consult on stale data.
TEST_F(ScaleIndexTest, ReAdmissionAfterExpiryWaitsForFreshStatus) {
  build();
  register_host("ws1");
  update_host("ws1", SystemState::kOverloaded, 3.0);
  register_process("ws1", 100, "app");
  register_host("ws2");
  update_host("ws2", SystemState::kFree);
  engine_.run_until(1.0);
  EXPECT_EQ(registry_->host_state("ws2"), SystemState::kFree);

  // ws2 crashes: its lease lapses.  ws1 keeps heart-beating.
  engine_.run_until(20.0);
  update_host("ws1", SystemState::kOverloaded, 3.0);
  engine_.run_until(40.0);
  EXPECT_EQ(registry_->host_state("ws2"), SystemState::kUnavailable);

  // Reboot: the monitor re-announces static info before its first status
  // cycle.  The stale pre-crash "free" status must not make ws2 eligible.
  register_host("ws2");
  engine_.run_until(41.0);
  EXPECT_EQ(registry_->host_state("ws2"), SystemState::kUnavailable);
  EXPECT_FALSE(registry_->first_fit_destination("ws1", "").has_value());

  // Consult in the reboot window: no destination, not a stale migrate.
  consult("ws1");
  engine_.run_until(42.0);
  ASSERT_EQ(registry_->decisions().size(), 1U);
  EXPECT_TRUE(registry_->decisions()[0].destination.empty());

  // The first fresh heartbeat restores eligibility.
  update_host("ws2", SystemState::kFree);
  engine_.run_until(43.0);
  EXPECT_EQ(registry_->host_state("ws2"), SystemState::kFree);
  EXPECT_EQ(registry_->first_fit_destination("ws1", ""), "ws2");
}

// A brand-new host (no status ever seen) is still admitted optimistically
// on registration alone — only RE-admission is held back.
TEST_F(ScaleIndexTest, FreshRegistrationIsStillAdmittedOptimistically) {
  build();
  register_host("ws1");
  engine_.run_until(0.5);
  EXPECT_EQ(registry_->host_state("ws1"), SystemState::kFree);
  EXPECT_EQ(registry_->first_fit_destination("src", ""), "ws1");
}

// Bugfix regression: all processes of a crashed host used to be relaunched
// onto the same first-fit destination because the in-flight placements were
// invisible until the destination's next heartbeat.
TEST_F(ScaleIndexTest, RestartsSpreadAcrossFreeHosts) {
  Registry::Config config;
  config.auto_restart = true;
  build(config);
  net::Endpoint& ws2_commander = net_->bind("ws2", 6000);
  net::Endpoint& ws3_commander = net_->bind("ws3", 6000);
  register_host("ws1");
  update_host("ws1", SystemState::kBusy, 1.5);
  for (int pid = 1; pid <= 4; ++pid) {
    register_process("ws1", pid, "rank" + std::to_string(pid));
  }
  register_host("ws2");
  update_host("ws2", SystemState::kFree);
  register_host("ws3");
  update_host("ws3", SystemState::kFree);
  engine_.run_until(20.0);
  // Keep the destinations' leases fresh while ws1 goes silent.
  update_host("ws2", SystemState::kFree);
  update_host("ws3", SystemState::kFree);
  engine_.run_until(40.0);

  EXPECT_EQ(registry_->host_state("ws1"), SystemState::kUnavailable);
  EXPECT_EQ(drain_count(ws2_commander, "relaunch"), 2);
  EXPECT_EQ(drain_count(ws3_commander, "relaunch"), 2);
  EXPECT_TRUE(registry_->stranded().empty());
}

// A recovery round debits each destination with the restarts it already
// placed there: two 100 MiB processes fill both 128 MiB hosts, so the third
// is stranded, and its why-not record counts both under the round's debits.
TEST_F(ScaleIndexTest, RecoveryRoundDebitsExhaustDestinations) {
  Registry::Config config;
  config.auto_restart = true;
  build(config);
  hpcm::ApplicationSchema schema{"big"};
  hpcm::ResourceRequirements requirements;
  requirements.min_memory_bytes = 100ULL << 20;
  schema.set_requirements(requirements);
  registry_->register_schema(schema);
  register_host("ws1");
  update_host("ws1", SystemState::kBusy, 1.5);
  for (int pid = 1; pid <= 3; ++pid) {
    register_process("ws1", pid, "rank" + std::to_string(pid), "big");
  }
  for (const char* name : {"ws2", "ws3"}) {
    register_host(name);
    update_host(name, SystemState::kFree);
  }
  engine_.run_until(20.0);
  update_host("ws2", SystemState::kFree);
  update_host("ws3", SystemState::kFree);
  engine_.run_until(31.0);  // ws1's lease lapsed at the t=30 sweep

  const std::vector<Decision>& decisions = registry_->decisions();
  ASSERT_EQ(decisions.size(), 3U);
  EXPECT_EQ(decisions[0].destination, "ws2");
  EXPECT_EQ(decisions[1].destination, "ws3");
  EXPECT_TRUE(decisions[2].destination.empty());
  for (const Decision& decision : decisions) {
    EXPECT_TRUE(decision.restart);
    EXPECT_EQ(decision.why_not.total(), 3);
    EXPECT_EQ(decision.why_not.unavailable, 1);  // the lost source, ws1
  }
  EXPECT_EQ(decisions[0].why_not.eligible, 2);
  EXPECT_EQ(decisions[1].why_not.eligible, 1);
  EXPECT_EQ(decisions[1].why_not.recovery_round, 1);
  EXPECT_EQ(decisions[2].why_not.eligible, 0);
  EXPECT_EQ(decisions[2].why_not.recovery_round, 2);
  ASSERT_EQ(registry_->stranded().size(), 1U);
  EXPECT_EQ(registry_->stranded()[0].name, "rank3");
}

// A recovery round under each strategy: the round's spread filter keeps
// only the least-placed hosts in play, then the strategy picks among them.
struct RestartStrategyCase {
  const char* name;
  DestinationStrategy strategy;
  std::vector<std::string> destinations;
};

void PrintTo(const RestartStrategyCase& param, std::ostream* os) {
  *os << param.name;
}

class ScaleIndexRestartStrategyTest
    : public ScaleIndexTest,
      public ::testing::WithParamInterface<RestartStrategyCase> {};

TEST_P(ScaleIndexRestartStrategyTest, RestartPlacementFollowsTheStrategy) {
  Registry::Config config;
  config.auto_restart = true;
  config.strategy = GetParam().strategy;
  config.random_seed = 7;
  build(config);
  register_host("ws1");
  update_host("ws1", SystemState::kBusy, 1.5);
  for (int pid = 1; pid <= 4; ++pid) {
    register_process("ws1", pid, "rank" + std::to_string(pid));
  }
  const std::pair<const char*, double> free_hosts[] = {
      {"ws2", 0.5}, {"ws3", 0.1}, {"ws4", 0.3}};
  for (const auto& [name, load] : free_hosts) {
    register_host(name);
    update_host(name, SystemState::kFree, load);
  }
  engine_.run_until(20.0);
  // Keep the destinations' leases fresh while ws1 goes silent.
  for (const auto& [name, load] : free_hosts) {
    update_host(name, SystemState::kFree, load);
  }
  engine_.run_until(40.0);

  EXPECT_EQ(registry_->host_state("ws1"), SystemState::kUnavailable);
  std::vector<std::string> destinations;
  for (const Decision& decision : registry_->decisions()) {
    EXPECT_TRUE(decision.restart);
    destinations.push_back(decision.destination);
  }
  EXPECT_EQ(destinations, GetParam().destinations);
  EXPECT_TRUE(registry_->stranded().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ScaleIndexRestartStrategyTest,
    ::testing::Values(
        RestartStrategyCase{"FirstFit", DestinationStrategy::kFirstFit,
                            {"ws2", "ws3", "ws4", "ws2"}},
        RestartStrategyCase{"BestFit", DestinationStrategy::kBestFit,
                            {"ws3", "ws4", "ws2", "ws3"}},
        RestartStrategyCase{"RandomFit", DestinationStrategy::kRandomFit,
                            {"ws2", "ws3", "ws4", "ws3"}}),
    [](const ::testing::TestParamInfo<RestartStrategyCase>& case_info) {
      return std::string(case_info.param.name);
    });

// Bugfix regression: an UpdateMsg arriving before any RegisterMsg creates a
// ghost entry with port 0; such a host used to win consults, and the
// migrate command was then posted to port 0 and silently dropped.
TEST_F(ScaleIndexTest, GhostHostIsNeverADestination) {
  build();
  register_host("ws1");
  update_host("ws1", SystemState::kOverloaded, 3.0);
  register_process("ws1", 100, "app");
  // ws2's Update overtakes its Register: a free ghost with no ports.
  update_host("ws2", SystemState::kFree);
  engine_.run_until(1.0);
  EXPECT_EQ(registry_->host_state("ws2"), SystemState::kFree);
  EXPECT_FALSE(registry_->first_fit_destination("ws1", "").has_value());

  consult("ws1");
  engine_.run_until(2.0);
  ASSERT_EQ(registry_->decisions().size(), 1U);
  EXPECT_TRUE(registry_->decisions()[0].destination.empty());
  EXPECT_EQ(counter_value(metrics_, "ars_net_dropped_total",
                          {{"reason", "unbound_port"}}),
            0.0);

  // The late RegisterMsg supplies the ports; ws2 becomes a real candidate.
  register_host("ws2");
  engine_.run_until(3.0);
  EXPECT_EQ(registry_->first_fit_destination("ws1", ""), "ws2");
}

// Ghost on the SOURCE side: the consulting host itself has no known
// commander port, so the migrate command cannot be routed anywhere.
TEST_F(ScaleIndexTest, GhostSourceConsultDoesNotPostToPortZero) {
  build();
  update_host("ws1", SystemState::kOverloaded, 3.0);  // ghost source
  register_process("ws1", 100, "app");
  register_host("ws2");
  update_host("ws2", SystemState::kFree);
  engine_.run_until(1.0);

  consult("ws1");
  engine_.run_until(2.0);
  ASSERT_EQ(registry_->decisions().size(), 1U);
  EXPECT_EQ(registry_->decisions()[0].destination, "ws2");
  EXPECT_EQ(counter_value(metrics_, "registry.commands_unroutable"), 1.0);
  EXPECT_EQ(counter_value(metrics_, "ars_net_dropped_total",
                          {{"reason", "unbound_port"}}),
            0.0);
}

// Bugfix regression: a lost process with no eligible destination used to be
// dropped on the floor with only a log line.  It must park on the retry
// list and restart as soon as capacity returns.
TEST_F(ScaleIndexTest, StrandedRestartsRetryWhenCapacityReturns) {
  Registry::Config config;
  config.auto_restart = true;
  build(config);
  register_host("ws1");
  update_host("ws1", SystemState::kBusy, 1.5);
  register_process("ws1", 100, "app");
  engine_.run_until(1.0);

  // ws1 dies with no other host in the system: the restart is stranded.
  engine_.run_until(40.0);
  EXPECT_EQ(registry_->host_state("ws1"), SystemState::kUnavailable);
  ASSERT_EQ(registry_->stranded().size(), 1U);
  EXPECT_EQ(registry_->stranded()[0].name, "app");
  EXPECT_EQ(counter_value(metrics_, "registry.restarts_stranded"), 1.0);
  // The failure is logged as a decision exactly once, not once per sweep.
  ASSERT_EQ(registry_->decisions().size(), 1U);
  EXPECT_TRUE(registry_->decisions()[0].destination.empty());
  EXPECT_TRUE(registry_->decisions()[0].restart);

  // Capacity returns: the next sweep drains the retry list.
  net::Endpoint& ws2_commander = net_->bind("ws2", 6000);
  register_host("ws2");
  update_host("ws2", SystemState::kFree);
  engine_.run_until(50.0);
  EXPECT_TRUE(registry_->stranded().empty());
  EXPECT_EQ(drain_count(ws2_commander, "relaunch"), 1);
  EXPECT_EQ(counter_value(metrics_, "registry.stranded_recovered"), 1.0);
  ASSERT_EQ(registry_->decisions().size(), 2U);
  EXPECT_EQ(registry_->decisions()[1].destination, "ws2");
}

// Compact lease renewals refresh leases but can never (re)admit a host.
TEST_F(ScaleIndexTest, LeaseRenewalsRefreshButNeverAdmit) {
  build();
  register_host("ws1");
  update_host("ws1", SystemState::kFree);
  engine_.run_until(1.0);

  const auto renew = [&](const std::string& name) {
    xmlproto::UpdateBatchMsg batch;
    xmlproto::LeaseRenewal renewal;
    renewal.host = name;
    renewal.state = "free";
    renewal.timestamp = engine_.now();
    batch.renewals.push_back(renewal);
    registry_->deliver(batch, name);
  };

  // Renewals alone keep ws1 alive well past the lease TTL.
  for (double t = 10.0; t <= 60.0; t += 10.0) {
    renew("ws1");
    engine_.run_until(t);
  }
  EXPECT_EQ(registry_->host_state("ws1"), SystemState::kFree);
  EXPECT_GE(counter_value(metrics_, "registry.renewals_applied"), 5.0);

  // A renewal for an unknown host is rejected, not a ghost admission.
  renew("ws9");
  engine_.run_until(61.0);
  EXPECT_FALSE(registry_->host_state("ws9").has_value());
  EXPECT_GE(counter_value(metrics_, "registry.renewals_rejected"), 1.0);

  // After an expiry, renewals are rejected until a full UpdateMsg.
  engine_.run_until(100.0);
  EXPECT_EQ(registry_->host_state("ws1"), SystemState::kUnavailable);
  renew("ws1");
  engine_.run_until(101.0);
  EXPECT_EQ(registry_->host_state("ws1"), SystemState::kUnavailable);
  update_host("ws1", SystemState::kFree);
  engine_.run_until(102.0);
  EXPECT_EQ(registry_->host_state("ws1"), SystemState::kFree);
}

// Escalated consults are balanced across child domains by their reported
// free capacity minus the consults already routed there.
TEST_F(ScaleIndexTest, EscalationsSpreadAcrossChildDomains) {
  build();
  net::Endpoint& child1 = net_->bind("ws1", 7000);
  net::Endpoint& child2 = net_->bind("ws2", 7100);
  const auto report = [&](const std::string& name, int port, int free) {
    xmlproto::HealthReportMsg health;
    health.registry_host = name;
    health.registry_port = port;
    health.free_hosts = free;
    health.timestamp = engine_.now();
    post(name, health);
  };
  report("ws1", 7000, 2);
  report("ws2", 7100, 2);
  engine_.run_until(0.5);
  ASSERT_EQ(registry_->children().size(), 2U);

  // Four escalated consults from an unknown domain: 2 free + 2 free means
  // a 2/2 split, not four piled onto whichever child reported first.
  for (int i = 0; i < 4; ++i) {
    xmlproto::ConsultMsg msg;
    msg.host = "remote" + std::to_string(i);
    msg.reason = "escalated";
    msg.origin_registry = "elsewhere";
    msg.pid = 900 + i;
    msg.process_name = "job" + std::to_string(i);
    msg.commander_port = 6000;
    registry_->deliver(msg, msg.host);
  }
  engine_.run_until(2.0);
  EXPECT_EQ(drain_count(child1, "consult"), 2);
  EXPECT_EQ(drain_count(child2, "consult"), 2);
  EXPECT_EQ(counter_value(metrics_, "registry.consults_routed"), 4.0);

  // Capacity exhausted: the fifth consult is a plain no-destination.
  xmlproto::ConsultMsg extra;
  extra.host = "remote9";
  extra.reason = "escalated";
  extra.origin_registry = "elsewhere";
  extra.pid = 999;
  extra.commander_port = 6000;
  registry_->deliver(extra, extra.host);
  engine_.run_until(3.0);
  EXPECT_EQ(counter_value(metrics_, "registry.consults_routed"), 4.0);
  EXPECT_EQ(drain_count(child1, "consult"), 0);
  EXPECT_EQ(drain_count(child2, "consult"), 0);

  // A fresh health report resets the in-flight debit.
  report("ws1", 7000, 1);
  engine_.run_until(3.5);
  registry_->deliver(extra, extra.host);
  engine_.run_until(4.0);
  EXPECT_EQ(drain_count(child1, "consult"), 1);
}

}  // namespace
}  // namespace ars::registry
