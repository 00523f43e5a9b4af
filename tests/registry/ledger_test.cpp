// The registry's process ledger (DESIGN.md §12): one record per process
// name, in exactly one state (running, relaunching or stranded) plus at
// most one open migration claim, and one resize claim per malleable job.
// These tests pin the orders that decisions depend on, the transitions no
// other test drives, and two lost-work bugs:
//
//   * a host's processes are visited in pid text order (the selector's
//     tie-break, restarts and evacuations), not registration, name or
//     numeric pid order;
//   * unconfirmed relaunches re-park in command order, stranded processes
//     retry in park order, and expired claims relaunch in claim order;
//   * an `exited:` relaunch ack abandons the pending relaunch, and a
//     stranded process that registers again counts as recovered at the
//     next sweep;
//   * a registration from the instance a committed migration retired is
//     stale and must not move the process back to the source;
//   * a resize whose outcome never arrives must not stop the job's resize
//     planning: its claim expires like every other claim.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ars/obs/metrics.hpp"
#include "ars/registry/registry.hpp"

#include <gtest/gtest.h>

namespace ars::registry {
namespace {

using sim::Engine;

class LedgerTest : public ::testing::Test {
 protected:
  void build(Registry::Config config) {
    engine_.attach_sinks(nullptr, &metrics_);
    for (const char* name : {"hub", "ws1", "ws2", "ws3", "ws4"}) {
      host::HostSpec s;
      s.name = name;
      hosts_.push_back(std::make_unique<host::Host>(engine_, s));
      net_.attach(*hosts_.back());
      if (std::string(name) != "hub") {
        commanders_[name] = &net_.bind(name, 6000);
      }
    }
    config.policy = rules::paper_policy2();
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

  void register_host(const std::string& name, const std::string& state) {
    xmlproto::RegisterMsg reg;
    reg.info.host = name;
    reg.info.cpu_speed = 1.0;
    reg.commander_port = 6000;
    post(name, reg);
    heartbeat(name, state);
  }

  void heartbeat(const std::string& name, const std::string& state) {
    xmlproto::UpdateMsg update;
    update.status.host = name;
    update.status.state = state;
    update.status.load1 = state == "free" ? 0.2 : 2.8;
    update.status.processes = state == "free" ? 60 : 160;
    update.status.timestamp = engine_.now();
    post(name, update);
  }

  /// Run to `until`, heartbeating `alive` every 4 s on the way.
  void keep_alive(const std::vector<std::pair<std::string, std::string>>&
                      alive,
                  double until) {
    for (double t = engine_.now() + 4.0; t <= until; t += 4.0) {
      engine_.run_until(t);
      for (const auto& [name, state] : alive) {
        heartbeat(name, state);
      }
    }
    engine_.run_until(until);
  }

  void register_process(const std::string& host, int pid,
                        const std::string& name, double start_time = 0.0) {
    xmlproto::ProcessRegisterMsg msg;
    msg.host = host;
    msg.pid = pid;
    msg.name = name;
    msg.start_time = start_time;
    msg.migration_enabled = true;
    post(host, msg);
  }

  void deregister_process(const std::string& host, int pid) {
    xmlproto::ProcessDeregisterMsg msg;
    msg.host = host;
    msg.pid = pid;
    post(host, msg);
  }

  void consult(const std::string& host) {
    xmlproto::ConsultMsg m;
    m.host = host;
    m.reason = "load1>2";
    post(host, m);
  }

  void outcome(const std::string& verdict) {
    xmlproto::MigrationOutcomeMsg m;
    m.process = "app";
    m.source = "ws1";
    m.destination = "ws2";
    m.outcome = verdict;
    if (verdict != "committed") {
      m.reason = "restore-interrupted";
      m.phase = "restore";
    }
    post("ws1", m);
  }

  /// Drain every commander inbox; returns the decoded messages of type T.
  template <typename T>
  std::vector<std::pair<std::string, T>> commands() {
    std::vector<std::pair<std::string, T>> out;
    for (auto& [host, endpoint] : commanders_) {
      while (auto wire = endpoint->inbox.try_recv()) {
        const auto message = xmlproto::decode(wire->payload);
        if (message.has_value()) {
          if (const auto* cmd = std::get_if<T>(&*message)) {
            out.emplace_back(host, *cmd);
          }
        }
      }
    }
    return out;
  }

  /// "name@destination" of every restart decision, in decision order.
  std::vector<std::string> restarts() const {
    std::vector<std::string> out;
    for (const Decision& decision : registry_->decisions()) {
      if (decision.restart) {
        out.push_back(decision.process_name + "@" + decision.destination);
      }
    }
    return out;
  }

  /// The process names of restarts(), in decision order.
  std::vector<std::string> restarted() const {
    std::vector<std::string> out;
    for (const std::string& restart : restarts()) {
      out.push_back(restart.substr(0, restart.find('@')));
    }
    return out;
  }

  double counter_value(const std::string& name) {
    const obs::Counter* c = metrics_.find_counter(name);
    return c == nullptr ? 0.0 : c->value();
  }

  Engine engine_;
  net::Network net_{engine_};
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::map<std::string, net::Endpoint*> commanders_;
  std::unique_ptr<Registry> registry_;
};

Registry::Config auto_restart() {
  Registry::Config config;
  config.auto_restart = true;
  return config;
}

TEST_F(LedgerTest, RegistrationOrderIsNotRestartOrder) {
  build(auto_restart());
  register_host("ws1", "busy");
  for (const char* h : {"ws2", "ws3", "ws4"}) {
    register_host(h, "free");
  }
  register_process("ws1", 1001, "b");
  register_process("ws1", 1000, "c");
  register_process("ws1", 1002, "a");
  engine_.run_until(1.0);
  // Equal completion estimates: the tie goes to the first process in pid
  // text order.
  const ProcessEntry* chosen = registry_->select_process("ws1");
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->name, "c");
  // ws1's lease lapses at the t=40 sweep: its processes restart in pid
  // order, each spread to its own free host.
  keep_alive({{"ws2", "free"}, {"ws3", "free"}, {"ws4", "free"}}, 41.0);
  EXPECT_EQ(restarts(),
            (std::vector<std::string>{"c@ws2", "b@ws3", "a@ws4"}));
}

TEST_F(LedgerTest, PidTextOrderIsNotNumericOrder) {
  // The old "host:pid" keys compared as text: "1000" sorts before "999".
  build(auto_restart());
  register_host("ws1", "busy");
  register_host("ws2", "free");
  register_process("ws1", 999, "x");
  register_process("ws1", 1000, "y");
  engine_.run_until(1.0);
  const ProcessEntry* chosen = registry_->select_process("ws1");
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->name, "y");
  keep_alive({{"ws2", "free"}}, 41.0);
  EXPECT_EQ(restarted(), (std::vector<std::string>{"y", "x"}));
}

TEST_F(LedgerTest, UnconfirmedRelaunchesRetryInCommandOrder) {
  // z (ws1, pid 5) and a (ws2, pid 1) are lost in one sweep: hosts expire
  // in name order, so z's relaunch is commanded first.  Neither lands; they
  // re-park in command order and retry in park order — not name or pid
  // order, which would both put a first.
  build(auto_restart());
  register_host("ws1", "busy");
  register_host("ws2", "busy");
  register_host("ws3", "free");
  register_host("ws4", "free");
  register_process("ws1", 5, "z");
  register_process("ws2", 1, "a");
  keep_alive({{"ws3", "free"}, {"ws4", "free"}}, 41.0);
  ASSERT_EQ(restarted(), (std::vector<std::string>{"z", "a"}));
  // Commanded at t=40, unconfirmed past the 15 s window at the t=60 sweep,
  // retried from the stranded list at t=65.
  keep_alive({{"ws3", "free"}, {"ws4", "free"}}, 66.0);
  EXPECT_EQ(counter_value("registry.relaunches_retried"), 2.0);
  EXPECT_EQ(restarted(), (std::vector<std::string>{"z", "a", "z", "a"}));
}

TEST_F(LedgerTest, ExpiredClaimsRelaunchInClaimOrder) {
  // z starts later, so the selector moves it first: claims z, then a.  Both
  // sources deregister and no outcome ever arrives; the claims expire in
  // one sweep and relaunch in claim order (name and pid order put a first).
  build(auto_restart());
  register_host("ws1", "overloaded");
  register_host("ws2", "free");
  register_host("ws3", "free");
  register_process("ws1", 2, "z", 10.0);
  register_process("ws1", 1, "a", 5.0);
  engine_.run_until(1.0);
  consult("ws1");
  engine_.run_until(1.5);
  consult("ws1");  // z is cooling down: this one moves a
  engine_.run_until(2.0);
  const auto migrates = commands<xmlproto::MigrateCmd>();
  ASSERT_EQ(migrates.size(), 2U);
  EXPECT_EQ(migrates[0].second.process_name, "z");
  EXPECT_EQ(migrates[1].second.process_name, "a");
  deregister_process("ws1", 1);
  deregister_process("ws1", 2);
  keep_alive({{"ws1", "overloaded"}, {"ws2", "free"}, {"ws3", "free"}},
             130.0);
  EXPECT_EQ(counter_value("registry.debit_orphan_restarts"), 2.0);
  EXPECT_EQ(restarted(), (std::vector<std::string>{"z", "a"}));
}

TEST_F(LedgerTest, ExitedAckAbandonsThePendingRelaunch) {
  build({});
  register_host("ws1", "overloaded");
  register_host("ws2", "free");
  register_host("ws3", "free");
  register_process("ws1", 100, "app");
  engine_.run_until(1.0);
  // Post-commit loss: ws2 is suspect, so the relaunch goes to ws3.
  outcome("rolled-back");
  engine_.run_until(2.0);
  const auto relaunches = commands<xmlproto::RelaunchCmd>();
  ASSERT_EQ(relaunches.size(), 1U);
  EXPECT_EQ(relaunches[0].first, "ws3");
  // ws3's commander finds the process already exited normally.
  xmlproto::AckMsg ack;
  ack.of = "relaunch";
  ack.ok = false;
  ack.detail = "exited:app";
  post("ws3", ack);
  keep_alive({{"ws1", "overloaded"}, {"ws3", "free"}}, 40.0);
  EXPECT_EQ(counter_value("registry.relaunches_abandoned"), 1.0);
  EXPECT_EQ(counter_value("registry.relaunches_retried"), 0.0);
  EXPECT_TRUE(commands<xmlproto::RelaunchCmd>().empty());
  EXPECT_TRUE(registry_->stranded().empty());
}

TEST_F(LedgerTest, StrandedProcessThatRegistersAgainIsRecoveredAtNextSweep) {
  build(auto_restart());
  register_host("ws1", "busy");
  register_process("ws1", 100, "app");
  // ws1 dies with no other host: the restart is stranded at t=40.
  engine_.run_until(41.0);
  ASSERT_EQ(registry_->stranded().size(), 1U);
  // Capacity returns on ws2, and ws2's monitor reports the process alive
  // there before the next sweep could relaunch it.
  register_host("ws2", "free");
  register_process("ws2", 200, "app");
  engine_.run_until(42.0);
  ASSERT_EQ(registry_->stranded().size(), 1U);
  EXPECT_EQ(registry_->stranded()[0].name, "app");
  EXPECT_EQ(registry_->process_count(), 1U);
  engine_.run_until(46.0);  // the t=45 sweep
  EXPECT_TRUE(registry_->stranded().empty());
  EXPECT_EQ(counter_value("registry.stranded_recovered"), 1.0);
  EXPECT_TRUE(commands<xmlproto::RelaunchCmd>().empty());
}

// Bugfix regression: a registration sent before a commit (here, the
// source's delayed re-announcement) used to book the process back on the
// source.  When the destination then died, its lease expiry found nothing
// to relaunch.
TEST_F(LedgerTest, LateRegistrationDoesNotRevertACommittedMigration) {
  build(auto_restart());
  register_host("ws1", "overloaded");
  register_host("ws2", "free");
  register_host("ws3", "free");
  register_process("ws1", 1000, "app");
  engine_.run_until(1.0);
  consult("ws1");
  engine_.run_until(2.0);
  ASSERT_EQ(commands<xmlproto::MigrateCmd>().size(), 1U);
  outcome("committed");
  engine_.run_until(3.0);
  register_process("ws1", 1000, "app");
  // ws2 goes silent; ws1 and ws3 keep heartbeating.
  keep_alive({{"ws1", "overloaded"}, {"ws3", "free"}}, 64.0);
  const auto relaunches = commands<xmlproto::RelaunchCmd>();
  ASSERT_FALSE(relaunches.empty());
  EXPECT_EQ(relaunches[0].second.process_name, "app");
  EXPECT_NE(relaunches[0].first, "ws2");
}

// Bugfix regression: a lost ResizeCmd or ResizeOutcomeMsg used to leave the
// job `resizing` forever.  The claim's expiry ends it, and planning resumes.
TEST_F(LedgerTest, LostResizeOutcomeExpiresTheJobsClaim) {
  Registry::Config config;
  config.enable_resize = true;
  config.job_hosts = [](const std::string&) {
    return std::vector<std::string>{"ws1"};
  };
  build(config);
  for (const char* h : {"ws1", "ws2", "ws3", "ws4"}) {
    register_host(h, "free");
  }
  registry_->register_malleable_job("j", "ws1", 1, 1, 8);
  engine_.run_until(6.0);  // the t=5 sweep commands an expand
  const auto first = commands<xmlproto::ResizeCmd>();
  ASSERT_EQ(first.size(), 1U);
  EXPECT_EQ(first[0].second.hosts.size(), 3U);
  EXPECT_EQ(registry_->inflight_placements(), 3U);
  // No outcome ever arrives; every host keeps heartbeating.
  keep_alive({{"ws1", "free"}, {"ws2", "free"}, {"ws3", "free"},
              {"ws4", "free"}},
             200.0);
  EXPECT_EQ(counter_value("registry.placements_expired"), 3.0);
  EXPECT_FALSE(commands<xmlproto::ResizeCmd>().empty());
}

}  // namespace
}  // namespace ars::registry
