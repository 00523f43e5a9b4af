// Registry side of the transactional-migration feedback loop (DESIGN.md
// §12): every commanded migration debits an in-flight placement; the
// commander's MigrationOutcomeMsg credits it back, marks failed
// destinations suspect with a re-admission backoff, re-plans aborts, and
// commands a checkpoint-restart for post-commit (rolled-back) losses.

#include <set>
#include <string>

#include "ars/obs/metrics.hpp"
#include "ars/registry/registry.hpp"

#include <gtest/gtest.h>

namespace ars::registry {
namespace {

using rules::SystemState;
using sim::Engine;

class OutcomeFeedbackTest : public ::testing::Test {
 protected:
  void build(Registry::Config config) {
    engine_.attach_sinks(nullptr, &metrics_);
    for (const char* name : {"hub", "ws1", "ws2", "ws3"}) {
      host::HostSpec s;
      s.name = name;
      hosts_.push_back(std::make_unique<host::Host>(engine_, s));
      net_.attach(*hosts_.back());
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

  void register_host(const std::string& name, const std::string& state = "free",
                     double load1 = 0.2, int processes = 60) {
    xmlproto::RegisterMsg reg;
    reg.info.host = name;
    reg.info.cpu_speed = 1.0;
    reg.commander_port = 6000;
    post(name, reg);
    heartbeat(name, state, load1, processes);
  }

  void heartbeat(const std::string& name, const std::string& state = "free",
                 double load1 = 0.2, int processes = 60) {
    xmlproto::UpdateMsg update;
    update.status.host = name;
    update.status.state = state;
    update.status.load1 = load1;
    update.status.processes = processes;
    update.status.timestamp = engine_.now();
    post(name, update);
  }

  void register_process(const std::string& host, int pid,
                        const std::string& name) {
    xmlproto::ProcessRegisterMsg msg;
    msg.host = host;
    msg.pid = pid;
    msg.name = name;
    msg.migration_enabled = true;
    post(host, msg);
  }

  /// The overloaded-ws1 + free-ws2/ws3 setup every test starts from, with
  /// one migratable process and a captured commander endpoint per host.
  void overloaded_source() {
    for (const char* h : {"ws1", "ws2", "ws3"}) {
      commanders_[h] = &net_.bind(h, 6000);
    }
    register_host("ws1", "overloaded", 2.8, 160);
    register_host("ws2");
    register_host("ws3");
    register_process("ws1", 100, "app");
    engine_.run_until(1.0);
  }

  void consult() {
    xmlproto::ConsultMsg m;
    m.host = "ws1";
    m.reason = "load1>2";
    post("ws1", m);
  }

  /// Outcome report as the source commander would send it.
  xmlproto::MigrationOutcomeMsg outcome_msg(const std::string& outcome,
                                            const std::string& reason = "",
                                            const std::string& phase = "") {
    xmlproto::MigrationOutcomeMsg m;
    m.process = "app";
    m.source = "ws1";
    m.destination = "ws2";
    m.outcome = outcome;
    m.reason = reason;
    m.phase = phase;
    return m;
  }

  /// Drain every captured commander inbox; returns decoded messages of T.
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

  double counter_value(const std::string& name,
                       const obs::Labels& labels = {}) {
    const obs::Counter* c = metrics_.find_counter(name, labels);
    return c == nullptr ? 0.0 : c->value();
  }

  double gauge_value(const std::string& name) {
    const obs::Gauge* g = metrics_.find_gauge(name);
    return g == nullptr ? 0.0 : g->value();
  }

  Engine engine_;
  net::Network net_{engine_};
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::map<std::string, net::Endpoint*> commanders_;
  std::unique_ptr<Registry> registry_;
};

TEST_F(OutcomeFeedbackTest, MigrateCommandDebitsPlacement) {
  build({});
  overloaded_source();
  consult();
  engine_.run_until(2.0);
  const auto migrates = commands<xmlproto::MigrateCmd>();
  ASSERT_EQ(migrates.size(), 1U);
  EXPECT_EQ(migrates[0].first, "ws1");
  EXPECT_EQ(migrates[0].second.dest_host, "ws2");  // first fit
  EXPECT_EQ(registry_->inflight_placements(), 1U);
  EXPECT_EQ(gauge_value("registry.placements_inflight"), 1.0);
}

TEST_F(OutcomeFeedbackTest, AbortCreditsDebitSuspectsDestAndReplans) {
  build({});
  overloaded_source();
  consult();
  engine_.run_until(2.0);
  ASSERT_EQ(registry_->inflight_placements(), 1U);
  (void)commands<xmlproto::MigrateCmd>();  // drain the first command

  post("ws1", outcome_msg("aborted", "dest-failed", "init"));
  engine_.run_until(4.0);
  // The in-flight debit is credited back...
  EXPECT_EQ(counter_value("registry.placements_credited"), 1.0);
  EXPECT_EQ(counter_value("registry.migration_outcomes",
                          {{"outcome", "aborted"}}),
            1.0);
  // ...the failed destination is suspect...
  EXPECT_EQ(counter_value("registry.hosts_suspected"), 1.0);
  // ...and the immediate re-plan routed around it: a fresh MigrateCmd to
  // ws3, which holds the (single) new in-flight debit.
  const auto replanned = commands<xmlproto::MigrateCmd>();
  ASSERT_EQ(replanned.size(), 1U);
  EXPECT_EQ(replanned[0].second.dest_host, "ws3");
  EXPECT_EQ(registry_->inflight_placements(), 1U);
}

TEST_F(OutcomeFeedbackTest, SuspectDestinationReadmittedAfterBackoff) {
  build({});
  overloaded_source();
  ASSERT_EQ(registry_->choose_destination("ws1", ""), "ws2");
  // No in-flight debit needed: a stray outcome still applies the backoff.
  post("ws1", outcome_msg("aborted", "dest-failed", "eager"));
  engine_.run_until(2.0);
  EXPECT_EQ(registry_->choose_destination("ws1", ""), "ws3");
  // Past the 30 s backoff (with live leases) ws2 is first-fit eligible
  // again.
  engine_.run_until(32.0);
  heartbeat("ws2");
  heartbeat("ws3");
  engine_.run_until(33.0);
  EXPECT_EQ(registry_->choose_destination("ws1", ""), "ws2");
}

TEST_F(OutcomeFeedbackTest, CommittedOutcomeOnlyCredits) {
  build({});
  overloaded_source();
  consult();
  engine_.run_until(2.0);
  (void)commands<xmlproto::MigrateCmd>();
  post("ws1", outcome_msg("committed"));
  engine_.run_until(4.0);
  EXPECT_EQ(registry_->inflight_placements(), 0U);
  EXPECT_EQ(counter_value("registry.placements_credited"), 1.0);
  EXPECT_EQ(gauge_value("registry.placements_inflight"), 0.0);
  EXPECT_EQ(counter_value("registry.hosts_suspected"), 0.0);
  // No re-plan, and ws2 is still a destination.
  EXPECT_TRUE(commands<xmlproto::MigrateCmd>().empty());
  EXPECT_EQ(registry_->choose_destination("ws1", ""), "ws2");
}

TEST_F(OutcomeFeedbackTest, RolledBackOutcomeCommandsCheckpointRestart) {
  build({});
  overloaded_source();
  ASSERT_EQ(registry_->process_count(), 1U);
  // Post-commit destination loss: the registry still lists the process on
  // the live source (the dead destination's monitor never reported the
  // arrival), so no lease will ever lapse for it — the restart must be
  // commanded directly.
  post("ws1", outcome_msg("rolled-back", "restore-interrupted", "restore"));
  engine_.run_until(3.0);
  EXPECT_EQ(counter_value("registry.rollback_restarts"), 1.0);
  EXPECT_EQ(registry_->process_count(), 0U);  // stale entry dropped
  const auto relaunches = commands<xmlproto::RelaunchCmd>();
  ASSERT_EQ(relaunches.size(), 1U);
  EXPECT_EQ(relaunches[0].second.process_name, "app");
  // ws2 (the failed destination) is suspect; the relaunch goes elsewhere.
  EXPECT_NE(relaunches[0].first, "ws2");
}

TEST_F(OutcomeFeedbackTest, UnconfirmedRelaunchIsRetried) {
  build({});
  overloaded_source();
  post("ws1", outcome_msg("rolled-back", "restore-interrupted", "restore"));
  engine_.run_until(3.0);
  ASSERT_EQ(commands<xmlproto::RelaunchCmd>().size(), 1U);
  // Nobody confirms the relaunch (the RelaunchCmd could have been lost on
  // the wire): past relaunch_confirm_ttl the registry re-parks and
  // retries it.
  engine_.run_until(30.0);
  EXPECT_GE(counter_value("registry.relaunches_retried"), 1.0);
  EXPECT_FALSE(commands<xmlproto::RelaunchCmd>().empty());
}

TEST_F(OutcomeFeedbackTest, ConfirmedRelaunchIsNotRetried) {
  build({});
  overloaded_source();
  post("ws1", outcome_msg("rolled-back", "restore-interrupted", "restore"));
  engine_.run_until(3.0);
  const auto relaunches = commands<xmlproto::RelaunchCmd>();
  ASSERT_EQ(relaunches.size(), 1U);
  // The destination monitor re-reports the relaunched process: confirmed,
  // never retried.
  register_process(relaunches[0].first, 2000, "app");
  engine_.run_until(40.0);
  EXPECT_EQ(counter_value("registry.relaunches_retried"), 0.0);
  EXPECT_TRUE(commands<xmlproto::RelaunchCmd>().empty());
  EXPECT_EQ(registry_->process_count(), 1U);
}

TEST_F(OutcomeFeedbackTest,
       CommittedOutcomeRebuildsTheEntryWhenRegistrationWasLost) {
  Registry::Config config;
  config.auto_restart = true;
  build(config);
  overloaded_source();
  consult();
  engine_.run_until(2.0);
  (void)commands<xmlproto::MigrateCmd>();
  // Worst-case bookkeeping race: the source monitor deregisters the
  // migrated-away process before the commit report arrives, and the
  // destination's own ProcessRegisterMsg is lost on the wire.  Without
  // the commit-time re-key the process would be on nobody's books.
  xmlproto::ProcessDeregisterMsg dereg;
  dereg.host = "ws1";
  dereg.pid = 100;
  post("ws1", dereg);
  engine_.run_until(3.0);
  ASSERT_EQ(registry_->process_count(), 0U);
  post("ws1", outcome_msg("committed"));
  engine_.run_until(4.0);
  // The commit outcome rebuilt the entry on the destination's books.
  EXPECT_EQ(registry_->process_count(), 1U);
  // ws2 dies silently; the lease lapse must still relaunch the process
  // even though ws2's monitor never managed to report it.
  for (double t = 8.0; t <= 64.0; t += 4.0) {
    engine_.run_until(t);
    heartbeat("ws1", "overloaded", 2.8, 160);
    heartbeat("ws3");
  }
  const auto relaunches = commands<xmlproto::RelaunchCmd>();
  ASSERT_GE(relaunches.size(), 1U);  // >1: unconfirmed-relaunch retries
  EXPECT_EQ(relaunches[0].second.process_name, "app");
  EXPECT_NE(relaunches[0].first, "ws2");
}

TEST_F(OutcomeFeedbackTest, ExpiredDebitWithNoBookEntryRelaunches) {
  // Total information loss: the outcome report AND the destination's
  // registration both vanish, the source deregisters, and every host
  // stays healthy — so no lease ever expires for the process.  The
  // expired placement debit is the only remaining witness that the
  // migration happened; its expiry must trigger the relaunch.  The second
  // process's name starts with "resize:", which must not matter: it is a
  // process like any other and is relaunched too.
  Registry::Config config;
  config.auto_restart = true;
  build(config);
  overloaded_source();
  register_process("ws1", 101, "resize:x");
  engine_.run_until(1.5);
  consult();
  engine_.run_until(2.0);
  consult();  // the first process is cooling down: this one moves the other
  engine_.run_until(2.5);
  ASSERT_EQ(commands<xmlproto::MigrateCmd>().size(), 2U);
  for (const int pid : {100, 101}) {
    xmlproto::ProcessDeregisterMsg dereg;
    dereg.host = "ws1";
    dereg.pid = pid;
    post("ws1", dereg);
  }
  engine_.run_until(3.0);
  ASSERT_EQ(registry_->process_count(), 0U);
  ASSERT_EQ(registry_->inflight_placements(), 2U);
  // Everyone keeps heartbeating through the debit TTL (120 s).
  for (double t = 8.0; t <= 140.0; t += 4.0) {
    engine_.run_until(t);
    heartbeat("ws1", "overloaded", 2.8, 160);
    heartbeat("ws2");
    heartbeat("ws3");
  }
  EXPECT_EQ(counter_value("registry.debit_orphan_restarts"), 2.0);
  std::set<std::string> relaunched;
  for (const auto& [host, relaunch] : commands<xmlproto::RelaunchCmd>()) {
    EXPECT_NE(host, "ws1");  // overloaded source not eligible
    relaunched.insert(relaunch.process_name);
  }
  EXPECT_EQ(relaunched, (std::set<std::string>{"app", "resize:x"}));
}

TEST_F(OutcomeFeedbackTest, ResizeOutcomeCreditsOnlyItsOwnJob) {
  // Jobs "j" and "j:2" each expand onto one free host.  The outcome for
  // "j" credits j's target debit only — a name-prefix match on "j:" would
  // also take the debit of "j:2", whose expand is still in flight.
  Registry::Config config;
  config.enable_resize = true;
  config.resize_cooldown = 1.0;
  config.job_hosts = [](const std::string& job) {
    return std::vector<std::string>{job == "j" ? "ws1" : "ws2"};
  };
  build(config);
  for (const char* h : {"ws1", "ws2"}) {
    commanders_[h] = &net_.bind(h, 6000);
  }
  for (const char* h : {"hub", "ws1", "ws2", "ws3"}) {
    register_host(h);
  }
  registry_->register_malleable_job("j", "ws1", 1, 1, 2);
  registry_->register_malleable_job("j:2", "ws2", 1, 1, 2);
  engine_.run_until(6.0);  // one sweep plans both expands
  ASSERT_EQ(commands<xmlproto::ResizeCmd>().size(), 2U);
  ASSERT_EQ(registry_->inflight_placements(), 2U);
  xmlproto::ResizeOutcomeMsg done;
  done.job = "j";
  done.verb = "expand";
  done.delta = 1;
  done.outcome = "committed";
  done.ranks_after = 2;
  post("ws1", done);
  engine_.run_until(7.0);
  EXPECT_EQ(registry_->inflight_placements(), 1U);
  EXPECT_EQ(counter_value("registry.placements_credited"), 1.0);
}

TEST_F(OutcomeFeedbackTest, SilentOutcomeDebitExpiresAfterTtl) {
  build({});
  overloaded_source();
  consult();
  engine_.run_until(2.0);
  ASSERT_EQ(registry_->inflight_placements(), 1U);
  // The source commander dies before reporting: the sweeper drops the
  // debit after the 120 s TTL so the destination's capacity is not leaked.
  engine_.run_until(130.0);
  EXPECT_EQ(registry_->inflight_placements(), 0U);
  EXPECT_EQ(counter_value("registry.placements_expired"), 1.0);
  EXPECT_EQ(counter_value("registry.placements_credited"), 0.0);
  EXPECT_EQ(gauge_value("registry.placements_inflight"), 0.0);
}

}  // namespace
}  // namespace ars::registry
