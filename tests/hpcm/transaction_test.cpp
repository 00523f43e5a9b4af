// Transactional-migration tests: per-phase timeouts, abort-and-rollback to
// the source, post-commit rollback to checkpoint-restart, outcome
// reporting, destination validation at the poll-point, and signal-span
// hygiene on crash/exit (DESIGN.md §12).

#include <memory>
#include <string>
#include <vector>

#include "ars/host/process.hpp"
#include "ars/hpcm/migration.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"

#include <gtest/gtest.h>

namespace ars::hpcm {
namespace {

using sim::Engine;
using sim::Task;

/// Same miniature workload as migration_test.cpp: accumulates `iterations`
/// compute chunks into `sum`, with a poll-point between chunks.
struct CounterApp {
  int iterations = 20;
  double chunk_work = 1.0;
  double opaque_bytes = 1.0e6;
  double final_sum = -1.0;
  std::string finished_on;
  int start_count = 0;

  MigrationEngine::MigratableApp make() {
    return [this](mpi::Proc& proc, MigrationContext& ctx) -> Task<> {
      ++start_count;
      int i = 0;
      double sum = 0.0;
      if (ctx.restored()) {
        i = static_cast<int>(*ctx.state().get_int("i"));
        sum = *ctx.state().get_double("sum");
      }
      ctx.on_save([&ctx, &i, &sum, this] {
        ctx.state().set_int("i", i);
        ctx.state().set_double("sum", sum);
        ctx.state().set_opaque("heap", static_cast<std::uint64_t>(opaque_bytes));
      });
      for (; i < iterations; ++i) {
        co_await ctx.poll_point();
        co_await proc.compute(chunk_work);
        sum += 1.0;
      }
      final_sum = sum;
      finished_on = proc.host().name();
    };
  }
};

/// A three-host cluster whose engine carries a tracer and a metrics
/// registry, so tests can tune MPI and transaction options per case.
struct Cluster {
  explicit Cluster(mpi::MpiSystem::Options mpi_options = {},
                   MigrationEngine::Options hpcm_options = {})
      : net(with_sinks(engine, tracer, metrics), net_options()),
        mpi(engine, net, mpi_options),
        hpcm(mpi, hpcm_options) {
    host::HostSpec big;
    big.name = "ws1";
    host::HostSpec little;
    little.name = "ws2";
    little.byte_order = support::ByteOrder::kLittleEndian;
    host::HostSpec third;
    third.name = "ws3";
    for (const auto& spec : {big, little, third}) {
      hosts.push_back(std::make_unique<host::Host>(engine, spec));
      net.attach(*hosts.back());
    }
  }

  static net::Network::Options net_options() {
    net::Network::Options options;
    options.latency = 0.001;
    options.bandwidth_bps = 12.5e6;
    return options;
  }

  /// The engine, with the sinks attached before anything is built on it.
  static Engine& with_sinks(Engine& engine, obs::Tracer& tracer,
                            obs::MetricsRegistry& metrics) {
    engine.attach_sinks(&tracer, &metrics);
    return engine;
  }

  /// Crash the destination when the transaction enters `phase`.  The
  /// listener must not reenter the engine inline, so the crash is
  /// scheduled as a zero-delay event (plus `extra_delay` for post-commit
  /// cases that want to hit the middle of the background restore).
  void crash_dest_at_phase(const std::string& phase, double extra_delay = 0.0) {
    crash_host_at_phase(phase, /*source=*/false, extra_delay);
  }
  /// Same, for the migration's source host.
  void crash_source_at_phase(const std::string& phase) {
    crash_host_at_phase(phase, /*source=*/true, 0.0);
  }
  void crash_host_at_phase(const std::string& phase, bool source,
                           double extra_delay) {
    hpcm.set_phase_listener(
        [this, phase, source, extra_delay](const txn::PhaseEvent& e) {
          if (e.phase != phase || crash_armed_) {
            return 0.0;
          }
          crash_armed_ = true;
          engine.schedule_after(
              extra_delay,
              [this, host = source ? e.source : e.targets.front()] {
                hpcm.crash_host(host);
              });
          return 0.0;
        });
  }

  Engine engine;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<host::Host>> hosts;
  net::Network net;
  mpi::MpiSystem mpi;
  MigrationEngine hpcm;
  bool crash_armed_ = false;
};

ApplicationSchema schema() {
  ApplicationSchema s{"counter"};
  s.set_est_exec_time(20.0);
  return s;
}

double counter_value(const obs::MetricsRegistry& metrics,
                     const std::string& name, const obs::Labels& labels = {}) {
  const obs::Counter* c = metrics.find_counter(name, labels);
  return c == nullptr ? 0.0 : c->value();
}

std::string attr_string(const obs::CompletedSpan& span, const std::string& key) {
  for (const auto& attr : span.attrs) {
    if (attr.key == key) {
      if (const auto* s = std::get_if<std::string>(&attr.value)) {
        return *s;
      }
    }
  }
  return "";
}

// ---- satellite: signal-span hygiene -------------------------------------

TEST(TransactionTest, SignalSpanClosedOnCrash) {
  Cluster c;
  CounterApp app;
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  // Signal delivered mid-chunk; the process is crashed before it reaches
  // the next poll-point, so the delivery span must be closed by the crash
  // path, not leak forever.
  c.engine.schedule_at(0.4, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.schedule_at(0.5, [&] { c.hpcm.crash(id); });
  c.engine.run_until(50.0);
  EXPECT_EQ(c.tracer.open_spans(), 0U);
  const auto spans = c.tracer.spans_named("migration.signal");
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_EQ(attr_string(spans[0], "closed_by"), "crash");
  EXPECT_EQ(c.hpcm.parked_for_relaunch(), std::vector<std::string>{"counter.0"});
}

TEST(TransactionTest, SignalSpanClosedOnExit) {
  Cluster c;
  CounterApp app;
  app.iterations = 2;
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  // Last poll-point is at ~1.0 s, exit at ~2.0 s: a signal delivered in
  // between is never polled and must be closed when the process exits.
  c.engine.schedule_at(1.5, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(50.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 2.0);
  EXPECT_EQ(app.finished_on, "ws1");
  EXPECT_TRUE(c.hpcm.history().empty());
  EXPECT_EQ(c.tracer.open_spans(), 0U);
  const auto spans = c.tracer.spans_named("migration.signal");
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_EQ(attr_string(spans[0], "closed_by"), "exit");
}

// ---- satellite: destination validation at the poll-point ----------------

TEST(TransactionTest, MalformedDestinationFileKeepsComputingOnSource) {
  Cluster c;
  CounterApp app;
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.run_until(0.5);
  const mpi::Proc* proc = c.mpi.find(id);
  ASSERT_NE(proc, nullptr);
  const host::Pid pid = proc->pid();
  const std::string key = "hpcm.migrate." + std::to_string(pid);
  // A commander bug or corrupted temp file must not start (or crash) the
  // protocol: validate up front, count it, keep computing on the source.
  const std::vector<std::string> garbage = {"", "   \t ", "ws2:abc",
                                            ":5002", "ws 2"};
  double when = 2.5;
  for (const auto& raw : garbage) {
    c.engine.schedule_at(when, [&c, key, pid, raw] {
      c.hosts[0]->tmpfiles().write(key, raw);
      EXPECT_TRUE(c.hosts[0]->processes().raise(pid, host::kSigMigrate));
    });
    when += 2.0;
  }
  c.engine.run_until(100.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws1");
  EXPECT_TRUE(c.hpcm.history().empty());
  EXPECT_EQ(counter_value(c.metrics, "migration.bad_destination"),
            static_cast<double>(garbage.size()));
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

TEST(TransactionTest, UnknownDestinationCountsBadDestination) {
  Cluster c;
  CounterApp app;
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(0.5, [&] {
    EXPECT_TRUE(c.hpcm.request_migration(id, "ghost-host"));
  });
  c.engine.run_until(100.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws1");
  EXPECT_TRUE(c.hpcm.history().empty());
  EXPECT_EQ(counter_value(c.metrics, "migration.bad_destination"), 1.0);
}

TEST(TransactionTest, PortSuffixedDestinationIsAccepted) {
  Cluster c;
  CounterApp app;
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.run_until(0.5);
  const mpi::Proc* proc = c.mpi.find(id);
  ASSERT_NE(proc, nullptr);
  const host::Pid pid = proc->pid();
  c.engine.schedule_at(2.5, [&c, pid] {
    // "host:port" with surrounding whitespace is the commander's native
    // temp-file format; the numeric port is validated then dropped.
    c.hosts[0]->tmpfiles().write("hpcm.migrate." + std::to_string(pid),
                                 "  ws2:5002 ");
    c.hosts[0]->processes().raise(pid, host::kSigMigrate);
  });
  c.engine.run_until(200.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws2");
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_TRUE(c.hpcm.history()[0].succeeded);
  EXPECT_EQ(counter_value(c.metrics, "migration.bad_destination"), 0.0);
}

// ---- tentpole: abort-and-rollback before the commit point ---------------

TEST(TransactionTest, CommittedOutcomeIsReported) {
  Cluster c;
  CounterApp app;
  std::vector<MigrationTimeline> outcomes;
  c.hpcm.set_outcome_listener(
      [&](const MigrationTimeline& o) { outcomes.push_back(o); });
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(200.0);
  EXPECT_EQ(app.finished_on, "ws2");
  ASSERT_EQ(outcomes.size(), 1U);
  EXPECT_EQ(outcomes[0].process, "counter.0");
  EXPECT_EQ(outcomes[0].source, "ws1");
  EXPECT_EQ(outcomes[0].destination, "ws2");
  EXPECT_EQ(outcomes[0].outcome, "committed");
  EXPECT_TRUE(outcomes[0].abort_reason.empty());
  EXPECT_TRUE(outcomes[0].abort_phase.empty());
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "committed");
}

TEST(TransactionTest, DestCrashDuringInitAbortsToSource) {
  Cluster c;
  CounterApp app;
  std::vector<MigrationTimeline> outcomes;
  c.hpcm.set_outcome_listener(
      [&](const MigrationTimeline& o) { outcomes.push_back(o); });
  c.crash_dest_at_phase("init");
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(200.0);
  // The source stayed authoritative: no iterations lost, no restart.
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws1");
  EXPECT_EQ(app.start_count, 1);
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  const MigrationTimeline& t = c.hpcm.history()[0];
  EXPECT_FALSE(t.succeeded);
  EXPECT_EQ(t.outcome, "aborted");
  EXPECT_EQ(t.abort_reason, "dest-failed");
  EXPECT_EQ(t.abort_phase, "init");
  ASSERT_EQ(outcomes.size(), 1U);
  EXPECT_EQ(outcomes[0].outcome, "aborted");
  EXPECT_EQ(outcomes[0].abort_reason, "dest-failed");
  EXPECT_EQ(counter_value(c.metrics, "migration.aborts",
                          {{"reason", "dest-failed"}}),
            1.0);
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

TEST(TransactionTest, DestCrashDuringAckAbortsToSource) {
  Cluster c;
  CounterApp app;
  c.crash_dest_at_phase("ack");
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(200.0);
  // The crash landed before the resume ACK — still pre-commit, so the
  // process rolls back to source execution with its state intact.
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws1");
  EXPECT_EQ(app.start_count, 1);
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "aborted");
  EXPECT_EQ(c.hpcm.history()[0].abort_reason, "dest-failed");
  EXPECT_EQ(c.hpcm.history()[0].abort_phase, "ack");
}

TEST(TransactionTest, InitTimeoutAbortsToSource) {
  mpi::MpiSystem::Options slow_spawn;
  slow_spawn.spawn_overhead = 50.0;  // far beyond the phase budget
  MigrationEngine::Options options;
  options.init_timeout = 2.0;
  Cluster c(slow_spawn, options);
  CounterApp app;
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(300.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws1");
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "aborted");
  EXPECT_EQ(c.hpcm.history()[0].abort_reason, "init-timeout");
  EXPECT_EQ(counter_value(c.metrics, "migration.aborts",
                          {{"reason", "init-timeout"}}),
            1.0);
}

TEST(TransactionTest, EagerTimeoutAbortsToSource) {
  MigrationEngine::Options options;
  options.eager_bytes = 10.0e6;  // ~0.8 s of eager transfer...
  options.eager_timeout = 0.1;   // ...into a 100 ms budget
  Cluster c({}, options);
  CounterApp app;
  app.opaque_bytes = 20.0e6;  // enough state to fill the eager window
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(300.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws1");
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "aborted");
  EXPECT_EQ(c.hpcm.history()[0].abort_reason, "eager-timeout");
}

TEST(TransactionTest, AckTimeoutAbortsToSource) {
  MigrationEngine::Options options;
  options.ack_timeout = 0.5;  // smaller than the 1 s restore before the ACK
  Cluster c({}, options);
  CounterApp app;
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(300.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws1");
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "aborted");
  EXPECT_EQ(c.hpcm.history()[0].abort_reason, "ack-timeout");
  EXPECT_EQ(c.hpcm.history()[0].abort_phase, "ack");
}

// ---- tentpole: post-commit rollback to checkpoint-restart ---------------

TEST(TransactionTest, PostCommitDestCrashRollsBackToRelaunch) {
  Cluster c;
  CounterApp app;
  app.opaque_bytes = 50.0e6;  // ~4 s of background restore after resume
  std::vector<MigrationTimeline> outcomes;
  c.hpcm.set_outcome_listener(
      [&](const MigrationTimeline& o) { outcomes.push_back(o); });
  c.crash_dest_at_phase("restore", /*extra_delay=*/1.0);
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(60.0);
  // The destination died after the commit point: the transaction must be
  // rolled back (not silently lost) and the process parked for relaunch.
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "rolled-back");
  EXPECT_EQ(c.hpcm.history()[0].abort_reason, "restore-interrupted");
  ASSERT_EQ(outcomes.size(), 1U);
  EXPECT_EQ(outcomes[0].outcome, "rolled-back");
  EXPECT_EQ(c.hpcm.parked_for_relaunch(), std::vector<std::string>{"counter.0"});
  EXPECT_EQ(counter_value(c.metrics, "migration.rollbacks"), 1.0);
  // Checkpoint-restart path: relaunch elsewhere and run to completion (no
  // checkpoint exists, so this restarts from scratch — partial results
  // lost, process preserved).
  EXPECT_NE(c.hpcm.relaunch("counter.0", "ws3"), 0U);
  c.engine.run_until(200.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws3");
  EXPECT_EQ(app.start_count, 3);  // source + resumed-on-dest + relaunch
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

// ---- sabotage knob: prove the rollback is load-bearing ------------------

TEST(TransactionTest, SabotageSkipRollbackLosesTheProcess) {
  MigrationEngine::Options options;
  options.sabotage_skip_rollback = true;
  Cluster c({}, options);
  CounterApp app;
  c.crash_dest_at_phase("init");
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(200.0);
  // With the rollback skipped, the aborted migration loses the logical
  // process: it never finishes, is gone from MPI, and is NOT parked — the
  // exact bug class the chaos no-lost-process invariant exists to catch.
  EXPECT_DOUBLE_EQ(app.final_sum, -1.0);
  EXPECT_EQ(c.mpi.find(id), nullptr);
  EXPECT_TRUE(c.hpcm.parked_for_relaunch().empty());
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "aborted");
}

// ---- one record per transaction: every end closes what it opened --------

/// The source host dies while the transaction runs `phase`: one aborted
/// outcome, the process parked for relaunch, the destination helper gone
/// and no span left open — including the span of the frozen phase the
/// killed source was waiting in.
class SourceCrashTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SourceCrashTest, AbortsOnceAndClosesEverySpan) {
  const std::string phase = GetParam();
  MigrationEngine::Options options;
  options.precopy = phase == "precopy";
  Cluster c({}, options);
  CounterApp app;
  std::vector<MigrationTimeline> outcomes;
  c.hpcm.set_outcome_listener(
      [&](const MigrationTimeline& o) { outcomes.push_back(o); });
  c.crash_source_at_phase(phase);
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(200.0);
  ASSERT_EQ(outcomes.size(), 1U);
  EXPECT_EQ(outcomes[0].outcome, "aborted");
  EXPECT_EQ(outcomes[0].abort_reason, "source-crashed");
  EXPECT_EQ(outcomes[0].abort_phase, phase);
  EXPECT_EQ(c.hpcm.parked_for_relaunch(), std::vector<std::string>{"counter.0"});
  EXPECT_EQ(c.mpi.live_procs(), 0U);  // no helper outlives the abort
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

INSTANTIATE_TEST_SUITE_P(Phases, SourceCrashTest,
                         ::testing::Values("init", "eager", "ack", "precopy"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(TransactionTest, RelocatedCrashDuringRestoreRollsBack) {
  Cluster c;
  CounterApp app;
  app.opaque_bytes = 50.0e6;  // ~4 s of background restore after resume
  std::vector<MigrationTimeline> outcomes;
  c.hpcm.set_outcome_listener(
      [&](const MigrationTimeline& o) { outcomes.push_back(o); });
  mpi::RankId id = 0;
  bool armed = false;
  c.hpcm.set_phase_listener([&](const txn::PhaseEvent& e) {
    if (e.phase == "restore" && !armed) {
      armed = true;
      c.engine.schedule_after(1.0, [&] {
        ASSERT_EQ(c.net.active_transfers(), 1U);  // the bulk collector
        EXPECT_TRUE(c.hpcm.crash(id));
        EXPECT_EQ(c.net.active_transfers(), 0U);  // ... killed with it
      });
    }
    return 0.0;
  });
  id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(60.0);
  ASSERT_TRUE(armed);
  ASSERT_EQ(outcomes.size(), 1U);
  EXPECT_EQ(outcomes[0].outcome, "rolled-back");
  EXPECT_EQ(outcomes[0].abort_reason, "restore-interrupted");
  EXPECT_EQ(c.hpcm.parked_for_relaunch(), std::vector<std::string>{"counter.0"});
  EXPECT_EQ(counter_value(c.metrics, "migration.rollbacks"), 1.0);
  EXPECT_EQ(c.mpi.live_procs(), 0U);
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

TEST(TransactionTest, AbortDropsPreInitializedDaemonAndNextMigrationSpawns) {
  Cluster c;
  CounterApp app;
  app.iterations = 60;
  c.hpcm.pre_initialize_on("ws2");
  bool stalled = false;
  c.hpcm.set_phase_listener([&](const txn::PhaseEvent& e) {
    if (e.phase != "ack" || stalled) {
      return 0.0;
    }
    stalled = true;
    return 20.0;  // holds the ack body past ack_timeout (10 s)
  });
  const mpi::RankId id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.run_until(1.0);
  ASSERT_TRUE(c.hpcm.has_pre_initialized("ws2"));
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(30.0);
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "aborted");
  EXPECT_EQ(c.hpcm.history()[0].abort_reason, "ack-timeout");
  // The daemon was wedged mid-protocol: dropped, not reused.
  EXPECT_FALSE(c.hpcm.has_pre_initialized("ws2"));
  EXPECT_TRUE(c.hpcm.request_migration(id, "ws2"));
  c.engine.run_until(300.0);
  ASSERT_EQ(c.hpcm.history().size(), 2U);
  EXPECT_EQ(c.hpcm.history()[1].outcome, "committed");
  EXPECT_EQ(app.finished_on, "ws2");
  const auto spawns = c.tracer.spans_named("migration.spawn");
  ASSERT_EQ(spawns.size(), 2U);
  EXPECT_EQ(attr_string(spawns[0], "mechanism"),
            "connect (pre-initialized daemon)");
  EXPECT_EQ(attr_string(spawns[1], "mechanism"), "MPI_Comm_spawn");
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

TEST(TransactionTest, RequestDuringBackgroundRestoreIsDropped) {
  Cluster c;
  CounterApp app;
  app.opaque_bytes = 50.0e6;  // ~4 s of background restore after resume
  mpi::RankId id = 0;
  bool requested = false;
  c.hpcm.set_phase_listener([&](const txn::PhaseEvent& e) {
    if (e.phase == "restore" && !requested) {
      requested = true;
      c.engine.schedule_after(0.5, [&] {
        EXPECT_TRUE(c.hpcm.request_migration(id, "ws3"));
      });
    }
    return 0.0;
  });
  id = c.hpcm.launch("ws1", app.make(), "counter", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(200.0);
  // One open transaction per process: the resumed app polls the second
  // request while the first still restores, and drops it.
  ASSERT_TRUE(requested);
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "committed");
  EXPECT_DOUBLE_EQ(app.final_sum, 20.0);
  EXPECT_EQ(app.finished_on, "ws2");
  const auto signals = c.tracer.spans_named("migration.signal");
  ASSERT_EQ(signals.size(), 2U);
  EXPECT_EQ(attr_string(signals[1], "closed_by"), "superseded-by-restore");
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

}  // namespace
}  // namespace ars::hpcm
