// Iterative pre-copy migration tests: multi-round convergence, the ≥5×
// freeze-window reduction vs. stop-and-copy, tombstone propagation for
// erase() racing the in-flight rounds, and the transactional semantics of
// DESIGN.md §12 surviving the overlap (abort-to-source pre-commit, rollback
// post-commit, per-round stall/crash fault hooks).

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

/// A workload with enough *encoded* state to make stop-and-copy hurt: a set
/// of 256 KiB double-vector blocks, a few of which are rewritten between
/// poll-points — the write set pre-copy must chase.
struct BlockApp {
  static constexpr int kBlockDoubles = 32 * 1024;  // 256 KiB per block

  int iterations = 30;
  int blocks = 8;
  int dirty_per_iter = 1;
  double chunk_work = 1.0;
  int erase_at = -1;  // erase the "tmp" entry at this iteration (-1: never)

  double final_sum = -1.0;
  std::string finished_on;
  int start_count = 0;
  bool was_restored = false;
  bool restored_contains_tmp = false;

  MigrationEngine::MigratableApp make() {
    return [this](mpi::Proc& proc, MigrationContext& ctx) -> Task<> {
      ++start_count;
      int i = 0;
      double sum = 0.0;
      bool tmp_live = true;
      std::vector<std::vector<double>> data(
          static_cast<std::size_t>(blocks),
          std::vector<double>(kBlockDoubles, 0.0));
      if (ctx.restored()) {
        was_restored = true;
        restored_contains_tmp = ctx.state().contains("tmp");
        tmp_live = restored_contains_tmp;
        i = static_cast<int>(*ctx.state().get_int("i"));
        sum = *ctx.state().get_double("sum");
        for (int b = 0; b < blocks; ++b) {
          data[static_cast<std::size_t>(b)] =
              *ctx.state().get_doubles("block" + std::to_string(b));
        }
      }
      ctx.on_save([this, &ctx, &i, &sum, &tmp_live, &data] {
        ctx.state().set_int("i", i);
        ctx.state().set_double("sum", sum);
        if (tmp_live) {
          ctx.state().set_string("tmp", "scratch");
        }
        // Re-registering every block each save is the precompiler-style
        // idiom; value-identical blocks must not re-dirty.
        for (int b = 0; b < blocks; ++b) {
          ctx.state().set_doubles("block" + std::to_string(b),
                                  data[static_cast<std::size_t>(b)]);
        }
      });
      for (; i < iterations; ++i) {
        co_await ctx.poll_point();
        if (i == erase_at && tmp_live) {
          ctx.state().erase("tmp");
          tmp_live = false;
        }
        co_await proc.compute(chunk_work);
        for (int d = 0; d < dirty_per_iter; ++d) {
          auto& block =
              data[static_cast<std::size_t>((i + d) % blocks)];
          block[0] += 1.0;
        }
        sum += 1.0;
      }
      final_sum = sum;
      finished_on = proc.host().name();
    };
  }
};

struct Cluster {
  explicit Cluster(MigrationEngine::Options hpcm_options = {})
      : net(with_sinks(engine, tracer, metrics), net_options()),
        mpi(engine, net),
        hpcm(mpi, hpcm_options) {
    for (const char* name : {"ws1", "ws2", "ws3"}) {
      host::HostSpec spec;
      spec.name = name;
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

  void crash_dest_at_phase(const std::string& phase,
                           double extra_delay = 0.0) {
    hpcm.set_phase_listener(
        [this, phase, extra_delay](const txn::PhaseEvent& e) {
          if (e.phase != phase || crash_armed_) {
            return 0.0;
          }
          crash_armed_ = true;
          engine.schedule_after(extra_delay, [this, dest = e.targets.front()] {
            hpcm.crash_host(dest);
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
  ApplicationSchema s{"blockapp"};
  s.set_est_exec_time(30.0);
  return s;
}

double counter_value(const obs::MetricsRegistry& metrics,
                     const std::string& name,
                     const obs::Labels& labels = {}) {
  const obs::Counter* c = metrics.find_counter(name, labels);
  return c == nullptr ? 0.0 : c->value();
}

MigrationEngine::Options precopy_options() {
  MigrationEngine::Options options;
  options.precopy = true;
  return options;
}

// ---- tentpole: multi-round pre-copy commits ------------------------------

TEST(PrecopyTest, ConvergesOverRoundsAndCommits) {
  Cluster c(precopy_options());
  BlockApp app;
  app.blocks = 32;  // 8 MiB encoded state
  app.dirty_per_iter = 1;
  const mpi::RankId id =
      c.hpcm.launch("ws1", app.make(), "blockapp", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(300.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 30.0);
  EXPECT_EQ(app.finished_on, "ws2");
  EXPECT_TRUE(app.was_restored);
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  const MigrationTimeline& t = c.hpcm.history()[0];
  EXPECT_TRUE(t.succeeded);
  EXPECT_EQ(t.outcome, "committed");
  EXPECT_GE(t.precopy_rounds, 1);
  EXPECT_GT(t.precopy_bytes, 8.0e6);  // at least the round-0 snapshot
  // The freeze opened strictly after the poll-point: rounds overlapped
  // execution.
  EXPECT_GT(t.freeze_begin_at, t.poll_point_at + 0.5);
  EXPECT_LT(t.freeze_window(), 0.5);
  // One umbrella pre-copy span, no stop-the-world spawn span.
  EXPECT_EQ(c.tracer.spans_named("migration.precopy").size(), 1U);
  EXPECT_TRUE(c.tracer.spans_named("migration.spawn").empty());
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

TEST(PrecopyTest, FreezeWindowAtLeastFiveTimesSmallerThanStopAndCopy) {
  const auto run = [](bool precopy) {
    MigrationEngine::Options options;
    options.precopy = precopy;
    Cluster c(options);
    BlockApp app;
    app.blocks = 32;
    app.dirty_per_iter = 1;
    const mpi::RankId id =
        c.hpcm.launch("ws1", app.make(), "blockapp", schema());
    c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
    c.engine.run_until(300.0);
    EXPECT_EQ(app.finished_on, "ws2");
    EXPECT_EQ(c.hpcm.history().size(), 1U);
    EXPECT_EQ(c.hpcm.history()[0].outcome, "committed");
    return c.hpcm.history()[0].freeze_window();
  };
  const double stop_and_copy = run(false);
  const double precopy = run(true);
  ASSERT_GT(precopy, 0.0);
  EXPECT_GE(stop_and_copy / precopy, 5.0)
      << "stop-and-copy froze " << stop_and_copy << " s, pre-copy "
      << precopy << " s";
}

// ---- satellite: erase() racing in-flight rounds --------------------------

TEST(PrecopyTest, EntryErasedMidMigrationIsAbsentAfterRestore) {
  MigrationEngine::Options options = precopy_options();
  options.precopy_max_rounds = 20;
  Cluster c(options);
  BlockApp app;
  app.blocks = 8;
  app.dirty_per_iter = 2;  // ~25% dirty per round: convergence chases it
  app.erase_at = 9;        // well inside the pre-copy window
  const mpi::RankId id =
      c.hpcm.launch("ws1", app.make(), "blockapp", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(300.0);
  EXPECT_EQ(app.finished_on, "ws2");
  EXPECT_TRUE(app.was_restored);
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  const MigrationTimeline& t = c.hpcm.history()[0];
  EXPECT_EQ(t.outcome, "committed");
  // Round 0 shipped "tmp"; the erase at iteration 9 raced the rounds.  The
  // tombstone in a later (or the final) delta must prevent resurrection.
  EXPECT_GE(t.precopy_rounds, 2);
  EXPECT_FALSE(app.restored_contains_tmp);
  EXPECT_DOUBLE_EQ(app.final_sum, 30.0);
}

// ---- transactional semantics survive the overlap -------------------------

TEST(PrecopyTest, DestCrashMidRoundAbortsToSource) {
  Cluster c(precopy_options());
  BlockApp app;
  app.blocks = 32;
  std::vector<MigrationTimeline> outcomes;
  c.hpcm.set_outcome_listener(
      [&](const MigrationTimeline& o) { outcomes.push_back(o); });
  c.crash_dest_at_phase("precopy");
  const mpi::RankId id =
      c.hpcm.launch("ws1", app.make(), "blockapp", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(300.0);
  // Pre-ACK failure: every pre-copied round is discarded and the source
  // keeps computing with its state intact — no restart, no lost work.
  EXPECT_DOUBLE_EQ(app.final_sum, 30.0);
  EXPECT_EQ(app.finished_on, "ws1");
  EXPECT_EQ(app.start_count, 1);
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  const MigrationTimeline& t = c.hpcm.history()[0];
  EXPECT_EQ(t.outcome, "aborted");
  EXPECT_EQ(t.abort_reason, "dest-failed");
  EXPECT_EQ(t.abort_phase, "precopy");
  ASSERT_EQ(outcomes.size(), 1U);
  EXPECT_EQ(outcomes[0].outcome, "aborted");
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

TEST(PrecopyTest, StalledRoundTimesOutAndAborts) {
  MigrationEngine::Options options = precopy_options();
  options.init_timeout = 2.0;
  options.eager_timeout = 3.0;
  Cluster c(options);
  BlockApp app;
  // Chaos: wedge every round.
  c.hpcm.set_phase_listener([](const txn::PhaseEvent& e) {
    return e.phase == "precopy" ? 1000.0 : 0.0;
  });
  const mpi::RankId id =
      c.hpcm.launch("ws1", app.make(), "blockapp", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(300.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 30.0);
  EXPECT_EQ(app.finished_on, "ws1");
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "aborted");
  EXPECT_EQ(c.hpcm.history()[0].abort_reason, "precopy-timeout");
  EXPECT_EQ(c.hpcm.history()[0].abort_phase, "precopy");
  EXPECT_EQ(counter_value(c.metrics, "migration.aborts",
                          {{"reason", "precopy-timeout"}}),
            1.0);
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

TEST(PrecopyTest, PostCommitDestCrashRollsBackToRelaunch) {
  Cluster c(precopy_options());
  BlockApp app;
  app.blocks = 8;
  c.crash_dest_at_phase("restore");
  const mpi::RankId id =
      c.hpcm.launch("ws1", app.make(), "blockapp", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(60.0);
  // Post-ACK failure: unchanged semantics — rolled back to the
  // checkpoint-restart path, process parked, never silently lost.
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "rolled-back");
  EXPECT_EQ(c.hpcm.parked_for_relaunch(),
            std::vector<std::string>{"blockapp.0"});
  EXPECT_NE(c.hpcm.relaunch("blockapp.0", "ws3"), 0U);
  c.engine.run_until(300.0);
  EXPECT_DOUBLE_EQ(app.final_sum, 30.0);
  EXPECT_EQ(app.finished_on, "ws3");
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

TEST(PrecopyTest, SecondRequestDuringPrecopyIsDropped) {
  MigrationEngine::Options options = precopy_options();
  options.precopy_max_rounds = 12;
  Cluster c(options);
  BlockApp app;
  app.blocks = 8;
  app.dirty_per_iter = 2;  // keeps the loop from converging too early
  const mpi::RankId id =
      c.hpcm.launch("ws1", app.make(), "blockapp", schema());
  c.engine.schedule_at(5.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.schedule_at(8.0, [&] { c.hpcm.request_migration(id, "ws3"); });
  c.engine.run_until(300.0);
  // One process migrates once at a time: the second request is dropped,
  // the first transaction commits to its destination.
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "committed");
  EXPECT_EQ(c.hpcm.history()[0].destination, "ws2");
  EXPECT_EQ(app.finished_on, "ws2");
  EXPECT_DOUBLE_EQ(app.final_sum, 30.0);
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

TEST(PrecopyTest, SourceExitMidPrecopyAbortsCleanly) {
  MigrationEngine::Options options = precopy_options();
  options.precopy_max_rounds = 50;
  Cluster c(options);
  BlockApp app;
  app.blocks = 8;
  app.dirty_per_iter = 4;  // 50% dirty per round: never converges
  app.iterations = 6;      // finishes before the round cap
  const mpi::RankId id =
      c.hpcm.launch("ws1", app.make(), "blockapp", schema());
  c.engine.schedule_at(2.0, [&] { c.hpcm.request_migration(id, "ws2"); });
  c.engine.run_until(300.0);
  // The app computed its result on the source mid-pre-copy; nothing left
  // to move, so the transaction aborts and nothing leaks.
  EXPECT_DOUBLE_EQ(app.final_sum, 6.0);
  EXPECT_EQ(app.finished_on, "ws1");
  ASSERT_EQ(c.hpcm.history().size(), 1U);
  EXPECT_EQ(c.hpcm.history()[0].outcome, "aborted");
  EXPECT_EQ(c.hpcm.history()[0].abort_reason, "source-exited");
  EXPECT_EQ(c.mpi.live_procs(), 0U);
  EXPECT_EQ(c.tracer.open_spans(), 0U);
}

}  // namespace
}  // namespace ars::hpcm
