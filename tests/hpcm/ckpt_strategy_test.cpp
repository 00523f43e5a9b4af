// Checkpoint scheduling strategies (DESIGN.md §17): Young/Daly-driven
// maybe_checkpoint(), the asynchronous shared-store write path, atomic
// shadow-commit under crashes and preemptions mid-write, failure-waste
// accounting, and the process record's runs under a reused name.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ars/hpcm/migration.hpp"

namespace ars::hpcm {
namespace {

using sim::Engine;
using sim::Task;

/// Counter app that defers all checkpoint timing to the engine's plan
/// (maybe_checkpoint at every poll) — the shape the chaos scenarios use —
/// and, with `checkpoint_every`, also checkpoints explicitly at every
/// multiple of it (exact timing under the "none" strategy).
struct StrategyApp {
  int iterations = 40;
  int checkpoint_every = 0;  // 0: no explicit checkpoints
  std::uint64_t opaque_bytes = 0;

  double final_sum = -1.0;
  std::string finished_on;
  bool was_restarted = false;

  MigrationEngine::MigratableApp make() {
    return [this](mpi::Proc& proc, MigrationContext& ctx) -> Task<> {
      std::int64_t i = 0;
      double sum = 0.0;
      if (ctx.restored()) {
        i = *ctx.state().get_int("i");
        sum = *ctx.state().get_double("sum");
        was_restarted = ctx.restarted_from_checkpoint();
      }
      ctx.on_save([&ctx, &i, &sum, this] {
        ctx.state().set_int("i", i);
        ctx.state().set_double("sum", sum);
        if (opaque_bytes > 0) {
          ctx.state().set_opaque("heap", opaque_bytes);
        }
      });
      for (; i < iterations; ++i) {
        co_await ctx.poll_point();
        co_await ctx.maybe_checkpoint();
        if (checkpoint_every > 0 && i > 0 && i % checkpoint_every == 0) {
          co_await ctx.checkpoint();
        }
        co_await proc.compute(1.0);
        sum += static_cast<double>(i);
      }
      final_sum = sum;
      finished_on = proc.host().name();
    };
  }
};

class CkptStrategyTest : public ::testing::Test {
 protected:
  CkptStrategyTest() : net_(engine_), mpi_(engine_, net_) {
    for (const char* name : {"ws1", "ws2"}) {
      host::HostSpec spec;
      spec.name = name;
      hosts_.push_back(std::make_unique<host::Host>(engine_, spec));
      net_.attach(*hosts_.back());
    }
  }

  MigrationEngine& make_hpcm(MigrationEngine::Options options) {
    hpcm_ = std::make_unique<MigrationEngine>(mpi_, options);
    return *hpcm_;
  }

  void run_to_completion(double step = 50.0) {
    while (mpi_.live_procs() > 0) {
      engine_.run_until(engine_.now() + step);
    }
  }

  Engine engine_;
  net::Network net_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  mpi::MpiSystem mpi_;
  std::unique_ptr<MigrationEngine> hpcm_;
};

TEST_F(CkptStrategyTest, NoneStrategyNeverCheckpoints) {
  MigrationEngine::Options options;
  options.ckpt_strategy = "none";
  options.ckpt_mtbf = 10.0;
  MigrationEngine& hpcm = make_hpcm(options);
  StrategyApp app;
  app.iterations = 20;
  hpcm.launch("ws1", app.make(), "idle", ApplicationSchema{"idle"});
  run_to_completion();
  EXPECT_GE(app.final_sum, 0.0);
  EXPECT_EQ(hpcm.shared_store().commits(), 0);
  EXPECT_EQ(hpcm.latest_checkpoint("idle.0"), nullptr);
}

TEST_F(CkptStrategyTest, PeriodicStrategyCheckpointsOnYoungDalyInterval) {
  MigrationEngine::Options options;
  options.ckpt_strategy = "periodic";
  options.checkpoint_store_bps = 20.0e6;
  options.ckpt_mtbf = 50.0;  // 40 MB -> C=2s, W=sqrt(2*2*50)~14.1s
  MigrationEngine& hpcm = make_hpcm(options);
  StrategyApp app;
  app.iterations = 40;
  app.opaque_bytes = 40'000'000;
  hpcm.launch("ws1", app.make(), "per", ApplicationSchema{"per"});
  run_to_completion();
  EXPECT_GE(app.final_sum, 0.0);
  // ~40 s of compute on a ~14 s interval: at least two committed writes,
  // each charged to the overhead side of the process's waste.
  EXPECT_GE(hpcm.shared_store().commits(), 2);
  EXPECT_EQ(hpcm.shared_store().aborts(), 0);
  EXPECT_GT(hpcm.waste("per.0").overhead_s, 0.0);
  EXPECT_DOUBLE_EQ(hpcm.waste("per.0").lost_work_s, 0.0);
}

TEST_F(CkptStrategyTest, FreshLaunchUnderAReusedNameStartsAFreshPlan) {
  MigrationEngine::Options options;
  options.ckpt_strategy = "periodic";
  options.checkpoint_store_bps = 20.0e6;
  options.ckpt_mtbf = 50.0;  // 40 MB -> C=2s, W=sqrt(2*2*50)~14.1s
  MigrationEngine& hpcm = make_hpcm(options);
  StrategyApp first;
  first.iterations = 30;
  first.opaque_bytes = 40'000'000;
  hpcm.launch("ws1", first.make(), "reuse", ApplicationSchema{"reuse"});
  run_to_completion();
  ASSERT_TRUE(hpcm.exited_normally("reuse.0"));
  const int commits = hpcm.shared_store().commits();
  EXPECT_GE(commits, 1);
  engine_.run_until(engine_.now() + 100.0);
  // Same name, new run: its first poll baselines progress, so a 5 s run
  // on a ~14 s interval writes nothing.  A plan inherited from the first
  // run would measure from that run's last snapshot and write at once.
  StrategyApp second;
  second.iterations = 5;
  second.opaque_bytes = 40'000'000;
  hpcm.launch("ws1", second.make(), "reuse", ApplicationSchema{"reuse"});
  run_to_completion();
  EXPECT_GE(second.final_sum, 0.0);
  EXPECT_FALSE(second.was_restarted);
  EXPECT_EQ(hpcm.shared_store().commits(), commits);
}

TEST_F(CkptStrategyTest, LaunchOfARunningNameIsRefused) {
  MigrationEngine& hpcm = make_hpcm({});
  StrategyApp first;
  StrategyApp second;
  hpcm.launch("ws1", first.make(), "twice", ApplicationSchema{"twice"});
  EXPECT_THROW(hpcm.launch("ws2", second.make(), "twice",
                           ApplicationSchema{"twice"}),
               std::invalid_argument);
  EXPECT_EQ(mpi_.live_procs(), 1u);
  run_to_completion();
  EXPECT_EQ(first.finished_on, "ws1");
  EXPECT_LT(second.final_sum, 0.0);  // never ran
}

TEST_F(CkptStrategyTest, RerunCrashBeforeFirstCheckpointRestartsFromScratch) {
  MigrationEngine::Options options;
  options.ckpt_strategy = "periodic";
  options.checkpoint_store_bps = 20.0e6;
  options.ckpt_mtbf = 50.0;  // 40 MB -> C=2s, W=sqrt(2*2*50)~14.1s
  MigrationEngine& hpcm = make_hpcm(options);
  StrategyApp first;
  first.iterations = 30;
  first.opaque_bytes = 40'000'000;
  hpcm.launch("ws1", first.make(), "reuse", ApplicationSchema{"reuse"});
  run_to_completion();
  ASSERT_NE(hpcm.latest_checkpoint("reuse.0"), nullptr);
  engine_.run_until(engine_.now() + 100.0);
  // The rerun crashes 3 s in, before its own first checkpoint: it must
  // restart from scratch, not from the first run's checkpoint at i = 20,
  // and lose 3 s of work, not everything since that snapshot.
  StrategyApp second;
  second.iterations = 10;
  second.opaque_bytes = 40'000'000;
  const auto id = hpcm.launch("ws1", second.make(), "reuse",
                              ApplicationSchema{"reuse"});
  EXPECT_EQ(hpcm.latest_checkpoint("reuse.0"), nullptr);
  const double lost_before = hpcm.waste("reuse.0").lost_work_s;
  engine_.schedule_at(engine_.now() + 3.0, [&] {
    EXPECT_TRUE(hpcm.crash(id));
    EXPECT_NE(hpcm.relaunch("reuse.0", "ws2"), 0);
  });
  run_to_completion();
  EXPECT_DOUBLE_EQ(second.final_sum, 45.0);  // sum 0..9
  EXPECT_FALSE(second.was_restarted);
  EXPECT_EQ(second.finished_on, "ws2");
  EXPECT_NEAR(hpcm.waste("reuse.0").lost_work_s - lost_before, 3.0, 1e-9);
}

TEST_F(CkptStrategyTest, FreshLaunchOverAParkedNameRetiresTheParkedRun) {
  MigrationEngine& hpcm = make_hpcm({});
  StrategyApp first;
  StrategyApp second;
  first.iterations = 20;
  second.iterations = 20;
  const auto id = hpcm.launch("ws1", first.make(), "dup",
                              ApplicationSchema{"dup"});
  engine_.schedule_at(5.0, [&] {
    EXPECT_TRUE(hpcm.crash(id));
    EXPECT_EQ(hpcm.parked_for_relaunch(), std::vector<std::string>{"dup.0"});
    hpcm.launch("ws2", second.make(), "dup", ApplicationSchema{"dup"});
    // The fresh run replaced the parked one: nothing is left to relaunch.
    EXPECT_TRUE(hpcm.parked_for_relaunch().empty());
    EXPECT_EQ(hpcm.relaunch("dup.0", "ws1"), 0);
    EXPECT_EQ(mpi_.live_procs(), 1u);
  });
  run_to_completion();
  EXPECT_LT(first.final_sum, 0.0);  // the crashed run never finished
  EXPECT_DOUBLE_EQ(second.final_sum, 190.0);
  EXPECT_EQ(second.finished_on, "ws2");
}

TEST_F(CkptStrategyTest, FreshLaunchAbortsTheExitedRunsWrite) {
  MigrationEngine::Options options;
  options.ckpt_strategy = "none";  // explicit checkpoints: exact timing
  options.checkpoint_store_bps = 1.0e6;
  MigrationEngine& hpcm = make_hpcm(options);
  // The first run writes 20 MB (20 s) at i = 1 and exits at ~2 s, its
  // write still draining.
  StrategyApp first;
  first.iterations = 2;
  first.checkpoint_every = 1;
  first.opaque_bytes = 20'000'000;
  hpcm.launch("ws1", first.make(), "drain", ApplicationSchema{"drain"});
  // The rerun checkpoints 1 MB (1 s) at i = 5, from t = 8.
  StrategyApp second;
  second.iterations = 20;
  second.checkpoint_every = 5;
  second.opaque_bytes = 1'000'000;
  engine_.schedule_at(3.0, [&] {
    ASSERT_TRUE(hpcm.exited_normally("drain.0"));
    ASSERT_TRUE(hpcm.shared_store().writing("drain.0"));
    hpcm.launch("ws1", second.make(), "drain", ApplicationSchema{"drain"});
    // The old run's write is aborted at launch, its 2 s still booked.
    EXPECT_FALSE(hpcm.shared_store().writing("drain.0"));
    EXPECT_EQ(hpcm.shared_store().aborts(), 1);
    EXPECT_NEAR(hpcm.waste("drain.0").overhead_s, 2.0, 0.1);
  });
  engine_.run_until(11.0);
  // So the rerun's first checkpoint was written, and committed.
  EXPECT_EQ(hpcm.shared_store().commits(), 1);
  ASSERT_NE(hpcm.latest_checkpoint("drain.0"), nullptr);
  EXPECT_NEAR(hpcm.latest_checkpoint("drain.0")->taken_at, 8.0, 0.01);
  run_to_completion();
  EXPECT_DOUBLE_EQ(second.final_sum, 190.0);
}

TEST_F(CkptStrategyTest, CrashMidWriteKeepsPreviousCheckpointRestorable) {
  MigrationEngine::Options options;
  options.ckpt_strategy = "none";  // explicit checkpoints: exact timing
  options.checkpoint_store_bps = 1.0e6;
  MigrationEngine& hpcm = make_hpcm(options);

  // 4 MB state -> 4 s writes.  Checkpoints at i=5 (commits ~9) and i=10
  // (in flight 10..14); the crash at t=13 races the second write.
  StrategyApp app;
  app.iterations = 30;
  app.checkpoint_every = 5;
  app.opaque_bytes = 4'000'000;

  const auto id = hpcm.launch("ws1", app.make(), "atomic",
                              ApplicationSchema{"atomic"});
  engine_.schedule_at(13.0, [&] {
    EXPECT_TRUE(hpcm.shared_store().writing("atomic.0"));
    EXPECT_TRUE(hpcm.crash(id));
    EXPECT_NE(hpcm.relaunch("atomic.0", "ws2"), 0);
  });
  run_to_completion();

  EXPECT_DOUBLE_EQ(app.final_sum, 435.0);  // sum 0..29
  EXPECT_TRUE(app.was_restarted);
  EXPECT_EQ(app.finished_on, "ws2");
  // The torn second write was dropped, not committed: the i=5 checkpoint
  // stayed the restorable one and nothing incomplete was ever visible.
  EXPECT_EQ(hpcm.shared_store().aborts(), 1);
  EXPECT_EQ(hpcm.torn_restores(), 0);
  ASSERT_NE(hpcm.latest_checkpoint("atomic.0"), nullptr);
  EXPECT_TRUE(hpcm.latest_checkpoint("atomic.0")->complete);
  // Waste: the crash cost lost work (i=5..13) and a restart read-back.
  EXPECT_GT(hpcm.waste("atomic.0").lost_work_s, 0.0);
  EXPECT_GT(hpcm.waste("atomic.0").restart_s, 0.0);
}

TEST_F(CkptStrategyTest, SabotagedCommitRestoresTornCheckpoint) {
  MigrationEngine::Options options;
  options.ckpt_strategy = "periodic";
  options.checkpoint_store_bps = 1.0e6;
  options.ckpt_mtbf = 1.0;  // aggressive: first checkpoint due early
  options.sabotage_torn_commit = true;
  MigrationEngine& hpcm = make_hpcm(options);
  StrategyApp app;
  app.iterations = 30;
  app.opaque_bytes = 4'000'000;  // 4 s writes: easy to crash mid-write
  const auto id = hpcm.launch("ws1", app.make(), "torn",
                              ApplicationSchema{"torn"});
  // First maybe_checkpoint lands ~t=5 (the 5 s interval floor); its write
  // runs ~4 s.
  engine_.schedule_at(7.5, [&] {
    ASSERT_TRUE(hpcm.shared_store().writing("torn.0"));
    EXPECT_TRUE(hpcm.crash(id));
    // The sabotaged store replaced the (absent) previous checkpoint with
    // the torn partial...
    ASSERT_NE(hpcm.latest_checkpoint("torn.0"), nullptr);
    EXPECT_FALSE(hpcm.latest_checkpoint("torn.0")->complete);
    EXPECT_NE(hpcm.relaunch("torn.0", "ws2"), 0);
  });
  run_to_completion();
  // ...and the relaunch restored it — exactly what the chaos
  // no-torn-checkpoint invariant exists to catch.
  EXPECT_EQ(hpcm.torn_restores(), 1);
  EXPECT_TRUE(app.was_restarted);
}

TEST_F(CkptStrategyTest, HostCrashAbortsAllItsWritesViaTheStore) {
  MigrationEngine::Options options;
  options.ckpt_strategy = "none";
  options.checkpoint_store_bps = 1.0e6;
  MigrationEngine& hpcm = make_hpcm(options);
  // Drive the store directly through the engine's instance: two fake
  // writes from ws1, one from ws2.
  int aborted = 0;
  int committed = 0;
  const auto on_commit = [&committed](const ckpt::WriteOutcome&) {
    ++committed;
  };
  const auto on_abort = [&aborted](const ckpt::WriteOutcome&) { ++aborted; };
  hpcm.shared_store().begin_write("x.0", "ws1", 4'000'000, on_commit,
                                  on_abort);
  hpcm.shared_store().begin_write("y.0", "ws1", 4'000'000, on_commit,
                                  on_abort);
  hpcm.shared_store().begin_write("z.0", "ws2", 4'000'000, on_commit,
                                  on_abort);
  engine_.schedule_at(1.0, [&] {
    EXPECT_EQ(hpcm.shared_store().abort_host_writes("ws1"), 2);
  });
  engine_.run_until(20.0);
  EXPECT_EQ(aborted, 2);
  EXPECT_EQ(committed, 1);
}

// -- the checkpoint slots and waste of a process record ----------------------

/// Explicit 4 MB checkpoints every 5 iterations into a 1 MB/s store: 4 s
/// writes, snapshots at t = 5, ~10 and ~15.
class CheckpointStoreTest : public CkptStrategyTest {
 protected:
  MigrationEngine& launch(MigrationEngine::Options options) {
    options.checkpoint_store_bps = 1.0e6;
    MigrationEngine& hpcm = make_hpcm(options);
    app_.iterations = 20;
    app_.checkpoint_every = 5;
    app_.opaque_bytes = 4'000'000;
    hpcm.launch("ws1", app_.make(), "cs", ApplicationSchema{"cs"});
    return hpcm;
  }

  StrategyApp app_;
};

TEST_F(CheckpointStoreTest, ShadowInvisibleUntilCommitThenAtomicallyVisible) {
  MigrationEngine& hpcm = launch({});
  engine_.run_until(7.0);  // the first write is in flight
  EXPECT_TRUE(hpcm.shared_store().writing("cs.0"));
  EXPECT_EQ(hpcm.latest_checkpoint("cs.0"), nullptr);
  engine_.run_until(12.0);  // committed; the second write is in flight
  EXPECT_TRUE(hpcm.shared_store().writing("cs.0"));
  ASSERT_NE(hpcm.latest_checkpoint("cs.0"), nullptr);
  EXPECT_DOUBLE_EQ(hpcm.latest_checkpoint("cs.0")->taken_at, 5.0);
  EXPECT_TRUE(hpcm.latest_checkpoint("cs.0")->complete);
  engine_.run_until(15.0);  // the second commit replaces the first
  EXPECT_NEAR(hpcm.latest_checkpoint("cs.0")->taken_at, 10.0, 0.1);
  run_to_completion();
  EXPECT_EQ(hpcm.shared_store().commits(), 3);
  EXPECT_NEAR(hpcm.latest_checkpoint("cs.0")->taken_at, 15.0, 0.1);
}

TEST_F(CheckpointStoreTest, AbortedShadowKeepsThePreviousCheckpoint) {
  MigrationEngine& hpcm = launch({});
  engine_.run_until(12.0);
  // A preemption grant aborts the in-flight second write.
  hpcm.deliver_ckpt_grant("cs.0", "preempt", 1.0);
  EXPECT_FALSE(hpcm.shared_store().writing("cs.0"));
  EXPECT_EQ(hpcm.shared_store().aborts(), 1);
  ASSERT_NE(hpcm.latest_checkpoint("cs.0"), nullptr);
  EXPECT_DOUBLE_EQ(hpcm.latest_checkpoint("cs.0")->taken_at, 5.0);
  EXPECT_TRUE(hpcm.latest_checkpoint("cs.0")->complete);
  run_to_completion();
  EXPECT_EQ(hpcm.shared_store().commits(), 2);  // the aborted one never counts
}

TEST_F(CheckpointStoreTest, SabotagedAbortCommitsTheTornPartial) {
  MigrationEngine::Options options;
  options.sabotage_torn_commit = true;
  MigrationEngine& hpcm = launch(options);
  engine_.run_until(12.0);
  hpcm.deliver_ckpt_grant("cs.0", "preempt", 1.0);
  // The partial second write replaced the complete first one.
  ASSERT_NE(hpcm.latest_checkpoint("cs.0"), nullptr);
  EXPECT_NEAR(hpcm.latest_checkpoint("cs.0")->taken_at, 10.0, 0.1);
  EXPECT_FALSE(hpcm.latest_checkpoint("cs.0")->complete);
}

/// The waste of each process record, and the cluster total over them.
class WasteLedgerTest : public CkptStrategyTest {};

TEST_F(WasteLedgerTest, AccumulatesPerProcessAndClusterWide) {
  MigrationEngine::Options options;
  options.checkpoint_store_bps = 1.0e6;
  MigrationEngine& hpcm = make_hpcm(options);
  // a.0 checkpoints at t = 5 and crashes at 8: overhead, 3 s of lost work
  // and a read-back.  b.0 only checkpoints: overhead alone.
  StrategyApp a;
  StrategyApp b;
  for (StrategyApp* app : {&a, &b}) {
    app->iterations = 10;
    app->checkpoint_every = 5;
    app->opaque_bytes = 1'000'000;
  }
  const auto id = hpcm.launch("ws1", a.make(), "a", ApplicationSchema{"a"});
  hpcm.launch("ws2", b.make(), "b", ApplicationSchema{"b"});
  engine_.schedule_at(8.0, [&] {
    EXPECT_TRUE(hpcm.crash(id));
    EXPECT_NE(hpcm.relaunch("a.0", "ws2"), 0);
  });
  run_to_completion();
  const ckpt::Waste wa = hpcm.waste("a.0");
  const ckpt::Waste wb = hpcm.waste("b.0");
  EXPECT_GT(wa.overhead_s, 0.0);
  EXPECT_DOUBLE_EQ(wa.lost_work_s, 3.0);
  EXPECT_NEAR(wa.restart_s, 1.0, 0.01);  // ~1 MB at 1 MB/s
  EXPECT_DOUBLE_EQ(wa.total(), wa.overhead_s + 3.0 + wa.restart_s);
  EXPECT_GT(wb.overhead_s, 0.0);
  EXPECT_DOUBLE_EQ(wb.lost_work_s + wb.restart_s, 0.0);
  EXPECT_DOUBLE_EQ(hpcm.waste("ghost.0").total(), 0.0);
  const ckpt::Waste cluster = hpcm.cluster_waste();
  EXPECT_DOUBLE_EQ(cluster.overhead_s, wa.overhead_s + wb.overhead_s);
  EXPECT_DOUBLE_EQ(cluster.lost_work_s, 3.0);
  EXPECT_DOUBLE_EQ(cluster.restart_s, wa.restart_s);
  EXPECT_DOUBLE_EQ(cluster.total(), wa.total() + wb.total());
}

}  // namespace
}  // namespace ars::hpcm
