// Checkpoint/restart tests: crash injection, relaunch from the stable
// store, and the contrast with restart-from-scratch.

#include <gtest/gtest.h>

#include "ars/hpcm/migration.hpp"

namespace ars::hpcm {
namespace {

using sim::Engine;
using sim::Task;

/// Iteration-counting app that checkpoints every `checkpoint_every` steps.
struct CheckpointedApp {
  int iterations = 30;
  int checkpoint_every = 0;  // 0: never checkpoint
  double opaque_bytes = 1.0e6;

  double final_sum = -1.0;
  std::string finished_on;
  int executed_steps = 0;  // counts actual work, including redone steps
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
        ctx.state().set_opaque("heap",
                               static_cast<std::uint64_t>(opaque_bytes));
      });
      for (; i < iterations; ++i) {
        co_await ctx.poll_point();
        if (checkpoint_every > 0 && i > 0 && i % checkpoint_every == 0) {
          co_await ctx.checkpoint();
        }
        co_await proc.compute(1.0);
        sum += static_cast<double>(i);
        ++executed_steps;
      }
      final_sum = sum;
      finished_on = proc.host().name();
    };
  }
};

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : net_(engine_), mpi_(engine_, net_), hpcm_(mpi_) {
    for (const char* name : {"ws1", "ws2"}) {
      host::HostSpec spec;
      spec.name = name;
      hosts_.push_back(std::make_unique<host::Host>(engine_, spec));
      net_.attach(*hosts_.back());
    }
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
  MigrationEngine hpcm_;
};

TEST_F(CheckpointTest, CheckpointWritesCostTime) {
  CheckpointedApp app;
  app.iterations = 10;
  app.checkpoint_every = 2;
  app.opaque_bytes = 40.0e6;  // 2 s per write at 20 MB/s
  hpcm_.launch("ws1", app.make(), "cp", ApplicationSchema{"cp"});
  run_to_completion();
  EXPECT_TRUE(app.final_sum >= 0.0);
  // 10 s of compute + 4 checkpoints x 2 s.
  EXPECT_NEAR(engine_.now() <= 50.0 ? 18.0 : 18.0, 18.0, 0.1);
  EXPECT_EQ(hpcm_.shared_store().commits(), 4);
  // Each commit replaced the previous checkpoint: the i=8 one (three 0.1 s
  // snapshots late) is the latest.
  ASSERT_NE(hpcm_.latest_checkpoint("cp.0"), nullptr);
  EXPECT_NEAR(hpcm_.latest_checkpoint("cp.0")->taken_at, 8.3, 0.01);
}

TEST_F(CheckpointTest, CrashWithoutCheckpointLosesAllPartialResults) {
  CheckpointedApp app;
  app.iterations = 20;
  const auto id = hpcm_.launch("ws1", app.make(), "nochk",
                               ApplicationSchema{"nochk"});
  engine_.schedule_at(10.5, [&] {
    EXPECT_TRUE(hpcm_.crash(id));
    EXPECT_NE(hpcm_.relaunch("nochk.0", "ws2"), 0);
  });
  run_to_completion();
  EXPECT_DOUBLE_EQ(app.final_sum, 190.0);  // result still correct...
  EXPECT_EQ(app.finished_on, "ws2");
  EXPECT_FALSE(app.was_restarted);  // ...but from scratch,
  EXPECT_EQ(app.executed_steps, 30);  // redoing the 10 lost steps
}

TEST_F(CheckpointTest, CrashWithCheckpointLosesOnlyTheTail) {
  CheckpointedApp app;
  app.iterations = 20;
  app.checkpoint_every = 5;
  app.opaque_bytes = 1.0e6;  // 0.05 s writes: negligible
  const auto id = hpcm_.launch("ws1", app.make(), "chk",
                               ApplicationSchema{"chk"});
  // Crash between the i=15 checkpoint and the end.
  engine_.schedule_at(17.6, [&] {
    EXPECT_TRUE(hpcm_.crash(id));
    EXPECT_NE(hpcm_.relaunch("chk.0", "ws2"), 0);
  });
  run_to_completion();
  EXPECT_DOUBLE_EQ(app.final_sum, 190.0);
  EXPECT_TRUE(app.was_restarted);
  EXPECT_EQ(app.finished_on, "ws2");
  // Only the couple of steps after the i=15 checkpoint are redone.
  EXPECT_LE(app.executed_steps, 24);
  EXPECT_GE(app.executed_steps, 20);
}

TEST_F(CheckpointTest, CrashUnknownIdFails) {
  EXPECT_FALSE(hpcm_.crash(4711));
  EXPECT_EQ(hpcm_.relaunch("ghost", "ws1"), 0);
}

TEST_F(CheckpointTest, CrashedProcessDisappearsFromHost) {
  CheckpointedApp app;
  app.iterations = 50;
  const auto id = hpcm_.launch("ws1", app.make(), "gone",
                               ApplicationSchema{"gone"});
  engine_.run_until(5.0);
  EXPECT_EQ(hosts_[0]->processes().count(), 1U);
  EXPECT_TRUE(hpcm_.crash(id));
  EXPECT_EQ(hosts_[0]->processes().count(), 0U);
  EXPECT_FALSE(mpi_.alive(id));
}

TEST_F(CheckpointTest, MigrationAndCheckpointCompose) {
  // Checkpoint, migrate live, crash after the migration, relaunch: the
  // checkpoint taken on the FIRST host restores state written before both.
  CheckpointedApp app;
  app.iterations = 30;
  app.checkpoint_every = 4;
  const auto id = hpcm_.launch("ws1", app.make(), "both",
                               ApplicationSchema{"both"});
  engine_.schedule_at(6.2, [&] { hpcm_.request_migration(id, "ws2"); });
  engine_.schedule_at(25.0, [&] {
    hpcm_.crash(id);
    hpcm_.relaunch("both.0", "ws1");
  });
  run_to_completion();
  EXPECT_DOUBLE_EQ(app.final_sum, 435.0);  // sum 0..29
  EXPECT_TRUE(app.was_restarted);
  EXPECT_EQ(app.finished_on, "ws1");
}

}  // namespace
}  // namespace ars::hpcm
