// ars::malleable engine tests: launch-to-finish, expand/shrink commits,
// abort paths (spawn timeout, failed target, failed redistribution), the
// no-ghost-rank guarantee, and the sequential-vs-tree spawn comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ars/malleable/malleable.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"

namespace ars::malleable {
namespace {

using sim::Engine;

class MalleableTest : public ::testing::Test {
 protected:
  static constexpr int kHosts = 40;

  MalleableTest() : net_(engine_, net_options()), mpi_(engine_, net_) {
    for (int i = 1; i <= kHosts; ++i) {
      host::HostSpec spec;
      spec.name = "ws" + std::to_string(i);
      hosts_.push_back(std::make_unique<host::Host>(engine_, spec));
      net_.attach(*hosts_.back());
    }
  }

  static net::Network::Options net_options() {
    net::Network::Options options;
    options.latency = 0.001;
    options.message_overhead = 0;
    return options;
  }

  [[nodiscard]] std::vector<std::string> host_names(int from, int count) {
    std::vector<std::string> names;
    for (int i = from; i < from + count; ++i) {
      names.push_back("ws" + std::to_string(i));
    }
    return names;
  }

  [[nodiscard]] static JobSpec small_job(const std::string& name) {
    JobSpec spec;
    spec.name = name;
    spec.workload.blocks = 16;
    spec.workload.work_per_block = 0.05;
    spec.workload.bytes_per_block = 1.0e5;
    spec.workload.iterations = 6;
    spec.min_ranks = 1;
    spec.max_ranks = 64;
    return spec;
  }

  Engine engine_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  net::Network net_;
  mpi::MpiSystem mpi_;
};

TEST(PartitionBlocks, BalancedContiguous) {
  const auto counts = partition_blocks(10, 3);
  ASSERT_EQ(counts.size(), 3U);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 10);
  for (const int c : counts) {
    EXPECT_GE(c, 3);
    EXPECT_LE(c, 4);
  }
  EXPECT_TRUE(partition_blocks(5, 0).empty());
  const auto more_ranks = partition_blocks(2, 4);
  EXPECT_EQ(std::count(more_ranks.begin(), more_ranks.end(), 0), 2);
}

TEST_F(MalleableTest, JobRunsToCompletionWithoutResizes) {
  MalleableEngine malleable(mpi_, net_);
  const auto members = malleable.launch(small_job("job"), host_names(1, 4));
  EXPECT_EQ(members.size(), 4U);
  EXPECT_EQ(malleable.ranks("job"), 4);
  engine_.run_until(200.0);
  EXPECT_TRUE(malleable.finished("job"));
  EXPECT_FALSE(malleable.failed("job"));
  // Every block of every iteration was computed exactly once.
  EXPECT_EQ(malleable.processed_blocks("job"), 16LL * 6);
  // Clean exit leaves no procs behind.
  EXPECT_EQ(mpi_.live_procs(), 0U);
}

TEST_F(MalleableTest, ExpandCommitsAndAddsRanks) {
  MalleableEngine malleable(mpi_, net_);
  auto spec = small_job("job");
  spec.workload.iterations = 10;
  malleable.launch(spec, host_names(1, 2));
  engine_.run_until(0.5);  // first iteration under way
  ASSERT_TRUE(malleable.request_resize("job", ResizeVerb::kExpand, 2,
                                       {"ws10", "ws11"}));
  EXPECT_TRUE(malleable.resizing("job"));
  engine_.run_until(400.0);
  EXPECT_TRUE(malleable.finished("job"));
  ASSERT_EQ(malleable.history().size(), 1U);
  const ResizeOutcome& outcome = malleable.history().front();
  EXPECT_EQ(outcome.outcome, kCommitted);
  EXPECT_EQ(outcome.ranks_before, 2);
  EXPECT_EQ(outcome.ranks_after, 4);
  EXPECT_GT(outcome.spawn_seconds, 0.0);
  EXPECT_GT(outcome.redistributed_bytes, 0.0);
  EXPECT_EQ(malleable.processed_blocks("job"), 16LL * 10);
  EXPECT_EQ(mpi_.live_procs(), 0U);
}

TEST_F(MalleableTest, ShrinkCommitsAndRetiresRanks) {
  MalleableEngine malleable(mpi_, net_);
  auto spec = small_job("job");
  spec.workload.iterations = 10;
  malleable.launch(spec, host_names(1, 4));
  engine_.run_until(0.5);
  ASSERT_TRUE(malleable.request_resize("job", ResizeVerb::kShrink, 2));
  engine_.run_until(400.0);
  EXPECT_TRUE(malleable.finished("job"));
  ASSERT_EQ(malleable.history().size(), 1U);
  const ResizeOutcome& outcome = malleable.history().front();
  EXPECT_EQ(outcome.outcome, kCommitted);
  EXPECT_EQ(outcome.ranks_before, 4);
  EXPECT_EQ(outcome.ranks_after, 2);
  EXPECT_EQ(malleable.processed_blocks("job"), 16LL * 10);
  EXPECT_EQ(mpi_.live_procs(), 0U);
}

TEST_F(MalleableTest, ShrinkVacatesNamedHosts) {
  MalleableEngine malleable(mpi_, net_);
  auto spec = small_job("job");
  spec.workload.iterations = 10;
  malleable.launch(spec, host_names(1, 4));
  engine_.run_until(0.5);
  ASSERT_TRUE(malleable.request_resize("job", ResizeVerb::kShrink, 1,
                                       {"ws3"}));
  engine_.run_until(400.0);
  EXPECT_TRUE(malleable.finished("job"));
  ASSERT_EQ(malleable.history().size(), 1U);
  EXPECT_EQ(malleable.history().front().outcome, kCommitted);
  const auto hosts = malleable.rank_hosts("job");
  EXPECT_EQ(std::find(hosts.begin(), hosts.end(), "ws3"), hosts.end());
}

TEST_F(MalleableTest, SpawnTimeoutAbortsAtOriginalSizeWithNoGhosts) {
  MalleableEngine::Options options;
  options.spawn_timeout = 1.0;  // sequential spawn of 8 takes ~2.4 s
  MalleableEngine malleable(mpi_, net_, options);
  auto spec = small_job("job");
  spec.workload.iterations = 10;
  spec.strategy = mpi::SpawnStrategy::kSequential;
  malleable.launch(spec, host_names(1, 2));
  engine_.run_until(0.5);
  ASSERT_TRUE(malleable.request_resize("job", ResizeVerb::kExpand, 8,
                                       host_names(10, 8)));
  engine_.run_until(400.0);
  EXPECT_TRUE(malleable.finished("job"));
  ASSERT_EQ(malleable.history().size(), 1U);
  const ResizeOutcome& outcome = malleable.history().front();
  EXPECT_EQ(outcome.outcome, kAborted);
  EXPECT_EQ(outcome.reason, "spawn-timeout");
  EXPECT_EQ(outcome.phase, "spawn");
  // The job finished at its ORIGINAL size and the partial spawn group was
  // reaped: no ghost ranks anywhere.
  EXPECT_EQ(outcome.ranks_after, 2);
  EXPECT_EQ(malleable.processed_blocks("job"), 16LL * 10);
  EXPECT_EQ(mpi_.live_procs(), 0U);
}

TEST_F(MalleableTest, FailedTargetAbortsSpawn) {
  MalleableEngine::Options options;
  options.spawn_timeout = 60.0;
  MalleableEngine malleable(mpi_, net_, options);
  auto spec = small_job("job");
  spec.workload.iterations = 20;
  spec.workload.work_per_block = 0.2;
  spec.strategy = mpi::SpawnStrategy::kSequential;
  malleable.launch(spec, host_names(1, 2));
  // Stall the spawn so the fault window is easy to hit.
  malleable.set_phase_listener([](const txn::PhaseEvent& e) {
    return e.phase == "spawn" ? 5.0 : 0.0;
  });
  engine_.run_until(0.5);
  ASSERT_TRUE(malleable.request_resize("job", ResizeVerb::kExpand, 4,
                                       host_names(10, 4)));
  bool failed = false;
  while (engine_.now() < 400.0 && !failed) {
    engine_.run_until(engine_.now() + 0.5);
    if (malleable.resizing("job")) {
      failed = malleable.fail_resize_target("job", "ws12");
    }
  }
  EXPECT_TRUE(failed);
  engine_.run_until(800.0);
  EXPECT_TRUE(malleable.finished("job"));
  ASSERT_EQ(malleable.history().size(), 1U);
  const ResizeOutcome& outcome = malleable.history().front();
  EXPECT_EQ(outcome.outcome, kAborted);
  EXPECT_EQ(outcome.reason, "no-capacity");
  EXPECT_EQ(outcome.ranks_after, 2);
  EXPECT_EQ(mpi_.live_procs(), 0U);
}

TEST_F(MalleableTest, RedistributionTimeoutRollsBackExpand) {
  MalleableEngine::Options options;
  options.redistribute_timeout = 2.0;
  MalleableEngine malleable(mpi_, net_, options);
  auto spec = small_job("job");
  spec.workload.iterations = 10;
  malleable.launch(spec, host_names(1, 2));
  malleable.set_phase_listener([](const txn::PhaseEvent& e) {
    return e.phase == "redistribute" ? 10.0 : 0.0;
  });
  engine_.run_until(0.5);
  ASSERT_TRUE(malleable.request_resize("job", ResizeVerb::kExpand, 2,
                                       {"ws10", "ws11"}));
  engine_.run_until(400.0);
  EXPECT_TRUE(malleable.finished("job"));
  ASSERT_EQ(malleable.history().size(), 1U);
  const ResizeOutcome& outcome = malleable.history().front();
  EXPECT_EQ(outcome.outcome, kPartialRollback);
  EXPECT_EQ(outcome.reason, "redistribution-failed");
  EXPECT_EQ(outcome.ranks_after, 2);  // spawned ranks rolled back
  EXPECT_EQ(malleable.processed_blocks("job"), 16LL * 10);
  EXPECT_EQ(mpi_.live_procs(), 0U);
}

TEST_F(MalleableTest, SabotageSkipsRollbackAndLeaksRanks) {
  MalleableEngine::Options options;
  options.redistribute_timeout = 2.0;
  options.sabotage_skip_resize_rollback = true;
  MalleableEngine malleable(mpi_, net_, options);
  auto spec = small_job("job");
  spec.workload.iterations = 10;
  malleable.launch(spec, host_names(1, 2));
  malleable.set_phase_listener([](const txn::PhaseEvent& e) {
    return e.phase == "redistribute" ? 10.0 : 0.0;
  });
  // Ghost ranks are visible at the instant the failed resize reports: the
  // rolled-back spawn group must be dead, yet sabotage leaves it alive.
  std::size_t live_at_outcome = 0;
  malleable.set_outcome_listener([&](const ResizeOutcome& outcome) {
    if (outcome.outcome == kPartialRollback) {
      live_at_outcome = mpi_.live_procs();
    }
  });
  engine_.run_until(0.5);
  ASSERT_TRUE(malleable.request_resize("job", ResizeVerb::kExpand, 2,
                                       {"ws10", "ws11"}));
  engine_.run_until(400.0);
  EXPECT_TRUE(malleable.finished("job"));
  // 2 members + 2 leaked spawns — what the chaos no-lost-rank invariant
  // must catch.  (An honest rollback reports with exactly 2 procs alive.)
  EXPECT_EQ(live_at_outcome, 4U);
}

TEST_F(MalleableTest, ExpandBeyondMaxRanksAborts) {
  MalleableEngine malleable(mpi_, net_);
  auto spec = small_job("job");
  spec.max_ranks = 3;
  spec.workload.iterations = 6;
  malleable.launch(spec, host_names(1, 2));
  engine_.run_until(0.5);
  ASSERT_TRUE(malleable.request_resize("job", ResizeVerb::kExpand, 2,
                                       {"ws10", "ws11"}));
  engine_.run_until(200.0);
  ASSERT_EQ(malleable.history().size(), 1U);
  EXPECT_EQ(malleable.history().front().outcome, kAborted);
  EXPECT_EQ(malleable.history().front().phase, "plan");
  EXPECT_EQ(malleable.ranks("job"), 2);
}

TEST_F(MalleableTest, OneResizeAtATime) {
  MalleableEngine malleable(mpi_, net_);
  malleable.launch(small_job("job"), host_names(1, 2));
  EXPECT_TRUE(malleable.request_resize("job", ResizeVerb::kExpand, 1,
                                       {"ws10"}));
  EXPECT_FALSE(malleable.request_resize("job", ResizeVerb::kExpand, 1,
                                        {"ws11"}));
  EXPECT_FALSE(malleable.request_resize("nope", ResizeVerb::kExpand, 1,
                                        {"ws10"}));
  EXPECT_FALSE(malleable.request_resize("job", ResizeVerb::kShrink, 0));
}

TEST_F(MalleableTest, RequestAfterFinishIsRejected) {
  MalleableEngine malleable(mpi_, net_);
  malleable.launch(small_job("job"), host_names(1, 2));
  engine_.run_until(200.0);
  ASSERT_TRUE(malleable.finished("job"));
  EXPECT_FALSE(malleable.request_resize("job", ResizeVerb::kExpand, 1,
                                        {"ws10"}));
}

TEST_F(MalleableTest, HostFailureRepairsMembership) {
  MalleableEngine malleable(mpi_, net_);
  auto spec = small_job("job");
  spec.workload.iterations = 12;
  malleable.launch(spec, host_names(1, 4));
  engine_.run_until(1.0);
  const int lost = malleable.on_host_failed("ws3");
  EXPECT_EQ(lost, 1);
  engine_.run_until(400.0);
  EXPECT_TRUE(malleable.finished("job"));
  EXPECT_FALSE(malleable.failed("job"));
  EXPECT_EQ(malleable.ranks("job"), 3);
  EXPECT_EQ(mpi_.live_procs(), 0U);
}

TEST_F(MalleableTest, RootFailureTearsDownJob) {
  MalleableEngine malleable(mpi_, net_);
  malleable.launch(small_job("job"), host_names(1, 4));
  engine_.run_until(1.0);
  (void)malleable.on_host_failed("ws1");
  EXPECT_TRUE(malleable.failed("job"));
  EXPECT_TRUE(malleable.finished("job"));
  EXPECT_EQ(mpi_.live_procs(), 0U);
}

TEST_F(MalleableTest, MetricsPreRegisteredAtZero) {
  obs::MetricsRegistry metrics;
  engine_.attach_sinks(nullptr, &metrics);
  MalleableEngine malleable(mpi_, net_);
  const std::string json = metrics.to_json();
  // The full malleable.* schema is present before any resize ran.
  for (const char* name :
       {"malleable.resizes", "malleable.resize_failures",
        "malleable.spawn_ms", "malleable.redistribute_ms",
        "malleable.redistributed_bytes", "malleable.ranks_spawned",
        "malleable.ranks_retired", "malleable.ranks_lost",
        "malleable.jobs_completed", "malleable.jobs_failed"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(json.find("spawn-timeout"), std::string::npos);
  EXPECT_NE(json.find("partial-rollback"), std::string::npos);
}

TEST_F(MalleableTest, TreeSpawnBeatsSequentialAt32Ranks) {
  double spawn_seconds[2] = {0.0, 0.0};
  int rounds[2] = {0, 0};
  const mpi::SpawnStrategy strategies[2] = {mpi::SpawnStrategy::kSequential,
                                            mpi::SpawnStrategy::kTree};
  for (int s = 0; s < 2; ++s) {
    Engine engine;
    net::Network net(engine, net_options());
    std::vector<std::unique_ptr<host::Host>> hosts;
    for (int i = 1; i <= kHosts; ++i) {
      host::HostSpec spec;
      spec.name = "ws" + std::to_string(i);
      hosts.push_back(std::make_unique<host::Host>(engine, spec));
      net.attach(*hosts.back());
    }
    mpi::MpiSystem mpi(engine, net);
    MalleableEngine::Options options;
    options.spawn_timeout = 120.0;
    MalleableEngine malleable(mpi, net, options);
    auto spec = small_job("job");
    spec.workload.iterations = 4;
    spec.workload.work_per_block = 1.0;
    spec.workload.blocks = 64;
    spec.strategy = strategies[s];
    malleable.launch(spec, {"ws1", "ws2"});
    engine.run_until(0.5);
    std::vector<std::string> targets;
    for (int i = 3; i < 35; ++i) {
      targets.push_back("ws" + std::to_string(i));
    }
    ASSERT_TRUE(malleable.request_resize("job", ResizeVerb::kExpand, 32,
                                         targets));
    engine.run_until(2000.0);
    ASSERT_EQ(malleable.history().size(), 1U);
    ASSERT_EQ(malleable.history().front().outcome, kCommitted);
    spawn_seconds[s] = malleable.history().front().spawn_seconds;
    rounds[s] = malleable.history().front().spawn_rounds;
  }
  // Tree fan-out is logarithmic in the group size; sequential is linear.
  // At 32 ranks the difference must be decisive (paper's DPM cost model).
  EXPECT_LT(spawn_seconds[1], spawn_seconds[0] / 3.0)
      << "tree=" << spawn_seconds[1] << " sequential=" << spawn_seconds[0];
  EXPECT_EQ(rounds[0], 32);
  EXPECT_LT(rounds[1], 8);
}

/// Run one full resize-heavy scenario and return the trace (determinism
/// fixture: the whole run must be byte-identical across repeats).
std::string traced_run(mpi::SpawnStrategy strategy, std::uint64_t seed) {
  Engine engine;
  obs::Tracer tracer;
  engine.attach_sinks(&tracer, nullptr);
  net::Network::Options net_options;
  net_options.latency = 0.001;
  net::Network net(engine, net_options);
  std::vector<std::unique_ptr<host::Host>> hosts;
  for (int i = 1; i <= 16; ++i) {
    host::HostSpec spec;
    spec.name = "ws" + std::to_string(i);
    hosts.push_back(std::make_unique<host::Host>(engine, spec));
    net.attach(*hosts.back());
  }
  mpi::MpiSystem mpi(engine, net);
  MalleableEngine malleable(mpi, net);
  JobSpec spec;
  spec.name = "job";
  spec.workload.blocks = 24;
  spec.workload.work_per_block = 0.1;
  spec.workload.iterations = 12;
  spec.strategy = strategy;
  malleable.launch(spec, {"ws1", "ws2", "ws3"});
  // The seed perturbs request timing, so each seed exercises a different
  // interleaving of requests against iteration boundaries.
  const double skew = static_cast<double>(seed % 97) * 0.037;
  engine.run_until(0.5 + skew);
  EXPECT_TRUE(malleable.request_resize("job", ResizeVerb::kExpand, 3,
                                       {"ws4", "ws5", "ws6"}));
  engine.run_until(30.0 + skew);
  (void)malleable.request_resize("job", ResizeVerb::kShrink, 2);
  engine.run_until(60.0 + 2.0 * skew);
  (void)malleable.request_resize("job", ResizeVerb::kExpand, 2,
                                 {"ws7", "ws8"});
  engine.run_until(600.0);
  EXPECT_TRUE(malleable.finished("job"));
  return tracer.to_jsonl();
}

TEST(MalleableDeterminism, SequentialSpawnByteIdenticalAcrossRuns) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    const std::string first = traced_run(mpi::SpawnStrategy::kSequential, seed);
    const std::string second =
        traced_run(mpi::SpawnStrategy::kSequential, seed);
    EXPECT_EQ(first, second) << "seed " << seed;
    EXPECT_FALSE(first.empty());
  }
}

TEST(MalleableDeterminism, TreeSpawnByteIdenticalAcrossRuns) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    const std::string first = traced_run(mpi::SpawnStrategy::kTree, seed);
    const std::string second = traced_run(mpi::SpawnStrategy::kTree, seed);
    EXPECT_EQ(first, second) << "seed " << seed;
    EXPECT_FALSE(first.empty());
  }
}

}  // namespace
}  // namespace ars::malleable
