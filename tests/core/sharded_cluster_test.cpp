// ShardedCluster determinism and cross-shard behavior (ISSUE 7).
//
// The three determinism contracts the sharded core promises:
//   (a) shards=1 runs inline (no threads, no epochs) and repeats
//       byte-identically — the legacy single-engine composition;
//   (b) a fixed shard count repeats byte-identically across runs, in both
//       the hierarchical and the flat (cross-shard-heavy) registry shapes;
//   (c) chaos (seeded message loss, crash windows) replays byte-identically
//       under N shards for the same seed and diverges for a different one.
//
// These tests also double as the obs-confinement regression: every N-shard
// run writes per-shard tracers/metrics from worker threads and folds them
// with merged_jsonl()/merge_from(), so the sharding-labelled TSan CI job
// race-checks exactly this merge.

#include "ars/core/sharded_cluster.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace ars {
namespace {

core::ShardedClusterOptions small_options() {
  core::ShardedClusterOptions options;
  options.hosts = 16;
  options.duration = 100.0;  // past the policy warmup: consults happen
  options.overloaded_fraction = 0.10;
  options.busy_fraction = 0.25;
  return options;
}

core::ShardedClusterReport run_once(const core::ShardedClusterOptions& o) {
  core::ShardedCluster cluster(o);
  return cluster.run();
}

void expect_identical(const core::ShardedClusterReport& a,
                      const core::ShardedClusterReport& b) {
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.merged_trace, b.merged_trace);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.shard_events, b.shard_events);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.cross_messages, b.cross_messages);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.consults, b.consults);
  EXPECT_EQ(a.registered_hosts, b.registered_hosts);
}

TEST(ShardedCluster, SingleShardRunsInlineAndRepeatsByteIdentically) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 1;
  options.hierarchical = false;

  core::ShardedCluster cluster(options);
  const core::ShardedClusterReport a = cluster.run();
  EXPECT_FALSE(cluster.group().threaded());  // contract (a): inline path
  EXPECT_EQ(a.epochs, 0u);
  EXPECT_EQ(a.cross_messages, 0u);
  EXPECT_EQ(a.registered_hosts, options.hosts);
  EXPECT_GT(a.consults, 0);
  EXPECT_GT(a.trace_events, 0u);

  expect_identical(a, run_once(options));
}

TEST(ShardedCluster, HierarchicalFourShardsRepeatByteIdentically) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.hosts = 32;
  options.hierarchical = true;

  core::ShardedCluster cluster(options);
  const core::ShardedClusterReport a = cluster.run();
  EXPECT_GT(a.epochs, 0u);
  // Heartbeats stay shard-local; the children's periodic health reports to
  // the root are the only fabric traffic.
  EXPECT_GT(a.cross_messages, 0u);
  EXPECT_EQ(a.registered_hosts, options.hosts);
  EXPECT_GT(a.consults, 0);
  EXPECT_EQ(a.shard_events.size(), 4u);

  expect_identical(a, run_once(options));
}

TEST(ShardedCluster, FlatModeHeartbeatsCrossTheFabric) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.duration = 50.0;
  options.hierarchical = false;

  core::ShardedCluster cluster(options);
  const core::ShardedClusterReport a = cluster.run();
  // Three of the four shards reach the root registry through the router.
  EXPECT_GT(a.cross_messages, 0u);
  EXPECT_EQ(a.registered_hosts, options.hosts);
  EXPECT_EQ(&cluster.shard_registry(2), &cluster.root_registry());

  expect_identical(a, run_once(options));
}

TEST(ShardedCluster, ChaosReplayIsSeedStableUnderShards) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.duration = 60.0;
  options.hierarchical = false;  // most datagrams face the loss policy
  options.message_loss = 0.25;
  options.loss_from = 5.0;
  options.loss_until = 40.0;
  options.seed = 7;

  const core::ShardedClusterReport a = run_once(options);
  EXPECT_GT(a.dropped, 0u);
  expect_identical(a, run_once(options));  // contract (c): same seed

  core::ShardedClusterOptions reseeded = options;
  reseeded.seed = 8;
  const core::ShardedClusterReport c = run_once(reseeded);
  EXPECT_NE(a.merged_trace, c.merged_trace);
}

TEST(ShardedCluster, CrashWindowSilencesMonitorsDeterministically) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 2;
  options.hosts = 8;
  options.duration = 80.0;
  options.crash_hosts = 2;  // the first two hosts of each shard
  options.crash_at = 20.0;
  options.crash_until = 45.0;

  const core::ShardedClusterReport a = run_once(options);
  expect_identical(a, run_once(options));

  core::ShardedClusterOptions healthy = options;
  healthy.crash_hosts = 0;
  const core::ShardedClusterReport c = run_once(healthy);
  EXPECT_NE(a.merged_trace, c.merged_trace);
}

TEST(ShardedClusterPlan, ParsesOverridesAndRefusesUnknownKeys) {
  const std::string text = R"({
    "name": "huge", "hosts": 1000, "shards": 8, "duration": 30.5,
    "cross_latency": 0.01, "hierarchical": false, "delta_heartbeats": false,
    "seed": 42, "busy_fraction": 0.2, "overloaded_fraction": 0.1,
    "message_loss": 0.05, "loss_from": 1.0, "loss_until": 2.0,
    "crash_hosts": 3, "crash_at": 4.0, "crash_until": 5.0,
    "tracing": false, "trace_capacity": 64
  })";
  const auto loaded = core::load_cluster_plan(text);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().to_string();
  const core::ShardedClusterOptions& o = loaded.value();
  EXPECT_EQ(o.name, "huge");
  EXPECT_EQ(o.hosts, 1000);
  EXPECT_EQ(o.shards, 8);
  EXPECT_DOUBLE_EQ(o.duration, 30.5);
  EXPECT_DOUBLE_EQ(o.cross_latency, 0.01);
  EXPECT_FALSE(o.hierarchical);
  EXPECT_FALSE(o.delta_heartbeats);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_DOUBLE_EQ(o.message_loss, 0.05);
  EXPECT_EQ(o.crash_hosts, 3);
  EXPECT_FALSE(o.tracing);
  EXPECT_EQ(o.trace_capacity, 64u);
  // A typo would otherwise run the default it failed to override.
  const auto typo = core::load_cluster_plan(R"({"name": "t", "hots": 5})");
  ASSERT_FALSE(typo.has_value());
  EXPECT_EQ(typo.error().code, "plan.hots");
  EXPECT_EQ(typo.error().message, "$.hots: unknown key");
}

TEST(ShardedClusterPlan, RejectsMalformedPlans) {
  EXPECT_FALSE(core::load_cluster_plan("not json").has_value());
  EXPECT_FALSE(core::load_cluster_plan("[1,2]").has_value());
  // A plan is outside input: every key must be one the loader knows, of
  // its JSON type, counts whole numbers in their type's range, and every
  // value inside its bounds, or the key is named in the error (never
  // ignored, defaulted, truncated, wrapped, or left for ShardGroup to
  // throw on).
  const std::pair<const char*, const char*> refused[] = {
      {R"({"shards": 0})", "plan.shards"},
      {R"({"hosts": 0})", "plan.hosts"},
      {R"({"hosts": 2.7})", "plan.hosts"},
      {R"({"hosts": 3e9})", "plan.hosts"},
      {R"({"hosts": "2000"})", "plan.hosts"},
      {R"({"hosts": true})", "plan.hosts"},
      {R"({"shards": 1.5})", "plan.shards"},
      {R"({"crash_hosts": 1e10})", "plan.crash_hosts"},
      {R"({"crash_hosts": -1})", "plan.crash_hosts"},
      {R"({"trace_capacity": -1})", "plan.trace_capacity"},
      {R"({"trace_capacity": 1.5e20})", "plan.trace_capacity"},
      {R"({"seed": -5})", "plan.seed"},
      {R"({"seed": 2.5})", "plan.seed"},
      {R"({"cross_latency": 0})", "plan.cross_latency"},
      {R"({"cross_latency": -0.005})", "plan.cross_latency"},
      {R"({"duration": -1})", "plan.duration"},
      {R"({"hierarchical": "false"})", "plan.hierarchical"},
      {R"({"message_loss": 5})", "plan.message_loss"},
      {R"({"busy_fraction": 2})", "plan.busy_fraction"},
      {R"({"busy_fraction": 1.5})", "plan.busy_fraction"},
      {R"({"crash_at": -3})", "plan.crash_at"},
      {R"({"delta_heartbeat": false})", "plan.delta_heartbeat"},
      {R"({"craash_hosts": 3})", "plan.craash_hosts"},
      {R"({"generator": "x"})", "plan.generator"},
  };
  for (const auto& [text, code] : refused) {
    const auto loaded = core::load_cluster_plan(text);
    ASSERT_FALSE(loaded.has_value()) << text;
    EXPECT_EQ(loaded.error().code, code) << text;
    const std::string path = "$." + std::string(code).substr(5) + ": ";
    EXPECT_EQ(loaded.error().message.rfind(path, 0), 0u)
        << text << " -> " << loaded.error().message;
  }
}

std::string read_plan_file(const std::string& name) {
  std::ifstream in(ARS_SOURCE_DIR "/plans/" + name + ".json");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ShardedClusterPlan, CommittedPlansLoad) {
  const auto huge = core::load_cluster_plan(read_plan_file("huge-cluster"));
  ASSERT_TRUE(huge.has_value()) << huge.error().to_string();
  EXPECT_EQ(huge->name, "huge-cluster");
  EXPECT_EQ(huge->hosts, 100000);
  EXPECT_EQ(huge->shards, 8);
  EXPECT_FALSE(huge->tracing);
  const auto smoke =
      core::load_cluster_plan(read_plan_file("huge-cluster-smoke"));
  ASSERT_TRUE(smoke.has_value()) << smoke.error().to_string();
  EXPECT_EQ(smoke->name, "huge-cluster-smoke");
  EXPECT_EQ(smoke->hosts, 2000);
  EXPECT_EQ(smoke->shards, 4);
  EXPECT_DOUBLE_EQ(smoke->duration, 30.0);
  EXPECT_TRUE(smoke->tracing);
}

// What scripts/gen_cluster_plan.py writes loads, chaos windows included.
TEST(ShardedClusterPlan, GeneratedPlansLoad) {
#ifndef ARS_PYTHON3
  GTEST_SKIP() << "python3 was not found at configure time";
#else
  const std::string command =
      "\"" ARS_PYTHON3 "\" \"" ARS_SOURCE_DIR
      "/scripts/gen_cluster_plan.py\" --hosts 2000 --shards 4 --duration 30"
      " --message-loss 0.05 --crash-hosts 3";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string text;
  char buffer[4096];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    text.append(buffer, n);
  }
  ASSERT_EQ(pclose(pipe), 0) << command;
  const auto loaded = core::load_cluster_plan(text);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().to_string();
  EXPECT_EQ(loaded->name, "cluster-2000x4");
  EXPECT_EQ(loaded->hosts, 2000);
  EXPECT_EQ(loaded->shards, 4);
  EXPECT_DOUBLE_EQ(loaded->message_loss, 0.05);
  EXPECT_DOUBLE_EQ(loaded->loss_until, 30.0);
  EXPECT_EQ(loaded->crash_hosts, 3);
  EXPECT_DOUBLE_EQ(loaded->crash_until, 30.0);
#endif
}

TEST(ShardedClusterPlan, DefaultsSurviveAnEmptyPlan) {
  const auto loaded = core::load_cluster_plan("{}");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded.value().shards, 1);
  EXPECT_EQ(loaded.value().hosts, 64);
  EXPECT_TRUE(loaded.value().hierarchical);
  const auto minimal = core::load_cluster_plan(
      R"({"name": "t", "hosts": 100, "shards": 2, "duration": 30.0})");
  ASSERT_TRUE(minimal.has_value()) << minimal.error().to_string();
  EXPECT_EQ(minimal->hosts, 100);
  EXPECT_DOUBLE_EQ(minimal->busy_fraction, 0.30);
}

}  // namespace
}  // namespace ars
