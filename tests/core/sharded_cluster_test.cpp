// ShardedCluster determinism and cross-shard behavior (ISSUE 7).
//
// The three determinism contracts the sharded core promises:
//   (a) shards=1 runs inline (no threads, no epochs) and repeats
//       byte-identically — the legacy single-engine composition;
//   (b) a fixed shard count repeats byte-identically across runs, in both
//       the hierarchical and the flat (cross-shard-heavy) registry shapes;
//   (c) chaos (a fault plan: seeded message loss, monitor stalls, crashes)
//       replays byte-identically under N shards for the same seed and
//       diverges for a different one.
//
// These tests also double as the obs-confinement regression: every N-shard
// run writes per-shard tracers/metrics from worker threads and folds them
// with merged_jsonl()/merge_from(), so the sharding-labelled TSan CI job
// race-checks exactly this merge.
//
// The merged trace of a small run holds no event that depends on the shard
// layout, so a fault-free run also digests every datagram each shard posts
// and keeps every registry's decision log: the stream that the epochs and
// the cross-shard delivery order shape.

#include "ars/core/sharded_cluster.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ars/support/hash.hpp"

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

/// Folds every datagram its network posts (sent time, source,
/// destination, port, size) into one FNV-1a digest.  It drops, duplicates
/// and delays nothing.
class DatagramDigest final : public net::FaultPolicy {
 public:
  PostVerdict on_post(const net::Message& message) override {
    char fields[64];
    std::snprintf(fields, sizeof fields, " %.17g %d %llu", message.sent_at,
                  message.dst_port,
                  static_cast<unsigned long long>(message.size_bytes));
    digest_ = support::fnv1a(std::to_string(digest_) + ' ' +
                             message.src_host + ' ' + message.dst_host +
                             fields);
    return {};
  }
  double bandwidth_factor(const std::string&, const std::string&) override {
    return 1.0;
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  std::uint64_t digest_ = 0;
};

/// A run's report plus what it leaves out: each shard's datagram digest
/// (none when a fault plan holds the fault-policy slot) and every
/// registry's decision log, the root's first.
struct Observed {
  core::ShardedClusterReport report;
  std::vector<std::uint64_t> datagram_digests;
  std::vector<std::string> decision_logs;
};

Observed observe(core::ShardedCluster& cluster) {
  const std::size_t shards = cluster.group().size();
  std::vector<DatagramDigest> digests(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    if (cluster.network(shard).fault_policy() == nullptr) {
      cluster.network(shard).set_fault_policy(&digests[shard]);
    }
  }
  Observed observed{cluster.run(), {},
                    {cluster.root_registry().decision_log()}};
  for (std::size_t shard = 0; shard < shards; ++shard) {
    if (cluster.network(shard).fault_policy() == &digests[shard]) {
      cluster.network(shard).set_fault_policy(nullptr);
      observed.datagram_digests.push_back(digests[shard].digest());
    }
    registry::Registry& registry = cluster.shard_registry(shard);
    if (&registry != &cluster.root_registry()) {
      observed.decision_logs.push_back(registry.decision_log());
    }
  }
  return observed;
}

Observed run_once(const core::ShardedClusterOptions& o) {
  core::ShardedCluster cluster(o);
  return observe(cluster);
}

void expect_identical(const Observed& first, const Observed& second) {
  EXPECT_EQ(first.datagram_digests, second.datagram_digests);
  EXPECT_EQ(first.decision_logs, second.decision_logs);
  const core::ShardedClusterReport& a = first.report;
  const core::ShardedClusterReport& b = second.report;
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
  const Observed a = observe(cluster);
  EXPECT_EQ(cluster.group().epochs(), 0u);  // contract (a): inline path
  EXPECT_EQ(a.report.epochs, 0u);
  EXPECT_EQ(a.report.cross_messages, 0u);
  EXPECT_EQ(a.report.registered_hosts, options.hosts);
  EXPECT_GT(a.report.consults, 0);
  EXPECT_GT(a.report.trace_events, 0u);

  expect_identical(a, run_once(options));
}

TEST(ShardedCluster, HierarchicalFourShardsRepeatByteIdentically) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.hosts = 32;
  options.hierarchical = true;

  core::ShardedCluster cluster(options);
  const Observed a = observe(cluster);
  EXPECT_GT(a.report.epochs, 0u);
  // Heartbeats stay shard-local; the children's periodic health reports to
  // the root are the only fabric traffic.
  EXPECT_GT(a.report.cross_messages, 0u);
  EXPECT_EQ(a.report.registered_hosts, options.hosts);
  EXPECT_GT(a.report.consults, 0);
  EXPECT_EQ(a.report.shard_events.size(), 4u);

  expect_identical(a, run_once(options));
}

TEST(ShardedCluster, FlatModeHeartbeatsCrossTheFabric) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.duration = 50.0;
  options.hierarchical = false;

  core::ShardedCluster cluster(options);
  const Observed a = observe(cluster);
  // Three of the four shards reach the root registry through the router.
  EXPECT_GT(a.report.cross_messages, 0u);
  EXPECT_EQ(a.report.registered_hosts, options.hosts);
  EXPECT_EQ(&cluster.shard_registry(2), &cluster.root_registry());

  expect_identical(a, run_once(options));
}

// Contract (b) over 1, 2 and 4 shards, hierarchical and flat, down to the
// datagram stream: every shard posts, and a rerun posts the same stream.
TEST(ShardedCluster, EveryLayoutRepeatsItsDatagramStream) {
  for (const int shards : {1, 2, 4}) {
    for (const bool hierarchical : {true, false}) {
      SCOPED_TRACE(std::to_string(shards) +
                   (hierarchical ? " shards, hierarchical" : " shards, flat"));
      core::ShardedClusterOptions options = small_options();
      options.shards = shards;
      options.hierarchical = hierarchical;

      const Observed a = run_once(options);
      ASSERT_EQ(a.datagram_digests.size(), static_cast<std::size_t>(shards));
      for (const std::uint64_t digest : a.datagram_digests) {
        EXPECT_NE(digest, 0u);
      }
      EXPECT_GT(a.report.consults, 0);
      expect_identical(a, run_once(options));
    }
  }
}

// What a rerun cannot check: a deterministic change to the epoch horizon or
// to cross-shard delivery repeats itself, so the tests above pass it.  These
// values were taken from the engine before the change they guard against;
// a change that moves one on purpose re-pins it and says why.
struct Pinned {
  int shards;
  bool hierarchical;
  std::uint64_t events;
  std::uint64_t epochs;
  std::uint64_t cross_messages;
  std::uint64_t trace_hash;
  std::vector<std::uint64_t> decision_log_hashes;  // FNV-1a, root's first
};

TEST(ShardedCluster, EveryLayoutMatchesItsPinnedValues) {
  constexpr std::uint64_t kEmpty = support::fnv1a("");  // no decision
  const Pinned pins[] = {
      {1, true, 2097, 0, 0, 12223664958514748253ULL,
       {kEmpty, 3795061470539949321ULL}},
      {1, false, 2036, 0, 0, 13482038914836592667ULL, {3795061470539949321ULL}},
      {2, true, 2149, 255, 3, 16327131699956980773ULL,
       {kEmpty, 13114462019800996347ULL, 11014786543224487665ULL}},
      {2, false, 1702, 350, 108, 1405271151150416994ULL,
       {14585904771192816548ULL}},
      {4, true, 2247, 255, 9, 16653049652866798703ULL,
       {kEmpty, 8340403885954545149ULL, 3162876180821321649ULL,
        11014786543224487665ULL, kEmpty}},
      {4, false, 1442, 426, 192, 5090191329823482804ULL,
       {13870558849661052453ULL}},
  };
  for (const Pinned& pin : pins) {
    const std::string layout = pin.hierarchical ? "hierarchical" : "flat";
    SCOPED_TRACE(std::to_string(pin.shards) + " shards, " + layout);
    core::ShardedClusterOptions options = small_options();
    options.shards = pin.shards;
    options.hierarchical = pin.hierarchical;

    const Observed a = run_once(options);
    EXPECT_EQ(a.report.events, pin.events);
    EXPECT_EQ(a.report.epochs, pin.epochs);
    EXPECT_EQ(a.report.cross_messages, pin.cross_messages);
    EXPECT_EQ(a.report.trace_hash, pin.trace_hash);
    std::vector<std::uint64_t> hashes;
    for (const std::string& log : a.decision_logs) {
      hashes.push_back(support::fnv1a(log));
    }
    EXPECT_EQ(hashes, pin.decision_log_hashes);
  }
}

TEST(ShardedCluster, ChaosReplayIsSeedStableUnderShards) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.duration = 60.0;
  options.hierarchical = false;  // most datagrams face the loss fault
  options.faults.message_loss(5.0, 40.0, 0.25);
  options.seed = 7;

  const Observed a = run_once(options);
  EXPECT_GT(a.report.dropped, 0u);
  expect_identical(a, run_once(options));  // contract (c): same seed

  core::ShardedClusterOptions reseeded = options;
  reseeded.seed = 8;
  const Observed c = run_once(reseeded);
  EXPECT_NE(a.report.merged_trace, c.report.merged_trace);
}

TEST(ShardedCluster, CrashWindowSilencesMonitorsDeterministically) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 2;
  options.hosts = 8;
  options.duration = 80.0;
  // The first two hosts of each shard fall silent over [20, 45).
  for (const char* host : {"ws000000", "ws000001", "ws000004", "ws000005"}) {
    options.faults.monitor_stall(20.0, 45.0, host);
  }

  const Observed a = run_once(options);
  expect_identical(a, run_once(options));

  core::ShardedClusterOptions healthy = options;
  healthy.faults = chaos::FaultPlan{};
  const Observed c = run_once(healthy);
  EXPECT_NE(a.report.merged_trace, c.report.merged_trace);
}

TEST(ShardedCluster, FaultOnAHostNoShardHoldsIsRefused) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 2;
  options.faults.host_crash(10.0, 20.0, "ws000016");  // hosts are 0..15
  EXPECT_THROW(core::ShardedCluster{options}, std::invalid_argument);

  core::ShardedClusterOptions lossy = small_options();
  lossy.shards = 2;
  lossy.faults.message_loss(10.0, 20.0, 0.5, "ws99");
  EXPECT_THROW(core::ShardedCluster{lossy}, std::invalid_argument);

  // A registry host runs no monitor to stall.
  core::ShardedClusterOptions stalled = small_options();
  stalled.shards = 2;
  stalled.faults.monitor_stall(10.0, 20.0, "reg1");
  EXPECT_THROW(core::ShardedCluster{stalled}, std::invalid_argument);
}

// The sharded deployment under a control-loss-shaped plan: message loss,
// duplication and delay, a monitor stall and a host crash in different
// shards, and every child registry crashed and cold-restarted.  Soft state
// (paper §3) must absorb it: one lease TTL plus a keyframe period after
// the last fault, every worker is leased again at its registry.
TEST(ShardedCluster, ControlLossPlanLeavesNoWorkerUnleased) {
  core::ShardedClusterOptions options;
  options.hosts = 2000;
  options.shards = 4;
  options.hierarchical = true;
  options.seed = 3;
  options.faults = chaos::FaultPlan{"sharded-control-loss"};
  options.faults.message_loss(40.0, 100.0, 0.30)
      .message_duplicate(40.0, 100.0, 0.10)
      .message_delay(50.0, 90.0, 0.20, 0.5)
      .monitor_stall(60.0, 110.0, "ws000100")  // shard 0
      .host_crash(70.0, 120.0, "ws001700")     // shard 3
      .registry_crash(130.0, 140.0);
  // Lease TTL (35 s) plus full_status_every (6) monitoring cycles of at
  // most 10 s: a cold registry has heard a keyframe from every host.
  options.duration = options.faults.last_disruption_end() + 35.0 + 6 * 10.0;

  core::ShardedCluster cluster(options);
  const Observed a = observe(cluster);
  EXPECT_GT(a.report.dropped, 0u);
  EXPECT_NE(a.report.merged_trace.find("\"registry.cold_restart\""),
            std::string::npos);
  int leased = 0;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (const auto& [host, entry] : cluster.shard_registry(shard).hosts()) {
      EXPECT_NE(entry.state, rules::SystemState::kUnavailable) << host;
      ++leased;
    }
  }
  EXPECT_EQ(leased, options.hosts);
  EXPECT_EQ(a.report.registered_hosts, options.hosts);

  expect_identical(a, run_once(options));
}

TEST(ShardedClusterPlan, ParsesOverridesAndRefusesUnknownKeys) {
  const std::string text = R"({
    "name": "huge", "hosts": 1000, "shards": 8, "duration": 30.5,
    "cross_latency": 0.01, "hierarchical": false, "delta_heartbeats": false,
    "seed": 42, "busy_fraction": 0.2, "overloaded_fraction": 0.1,
    "faults": [
      {"kind": "message_loss", "at": 1.0, "until": 2.0, "probability": 0.05},
      {"kind": "monitor_stall", "at": 4.0, "until": 5.0, "host_a": "ws3"},
      {"kind": "registry_crash", "at": 6.0, "until": 7.0}
    ],
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
  ASSERT_EQ(o.faults.specs().size(), 3u);
  EXPECT_EQ(o.faults.name(), "huge");
  EXPECT_EQ(o.faults.specs()[0].kind, chaos::FaultKind::kMessageLoss);
  EXPECT_DOUBLE_EQ(o.faults.specs()[0].probability, 0.05);
  EXPECT_DOUBLE_EQ(o.faults.specs()[0].until, 2.0);
  EXPECT_EQ(o.faults.specs()[1].kind, chaos::FaultKind::kMonitorStall);
  EXPECT_EQ(o.faults.specs()[1].host_a, "ws3");
  EXPECT_EQ(o.faults.specs()[2].kind, chaos::FaultKind::kRegistryCrash);
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
      {R"({"trace_capacity": -1})", "plan.trace_capacity"},
      {R"({"trace_capacity": 1.5e20})", "plan.trace_capacity"},
      {R"({"seed": -5})", "plan.seed"},
      {R"({"seed": 2.5})", "plan.seed"},
      {R"({"cross_latency": 0})", "plan.cross_latency"},
      {R"({"cross_latency": -0.005})", "plan.cross_latency"},
      {R"({"duration": -1})", "plan.duration"},
      {R"({"hierarchical": "false"})", "plan.hierarchical"},
      {R"({"busy_fraction": 2})", "plan.busy_fraction"},
      {R"({"busy_fraction": 1.5})", "plan.busy_fraction"},
      {R"({"faults": {}})", "plan.faults"},
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

// A cluster plan's faults are read with the fault plan's own per-spec
// table and rules: a bad spec is refused with its path.
TEST(ShardedClusterPlan, RefusesMalformedFaultsWithTheirPath) {
  const std::pair<const char*, const char*> refused[] = {
      {R"({"faults": [{"kind": "message_loss", "at": 1, "probability": 5}]})",
       "plan.probability: $.faults[0].probability: "},
      {R"({"faults": [{"kind": "registry_crash", "at": 1},)"
       R"( {"kind": "message_loss", "at": 1, "probabilty": 0.5}]})",
       "plan.probabilty: $.faults[1].probabilty: unknown key"},
      {R"({"faults": [{"kind": "host_crash_rate", "at": 1, "until": 9}]})",
       "plan.mtbf: $.faults[0].mtbf: "},
      {R"({"faults": [{"kind": "meteor", "at": 1}]})",
       "plan.kind: $.faults[0].kind: "},
      {R"({"faults": [{"kind": "registry_crash"}]})",
       "plan.at: $.faults[0].at: "},
  };
  for (const auto& [text, expected] : refused) {
    const auto loaded = core::load_cluster_plan(text);
    ASSERT_FALSE(loaded.has_value()) << text;
    const std::string got =
        loaded.error().code + ": " + loaded.error().message;
    EXPECT_EQ(got.rfind(expected, 0), 0u) << text << " -> " << got;
  }
}

// The six keys of the sharded cluster's former private fault mechanism are
// gone: a plan that still sets one is refused, never run fault-free.
TEST(ShardedClusterPlan, RefusesTheRetiredFaultKeys) {
  for (const char* key : {"message_loss", "loss_from", "loss_until",
                          "crash_hosts", "crash_at", "crash_until"}) {
    const auto loaded =
        core::load_cluster_plan("{\"" + std::string(key) + "\": 1}");
    ASSERT_FALSE(loaded.has_value()) << key;
    EXPECT_EQ(loaded.error().code, "plan." + std::string(key));
    EXPECT_EQ(loaded.error().message,
              "$." + std::string(key) + ": unknown key");
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
  // The smoke plan's faults: a loss window, a monitor stall and a registry
  // cold restart, all healed inside its 30 s.
  ASSERT_EQ(smoke->faults.specs().size(), 3u);
  EXPECT_EQ(smoke->faults.specs()[0].kind, chaos::FaultKind::kMessageLoss);
  EXPECT_EQ(smoke->faults.specs()[1].kind, chaos::FaultKind::kMonitorStall);
  EXPECT_EQ(smoke->faults.specs()[2].kind, chaos::FaultKind::kRegistryCrash);
  EXPECT_LT(smoke->faults.last_disruption_end(), smoke->duration);
  EXPECT_TRUE(huge->faults.empty());
  EXPECT_NO_THROW(core::ShardedCluster{*smoke});
}

// What scripts/gen_cluster_plan.py writes loads.
TEST(ShardedClusterPlan, GeneratedPlansLoad) {
#ifndef ARS_PYTHON3
  GTEST_SKIP() << "python3 was not found at configure time";
#else
  const std::string command =
      "\"" ARS_PYTHON3 "\" \"" ARS_SOURCE_DIR
      "/scripts/gen_cluster_plan.py\" --hosts 2000 --shards 4 --duration 30";
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
  EXPECT_TRUE(loaded->faults.empty());
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
