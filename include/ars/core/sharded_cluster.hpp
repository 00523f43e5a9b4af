#pragma once
// ShardedCluster: the 100k-host scaling scenario on the parallel DES core.
//
// Assembles one sim::ShardGroup (one Engine per worker thread), one
// net::Network + obs::Tracer + obs::MetricsRegistry per shard (single-writer
// confinement), a block-partitioned fleet of monitored workstations, and the
// registry tier:
//
//   * hierarchical (default): each shard runs a child registry ("reg<s>",
//     port 5100) for its own hosts; the children report health to a root
//     registry ("root", port 5000, shard 0) over the cross-shard fabric.
//     This mirrors the paper's §3 hierarchical-domain deployment and keeps
//     heartbeat traffic shard-local — only periodic HealthReportMsg crosses.
//   * flat: every monitor heartbeats the single root registry directly, so
//     most traffic crosses shards — the determinism / router stress shape.
//
// Host load is static and deterministic: each host's LoadAverage is seeded
// via set_ambient_runnable() and sampling is never started, so a configured
// fraction of hosts sits permanently overloaded (consulting the registry at
// the policy's overloaded frequency) without any per-host CPU events.  That
// keeps the per-event cost at 100k hosts down to heartbeat + registry work,
// which is exactly what the scaling benchmark wants to measure.
//
// Determinism: for a fixed shard count, runs are byte-identical — every
// stochastic choice draws from shard-salted xoshiro streams, cross-shard
// delivery is merge-sorted by (timestamp, source shard, sequence), and the
// merged trace orders by (timestamp, shard, recording order).  With
// shards=1 the group runs inline on the caller thread (no threads, no
// epochs), matching the legacy single-engine composition bit for bit.
//
// Thread contract: construct, run(), and inspect from one thread; inside
// ShardGroup::run_until each shard's thread touches only its own shard's
// engine/network/tracer/metrics, apart from looking a cross-shard
// destination up in the other networks' name indexes, which no one writes
// during the run.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ars/chaos/injector.hpp"
#include "ars/host/host.hpp"
#include "ars/monitor/monitor.hpp"
#include "ars/net/network.hpp"
#include "ars/net/shard_router.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/registry/registry.hpp"
#include "ars/sim/shard.hpp"
#include "ars/support/expected.hpp"

namespace ars::core {

struct ShardedClusterOptions {
  std::string name = "sharded-cluster";
  int shards = 1;
  int hosts = 64;
  /// Virtual seconds to simulate.
  double duration = 120.0;
  /// Inter-domain fabric latency: the shard group's lookahead, which the
  /// router charges every cross-shard datagram.
  double cross_latency = 0.005;
  /// Child registry per shard under a root (see header comment); false
  /// sends every heartbeat cross-shard to the single root registry.
  bool hierarchical = true;
  /// Monitors coalesce unchanged-state heartbeats (UpdateBatchMsg).
  bool delta_heartbeats = true;
  /// Base seed; each shard's fault injector salts it with the shard index.
  std::uint64_t seed = 1;
  /// Fractions of the fleet pinned busy / overloaded (rest stay free).
  double busy_fraction = 0.30;
  double overloaded_fraction = 0.05;
  /// Faults: each shard's injector runs the specs that concern it, and a
  /// spec naming a host no shard holds is refused (DESIGN.md §14).
  chaos::FaultPlan faults;
  /// Per-shard trace ring capacity; tracing off makes bench runs cheaper.
  bool tracing = true;
  std::size_t trace_capacity = std::size_t{1} << 12;
};

/// Parse a cluster-plan JSON document (scripts/gen_cluster_plan.py writes
/// them; plans/huge-cluster.json is the committed 100k-host instance).
/// Unknown keys, wrong types, fractional counts and out-of-range values are
/// refused: the error code is "plan.<key>" and the message names its path.
[[nodiscard]] support::Expected<ShardedClusterOptions> load_cluster_plan(
    const std::string& json_text);

/// What one run() observed — everything the determinism tests compare and
/// the scaling bench reports.
struct ShardedClusterReport {
  std::uint64_t events = 0;          // engine events, summed over shards
  std::vector<std::uint64_t> shard_events;
  std::uint64_t epochs = 0;          // 0 on the inline 1-shard path
  std::uint64_t cross_messages = 0;  // datagrams the router forwarded
  std::uint64_t dropped = 0;         // datagrams dropped (chaos + unbound)
  int consults = 0;                  // overload consults sent by monitors
  int registered_hosts = 0;          // live leases at the monitors' registry
  double final_now = 0.0;            // max engine clock after the run
  std::uint64_t trace_hash = 0;      // FNV-1a of merged_trace
  std::size_t trace_events = 0;
  std::string merged_trace;          // merged_jsonl over the shard tracers
  std::string metrics_json;          // merged MetricsRegistry, to_json()
};

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterOptions options);
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  /// Simulate `options().duration` virtual seconds and collect the report.
  /// Call once per instance.
  ShardedClusterReport run();

  [[nodiscard]] sim::ShardGroup& group() noexcept { return group_; }
  [[nodiscard]] net::Network& network(std::size_t shard) {
    return shards_.at(shard)->network();
  }
  /// The root registry ("root" host, shard 0).
  [[nodiscard]] registry::Registry& root_registry();
  /// The registry the shard's monitors report to (the child in
  /// hierarchical mode, the root otherwise).
  [[nodiscard]] registry::Registry& shard_registry(std::size_t shard);

 private:
  // Declaration order is destruction order in reverse: engines (group_)
  // die last; the router, which points into every shard's network, dies
  // first; within a shard, hosts outlive the network, which outlives the
  // monitors and registries that reference it; the fault injector, which
  // references all of them, dies first.
  struct Shard final : chaos::FaultTarget {
    // -- chaos::FaultTarget: this shard's hosts only -------------------------
    sim::Engine& engine() override { return net_->engine(); }
    net::Network& network() override { return *net_; }
    std::vector<std::string> crash_rate_hosts() const override {
      std::vector<std::string> workers;  // every monitored host, in id order
      for (const auto& m : monitors) {
        workers.push_back(m->host().name());
      }
      return workers;
    }
    int fail_host(const std::string& host_name) override {
      if (registry::Registry* r = registry_on(host_name)) {
        r->stop();
      } else {
        monitor_on(host_name).stop();
      }
      return 0;  // no application processes run on a sharded cluster
    }
    void restart_host(const std::string& host_name) override {
      if (registry::Registry* r = registry_on(host_name)) {
        r->restart_cold();
      } else {
        monitor_on(host_name).start();
      }
    }
    monitor::Monitor& monitor_on(const std::string& host_name) override {
      // Workers are attached first: a worker's host id indexes its monitor.
      const auto index = static_cast<std::size_t>(net_->id_of(host_name));
      if (index >= monitors.size()) {
        throw std::invalid_argument("no monitor runs on " + host_name);
      }
      return *monitors[index];
    }
    void crash_registry() override { registry->stop(); }
    void restart_registry() override { registry->restart_cold(); }
    void set_phase_listener(const txn::PhaseListener&) override {}

    /// The registry running on `host_name` (nullptr: none).
    registry::Registry* registry_on(const std::string& host_name) const {
      for (registry::Registry* r : {registry.get(), root.get()}) {
        if (r != nullptr && r->host_name() == host_name) {
          return r;
        }
      }
      return nullptr;
    }

    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::vector<std::unique_ptr<host::Host>> hosts;
    std::unique_ptr<net::Network> net_;
    std::vector<std::unique_ptr<monitor::Monitor>> monitors;
    std::unique_ptr<registry::Registry> registry;  // child / flat root
    std::unique_ptr<registry::Registry> root;      // shard 0 only
    std::unique_ptr<chaos::FaultInjector> injector;
  };

  /// Build one shard's hosts, network, registries and monitors; every
  /// shard's monitors share `classifier`.
  void build_shard(std::size_t shard, const rules::MigrationPolicy& policy,
                   const monitor::Classifier& classifier);
  /// Hand each shard the fault specs that concern it and arm its injector.
  void arm_faults();

  ShardedClusterOptions options_;
  sim::ShardGroup group_;
  std::vector<std::unique_ptr<Shard>> shards_;
  net::ShardRouter router_{group_};
  bool ran_ = false;
};

}  // namespace ars::core
