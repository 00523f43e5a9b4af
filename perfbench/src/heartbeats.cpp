// Workload `heartbeats-20k`: core::ShardedCluster with 20 000 hosts,
// hierarchical child registries, delta heartbeats and tracing off, for 120
// simulated seconds — long enough that overload consults (none before 35 s)
// and child->root health reports both happen.  Per-event cost is all
// control plane: monitor, xmlproto, Network::post and the registry.
//
// Timed passes run on one shard.  On a small shared machine the wall time
// of a 4-thread run follows the hypervisor's scheduling more than the
// code, so the parallel engine (epoch barrier, mailboxes, speedup) is
// measured by a 4-shard pass in the traced run only.
//
// Timed passes advance the group in 1 s slices with a reference loop before
// each, so that the run phase is rescaled to the reference speed slice by
// slice: loops only before and after the ~3 s run did not track its speed.
// One shard runs the slices inline, and the events, consults and epochs of
// a sliced pass repeat exactly (checked).

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ars/core/sharded_cluster.hpp"
#include "capture.hpp"
#include "record.hpp"

namespace perfbench {

namespace {

using namespace ars;

constexpr int kHosts = 20'000;
constexpr int kParallelShards = 4;
constexpr double kDuration = 120.0;
/// Traced passes keep full payload copies of every 8th worker host's
/// datagrams (plus all registry traffic) for the codec/registry replay.
constexpr int kSampleEvery = 8;
/// Reference loops right before the set-up of a timed pass.
constexpr int kSetupReferenceLoops = 3;

core::ShardedClusterOptions cluster_options(const RunArgs& args, int shards) {
  core::ShardedClusterOptions options;
  options.name = "heartbeats-20k";
  options.shards = shards;
  options.hosts = kHosts;
  options.duration = kDuration;
  options.hierarchical = true;
  options.delta_heartbeats = true;
  options.seed = args.seed;
  options.tracing = false;
  return options;
}

struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;  // the run phase, with any reference loops
  SpeedScaled setup_clock;
  SpeedScaled run_clock;  // the run phase's slices
  double cpu_s = 0.0;
  core::ShardedClusterReport report;
  std::size_t decisions = 0;
  std::uint64_t cross_events = 0;
  std::set<int> registry_ports;
};

/// Construct, run and inspect one cluster.  `timed` passes run reference
/// loops before set-up and before each 1 s slice; `capture` (traced passes)
/// gets one recorder per shard; `slices` (traced passes) receives the wall
/// time of each 1 s slice.
Pass run_pass(const core::ShardedClusterOptions& options, bool timed,
              Capture* capture, RunRecord* slices) {
  Pass pass;
  std::vector<Capture> shard_captures;  // one per shard: single writer each
  std::vector<std::unique_ptr<DatagramRecorder>> recorders;
  for (int i = 0; timed && i < kSetupReferenceLoops; ++i) {
    pass.setup_clock.reference();
  }
  const double setup_start = wall_now();
  core::ShardedCluster cluster{options};
  pass.setup_s = wall_now() - setup_start;
  pass.setup_clock.add(pass.setup_s);

  const auto shards = static_cast<std::size_t>(options.shards);
  if (capture != nullptr) {
    shard_captures.resize(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      recorders.push_back(
          std::make_unique<DatagramRecorder>(shard_captures[s], kSampleEvery));
      cluster.network(s).set_fault_policy(recorders.back().get());
    }
  }

  const double cpu_start = cpu_now();
  const double run_start = wall_now();
  // Unsliced passes make one call: cluster.run(), as the last slice does.
  const int last = static_cast<int>(options.duration);
  const bool sliced = timed || slices != nullptr;
  for (int second = sliced ? 1 : last; second <= last; ++second) {
    if (timed) {
      pass.run_clock.reference();
    }
    const double slice_start = wall_now();
    if (second < last) {
      cluster.group().run_until(second);
    } else {
      pass.report = cluster.run();
    }
    const double slice_s = wall_now() - slice_start;
    pass.run_clock.add(slice_s);
    if (slices != nullptr) {
      slices->sample("slice_ms", slice_s * 1e3);
    }
  }
  pass.run_s = wall_now() - run_start;
  pass.cpu_s = cpu_now() - cpu_start;

  for (std::size_t s = 0; s < shards; ++s) {
    cluster.network(s).set_fault_policy(nullptr);
  }
  std::set<const registry::Registry*> registries = {&cluster.root_registry()};
  for (std::size_t s = 0; s < shards; ++s) {
    registries.insert(&cluster.shard_registry(s));
  }
  for (const registry::Registry* registry : registries) {
    pass.decisions += registry->decisions().size();
    pass.registry_ports.insert(registry->port());
  }
  pass.cross_events = cluster.group().cross_events();
  if (capture != nullptr) {
    for (Capture& shard_capture : shard_captures) {
      capture->merge(std::move(shard_capture));
    }
  }
  return pass;
}

/// Same events, consults and epochs.
bool same_simulation(const Pass& a, const Pass& b) {
  return a.report.events == b.report.events &&
         a.report.consults == b.report.consults &&
         a.report.shard_events == b.report.shard_events &&
         a.report.epochs == b.report.epochs;
}

void check_pass(const std::string& name, const Pass& pass, const Pass& first,
                RunRecord& record) {
  record.check(name + ".registered_hosts",
               pass.report.registered_hosts == kHosts,
               std::to_string(pass.report.registered_hosts) +
                   " hosts hold a lease (want " + std::to_string(kHosts) +
                   ")");
  record.check(name + ".repeat_identical", same_simulation(pass, first),
               "event, consult and epoch counts repeat exactly");
}

void record_timed(const Pass& pass, RunRecord& record) {
  const double setup_s = pass.setup_clock.scaled_s();
  record.sample("wall_s", pass.run_clock.scaled_s());
  record.sample("setup_s", setup_s);
  record.sample("raw.wall_s", pass.run_clock.wall_s());
  record.sample("raw.setup_s", pass.setup_s);
  record.sample("raw.reference_ms", pass.run_clock.reference_ms());
  record.sample("core.setup_us_per_host", 1e6 * setup_s / kHosts);
  record.sample("sim.events_per_s", static_cast<double>(pass.report.events) /
                                        pass.run_clock.wall_s());
  record.sample("sim.cpu_per_wall_1shard", pass.cpu_s / pass.run_s);
}

}  // namespace

void run_heartbeats(const RunArgs& args, RunRecord& record) {
  const core::ShardedClusterOptions options = cluster_options(args, 1);
  // The first pass faults in a fresh heap; it is checked but not timed.
  const Pass first = run_pass(options, true, nullptr, nullptr);
  check_pass("heartbeats-20k", first, first, record);
  const double start = wall_now();
  do {
    const Pass pass = run_pass(options, true, nullptr, nullptr);
    check_pass("heartbeats-20k", pass, first, record);
    record_timed(pass, record);
  } while (wall_now() - start < args.seconds);
  record.set("sim.events", static_cast<double>(first.report.events));
  record.set("monitor.consults", static_cast<double>(first.report.consults));
  record.set("registry.decisions", static_cast<double>(first.decisions));
  record.set("net.dropped", static_cast<double>(first.report.dropped));
  if (!args.trace) {
    return;
  }
  const double wall = record.median("raw.wall_s");

  // The same fleet on 4 shards: the parallel engine on the host at hand.
  const core::ShardedClusterOptions parallel =
      cluster_options(args, kParallelShards);
  const Pass four = run_pass(parallel, false, nullptr, nullptr);
  record.check("heartbeats-20k.4shards.registered_hosts",
               four.report.registered_hosts == kHosts,
               std::to_string(four.report.registered_hosts) +
                   " hosts hold a lease on the 4-shard run");
  const auto& shard_events = four.report.shard_events;
  const double max_shard = static_cast<double>(
      *std::max_element(shard_events.begin(), shard_events.end()));
  record.set("sim.shard_speedup", wall / four.run_s);
  record.set("sim.cpu_per_wall", four.cpu_s / four.run_s);
  record.set("sim.epochs", static_cast<double>(four.report.epochs));
  record.set("sim.epoch_us",
             1e6 * four.run_s / static_cast<double>(four.report.epochs));
  record.set("sim.shard_imbalance",
             max_shard * static_cast<double>(shard_events.size()) /
                 static_cast<double>(four.report.events));
  record.set("sim.cross_events", static_cast<double>(four.cross_events));

  // Recording and slicing on the timed configuration, so the overhead
  // compares like with like.
  Capture capture;
  const Pass traced = run_pass(options, false, &capture, &record);
  check_pass("heartbeats-20k.traced", traced, first, record);
  record.set("obs.trace_overhead_s", traced.run_s - wall);

  record_capture("heartbeats-20k", capture, traced.registry_ports,
                 rules::paper_policy2(), wall, record);
}

}  // namespace perfbench
