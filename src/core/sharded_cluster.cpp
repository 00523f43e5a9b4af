#include "ars/core/sharded_cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "ars/obs/json.hpp"
#include "ars/rules/policy.hpp"
#include "ars/support/hash.hpp"

namespace ars::core {

namespace {

std::size_t checked_shards(int shards) {
  if (shards < 1) {
    throw std::invalid_argument("ShardedCluster: shards must be >= 1");
  }
  return static_cast<std::size_t>(shards);
}

std::string worker_name(int index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "ws%06d", index);
  return buf;
}

constexpr int kRootPort = 5000;
constexpr int kChildPort = 5100;
constexpr int kCommanderPort = 6000;

}  // namespace

ShardedCluster::ShardedCluster(ShardedClusterOptions options)
    : options_(std::move(options)),
      group_(checked_shards(options_.shards),
             sim::ShardGroup::Options{options_.cross_latency}) {
  if (options_.hosts < 1) {
    throw std::invalid_argument("ShardedCluster: hosts must be >= 1");
  }
  const std::size_t shard_count = group_.size();
  const rules::MigrationPolicy policy = rules::paper_policy2();
  const monitor::Classifier classifier =
      monitor::classifier_from_policy(policy);
  shards_.reserve(shard_count);
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    shards_.push_back(std::make_unique<Shard>());
    build_shard(shard, policy, classifier);
  }
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    router_.attach(shard, *shards_[shard]->net_);
  }
  if (!options_.faults.empty()) {
    arm_faults();
  }
}

void ShardedCluster::build_shard(std::size_t shard,
                                 const rules::MigrationPolicy& policy,
                                 const monitor::Classifier& classifier) {
  Shard& state = *shards_[shard];
  sim::Engine& engine = group_.engine(shard);
  const std::size_t shard_count = group_.size();

  state.tracer = std::make_unique<obs::Tracer>(
      obs::Tracer::Options{options_.trace_capacity, options_.tracing});
  state.metrics = std::make_unique<obs::MetricsRegistry>();
  // Untraced shards attach no tracer, so no component builds attributes.
  obs::Tracer* tracer = options_.tracing ? state.tracer.get() : nullptr;
  engine.attach_sinks(tracer, state.metrics.get());
  state.net_ = std::make_unique<net::Network>(engine);

  // Block partition: host i lives on shard i*shards/hosts's inverse — each
  // shard owns the contiguous global range [lo, hi).
  const auto total = static_cast<std::size_t>(options_.hosts);
  const std::size_t lo = shard * total / shard_count;
  const std::size_t hi = (shard + 1) * total / shard_count;
  const int overloaded_pct =
      static_cast<int>(options_.overloaded_fraction * 100.0 + 0.5);
  const int busy_pct = static_cast<int>(options_.busy_fraction * 100.0 + 0.5);
  for (std::size_t i = lo; i < hi; ++i) {
    host::HostSpec spec;
    spec.name = worker_name(static_cast<int>(i));
    auto h = std::make_unique<host::Host>(engine, spec);
    // Static, deterministic load (never sampled — see header comment):
    // spread the overloaded/busy hosts evenly through every shard's range.
    const int pct = static_cast<int>(i % 100);
    double ambient = 0.2;  // free (satisfies policy2's load1 < 1.0)
    if (pct < overloaded_pct) {
      ambient = 2.6;  // past policy2's load1 > 2.0 trigger
    } else if (pct < overloaded_pct + busy_pct) {
      ambient = 1.5;  // fails the destination conditions -> busy
    }
    h->loadavg().set_ambient_runnable(ambient);
    state.net_->attach(*h);
    state.hosts.push_back(std::move(h));
  }

  // Registry tier, each registry on its own unmonitored host.  The
  // monitors' target must be bound before their first registration
  // arrives; Registry::start() binds synchronously at setup (virtual t = 0)
  // and the earliest datagram lands one latency later.
  const auto add_registry = [&](const std::string& name, int port,
                                bool child) {
    host::HostSpec spec;
    spec.name = name;
    auto h = std::make_unique<host::Host>(engine, spec);
    state.net_->attach(*h);
    registry::Registry::Config config;
    config.port = port;
    config.policy = policy;
    if (child) {
      config.parent_host = "root";
      config.parent_port = kRootPort;
    }
    config.audit = registry::AuditMode::kOff;
    auto r = std::make_unique<registry::Registry>(*h, *state.net_, config);
    state.hosts.push_back(std::move(h));
    return r;
  };
  const std::string registry_host_name =
      options_.hierarchical ? "reg" + std::to_string(shard) : "root";
  const int registry_port = options_.hierarchical ? kChildPort : kRootPort;
  if (options_.hierarchical) {
    state.registry = add_registry(registry_host_name, kChildPort, true);
  }
  if (shard == 0) {
    // The flat registry IS the root.
    (options_.hierarchical ? state.root : state.registry) =
        add_registry("root", kRootPort, false);
  }

  if (state.root != nullptr) {
    state.root->start();
  }
  if (state.registry != nullptr) {
    state.registry->start();
  }

  // Monitors on the worker hosts only (the registry hosts are unmanaged).
  const std::size_t workers = hi - lo;
  for (std::size_t w = 0; w < workers; ++w) {
    host::Host& h = *state.hosts[w];
    monitor::Monitor::Config config;
    config.registry_host = registry_host_name;
    config.registry_port = registry_port;
    config.commander_port = kCommanderPort;
    config.policy = policy;
    config.classifier = classifier;
    config.delta_heartbeats = options_.delta_heartbeats;
    auto m = std::make_unique<monitor::Monitor>(h, *state.net_, config);
    // Stagger the start phase deterministically across the heartbeat
    // period.  Synchronized monitors would heartbeat in lockstep waves of
    // `hosts` simultaneous datagrams, and the network's fluid
    // bandwidth-sharing pays O(concurrent transfers) per datagram — a
    // quadratic blowup at 100k hosts.  Spread out, the in-flight set stays
    // O(1) and the fleet behaves like real machines booted minutes apart.
    const double phase =
        static_cast<double>(((lo + w) * 9973) % 10007) / 10007.0 * 10.0;
    monitor::Monitor* raw = m.get();
    engine.schedule_at(phase, [raw] { raw->start(); });
    state.monitors.push_back(std::move(m));
  }
}

void ShardedCluster::arm_faults() {
  // A spec that names a host goes to the shard that holds it; wildcards
  // and the symmetric link faults (a datagram is judged on its sender's
  // shard) go to every shard, and a registry crash to each shard that runs
  // its monitors' registry.
  const std::vector<chaos::FaultSpec>& specs = options_.faults.specs();
  std::vector<bool> taken(specs.size(), false);
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    Shard& state = *shards_[shard];
    chaos::FaultPlan mine{options_.faults.name()};
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const chaos::FaultSpec& spec = specs[i];
      if (spec.kind == chaos::FaultKind::kRegistryCrash
              ? state.registry != nullptr
              : spec.kind == chaos::FaultKind::kPartition ||
                    spec.kind == chaos::FaultKind::kLinkDegrade ||
                    spec.host_a == "*" ||
                    state.net_->find_host(spec.host_a) != nullptr) {
        mine.add(spec);
        taken[i] = true;
      }
    }
    // Salt the stream per shard so each injector is single-writer and a
    // shard's draws do not depend on other shards' traffic volume.
    state.injector = std::make_unique<chaos::FaultInjector>(
        state, std::move(mine),
        options_.seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1)));
    state.injector->arm();
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!taken[i]) {  // as FaultInjector::arm refuses an unknown host
      throw std::invalid_argument("fault plan \"" + options_.faults.name() +
                                  "\" targets a host on no shard: " +
                                  specs[i].host_a);
    }
  }
}

registry::Registry& ShardedCluster::root_registry() {
  Shard& shard0 = *shards_.front();
  return shard0.root != nullptr ? *shard0.root : *shard0.registry;
}

registry::Registry& ShardedCluster::shard_registry(std::size_t shard) {
  Shard& state = *shards_.at(shard);
  if (state.registry != nullptr) {
    return *state.registry;
  }
  return root_registry();  // flat mode: non-zero shards share the root
}

ShardedClusterReport ShardedCluster::run() {
  if (ran_) {
    throw std::logic_error("ShardedCluster::run: call at most once");
  }
  ran_ = true;
  group_.run_until(options_.duration);

  ShardedClusterReport report;
  report.epochs = group_.epochs();
  report.cross_messages = router_.forwarded();
  std::vector<const obs::Tracer*> tracers;
  obs::MetricsRegistry merged;
  for (std::size_t shard = 0; shard < group_.size(); ++shard) {
    const Shard& state = *shards_[shard];
    const std::uint64_t events = group_.engine(shard).events_executed();
    report.shard_events.push_back(events);
    report.events += events;
    report.final_now = std::max(report.final_now, group_.engine(shard).now());
    report.dropped += state.net_->dropped_total();
    for (const auto& m : state.monitors) {
      report.consults += m->consults_sent();
    }
    if (state.registry != nullptr) {
      report.registered_hosts +=
          static_cast<int>(state.registry->hosts().size());
    }
    tracers.push_back(state.tracer.get());
    merged.merge_from(*state.metrics);
    report.trace_events += state.tracer->events().size();
  }
  report.merged_trace = obs::merged_jsonl(tracers);
  report.trace_hash = support::fnv1a(report.merged_trace);
  report.metrics_json = merged.to_json();
  return report;
}

support::Expected<ShardedClusterOptions> load_cluster_plan(
    const std::string& json_text) {
  auto parsed = obs::json_parse(json_text);
  if (!parsed) {
    return parsed.error();
  }
  using obs::JsonField;
  ShardedClusterOptions o;
  obs::JsonArray faults;
  const JsonField fields[] = {
      JsonField("name", o.name),
      JsonField("shards", o.shards).at_least(1),
      JsonField("hosts", o.hosts).at_least(1),
      JsonField("duration", o.duration).above(0.0),
      // ShardGroup refuses a fabric latency (its lookahead) that is not
      // positive.
      JsonField("cross_latency", o.cross_latency).above(0.0),
      JsonField("hierarchical", o.hierarchical),
      JsonField("delta_heartbeats", o.delta_heartbeats),
      JsonField("seed", o.seed),
      JsonField("busy_fraction", o.busy_fraction).within(0.0, 1.0),
      JsonField("overloaded_fraction", o.overloaded_fraction).within(0.0, 1.0),
      JsonField("faults", faults),
      JsonField("tracing", o.tracing),
      JsonField("trace_capacity", o.trace_capacity),
  };
  if (auto read = obs::json_read(*parsed, fields, "plan", "$"); !read) {
    return read.error();
  }
  auto plan =
      chaos::FaultPlan::from_json_faults(o.name, faults, "plan", "$.faults");
  if (!plan) {
    return plan.error();
  }
  o.faults = std::move(*plan);
  return o;
}

}  // namespace ars::core
