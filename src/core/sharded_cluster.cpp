#include "ars/core/sharded_cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "ars/obs/json.hpp"
#include "ars/rules/policy.hpp"

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

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

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
  router_ = std::make_unique<net::ShardRouter>(
      group_, net::ShardRouter::Options{options_.cross_latency});
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    router_->attach(shard, *shards_[shard]->net);
  }
}

ShardedCluster::~ShardedCluster() {
  for (auto& shard : shards_) {
    if (shard && shard->net) {
      shard->net->set_fault_policy(nullptr);
    }
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
  state.tracer->set_clock([&engine] { return engine.now(); });
  state.metrics = std::make_unique<obs::MetricsRegistry>();

  net::Network::Options net_options;
  net_options.metrics = state.metrics.get();
  net_options.tracer = options_.tracing ? state.tracer.get() : nullptr;
  state.net = std::make_unique<net::Network>(engine, net_options);

  if (options_.message_loss > 0.0 &&
      options_.loss_until > options_.loss_from) {
    // Salt the stream per shard so each LossPolicy is single-writer and a
    // shard's verdicts do not depend on other shards' traffic volume.
    const std::uint64_t salt =
        options_.seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1));
    state.faults = std::make_unique<LossPolicy>(
        engine, options_.message_loss, options_.loss_from,
        options_.loss_until, salt);
    state.net->set_fault_policy(state.faults.get());
  }

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
    state.net->attach(*h);
    state.hosts.push_back(std::move(h));
  }

  // Registry tier.  The monitors' target must be bound before their first
  // registration arrives; Registry::start() binds synchronously at setup
  // (virtual t = 0) and the earliest datagram lands one latency later.
  std::string registry_host_name;
  int registry_port = 0;
  if (options_.hierarchical) {
    registry_host_name = "reg" + std::to_string(shard);
    registry_port = kChildPort;
    host::HostSpec spec;
    spec.name = registry_host_name;
    auto h = std::make_unique<host::Host>(engine, spec);
    state.net->attach(*h);

    registry::Registry::Config config;
    config.port = kChildPort;
    config.policy = policy;
    config.parent_host = "root";
    config.parent_port = kRootPort;
    config.audit = registry::AuditMode::kOff;
    config.tracer = options_.tracing ? state.tracer.get() : nullptr;
    config.metrics = state.metrics.get();
    state.registry =
        std::make_unique<registry::Registry>(*h, *state.net, config);
    state.hosts.push_back(std::move(h));
  } else {
    registry_host_name = "root";
    registry_port = kRootPort;
  }

  if (shard == 0) {
    host::HostSpec spec;
    spec.name = "root";
    auto h = std::make_unique<host::Host>(engine, spec);
    state.net->attach(*h);

    registry::Registry::Config config;
    config.port = kRootPort;
    config.policy = policy;
    config.audit = registry::AuditMode::kOff;
    config.tracer = options_.tracing ? state.tracer.get() : nullptr;
    config.metrics = state.metrics.get();
    auto root =
        std::make_unique<registry::Registry>(*h, *state.net, config);
    if (options_.hierarchical) {
      state.root = std::move(root);
    } else {
      state.registry = std::move(root);  // the flat registry IS the root
    }
    state.hosts.push_back(std::move(h));
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
    config.tracer = options_.tracing ? state.tracer.get() : nullptr;
    config.metrics = state.metrics.get();
    auto m = std::make_unique<monitor::Monitor>(h, *state.net, config);
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
    if (w < static_cast<std::size_t>(options_.crash_hosts) &&
        options_.crash_until > options_.crash_at) {
      engine.schedule_at(options_.crash_at, [raw] { raw->stop(); });
      engine.schedule_at(options_.crash_until, [raw] { raw->start(); });
    }
    state.monitors.push_back(std::move(m));
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
  report.cross_messages = router_->forwarded();
  std::vector<const obs::Tracer*> tracers;
  obs::MetricsRegistry merged;
  for (std::size_t shard = 0; shard < group_.size(); ++shard) {
    const Shard& state = *shards_[shard];
    const std::uint64_t events = group_.engine(shard).events_executed();
    report.shard_events.push_back(events);
    report.events += events;
    report.final_now = std::max(report.final_now, group_.engine(shard).now());
    report.dropped += state.net->dropped_total();
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
  report.trace_hash = fnv1a(report.merged_trace);
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
      JsonField("message_loss", o.message_loss).within(0.0, 1.0),
      JsonField("loss_from", o.loss_from).at_least(0.0),
      JsonField("loss_until", o.loss_until).at_least(0.0),
      JsonField("crash_hosts", o.crash_hosts).at_least(0),
      JsonField("crash_at", o.crash_at).at_least(0.0),
      JsonField("crash_until", o.crash_until).at_least(0.0),
      JsonField("tracing", o.tracing),
      JsonField("trace_capacity", o.trace_capacity),
  };
  if (auto read = obs::json_read(*parsed, fields, "plan", "$"); !read) {
    return read.error();
  }
  return o;
}

}  // namespace ars::core
