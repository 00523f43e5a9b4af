#include "ars/core/runtime.hpp"

#include <stdexcept>

#include "ars/support/log.hpp"

namespace ars::core {

namespace {

/// `ps` process count of a freshly booted workstation.
constexpr int kAmbientProcesses = 60;

}  // namespace

ClusterConfig make_cluster(int host_count, rules::MigrationPolicy policy) {
  ClusterConfig config;
  config.policy = std::move(policy);
  for (int i = 1; i <= host_count; ++i) {
    host::HostSpec spec;
    spec.name = "ws" + std::to_string(i);
    config.hosts.push_back(std::move(spec));
  }
  config.ambient_runnable = 0.26;  // the paper's idle-host load average
  return config;
}

ReschedulerRuntime::ReschedulerRuntime(ClusterConfig config)
    : config_(std::move(config)), tracer_(config_.trace) {
  if (config_.hosts.empty()) {
    throw std::invalid_argument("cluster needs at least one host");
  }
  if (config_.registry_host.empty()) {
    config_.registry_host = config_.hosts.front().name;
  }
  engine_.attach_sinks(&tracer_, &metrics_);
  network_ = std::make_unique<net::Network>(engine_, config_.network);
  for (const host::HostSpec& spec : config_.hosts) {
    hosts_.push_back(std::make_unique<host::Host>(engine_, spec));
    host::Host& h = *hosts_.back();
    h.loadavg().set_ambient_runnable(config_.ambient_runnable);
    h.set_ambient_process_count(kAmbientProcesses);
    network_->attach(h);
    hosts_by_name_.emplace(h.name(), &h);
  }
  mpi_ = std::make_unique<mpi::MpiSystem>(engine_, *network_, config_.mpi);
  hpcm_ = std::make_unique<hpcm::MigrationEngine>(*mpi_, config_.hpcm);
  malleable_ = std::make_unique<malleable::MalleableEngine>(
      *mpi_, *network_, config_.malleable);

  registry::Registry::Config registry_config;
  registry_config.policy = config_.policy;
  registry_config.lease_ttl = config_.lease_ttl;
  registry_config.strategy = config_.strategy;
  registry_config.auto_restart = config_.auto_restart;
  registry_config.enable_resize = config_.enable_resize_planner;
  registry_config.resize_cooldown = config_.resize_cooldown;
  registry_config.max_expand_step = config_.max_expand_step;
  registry_config.enable_ckpt_io = config_.hpcm.ckpt_strategy == "cooperative";
  registry_config.job_hosts = [this](const std::string& job) {
    // A finished job holds no hosts; without this guard its last world
    // would read as occupied until the registry's entry ages out.
    if (malleable_->finished(job) || malleable_->failed(job)) {
      return std::vector<std::string>{};
    }
    return malleable_->rank_hosts(job);
  };
  registry_ = std::make_unique<registry::Registry>(
      host(config_.registry_host), *network_, registry_config);

  const monitor::Classifier classifier =
      monitor::classifier_from_policy(config_.policy);
  for (const auto& h : hosts_) {
    commander::Commander::Config commander_config;
    commander_config.registry_host = config_.registry_host;
    commander_config.registry_port = registry_->port();
    commanders_.emplace(h->name(), std::make_unique<commander::Commander>(
                                       *h, *network_, *hpcm_,
                                       commander_config));
    monitor::Monitor::Config monitor_config;
    monitor_config.registry_host = config_.registry_host;
    monitor_config.registry_port = registry_->port();
    monitor_config.commander_port = commanders_.at(h->name())->port();
    monitor_config.policy = config_.policy;
    monitor_config.classifier = classifier;
    monitor_config.cycle_cpu_cost = config_.monitor_cycle_cpu_cost;
    monitor_config.reregister_period = config_.monitor_reregister_period;
    monitor_config.delta_heartbeats = config_.monitor_delta_heartbeats;
    monitors_.emplace(h->name(), std::make_unique<monitor::Monitor>(
                                     *h, *network_, monitor_config));
  }
  // Transactional-migration feedback loop: every terminal outcome is
  // forwarded to the registry by the SOURCE host's commander (the source
  // stays authoritative until commit, so its commander is the survivor
  // that can still speak for an aborted transaction).
  hpcm_->set_outcome_listener([this](const hpcm::MigrationTimeline& t) {
    const auto it = commanders_.find(t.source);
    if (it == commanders_.end()) {
      return;  // the registry's debit TTL covers the silence
    }
    xmlproto::MigrationOutcomeMsg msg;
    msg.process = t.process;
    msg.source = t.source;
    msg.destination = t.destination;
    msg.outcome = t.outcome;
    msg.reason = t.abort_reason;
    msg.phase = t.abort_phase;
    msg.precopy_rounds = t.precopy_rounds;
    msg.precopy_bytes = static_cast<std::uint64_t>(t.precopy_bytes);
    it->second->report_outcome(msg, t.trace);
  });
  // Same feedback loop for resizes: the job's ROOT host's commander is the
  // reporter (the root runs the transaction and survives every abort path).
  malleable_->set_outcome_listener([this](const malleable::ResizeOutcome& o) {
    const auto roots = malleable_->rank_hosts(o.job);
    const std::string root_host = roots.empty() ? "" : roots.front();
    const auto it = commanders_.find(root_host);
    if (it == commanders_.end()) {
      return;  // the registry's debit TTL covers the silence
    }
    xmlproto::ResizeOutcomeMsg msg;
    msg.job = o.job;
    msg.verb = malleable::verb_name(o.verb);
    msg.delta = o.delta;
    msg.outcome = o.outcome;
    msg.reason = o.reason;
    msg.phase = o.phase;
    msg.ranks_after = o.ranks_after;
    it->second->report_resize_outcome(msg, o.trace);
  });
  for (auto& [name, c] : commanders_) {
    c->set_malleable(malleable_.get());
  }
  // Cooperative checkpointing: the middleware's I/O requests ride to the
  // registry's scheduler through the requesting host's commander (same
  // fire-and-forget contract as outcome reports).  Periodic and "none"
  // strategies stay fully host-local, so the sender is only wired when the
  // scheduler is actually in the loop.
  if (config_.hpcm.ckpt_strategy == "cooperative") {
    hpcm_->set_ckpt_request_sender(
        [this](const hpcm::MigrationEngine::CkptIoRequest& r) {
          const auto it = commanders_.find(r.host);
          if (it == commanders_.end()) {
            return;  // host gone: the scheduler's slot TTL covers it
          }
          xmlproto::CkptIoRequestMsg msg;
          msg.host = r.host;
          msg.process = r.process;
          msg.verb = r.verb;
          msg.bytes = r.bytes;
          msg.risk = r.risk;
          it->second->send_ckpt_request(msg);
        });
  }
  trace_ = std::make_unique<TraceRecorder>(engine_, *network_);
  // Stamp log records with virtual time while this runtime is alive.
  support::Logger::global().set_clock([this] { return engine_.now(); });
  if (config_.forward_logs_to_trace) {
    log_bridge_ = std::make_unique<obs::LogBridge>(tracer_);
  }
}

ReschedulerRuntime::~ReschedulerRuntime() {
  log_bridge_.reset();
  support::Logger::global().set_clock(nullptr);
  // Entities hold fibers suspended on network endpoints; stop them before
  // members are torn down.
  for (auto& [name, m] : monitors_) {
    m->stop();
  }
  for (auto& [name, c] : commanders_) {
    c->stop();
  }
  if (registry_) {
    registry_->stop();
  }
}

host::Host& ReschedulerRuntime::host(const std::string& name) {
  const auto it = hosts_by_name_.find(name);
  if (it == hosts_by_name_.end()) {
    throw std::out_of_range("no such host: " + name);
  }
  return *it->second;
}

monitor::Monitor& ReschedulerRuntime::monitor_on(const std::string& name) {
  return *monitors_.at(name);
}

commander::Commander& ReschedulerRuntime::commander_on(
    const std::string& name) {
  return *commanders_.at(name);
}

std::vector<std::string> ReschedulerRuntime::host_names() const {
  std::vector<std::string> names;
  names.reserve(hosts_.size());
  for (const auto& h : hosts_) {
    names.push_back(h->name());
  }
  return names;
}

void ReschedulerRuntime::start_rescheduler() {
  if (rescheduler_running_) {
    return;
  }
  rescheduler_running_ = true;
  registry_->start();
  for (auto& [name, c] : commanders_) {
    c->start();
  }
  for (auto& [name, m] : monitors_) {
    m->start();
  }
}

void ReschedulerRuntime::evacuate_host(const std::string& host_name,
                                       const std::string& reason) {
  (void)host(host_name);  // validate
  registry_->request_evacuation(host_name, reason);
}

int ReschedulerRuntime::fail_host(const std::string& host_name) {
  (void)host(host_name);  // validate
  // The rescheduler entities on the host die with it: their heartbeats
  // stop, so the registry's soft-state lease lapses.
  monitors_.at(host_name)->stop();
  commanders_.at(host_name)->stop();
  if (rescheduler_running_ && host_name == config_.registry_host) {
    registry_->stop();  // a co-located registry dies too
  }
  const int lost = hpcm_->crash_host(host_name);
  return lost + malleable_->on_host_failed(host_name);
}

void ReschedulerRuntime::restart_host(const std::string& host_name) {
  (void)host(host_name);  // validate
  if (!rescheduler_running_) {
    return;
  }
  if (host_name == config_.registry_host) {
    restart_registry();
  }
  commanders_.at(host_name)->start();
  monitors_.at(host_name)->start();
}

mpi::RankId ReschedulerRuntime::launch_app(
    const std::string& host_name, hpcm::MigrationEngine::MigratableApp app,
    const std::string& name, hpcm::ApplicationSchema schema) {
  registry_->register_schema(schema);
  return hpcm_->launch(host_name, std::move(app), name, std::move(schema));
}

std::vector<mpi::RankId> ReschedulerRuntime::launch_malleable_job(
    const malleable::JobSpec& spec, const std::vector<std::string>& hosts) {
  auto members = malleable_->launch(spec, hosts);
  registry_->register_malleable_job(
      spec.name, hosts.front(), static_cast<int>(hosts.size()),
      spec.min_ranks, spec.max_ranks, mpi::spawn_strategy_name(spec.strategy));
  return members;
}

}  // namespace ars::core
