#pragma once
// Monitor entity (paper §3.1, Figure 2): gathers system information on a
// per-state frequency, classifies the host free/busy/overloaded, pushes
// soft-state heartbeats to the registry/scheduler, registers local
// migration-enabled processes, and consults the registry when the host has
// been overloaded long enough (warm-up) to justify a migration.

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ars/monitor/sensors.hpp"
#include "ars/obs/trace_ctx.hpp"
#include "ars/rules/policy.hpp"
#include "ars/rules/state.hpp"
#include "ars/sim/task.hpp"

namespace ars::obs {
class Tracer;
class MetricsRegistry;
}  // namespace ars::obs

namespace ars::monitor {

/// Maps a status snapshot to a host state.  The default classifier derives
/// from a MigrationPolicy: policy triggers -> overloaded; busy when the CPU
/// has meaningful load; free otherwise.
using Classifier =
    std::function<rules::SystemState(const xmlproto::DynamicStatus&)>;

/// Copies of the returned classifier share one policy, so a cluster builds
/// one and hands it to every monitor.
[[nodiscard]] Classifier classifier_from_policy(rules::MigrationPolicy policy,
                                                double busy_load = 0.5);

/// A classifier evaluating a paper-format rule file against live sensors.
[[nodiscard]] Classifier classifier_from_rules(
    std::shared_ptr<rules::RuleEngine> engine,
    std::shared_ptr<rules::SensorSource> sensors);

class Monitor {
 public:
  struct Config {
    std::string registry_host;
    int registry_port = 0;
    int monitor_port = 0;    // allocated if 0
    int commander_port = 0;  // advertised in the registration message
    rules::MigrationPolicy policy;
    Classifier classifier;   // defaults to classifier_from_policy(policy)
    /// Soft-state refresh: re-announce static info and the full process
    /// table every this many seconds (0 disables).  A registry that cold
    /// restarts rebuilds its tables purely from these announcements plus
    /// the regular heartbeats (paper §3's soft-state claim).
    double reregister_period = 0.0;
    /// CPU cost of one monitoring cycle (running the `vmstat`/`netstat`
    /// sensor scripts), in reference-CPU seconds — the source of the
    /// rescheduler's measurable overhead (paper §5.1, < 4 %).
    double cycle_cpu_cost = 0.0;
    /// Self-adjustment (the paper's §6 future work: "take feedbacks from
    /// the scheduling and performance history, and automatically improve
    /// its accuracy").  When enabled, the effective warm-up adapts to the
    /// workload: overload episodes that subside before the warm-up expires
    /// (short tasks — migrating would have been a "fault migration")
    /// lengthen it; episodes that outlast it (genuinely long tasks the
    /// monitor made wait) shorten it.
    bool adaptive_warmup = false;
    double warmup_gain = 0.2;  // multiplicative step per episode
    /// Coalesce unchanged-state heartbeats into compact UpdateBatchMsg
    /// lease renewals.  A full UpdateMsg is still sent on every state
    /// change and every `full_status_every` cycles as a keyframe (the
    /// registry rejects renewals from hosts it has expired, so a keyframe
    /// also re-admits after a partition).
    bool delta_heartbeats = false;
    int full_status_every = 6;
  };

  Monitor(host::Host& h, net::Network& network, Config config);
  ~Monitor();
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Register with the registry and begin the monitoring loop.
  void start();
  void stop();

  [[nodiscard]] rules::SystemState state() const noexcept { return state_; }
  [[nodiscard]] HostSensorSource& sensors() noexcept { return sensors_; }
  [[nodiscard]] int port() const noexcept { return config_.monitor_port; }
  [[nodiscard]] const host::Host& host() const noexcept { return *host_; }

  /// Number of CONSULT messages sent so far.
  [[nodiscard]] int consults_sent() const noexcept { return consults_sent_; }
  /// Full UpdateMsg heartbeats sent (keyframes, when delta mode is on).
  [[nodiscard]] int updates_sent() const noexcept { return updates_sent_; }
  /// Compact lease renewals sent instead of full heartbeats.
  [[nodiscard]] int renewals_sent() const noexcept { return renewals_sent_; }

  /// The warm-up currently in effect (equals the policy's unless adaptive
  /// warm-up has adjusted it).
  [[nodiscard]] double effective_warmup() const noexcept {
    return effective_warmup_;
  }
  /// Overload episodes that ended before the warm-up elapsed (avoided
  /// fault migrations).
  [[nodiscard]] int absorbed_spikes() const noexcept {
    return absorbed_spikes_;
  }

 private:
  [[nodiscard]] sim::Task<> run();
  void push(xmlproto::ProtocolMessage message);
  void push(xmlproto::ProtocolMessage message, obs::TraceCtx ctx);
  [[nodiscard]] double frequency_for(rules::SystemState state) const;
  void sync_process_registrations(bool refresh);
  /// The sinks of the engine this monitor runs on.
  [[nodiscard]] obs::Tracer* tracer() const noexcept {
    return host_->engine().tracer();
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return host_->engine().metrics();
  }

  host::Host* host_;
  net::Network* network_;
  Config config_;
  net::HostId id_;  // this host's id on network_
  HostSensorSource sensors_;
  /// The registry's host id on network_, resolved at the first send; stays
  /// empty when the registry is not attached here (a flat sharded cluster
  /// reaches it by name through the shard router).
  std::optional<net::HostId> registry_id_;
  bool registry_resolved_ = false;
  rules::SystemState state_ = rules::SystemState::kFree;
  double overloaded_since_ = -1.0;
  double last_consult_at_ = -1.0e9;
  double effective_warmup_ = 0.0;
  bool episode_consulted_ = false;
  int consults_sent_ = 0;
  int updates_sent_ = 0;
  int renewals_sent_ = 0;
  int cycles_since_full_ = 0;
  bool full_sent_ = false;  // at least one keyframe has gone out
  rules::SystemState last_sent_state_ = rules::SystemState::kFree;
  int absorbed_spikes_ = 0;
  std::map<host::Pid, bool> known_pids_;
  sim::Fiber fiber_;
  bool running_ = false;
};

}  // namespace ars::monitor
