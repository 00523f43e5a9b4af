#pragma once
// ReschedulerRuntime: the paper's full deployment in one object.
//
// Owns the simulation engine, the cluster (hosts + network), the MPI-2
// runtime, the HPCM middleware, the registry/scheduler, and one monitor and
// commander per host.  Experiments construct a runtime from a ClusterConfig,
// launch migration-enabled applications, inject load, and read the traces.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ars/chaos/fault_target.hpp"
#include "ars/commander/commander.hpp"
#include "ars/core/trace.hpp"
#include "ars/host/host.hpp"
#include "ars/hpcm/migration.hpp"
#include "ars/malleable/malleable.hpp"
#include "ars/monitor/monitor.hpp"
#include "ars/mpi/mpi.hpp"
#include "ars/net/network.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/registry/registry.hpp"
#include "ars/rules/policy.hpp"
#include "ars/sim/engine.hpp"
#include "ars/txn/runner.hpp"

namespace ars::core {

struct ClusterConfig {
  std::vector<host::HostSpec> hosts;
  net::Network::Options network{};
  mpi::MpiSystem::Options mpi{};
  hpcm::MigrationEngine::Options hpcm{};
  /// Host carrying the registry/scheduler (defaults to the first host).
  std::string registry_host;
  rules::MigrationPolicy policy;
  double lease_ttl = 35.0;
  /// Baseline load-average contribution of each workstation's daemons
  /// (~0.26 on the paper's otherwise-idle Sun Blades).
  double ambient_runnable = 0.0;
  /// CPU cost of one monitoring cycle on each host (sensor scripts).
  double monitor_cycle_cpu_cost = 0.08;
  /// Destination-choice strategy (the paper uses first-fit).
  registry::DestinationStrategy strategy =
      registry::DestinationStrategy::kFirstFit;
  /// Relaunch the processes of crashed hosts from their checkpoints.
  bool auto_restart = false;
  /// Monitors coalesce unchanged-state heartbeats into compact lease
  /// renewals (UpdateBatchMsg); full status still goes out on state
  /// changes and every few cycles (monitor::Monitor::Config).
  bool monitor_delta_heartbeats = false;
  /// Monitors re-announce static info + process table every this many
  /// seconds (0 disables) so a cold-restarted registry rebuilds its
  /// soft-state tables from heartbeats alone.
  double monitor_reregister_period = 0.0;
  /// Event-trace buffer options (ars::obs).  Tracing is on by default; it
  /// is cheap in virtual time and the ring bound caps memory.
  obs::Tracer::Options trace{};
  /// Also mirror every support::Logger record into the trace as instant
  /// events (installs the global LogBridge — at most one runtime at a time
  /// should enable this).
  bool forward_logs_to_trace = false;
  /// Malleable-job engine options (timeouts, merge overhead, sabotage).
  malleable::MalleableEngine::Options malleable{};
  /// Let the registry's sweep plan expand/shrink commands for registered
  /// malleable jobs from the host-state indexes.
  bool enable_resize_planner = false;
  double resize_cooldown = 30.0;
  int max_expand_step = 4;
};

/// Convenience builder for uniform Sun-Blade-100-like clusters.
[[nodiscard]] ClusterConfig make_cluster(int host_count,
                                         rules::MigrationPolicy policy);

class ReschedulerRuntime final : public chaos::FaultTarget {
 public:
  explicit ReschedulerRuntime(ClusterConfig config);
  ~ReschedulerRuntime() override;
  ReschedulerRuntime(const ReschedulerRuntime&) = delete;
  ReschedulerRuntime& operator=(const ReschedulerRuntime&) = delete;

  // -- plumbing -------------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() noexcept override { return engine_; }
  [[nodiscard]] net::Network& network() override { return *network_; }
  [[nodiscard]] mpi::MpiSystem& mpi() noexcept { return *mpi_; }
  [[nodiscard]] hpcm::MigrationEngine& middleware() noexcept {
    return *hpcm_;
  }
  [[nodiscard]] registry::Registry& scheduler() noexcept {
    return *registry_;
  }
  [[nodiscard]] malleable::MalleableEngine& malleable() noexcept {
    return *malleable_;
  }
  [[nodiscard]] host::Host& host(const std::string& name);
  [[nodiscard]] monitor::Monitor& monitor_on(const std::string& name) override;
  [[nodiscard]] commander::Commander& commander_on(const std::string& name);
  [[nodiscard]] std::vector<std::string> host_names() const;
  [[nodiscard]] std::vector<std::string> crash_rate_hosts() const override {
    std::vector<std::string> names = host_names();
    std::erase(names, config_.registry_host);
    return names;
  }
  [[nodiscard]] TraceRecorder& trace() noexcept { return *trace_; }

  /// One phase listener for every transaction kind: migrations and resizes
  /// both announce their phases to it (fault injectors hook in here).
  void set_phase_listener(const txn::PhaseListener& listener) override {
    hpcm_->set_phase_listener(listener);
    malleable_->set_phase_listener(listener);
  }

  /// Structured event trace (ars::obs): migration phase spans, scheduler
  /// decision audits, monitor state transitions, commander signals.  It
  /// and metrics() are the sinks attached to the runtime's engine.
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const noexcept { return tracer_; }
  /// Runtime-wide metrics (counters/gauges/histograms).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Start the rescheduler entities (registry, monitors, commanders).
  /// Without this call the cluster runs "without the rescheduler" — the
  /// Figure 5/6 baseline.
  void start_rescheduler();
  [[nodiscard]] bool rescheduler_running() const noexcept {
    return rescheduler_running_;
  }

  /// Launch a migration-enabled application and register its schema with
  /// the registry/scheduler.
  mpi::RankId launch_app(const std::string& host_name,
                         hpcm::MigrationEngine::MigratableApp app,
                         const std::string& name,
                         hpcm::ApplicationSchema schema);

  /// Launch a resizable job (hosts[0] is the root) and register it with the
  /// registry so its sweep can plan expand/shrink commands.  Returns the
  /// initial members in rank order.
  std::vector<mpi::RankId> launch_malleable_job(
      const malleable::JobSpec& spec, const std::vector<std::string>& hosts);

  /// Fault-tolerance path: migrate everything off `host_name` (planned
  /// shutdown / detected intrusion) and never place work there again.
  void evacuate_host(const std::string& host_name,
                     const std::string& reason = "administrative");

  /// Failure injection: the host dies without warning — its processes and
  /// rescheduler entities vanish.  With `auto_restart` configured, the
  /// registry notices the lease lapse and relaunches the lost processes
  /// from their checkpoints.  Returns how many processes were lost.
  /// A co-located registry dies with its host (use restart_host to bring
  /// it back, cold).
  int fail_host(const std::string& host_name) override;

  /// Bring a failed host's rescheduler entities back up (the machine
  /// rebooted).  Its monitor re-registers on the next cycle; processes lost
  /// in the crash are NOT resurrected here — that is the registry's
  /// auto-restart path.  A co-located registry restarts cold (soft state
  /// wiped, rebuilt from heartbeats).
  void restart_host(const std::string& host_name) override;

  /// Kill only the registry/scheduler process (its host stays up).
  void crash_registry() override { registry_->stop(); }
  /// Cold-restart the registry: soft-state tables are gone and must be
  /// rebuilt purely from subsequent monitor traffic (paper §3).
  void restart_registry() override { registry_->restart_cold(); }

  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }

  /// Advance virtual time.
  void run_until(double t) { engine_.run_until(t); }

 private:
  ClusterConfig config_;
  sim::Engine engine_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::LogBridge> log_bridge_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::map<std::string, host::Host*> hosts_by_name_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<mpi::MpiSystem> mpi_;
  std::unique_ptr<hpcm::MigrationEngine> hpcm_;
  std::unique_ptr<malleable::MalleableEngine> malleable_;
  std::unique_ptr<registry::Registry> registry_;
  std::map<std::string, std::unique_ptr<monitor::Monitor>> monitors_;
  std::map<std::string, std::unique_ptr<commander::Commander>> commanders_;
  std::unique_ptr<TraceRecorder> trace_;
  bool rescheduler_running_ = false;
};

}  // namespace ars::core
