#pragma once
// What a FaultInjector acts on: one cluster's engine and network, and the
// host, monitor and registry faults it can call.  The paper's
// deployment (core::ReschedulerRuntime) implements it, and so does each
// shard of core::ShardedCluster for its own hosts — one fault model at
// every scale.
//
// The injector keeps references to the engine and the network from
// construction, so the per-datagram path makes no virtual call; it traces
// its faults on the engine's tracer.

#include <string>
#include <vector>

#include "ars/monitor/monitor.hpp"
#include "ars/net/network.hpp"
#include "ars/sim/engine.hpp"
#include "ars/txn/runner.hpp"

namespace ars::chaos {

class FaultTarget {
 public:
  FaultTarget() = default;
  virtual ~FaultTarget() = default;
  FaultTarget(const FaultTarget&) = delete;
  FaultTarget& operator=(const FaultTarget&) = delete;

  [[nodiscard]] virtual sim::Engine& engine() = 0;
  /// Host-targeted faults reach a host's CPU through find_host().
  [[nodiscard]] virtual net::Network& network() = 0;
  /// The hosts a host_crash_rate wildcard expands over — every host that
  /// carries no registry — in a stable order: the crash draws follow it.
  [[nodiscard]] virtual std::vector<std::string> crash_rate_hosts() const = 0;

  /// The host dies: its monitor falls silent, any registry on it stops and
  /// its application processes are lost (returns how many).
  virtual int fail_host(const std::string& host_name) = 0;
  /// The host reboots: its monitor resumes and a registry on it restarts
  /// cold.
  virtual void restart_host(const std::string& host_name) = 0;
  [[nodiscard]] virtual monitor::Monitor& monitor_on(
      const std::string& host_name) = 0;
  /// Stop the registry the cluster's monitors report to; restart_registry
  /// brings it back cold (soft state wiped).
  virtual void crash_registry() = 0;
  virtual void restart_registry() = 0;
  /// Where transaction phase entries are announced (phase faults).
  virtual void set_phase_listener(const txn::PhaseListener& listener) = 0;
};

}  // namespace ars::chaos
