#pragma once
// Fault injector (ars::chaos layer 1, execution half): turns a FaultPlan
// into scheduled engine events against a live cluster (a FaultTarget: the
// paper's runtime, or one shard of a sharded cluster) and serves as the
// network's per-link FaultPolicy.
//
// Determinism: all randomness comes from one seeded Rng consumed in event
// order, and every activation/deactivation is a normal engine event — so
// (cluster config, plan, seed) fully determines the run, and a failing seed
// replays byte-identically.
//
// Lifetime: construct after the target, arm() before running, destroy
// before the target (the destructor cancels pending fault events and
// uninstalls the network policy and the phase listener).

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ars/chaos/fault_target.hpp"
#include "ars/chaos/faultplan.hpp"
#include "ars/net/network.hpp"
#include "ars/support/rng.hpp"

namespace ars::chaos {

class FaultInjector final : public net::FaultPolicy {
 public:
  struct Stats {
    std::uint64_t messages_dropped = 0;     // by loss faults + partitions
    std::uint64_t messages_duplicated = 0;  // extra copies injected
    std::uint64_t messages_delayed = 0;
    int host_crashes = 0;
    int host_restarts = 0;
    int cpu_slowdowns = 0;
    int monitor_stalls = 0;
    int registry_crashes = 0;
    int partitions = 0;
    int link_degrades = 0;
    int migration_dest_crashes = 0;  // destinations killed mid-transaction
    int migration_link_cuts = 0;     // src<->dst links severed mid-transfer
    int migration_precopy_stalls = 0;  // pre-copy rounds stalled to timeout
    int resize_stalls = 0;           // resize phases stalled toward timeout
    int resize_target_crashes = 0;   // spawn targets killed mid-expand
    int rate_crashes = 0;            // crashes from host_crash_rate arrivals
  };

  FaultInjector(FaultTarget& target, FaultPlan plan, std::uint64_t seed);
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Install the network policy and schedule every fault's activation and
  /// deactivation.  Must run before the faults' activation times; throws
  /// std::invalid_argument when a spec names an unknown host.
  void arm();

  // -- net::FaultPolicy -----------------------------------------------------
  PostVerdict on_post(const net::Message& message) override;
  double bandwidth_factor(const std::string& src,
                          const std::string& dst) override;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] double last_disruption_end() const noexcept {
    return plan_.last_disruption_end();
  }

 private:
  [[nodiscard]] bool spec_active(const FaultSpec& spec) const;
  /// Directional source->destination match for the message faults.
  [[nodiscard]] static bool direction_matches(const FaultSpec& spec,
                                              const std::string& src,
                                              const std::string& dst);
  /// Symmetric cut/degrade match for partitions and link faults.
  [[nodiscard]] static bool link_matches(const FaultSpec& spec,
                                         const std::string& a,
                                         const std::string& b);
  void activate(std::size_t index);
  void deactivate(std::size_t index);
  void trace_fault(const FaultSpec& spec, const char* phase);
  /// The one phase handler (installed on the target's phase listener):
  /// every transaction phase entry — migration, expand, shrink — is matched
  /// against the plan's phase faults.  Crashes and link cuts are scheduled
  /// as zero-delay engine events (listeners must not reenter the engines
  /// inline); an active stall fault for the phase is returned as its stall.
  double on_phase(const txn::PhaseEvent& event);
  /// kHostCrashRate: pre-draw every exponential crash arrival in
  /// [at, until) per matching host at arm() time (stable rng order) and
  /// schedule them as plain engine events.
  void schedule_crash_arrivals(const FaultSpec& spec);
  /// Crash `host` (`what` names the fault in the log) unless it is already
  /// down, and schedule its reboot `reboot_after` seconds later (0: it
  /// stays down).  False when it was already down.
  bool take_down(const std::string& host, double reboot_after,
                 const char* what);
  void cut_migration_link(const std::string& a, const std::string& b,
                          double heal_after);

  /// An active dynamic link cut between a migration's source and
  /// destination (symmetric, like a partition).
  struct LinkCut {
    std::string a;
    std::string b;
  };

  FaultTarget& target_;
  sim::Engine& engine_;
  net::Network& network_;
  FaultPlan plan_;
  support::Rng rng_;
  Stats stats_;
  std::vector<sim::Engine::EventHandle> events_;
  std::map<std::string, double> saved_cpu_speed_;
  /// Hosts currently down (scheduled crash or migration-triggered) — makes
  /// crash/restart idempotent when a timed host_crash and a
  /// migration_dest_crash hit the same machine.
  std::set<std::string> down_hosts_;
  std::vector<LinkCut> link_cuts_;
  /// Plan indices of the stall faults currently active (set and cleared by
  /// their activation events).
  std::set<std::size_t> active_stalls_;
  bool armed_ = false;
};

}  // namespace ars::chaos
