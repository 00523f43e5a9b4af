#pragma once
// Declarative fault plans for the chaos subsystem (ars::chaos layer 1).
//
// A FaultPlan is an ordered list of FaultSpecs, each describing one fault
// in sim time: control-plane message loss/duplication/extra-delay, link
// bandwidth degradation, full network partitions with heal, host crash &
// restart, CPU slowdown, monitor stall, and registry crash + cold restart.
// Plans are built programmatically (fluent builder) or loaded from a strict
// JSON file; both forms round-trip through to_json()/from_json(), and the
// builtins' plans/<name>.json files are exactly their serialization.
//
// A plan is pure data — the FaultInjector turns it into scheduled engine
// events and a net::FaultPolicy.  Everything that consumes randomness does
// so from an explicit seed, so (plan, seed) fully determines a run.

#include <string>
#include <string_view>
#include <vector>

#include "ars/obs/json.hpp"
#include "ars/support/expected.hpp"

namespace ars::chaos {

enum class FaultKind {
  kMessageLoss,       // control datagrams dropped with `probability`
  kMessageDuplicate,  // delivered twice with `probability`
  kMessageDelay,      // `delay` extra seconds with `probability`
  kLinkDegrade,       // link bandwidth multiplied by `factor`
  kPartition,         // traffic between side A and side B fully cut
  kHostCrash,         // host dies at `at`; reboots at `until` if set
  kHostCrashRate,     // exponential crash arrivals with mean `mtbf` on each
                      // matching host inside [at, until); each crash
                      // reboots after `delay` seconds (0 = stays down) —
                      // the failure driver of the checkpoint-waste campaign
  kCpuSlowdown,       // host CPU speed multiplied by `factor`
  kMonitorStall,      // the host's monitor stops heartbeating
  kRegistryCrash,     // registry process dies; cold restart at `until`
  // Migration-window faults: triggered by a live migration transaction
  // entering the named `phase` (init/eager/ack/restore) inside [at, until),
  // not at a wall-clock instant.
  kMigrationDestCrash,  // crash the destination host when a migration
                        // targeting it reaches `phase`; reboot after `delay`
                        // seconds if delay > 0
  kMigrationLinkCut,    // sever the source<->destination link when a
                        // migration reaches `phase`; heal after `delay`
                        // seconds (or at `until` when delay == 0)
  kMigrationPrecopyStall,  // stall every pre-copy round entered inside
                           // [at, until) by `delay` seconds — drives the
                           // round into its timeout and the abort path
  // Resize-window faults: aimed at malleable jobs' grow/shrink
  // transactions instead of migrations.
  kResizeStall,        // stall every resize `phase` ("spawn" |
                       // "redistribute") entered inside [at, until) by
                       // `delay` seconds — drives the phase into timeout
  kResizeTargetCrash,  // crash one spawn-target host when an expand
                       // reaches `phase` inside [at, until) with
                       // `probability`; reboot after `delay` seconds
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;

struct FaultSpec {
  FaultKind kind = FaultKind::kMessageLoss;
  double at = 0.0;      // activation, sim seconds
  double until = -1.0;  // deactivation; negative = permanent
  /// Primary host (crash/slowdown/stall) or the message source side /
  /// partition side A for link-level faults.  "*" matches any host.
  std::string host_a = "*";
  /// Peer host: message destination side / partition side B.
  std::string host_b = "*";
  double probability = 1.0;  // per-message, for the message faults
  double factor = 1.0;       // bandwidth or CPU multiplier
  double delay = 0.0;        // extra seconds, for kMessageDelay
  /// Migration-window faults only: the transaction phase ("init",
  /// "precopy", "eager", "ack", "restore") that triggers the fault.  Empty
  /// matches every phase.
  std::string phase;
  /// kHostCrashRate only: mean time between crashes per matching host.
  double mtbf = 0.0;

  [[nodiscard]] bool permanent() const noexcept { return until < 0.0; }
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::string name) : name_(std::move(name)) {}

  // -- fluent builder -------------------------------------------------------
  FaultPlan& add(FaultSpec spec);
  FaultPlan& message_loss(double at, double until, double probability,
                          std::string src = "*", std::string dst = "*");
  FaultPlan& message_duplicate(double at, double until, double probability,
                               std::string src = "*", std::string dst = "*");
  FaultPlan& message_delay(double at, double until, double probability,
                           double delay, std::string src = "*",
                           std::string dst = "*");
  FaultPlan& link_degrade(double at, double until, double factor,
                          std::string a = "*", std::string b = "*");
  FaultPlan& partition(double at, double heal_at, std::string side_a,
                       std::string side_b = "*");
  FaultPlan& host_crash(double at, double restart_at, std::string host);
  /// Exponential crash arrivals (mean `mtbf` seconds between crashes) on
  /// each host matching `host` inside [at, until); every crash reboots
  /// `reboot_after` seconds later (0 = the host stays down).
  FaultPlan& host_crash_rate(double at, double until, double mtbf,
                             std::string host = "*",
                             double reboot_after = 30.0);
  FaultPlan& cpu_slowdown(double at, double until, double factor,
                          std::string host);
  FaultPlan& monitor_stall(double at, double until, std::string host);
  FaultPlan& registry_crash(double at, double restart_at);
  /// Crash the destination host of any migration that reaches `phase`
  /// inside [at, until) with `probability`; the host reboots `reboot_after`
  /// seconds later (0 = stays down).  `dest` = "*" matches any destination.
  FaultPlan& migration_dest_crash(double at, double until, std::string phase,
                                  double probability = 1.0,
                                  double reboot_after = 0.0,
                                  std::string dest = "*");
  /// Sever the source<->destination link of any migration reaching `phase`
  /// inside [at, until) with `probability`; the cut heals after
  /// `heal_after` seconds.
  FaultPlan& migration_link_cut(double at, double until, std::string phase,
                                double probability = 1.0,
                                double heal_after = 5.0,
                                std::string dest = "*");
  /// Stall every pre-copy round started inside [at, until) by
  /// `stall_seconds` — long stalls drive the round into its timeout and
  /// exercise the abort-to-source path with rounds already shipped.
  FaultPlan& migration_precopy_stall(double at, double until,
                                     double stall_seconds);
  /// Stall every resize `phase` ("spawn" | "redistribute") entered inside
  /// [at, until) by `stall_seconds` — long stalls drive the phase into its
  /// timeout and exercise the abort/rollback paths.
  FaultPlan& resize_stall(double at, double until, std::string phase,
                          double stall_seconds);
  /// Crash one spawn-target host when an expand reaches `phase` (usually
  /// "spawn") inside [at, until) with `probability`; the host reboots
  /// `reboot_after` seconds later (0 = stays down).
  FaultPlan& resize_target_crash(double at, double until,
                                 std::string phase = "spawn",
                                 double probability = 1.0,
                                 double reboot_after = 0.0);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept {
    return specs_;
  }
  [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }

  /// Latest instant at which any fault activates or heals — after this the
  /// cluster is undisturbed (lease-convergence checks wait this out).
  [[nodiscard]] double last_disruption_end() const noexcept;

  // -- JSON (strict; parsed with the obs parser) ----------------------------
  /// {"name": "...", "faults": [{"kind": "message_loss", "at": 40, ...}]}
  /// Unknown keys, wrong types, unknown kinds, out-of-range values and
  /// missing "faults"/"kind"/"at" are errors ("chaos.<key>", with the
  /// key's path in the message).
  [[nodiscard]] static support::Expected<FaultPlan> from_json(
      std::string_view text);
  /// The one per-spec reader, shared with documents that embed a "faults"
  /// array (cluster plans): each element is read as `<path>[i]` under the
  /// same field table and rules, and errors are coded "<doc>.<key>".
  [[nodiscard]] static support::Expected<FaultPlan> from_json_faults(
      std::string name, const obs::JsonArray& faults, std::string_view doc,
      const std::string& path);
  [[nodiscard]] std::string to_json() const;

  // -- shipped plans --------------------------------------------------------
  /// Builtin plan by name (also shipped as plans/<name>.json); error when
  /// unknown — see builtin_names().
  [[nodiscard]] static support::Expected<FaultPlan> builtin(
      const std::string& name);
  [[nodiscard]] static std::vector<std::string> builtin_names();

 private:
  std::string name_;
  std::vector<FaultSpec> specs_;
};

}  // namespace ars::chaos
