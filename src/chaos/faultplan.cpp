#include "ars/chaos/faultplan.hpp"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "ars/obs/json.hpp"

namespace ars::chaos {

using obs::JsonField;
using support::Expected;
using support::make_error;

namespace {

/// Indexed by FaultKind: the one place each kind's name is spelled.
constexpr std::string_view kFaultKindNames[] = {
    "message_loss", "message_duplicate", "message_delay", "link_degrade",
    "partition", "host_crash", "host_crash_rate", "cpu_slowdown",
    "monitor_stall", "registry_crash", "migration_dest_crash",
    "migration_link_cut", "migration_precopy_stall", "resize_stall",
    "resize_target_crash"};
static_assert(std::size(kFaultKindNames) ==
              static_cast<std::size_t>(FaultKind::kResizeTargetCrash) + 1);

/// A fault's JSON form, bound to `spec`.  `phase` and `mtbf` are sparse:
/// only the fault kinds that use them write them, which keeps the plan
/// files written before those keys existed byte-identical.
std::vector<JsonField> fault_fields(FaultSpec& spec) {
  return {
      JsonField("kind", spec.kind, kFaultKindNames).required(),
      JsonField("at", spec.at).required(),
      JsonField("until", spec.until),
      JsonField("host_a", spec.host_a),
      JsonField("host_b", spec.host_b),
      JsonField("probability", spec.probability).within(0.0, 1.0),
      JsonField("factor", spec.factor).at_least(0.0),
      JsonField("delay", spec.delay),
      JsonField("phase", spec.phase).sparse(),
      JsonField("mtbf", spec.mtbf).sparse(),
  };
}

/// The plan document's root: {"name": ..., "faults": [...]}.
std::vector<JsonField> plan_fields(std::string& name, obs::JsonArray& faults) {
  return {JsonField("name", name), JsonField("faults", faults).required()};
}

/// The rules that tie a fault's fields together, checked after the table
/// read: the phase vocabulary of its kind (a pre-copy stall's phase
/// defaults to "precopy"), and a crash rate's mtbf and end.
support::Status check_fault(FaultSpec& spec, std::string_view doc,
                            const std::string& path) {
  const auto invalid = [doc, &path](const std::string& key,
                                    const std::string& what) {
    return make_error(std::string(doc) + "." + key,
                      path + "." + key + ": " + what);
  };
  if (spec.kind == FaultKind::kHostCrashRate) {
    if (spec.mtbf <= 0.0) {
      return invalid("mtbf", "host_crash_rate needs mtbf > 0");
    }
    if (spec.permanent()) {
      return invalid("until", "host_crash_rate needs a finite until");
    }
  }
  if (spec.kind == FaultKind::kResizeStall ||
      spec.kind == FaultKind::kResizeTargetCrash) {
    if (spec.phase != "spawn" && spec.phase != "redistribute") {
      return invalid("phase", "a resize fault's phase must be spawn or "
                              "redistribute");
    }
  } else if (spec.kind == FaultKind::kMigrationPrecopyStall) {
    if (!spec.phase.empty() && spec.phase != "precopy") {
      return invalid("phase", "migration_precopy_stall's phase must be "
                              "precopy");
    }
    spec.phase = "precopy";
  } else if (!spec.phase.empty() && spec.phase != "init" &&
             spec.phase != "precopy" && spec.phase != "eager" &&
             spec.phase != "ack" && spec.phase != "restore") {
    return invalid("phase",
                   "phase must be one of init/precopy/eager/ack/restore");
  }
  return support::Status::ok();
}

}  // namespace

std::string_view to_string(FaultKind kind) noexcept {
  return kFaultKindNames[static_cast<std::size_t>(kind)];
}

FaultPlan& FaultPlan::add(FaultSpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

FaultPlan& FaultPlan::message_loss(double at, double until, double probability,
                                   std::string src, std::string dst) {
  FaultSpec spec;
  spec.kind = FaultKind::kMessageLoss;
  spec.at = at;
  spec.until = until;
  spec.probability = probability;
  spec.host_a = std::move(src);
  spec.host_b = std::move(dst);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::message_duplicate(double at, double until,
                                        double probability, std::string src,
                                        std::string dst) {
  FaultSpec spec;
  spec.kind = FaultKind::kMessageDuplicate;
  spec.at = at;
  spec.until = until;
  spec.probability = probability;
  spec.host_a = std::move(src);
  spec.host_b = std::move(dst);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::message_delay(double at, double until,
                                    double probability, double delay,
                                    std::string src, std::string dst) {
  FaultSpec spec;
  spec.kind = FaultKind::kMessageDelay;
  spec.at = at;
  spec.until = until;
  spec.probability = probability;
  spec.delay = delay;
  spec.host_a = std::move(src);
  spec.host_b = std::move(dst);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::link_degrade(double at, double until, double factor,
                                   std::string a, std::string b) {
  FaultSpec spec;
  spec.kind = FaultKind::kLinkDegrade;
  spec.at = at;
  spec.until = until;
  spec.factor = factor;
  spec.host_a = std::move(a);
  spec.host_b = std::move(b);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::partition(double at, double heal_at, std::string side_a,
                                std::string side_b) {
  FaultSpec spec;
  spec.kind = FaultKind::kPartition;
  spec.at = at;
  spec.until = heal_at;
  spec.host_a = std::move(side_a);
  spec.host_b = std::move(side_b);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::host_crash(double at, double restart_at,
                                 std::string host) {
  FaultSpec spec;
  spec.kind = FaultKind::kHostCrash;
  spec.at = at;
  spec.until = restart_at;
  spec.host_a = std::move(host);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::host_crash_rate(double at, double until, double mtbf,
                                      std::string host, double reboot_after) {
  FaultSpec spec;
  spec.kind = FaultKind::kHostCrashRate;
  spec.at = at;
  spec.until = until;
  spec.mtbf = mtbf;
  spec.delay = reboot_after;
  spec.host_a = std::move(host);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::cpu_slowdown(double at, double until, double factor,
                                   std::string host) {
  FaultSpec spec;
  spec.kind = FaultKind::kCpuSlowdown;
  spec.at = at;
  spec.until = until;
  spec.factor = factor;
  spec.host_a = std::move(host);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::monitor_stall(double at, double until,
                                    std::string host) {
  FaultSpec spec;
  spec.kind = FaultKind::kMonitorStall;
  spec.at = at;
  spec.until = until;
  spec.host_a = std::move(host);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::registry_crash(double at, double restart_at) {
  FaultSpec spec;
  spec.kind = FaultKind::kRegistryCrash;
  spec.at = at;
  spec.until = restart_at;
  return add(std::move(spec));
}

FaultPlan& FaultPlan::migration_dest_crash(double at, double until,
                                           std::string phase,
                                           double probability,
                                           double reboot_after,
                                           std::string dest) {
  FaultSpec spec;
  spec.kind = FaultKind::kMigrationDestCrash;
  spec.at = at;
  spec.until = until;
  spec.phase = std::move(phase);
  spec.probability = probability;
  spec.delay = reboot_after;
  spec.host_a = std::move(dest);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::migration_link_cut(double at, double until,
                                         std::string phase,
                                         double probability,
                                         double heal_after, std::string dest) {
  FaultSpec spec;
  spec.kind = FaultKind::kMigrationLinkCut;
  spec.at = at;
  spec.until = until;
  spec.phase = std::move(phase);
  spec.probability = probability;
  spec.delay = heal_after;
  spec.host_a = std::move(dest);
  return add(std::move(spec));
}

FaultPlan& FaultPlan::migration_precopy_stall(double at, double until,
                                              double stall_seconds) {
  FaultSpec spec;
  spec.kind = FaultKind::kMigrationPrecopyStall;
  spec.at = at;
  spec.until = until;
  spec.phase = "precopy";
  spec.delay = stall_seconds;
  return add(std::move(spec));
}

FaultPlan& FaultPlan::resize_stall(double at, double until, std::string phase,
                                   double stall_seconds) {
  FaultSpec spec;
  spec.kind = FaultKind::kResizeStall;
  spec.at = at;
  spec.until = until;
  spec.phase = std::move(phase);
  spec.delay = stall_seconds;
  return add(std::move(spec));
}

FaultPlan& FaultPlan::resize_target_crash(double at, double until,
                                          std::string phase,
                                          double probability,
                                          double reboot_after) {
  FaultSpec spec;
  spec.kind = FaultKind::kResizeTargetCrash;
  spec.at = at;
  spec.until = until;
  spec.phase = std::move(phase);
  spec.probability = probability;
  spec.delay = reboot_after;
  return add(std::move(spec));
}

double FaultPlan::last_disruption_end() const noexcept {
  double last = 0.0;
  for (const FaultSpec& spec : specs_) {
    double end = spec.permanent() ? spec.at : spec.until;
    if (spec.kind == FaultKind::kHostCrashRate) {
      // The final arrival can land just inside the window and still owe its
      // reboot: the cluster is not quiet until that completes too.
      end += spec.delay;
    }
    last = std::max(last, end);
  }
  return last;
}

std::string FaultPlan::to_json() const {
  obs::JsonArray faults;
  for (FaultSpec spec : specs_) {  // a copy: the fields bind mutable members
    faults.push_back(obs::json_write(fault_fields(spec)));
  }
  std::string name = name_;
  return obs::json_write(plan_fields(name, faults)).dump();
}

Expected<FaultPlan> FaultPlan::from_json(std::string_view text) {
  auto document = obs::json_parse(text);
  if (!document.has_value()) {
    return document.error();
  }
  std::string name;
  obs::JsonArray faults;
  if (auto read =
          obs::json_read(*document, plan_fields(name, faults), "chaos", "$");
      !read) {
    return read.error();
  }
  return from_json_faults(std::move(name), faults, "chaos", "$.faults");
}

Expected<FaultPlan> FaultPlan::from_json_faults(std::string name,
                                                const obs::JsonArray& faults,
                                                std::string_view doc,
                                                const std::string& path) {
  FaultPlan plan{std::move(name)};
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::string spec_path = path + "[" + std::to_string(i) + "]";
    FaultSpec spec;
    if (auto read = obs::json_read(faults[i], fault_fields(spec), doc,
                                   spec_path);
        !read) {
      return read.error();
    }
    if (auto checked = check_fault(spec, doc, spec_path); !checked) {
      return checked.error();
    }
    plan.specs_.push_back(std::move(spec));
  }
  return plan;
}

Expected<FaultPlan> FaultPlan::builtin(const std::string& name) {
  if (name == "control-loss") {
    // The control plane misbehaves but every machine stays up: datagram
    // loss, duplication and delay storms, one monitor silent past the
    // lease, and a registry cold restart.  Soft state (paper §3) must
    // absorb all of it without touching the applications.
    FaultPlan plan{"control-loss"};
    plan.message_loss(40.0, 200.0, 0.30)
        .message_duplicate(40.0, 200.0, 0.10)
        .message_delay(60.0, 180.0, 0.20, 0.5)
        .monitor_stall(100.0, 160.0, "ws2")
        .registry_crash(220.0, 240.0);
    return plan;
  }
  if (name == "churn") {
    // Machines and links misbehave: a host dies and reboots (its work is
    // relaunched from checkpoints elsewhere), a CPU throttles, a host is
    // partitioned past the lease and heals, a link degrades.
    FaultPlan plan{"churn"};
    plan.host_crash(45.0, 110.0, "ws3")
        .cpu_slowdown(130.0, 200.0, 0.5, "ws2")
        .partition(260.0, 320.0, "ws4")
        .link_degrade(340.0, 380.0, 0.3, "ws1", "ws2");
    return plan;
  }
  if (name == "resize-storm") {
    // Malleable jobs under fire: spawn phases stall into their timeout,
    // spawn targets crash and reboot mid-expand, redistribution stalls
    // force rollbacks, and ambient control-plane loss rides along.  The
    // no-lost-rank invariant must hold through all of it.
    FaultPlan plan{"resize-storm"};
    plan.resize_stall(60.0, 140.0, "spawn", 30.0)
        .resize_target_crash(160.0, 260.0, "spawn", 0.6, 40.0)
        .resize_stall(280.0, 360.0, "redistribute", 45.0)
        .message_loss(60.0, 360.0, 0.10)
        .host_crash(400.0, 440.0, "ws4");
    return plan;
  }
  if (name == "precopy-storm") {
    // Iterative pre-copy under fire: destinations crash while rounds are
    // in flight and during the freeze tail, the source<->destination link
    // is severed mid-round, and stalled rounds run into their timeout.
    // Every pre-ACK failure must abort to the intact source (pre-copied
    // rounds discarded), every post-ACK failure must roll back — and no
    // process may ever be lost.
    FaultPlan plan{"precopy-storm"};
    plan.migration_dest_crash(40.0, 140.0, "precopy", 0.375, 30.0)
        .migration_dest_crash(50.0, 200.0, "eager", 0.375, 30.0)
        .migration_dest_crash(60.0, 260.0, "ack", 0.375, 30.0)
        .migration_dest_crash(50.0, 320.0, "restore", 0.5, 30.0)
        .migration_link_cut(40.0, 320.0, "precopy", 0.25, 30.0)
        .migration_precopy_stall(150.0, 230.0, 120.0)
        .cpu_slowdown(30.0, 90.0, 0.5, "ws2");
    return plan;
  }
  if (name == "ckpt-storm") {
    // Failure-waste campaign plan (DESIGN.md §17): every worker host draws
    // exponential crash arrivals through a long window (the registry host is
    // spared — its fault tolerance is control-loss's job), with reboots fast
    // enough that relaunches land well inside the horizon.  Ambient message
    // loss keeps the control plane honest while checkpoints stream through
    // the shared store.
    FaultPlan plan{"ckpt-storm"};
    plan.host_crash_rate(40.0, 400.0, 150.0, "*", 30.0)
        .message_loss(60.0, 300.0, 0.05);
    return plan;
  }
  return make_error("chaos.unknown_plan", "no builtin plan named \"" + name +
                                              "\" (see builtin_names())");
}

std::vector<std::string> FaultPlan::builtin_names() {
  return {"control-loss", "churn", "resize-storm", "precopy-storm",
          "ckpt-storm"};
}

}  // namespace ars::chaos
