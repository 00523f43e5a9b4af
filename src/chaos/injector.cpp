#include "ars/chaos/injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ars/obs/tracer.hpp"
#include "ars/support/log.hpp"

namespace ars::chaos {

namespace {

bool side_matches(const std::string& side, const std::string& host) {
  return side == "*" || side == host;
}

/// Whether a fault kind reacts to phase entries of transaction kind
/// `txn_kind` (always false for the faults that are not phase faults).
bool aims_at(FaultKind kind, const std::string& txn_kind) {
  switch (kind) {
    case FaultKind::kMigrationDestCrash:
    case FaultKind::kMigrationLinkCut:
    case FaultKind::kMigrationPrecopyStall:
      return txn_kind == "migration";
    case FaultKind::kResizeStall:
      return txn_kind == "expand" || txn_kind == "shrink";
    case FaultKind::kResizeTargetCrash:
      return txn_kind == "expand";
    default:
      return false;
  }
}

}  // namespace

FaultInjector::FaultInjector(FaultTarget& target, FaultPlan plan,
                             std::uint64_t seed)
    : target_(target),
      engine_(target.engine()),
      network_(target.network()),
      plan_(std::move(plan)),
      rng_(seed) {}

FaultInjector::~FaultInjector() {
  for (auto& event : events_) {
    event.cancel();
  }
  if (armed_) {
    target_.set_phase_listener(nullptr);
    if (network_.fault_policy() == this) {
      network_.set_fault_policy(nullptr);
    }
  }
}

void FaultInjector::arm() {
  if (armed_) {
    return;
  }
  for (const FaultSpec& spec : plan_.specs()) {
    // Host faults name one real host.  Crash-rate and migration-window
    // faults may use the "*" wildcard (their trigger picks the host), but a
    // host they name must exist too.
    const bool host_fault = spec.kind == FaultKind::kHostCrash ||
                            spec.kind == FaultKind::kCpuSlowdown ||
                            spec.kind == FaultKind::kMonitorStall;
    const bool may_name_host = spec.kind == FaultKind::kHostCrashRate ||
                               spec.kind == FaultKind::kMigrationDestCrash ||
                               spec.kind == FaultKind::kMigrationLinkCut;
    if ((host_fault || (may_name_host && spec.host_a != "*")) &&
        (spec.host_a == "*" || network_.find_host(spec.host_a) == nullptr)) {
      throw std::invalid_argument("fault plan \"" + plan_.name() +
                                  "\" targets unknown host: " + spec.host_a);
    }
    if (spec.kind == FaultKind::kMonitorStall) {
      (void)target_.monitor_on(spec.host_a);  // throws when none runs there
    }
  }
  armed_ = true;
  network_.set_fault_policy(this);
  target_.set_phase_listener(
      [this](const txn::PhaseEvent& event) { return on_phase(event); });
  for (std::size_t i = 0; i < plan_.specs().size(); ++i) {
    const FaultSpec& spec = plan_.specs()[i];
    const bool migration_window =
        spec.kind == FaultKind::kMigrationDestCrash ||
        spec.kind == FaultKind::kMigrationLinkCut;
    if (migration_window || spec.kind == FaultKind::kResizeTargetCrash) {
      continue;  // triggered by phase entry, not by wall-clock events
    }
    if (spec.kind == FaultKind::kHostCrashRate) {
      schedule_crash_arrivals(spec);
      continue;  // its schedule IS the arrivals, no activate/deactivate
    }
    events_.push_back(
        engine_.schedule_at(spec.at, [this, i] { activate(i); }));
    if (!spec.permanent()) {
      events_.push_back(
          engine_.schedule_at(spec.until, [this, i] { deactivate(i); }));
    }
  }
}

bool FaultInjector::spec_active(const FaultSpec& spec) const {
  const double now = engine_.now();
  return now >= spec.at && (spec.permanent() || now < spec.until);
}

bool FaultInjector::direction_matches(const FaultSpec& spec,
                                      const std::string& src,
                                      const std::string& dst) {
  return side_matches(spec.host_a, src) && side_matches(spec.host_b, dst);
}

bool FaultInjector::link_matches(const FaultSpec& spec, const std::string& a,
                                 const std::string& b) {
  if (a == b) {
    return false;  // loopback is never cut
  }
  return (side_matches(spec.host_a, a) && side_matches(spec.host_b, b)) ||
         (side_matches(spec.host_a, b) && side_matches(spec.host_b, a));
}

net::FaultPolicy::PostVerdict FaultInjector::on_post(
    const net::Message& message) {
  PostVerdict verdict;
  // Evaluate every active spec (no early exit): the rng is consumed in a
  // stable order regardless of which fault fires first.
  for (const FaultSpec& spec : plan_.specs()) {
    if (!spec_active(spec)) {
      continue;
    }
    switch (spec.kind) {
      case FaultKind::kPartition:
        if (link_matches(spec, message.src_host, message.dst_host)) {
          verdict.drop = true;
        }
        break;
      case FaultKind::kMessageLoss:
        if (direction_matches(spec, message.src_host, message.dst_host) &&
            rng_.uniform() < spec.probability) {
          verdict.drop = true;
        }
        break;
      case FaultKind::kMessageDuplicate:
        if (direction_matches(spec, message.src_host, message.dst_host) &&
            rng_.uniform() < spec.probability) {
          verdict.duplicates += 1;
        }
        break;
      case FaultKind::kMessageDelay:
        if (direction_matches(spec, message.src_host, message.dst_host) &&
            rng_.uniform() < spec.probability) {
          verdict.extra_delay += spec.delay;
        }
        break;
      default:
        break;  // host faults do not act on individual datagrams
    }
  }
  // Dynamic migration-window cuts behave like a two-host partition.
  for (const LinkCut& cut : link_cuts_) {
    if ((cut.a == message.src_host && cut.b == message.dst_host) ||
        (cut.a == message.dst_host && cut.b == message.src_host)) {
      verdict.drop = true;
    }
  }
  if (verdict.drop) {
    ++stats_.messages_dropped;
  } else {
    stats_.messages_duplicated +=
        static_cast<std::uint64_t>(verdict.duplicates);
    if (verdict.extra_delay > 0.0) {
      ++stats_.messages_delayed;
    }
  }
  return verdict;
}

double FaultInjector::bandwidth_factor(const std::string& src,
                                       const std::string& dst) {
  double factor = 1.0;
  for (const FaultSpec& spec : plan_.specs()) {
    if (!spec_active(spec)) {
      continue;
    }
    if (spec.kind == FaultKind::kPartition && link_matches(spec, src, dst)) {
      return 0.0;
    }
    if (spec.kind == FaultKind::kLinkDegrade && link_matches(spec, src, dst)) {
      factor *= std::clamp(spec.factor, 0.0, 1.0);
    }
  }
  for (const LinkCut& cut : link_cuts_) {
    if ((cut.a == src && cut.b == dst) || (cut.a == dst && cut.b == src)) {
      return 0.0;
    }
  }
  return factor;
}

void FaultInjector::trace_fault(const FaultSpec& spec, const char* phase) {
  obs::Tracer* tracer = engine_.tracer();
  if (!obs::active(tracer)) {
    return;
  }
  tracer->instant("chaos.fault", "chaos", "chaos",
                  {{"kind", std::string(to_string(spec.kind))},
                   {"phase", phase},
                   {"host_a", spec.host_a},
                   {"host_b", spec.host_b}});
}

void FaultInjector::activate(std::size_t index) {
  const FaultSpec& spec = plan_.specs()[index];
  trace_fault(spec, "inject");
  ARS_LOG_WARN("chaos", "inject " << to_string(spec.kind) << " ("
                                  << spec.host_a << ", " << spec.host_b
                                  << ")");
  switch (spec.kind) {
    case FaultKind::kHostCrash:
      if (down_hosts_.insert(spec.host_a).second) {
        target_.fail_host(spec.host_a);
        ++stats_.host_crashes;
      }
      break;
    case FaultKind::kCpuSlowdown: {
      host::CpuModel& cpu = network_.find_host(spec.host_a)->cpu();
      saved_cpu_speed_.emplace(spec.host_a, cpu.speed());
      cpu.set_speed(cpu.speed() * std::max(spec.factor, 1e-3));
      ++stats_.cpu_slowdowns;
      break;
    }
    case FaultKind::kMonitorStall:
      target_.monitor_on(spec.host_a).stop();
      ++stats_.monitor_stalls;
      break;
    case FaultKind::kRegistryCrash:
      target_.crash_registry();
      ++stats_.registry_crashes;
      break;
    case FaultKind::kPartition:
      ++stats_.partitions;
      network_.on_fault_change();
      break;
    case FaultKind::kLinkDegrade:
      ++stats_.link_degrades;
      network_.on_fault_change();
      break;
    case FaultKind::kResizeStall:
      active_stalls_.insert(index);
      ++stats_.resize_stalls;
      break;
    case FaultKind::kMigrationPrecopyStall:
      active_stalls_.insert(index);
      ++stats_.migration_precopy_stalls;
      break;
    default:
      break;  // message faults act lazily, per post()
  }
}

void FaultInjector::deactivate(std::size_t index) {
  const FaultSpec& spec = plan_.specs()[index];
  trace_fault(spec, "heal");
  ARS_LOG_INFO("chaos", "heal " << to_string(spec.kind) << " ("
                                << spec.host_a << ", " << spec.host_b
                                << ")");
  switch (spec.kind) {
    case FaultKind::kHostCrash:
      if (down_hosts_.erase(spec.host_a) > 0) {
        target_.restart_host(spec.host_a);
        ++stats_.host_restarts;
      }
      break;
    case FaultKind::kCpuSlowdown: {
      const auto it = saved_cpu_speed_.find(spec.host_a);
      if (it != saved_cpu_speed_.end()) {
        network_.find_host(spec.host_a)->cpu().set_speed(it->second);
        saved_cpu_speed_.erase(it);
      }
      break;
    }
    case FaultKind::kMonitorStall:
      target_.monitor_on(spec.host_a).start();
      break;
    case FaultKind::kRegistryCrash:
      target_.restart_registry();
      break;
    case FaultKind::kPartition:
    case FaultKind::kLinkDegrade:
      // Stalled/degraded transfers pick their full rates back up.
      network_.on_fault_change();
      break;
    case FaultKind::kResizeStall:
    case FaultKind::kMigrationPrecopyStall:
      active_stalls_.erase(index);
      break;
    default:
      break;
  }
}

double FaultInjector::on_phase(const txn::PhaseEvent& event) {
  double stall = 0.0;
  // Spec order keeps rng consumption — and therefore the whole run —
  // deterministic in (plan, seed).
  for (std::size_t i = 0; i < plan_.specs().size(); ++i) {
    const FaultSpec& spec = plan_.specs()[i];
    if (!aims_at(spec.kind, event.kind) ||
        (!spec.phase.empty() && spec.phase != event.phase)) {
      continue;
    }
    switch (spec.kind) {
      case FaultKind::kMigrationPrecopyStall:
      case FaultKind::kResizeStall:
        if (active_stalls_.contains(i)) {
          stall = spec.delay;
        }
        break;
      case FaultKind::kMigrationDestCrash:
      case FaultKind::kMigrationLinkCut: {
        const std::string& dest = event.targets.front();
        if (!spec_active(spec) || !side_matches(spec.host_a, dest) ||
            rng_.uniform() >= spec.probability) {
          break;
        }
        trace_fault(spec, "inject");
        if (spec.kind == FaultKind::kMigrationDestCrash) {
          events_.push_back(engine_.schedule_after(
              0.0, [this, dest, reboot = spec.delay] {
                if (take_down(dest, reboot, "migration destination")) {
                  ++stats_.migration_dest_crashes;
                }
              }));
        } else {
          const double heal = spec.delay > 0.0
                                  ? spec.delay
                                  : std::max(spec.until - engine_.now(), 1.0);
          events_.push_back(engine_.schedule_after(
              0.0, [this, a = event.source, b = dest, heal] {
                cut_migration_link(a, b, heal);
              }));
        }
        break;
      }
      case FaultKind::kResizeTargetCrash: {
        if (!spec_active(spec) || event.targets.empty() ||
            rng_.uniform() >= spec.probability) {
          break;
        }
        const auto pick = static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(event.targets.size()) - 1));
        trace_fault(spec, "inject");
        events_.push_back(engine_.schedule_after(
            0.0, [this, host = event.targets[pick], reboot = spec.delay] {
              if (take_down(host, reboot, "spawn target")) {
                ++stats_.resize_target_crashes;
              }
            }));
        break;
      }
      default:
        break;
    }
  }
  return stall;
}

void FaultInjector::schedule_crash_arrivals(const FaultSpec& spec) {
  // A wildcard spares the registry hosts: the control plane's own fault
  // tolerance is the control-loss plan's job, and a registry lost
  // mid-window cannot relaunch the other crashes' victims (soft state
  // wiped), which would fail the no-lost-process invariant for reasons the
  // checkpoint campaign is not studying.
  const std::vector<std::string> targets =
      spec.host_a == "*" ? target_.crash_rate_hosts()
                         : std::vector<std::string>{spec.host_a};
  // Pre-draw every arrival now, per host in cluster order: rng consumption
  // is independent of event interleaving, so (plan, seed) determines the
  // whole crash schedule.
  for (const std::string& host : targets) {
    double t = spec.at;
    while (true) {
      t += -spec.mtbf * std::log(1.0 - rng_.uniform());
      if (t >= spec.until) {
        break;
      }
      events_.push_back(engine_.schedule_at(
          t, [this, host, reboot = spec.delay] {
            if (take_down(host, reboot, "crash-rate arrival")) {
              ++stats_.rate_crashes;
              ++stats_.host_crashes;
            }
          }));
    }
  }
}

bool FaultInjector::take_down(const std::string& host, double reboot_after,
                              const char* what) {
  if (!down_hosts_.insert(host).second) {
    return false;  // already down (another fault beat us to it)
  }
  ARS_LOG_WARN("chaos", what << " crash fells " << host);
  target_.fail_host(host);
  if (reboot_after > 0.0) {
    events_.push_back(
        engine_.schedule_after(reboot_after, [this, host] {
          if (down_hosts_.erase(host) > 0) {
            target_.restart_host(host);
            ++stats_.host_restarts;
          }
        }));
  }
  return true;
}

void FaultInjector::cut_migration_link(const std::string& a,
                                       const std::string& b,
                                       double heal_after) {
  if (a == b) {
    return;  // loopback is never cut
  }
  ARS_LOG_WARN("chaos",
               "migration-window link cut " << a << " <-> " << b << " for "
                                            << heal_after << "s");
  ++stats_.migration_link_cuts;
  link_cuts_.push_back(LinkCut{a, b});
  network_.on_fault_change();
  events_.push_back(
      engine_.schedule_after(heal_after, [this, a, b] {
        const auto it = std::find_if(
            link_cuts_.begin(), link_cuts_.end(), [&](const LinkCut& cut) {
              return cut.a == a && cut.b == b;
            });
        if (it != link_cuts_.end()) {
          link_cuts_.erase(it);
          network_.on_fault_change();
        }
      }));
}

}  // namespace ars::chaos
