#include "ars/monitor/monitor.hpp"

#include <utility>

#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/support/log.hpp"
#include "ars/support/strings.hpp"
#include "ars/xmlproto/messages.hpp"

namespace ars::monitor {

using rules::SystemState;
using xmlproto::DynamicStatus;

namespace {

constexpr double kSensorWindow = 10.0;
// Adaptive warm-up bounds, relative to the policy warmup.
constexpr double kWarmupMinFactor = 0.5;
constexpr double kWarmupMaxFactor = 2.0;

}  // namespace

Classifier classifier_from_policy(rules::MigrationPolicy policy,
                                  double busy_load) {
  return [policy = std::make_shared<const rules::MigrationPolicy>(
              std::move(policy)),
          busy_load](const DynamicStatus& status) -> SystemState {
    if (policy->should_offload(status)) {
      return SystemState::kOverloaded;
    }
    // `free` means "willing and able to accept incoming HPCM-enabled
    // applications" (Table 1) — which is exactly the policy's destination
    // conditions.  A host that fails them is `busy` ("as is").  This is why
    // the paper's Policy 2, blind to communication, classifies the
    // comm-busy workstation as free while Policy 3 does not.
    if (!policy->accepts_destination(status)) {
      return SystemState::kBusy;
    }
    if (policy->dest_conditions().empty() &&
        (status.load1 >= busy_load || status.cpu_util >= 0.9)) {
      return SystemState::kBusy;  // fallback bands for conditionless policies
    }
    return SystemState::kFree;
  };
}

Classifier classifier_from_rules(
    std::shared_ptr<rules::RuleEngine> engine,
    std::shared_ptr<rules::SensorSource> sensors) {
  return [engine = std::move(engine),
          sensors = std::move(sensors)](const DynamicStatus&) -> SystemState {
    auto state = engine->evaluate_all(*sensors);
    if (!state.has_value()) {
      ARS_LOG_WARN("monitor",
                   "rule evaluation failed: " << state.error().to_string());
      return SystemState::kBusy;  // fail safe: neither give nor take work
    }
    return *state;
  };
}

Monitor::Monitor(host::Host& h, net::Network& network, Config config)
    : host_(&h),
      network_(&network),
      config_(std::move(config)),
      id_(network.id_of(h.name())),
      sensors_(h, network, id_, kSensorWindow) {
  if (config_.monitor_port == 0) {
    config_.monitor_port = network_->allocate_port(id_);
  }
  if (!config_.classifier) {
    config_.classifier = classifier_from_policy(config_.policy);
  }
  effective_warmup_ = config_.policy.warmup();
}

Monitor::~Monitor() { stop(); }

void Monitor::start() {
  if (running_) {
    return;
  }
  running_ = true;
  fiber_ = sim::Fiber::spawn(host_->engine(), run(),
                             "monitor." + host_->name());
}

void Monitor::stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  fiber_.kill();
}

double Monitor::frequency_for(SystemState state) const {
  const auto& freq = config_.policy.frequencies();
  switch (state) {
    case SystemState::kOverloaded:
      return freq.overloaded;
    case SystemState::kBusy:
      return freq.busy;
    default:
      return freq.free;
  }
}

void Monitor::push(xmlproto::ProtocolMessage message) {
  push(std::move(message), {});
}

void Monitor::push(xmlproto::ProtocolMessage message, obs::TraceCtx ctx) {
  net::Message wire;
  wire.dst_port = config_.registry_port;
  wire.payload = xmlproto::encode(message, ctx);
  wire.trace = ctx;
  if (!registry_resolved_) {
    registry_id_ = network_->find_id(config_.registry_host);
    registry_resolved_ = true;
  }
  if (registry_id_) {
    network_->post(id_, *registry_id_, std::move(wire));
    return;
  }
  wire.src_host = host_->name();
  wire.dst_host = config_.registry_host;
  network_->post(std::move(wire));
}

void Monitor::sync_process_registrations(bool refresh) {
  // Registers new migration-enabled processes with the registry and
  // deregisters those that are gone — the "process registration" service.
  // `refresh` re-announces every live process (soft-state rebuild after a
  // registry cold restart); the deregistration sweep is unaffected.
  std::map<host::Pid, bool> current;
  for (const auto& info : host_->processes().snapshot()) {
    if (!info.migration_enabled) {
      continue;
    }
    current.emplace(info.pid, true);
    if (refresh || !known_pids_.contains(info.pid)) {
      xmlproto::ProcessRegisterMsg msg;
      msg.host = host_->name();
      msg.pid = info.pid;
      msg.name = info.name;
      msg.start_time = info.start_time;
      msg.migration_enabled = true;
      msg.schema_name = info.schema_name;
      push(msg);
    }
  }
  for (const auto& [pid, seen] : known_pids_) {
    if (!current.contains(pid)) {
      xmlproto::ProcessDeregisterMsg msg;
      msg.host = host_->name();
      msg.pid = pid;
      push(msg);
    }
  }
  known_pids_ = std::move(current);
}

sim::Task<> Monitor::run() {
  auto& engine = host_->engine();
  // One-time registration of static information.
  xmlproto::RegisterMsg reg;
  reg.info = static_info_of(*host_);
  reg.monitor_port = config_.monitor_port;
  reg.commander_port = config_.commander_port;
  push(reg);
  double last_register_at = engine.now();

  while (true) {
    bool refresh = false;
    if (config_.reregister_period > 0.0 &&
        engine.now() - last_register_at >= config_.reregister_period) {
      push(reg);  // periodic soft-state re-announcement
      last_register_at = engine.now();
      refresh = true;
    }
    if (config_.cycle_cpu_cost > 0.0) {
      // Running the gathering scripts costs CPU on the monitored host.
      co_await host_->cpu().compute(config_.cycle_cpu_cost);
    }
    DynamicStatus status = sensors_.snapshot();
    const SystemState state = config_.classifier(status);
    status.state = std::string(rules::to_string(state));
    if (state != state_) {
      if (obs::active(tracer())) {
        tracer()->instant(
            "monitor.state_transition", "monitor", host_->name(),
            {{"from", std::string(rules::to_string(state_))},
             {"to", std::string(rules::to_string(state))},
             {"transition", rules::transition_label(state_, state)},
             {"load1", status.load1}});
      }
      if (metrics() != nullptr) {
        metrics()
            ->counter("rules.state_transitions",
                      {{"to", std::string(rules::to_string(state))}})
            .inc();
      }
    }
    state_ = state;

    sync_process_registrations(refresh);

    // Delta heartbeats: an unchanged state only needs its lease renewed.
    // Keyframes (full status) still go out on every state change, every
    // `full_status_every` cycles, and whenever soft state is re-announced.
    const bool keyframe_due =
        !config_.delta_heartbeats || !full_sent_ || refresh ||
        state != last_sent_state_ ||
        cycles_since_full_ + 1 >= config_.full_status_every;
    if (keyframe_due) {
      xmlproto::UpdateMsg update;
      update.status = status;
      push(update);
      ++updates_sent_;
      full_sent_ = true;
      cycles_since_full_ = 0;
    } else {
      xmlproto::UpdateBatchMsg batch;
      xmlproto::LeaseRenewal renewal;
      renewal.host = host_->name();
      renewal.state = status.state;
      renewal.timestamp = status.timestamp;
      batch.renewals.push_back(std::move(renewal));
      push(std::move(batch));
      ++renewals_sent_;
      ++cycles_since_full_;
    }
    last_sent_state_ = state;

    if (state == SystemState::kOverloaded) {
      if (overloaded_since_ < 0.0) {
        overloaded_since_ = engine.now();
        episode_consulted_ = false;
      }
      const double overloaded_for = engine.now() - overloaded_since_;
      const bool warm = overloaded_for >= effective_warmup_;
      // Back off between consults: a migration takes time to take effect.
      const bool cooled =
          engine.now() - last_consult_at_ >= 2.0 * effective_warmup_;
      if (warm && cooled) {
        xmlproto::ConsultMsg consult;
        consult.host = host_->name();
        consult.reason = "overloaded for " +
                         support::format_fixed(overloaded_for, 1) + "s";
        // A consult opens a new causal transaction: the decision, command,
        // and migration it triggers all link back to this instant.
        obs::TraceCtx ctx;
        if (obs::active(tracer())) {
          // The consult instant goes into the ring before the send so it
          // is the transaction's root event.
          ctx.txn = tracer()->new_txn();
          obs::Attrs attrs{{"reason", consult.reason}};
          obs::stamp(attrs, ctx);
          tracer()->instant("monitor.consult", "monitor", host_->name(),
                            std::move(attrs));
        }
        push(consult, ctx);
        ++consults_sent_;
        episode_consulted_ = true;
        last_consult_at_ = engine.now();
        if (metrics() != nullptr) {
          metrics()->counter("monitor.consults_sent").inc();
        }
        ARS_LOG_INFO("monitor",
                     host_->name() << " consults registry: " << consult.reason);
      }
    } else {
      if (overloaded_since_ >= 0.0) {
        // An overload episode just ended: feed the history back.
        const double episode = engine.now() - overloaded_since_;
        if (!episode_consulted_) {
          ++absorbed_spikes_;
        }
        if (config_.adaptive_warmup) {
          const double base = config_.policy.warmup();
          if (!episode_consulted_ && episode < effective_warmup_) {
            // Short spike correctly absorbed: be even more patient so
            // near-misses do not trigger fault migrations.
            effective_warmup_ = std::min(
                effective_warmup_ * (1.0 + config_.warmup_gain),
                base * kWarmupMaxFactor);
          } else if (episode_consulted_) {
            // A real, persistent overload: react faster next time.
            effective_warmup_ = std::max(
                effective_warmup_ * (1.0 - config_.warmup_gain),
                base * kWarmupMinFactor);
          }
        }
      }
      overloaded_since_ = -1.0;
    }

    co_await sim::delay(engine, frequency_for(state));
  }
}

}  // namespace ars::monitor
