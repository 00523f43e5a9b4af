#include "ars/commander/commander.hpp"

#include "ars/malleable/malleable.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/support/log.hpp"
#include "ars/xmlproto/messages.hpp"

namespace ars::commander {

namespace {

/// Bounded retry for failed MIGRATE deliveries: a command that finds no
/// such pid is retried up to `kRetryLimit` more times with exponential
/// backoff starting at `kRetryBackoff` seconds (covers the race where the
/// command outruns the process's registration/launch).  The ack reports
/// the final outcome.
constexpr int kRetryLimit = 2;
constexpr double kRetryBackoff = 0.25;

}  // namespace

Commander::Commander(host::Host& h, net::Network& network,
                     hpcm::MigrationEngine& middleware, Config config)
    : host_(&h),
      network_(&network),
      middleware_(&middleware),
      config_(config) {
  if (config_.port == 0) {
    config_.port = network_->allocate_port(host_->name());
  }
}

Commander::~Commander() { stop(); }

void Commander::start() {
  if (running_) {
    return;
  }
  running_ = true;
  endpoint_ = &network_->bind(host_->name(), config_.port);
  fiber_ = sim::Fiber::spawn(host_->engine(), serve(),
                             "commander." + host_->name());
}

void Commander::stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  fiber_.kill();
  for (auto& fiber : command_fibers_) {
    fiber.kill();
  }
  command_fibers_.clear();
  network_->unbind(host_->name(), config_.port);
  endpoint_ = nullptr;
}

void Commander::send_to_registry(const xmlproto::ProtocolMessage& message,
                                 obs::TraceCtx ctx) {
  net::Message wire;
  wire.src_host = host_->name();
  wire.dst_host = config_.registry_host;
  wire.dst_port = config_.registry_port;
  wire.payload = xmlproto::encode(message, ctx);
  wire.trace = ctx;
  network_->post(std::move(wire));
}

void Commander::report_outcome(const xmlproto::MigrationOutcomeMsg& outcome,
                               obs::TraceCtx ctx) {
  if (!running_ || config_.registry_host.empty()) {
    return;  // the registry's debit TTL covers lost reports
  }
  if (metrics() != nullptr) {
    metrics()
        ->counter("commander.outcomes_reported",
                  {{"outcome", outcome.outcome}})
        .inc();
  }
  send_to_registry(outcome, ctx);
}

void Commander::report_resize_outcome(const xmlproto::ResizeOutcomeMsg& outcome,
                                      obs::TraceCtx ctx) {
  if (!running_ || config_.registry_host.empty()) {
    return;  // the registry's debit TTL covers lost reports
  }
  if (metrics() != nullptr) {
    metrics()
        ->counter("commander.resize_outcomes_reported",
                  {{"outcome", outcome.outcome}})
        .inc();
  }
  send_to_registry(outcome, ctx);
}

void Commander::send_ckpt_request(const xmlproto::CkptIoRequestMsg& request,
                                  obs::TraceCtx ctx) {
  if (!running_ || config_.registry_host.empty()) {
    return;  // the scheduler's slot TTL / grant timeout cover the loss
  }
  if (metrics() != nullptr) {
    metrics()
        ->counter("commander.ckpt_requests", {{"verb", request.verb}})
        .inc();
  }
  send_to_registry(request, ctx);
}

void Commander::reject_resize(const xmlproto::ResizeCmd& command,
                              const std::string& reason, obs::TraceCtx ctx) {
  ++commands_failed_;
  ARS_LOG_WARN("commander", "rejecting " << command.verb << "("
                                         << command.job << ") on "
                                         << host_->name() << ": " << reason);
  xmlproto::ResizeOutcomeMsg outcome;
  outcome.job = command.job;
  outcome.verb = command.verb;
  outcome.delta = command.delta;
  outcome.outcome = "aborted";
  outcome.reason = reason;
  outcome.phase = "plan";
  outcome.ranks_after =
      malleable_ != nullptr ? malleable_->ranks(command.job) : 0;
  report_resize_outcome(outcome, ctx);
}

sim::Task<> Commander::serve() {
  while (true) {
    const net::Message wire = co_await endpoint_->inbox.recv();
    auto envelope = xmlproto::decode_envelope(wire.payload);
    if (!envelope.has_value()) {
      ARS_LOG_WARN("commander", "undecodable message from " << wire.src_host);
      continue;
    }
    auto& message = envelope->message;
    const obs::TraceCtx ctx = envelope->trace;
    if (const auto* relaunch =
            std::get_if<xmlproto::RelaunchCmd>(&message)) {
      // Failure recovery: bring a process lost with its host back to life
      // here, from its latest checkpoint if one exists.
      const mpi::RankId id =
          middleware_->relaunch(relaunch->process_name, host_->name(), ctx);
      if (tracer() != nullptr) {
        obs::Attrs attrs{{"process", relaunch->process_name},
                         {"lost_host", relaunch->lost_host},
                         {"ok", id != 0}};
        obs::stamp(attrs, ctx);
        tracer()->instant("commander.relaunch", "commander", host_->name(),
                          std::move(attrs));
      }
      if (metrics() != nullptr) {
        metrics()
            ->counter("commander.relaunches",
                      {{"ok", id != 0 ? "true" : "false"}})
            .inc();
      }
      if (id == 0) {
        ARS_LOG_WARN("commander", "relaunch of unknown process "
                                      << relaunch->process_name << " on "
                                      << host_->name());
        // A relaunch for a process the cluster-wide middleware saw run to
        // completion is stale (a falsely expired lease raced a normal
        // exit): tell the registry to abandon the retry instead of
        // re-commanding it every sweep until the end of time.  The ack may
        // be lost; the next retry produces another one.
        if (middleware_->exited_normally(relaunch->process_name) &&
            !config_.registry_host.empty()) {
          xmlproto::AckMsg ack;
          ack.of = "relaunch";
          ack.ok = false;
          ack.detail = "exited:" + relaunch->process_name;
          send_to_registry(ack, ctx);
        }
      } else {
        ARS_LOG_INFO("commander", host_->name() << " relaunched "
                                                << relaunch->process_name
                                                << " (lost with "
                                                << relaunch->lost_host << ")");
      }
      continue;
    }
    if (const auto* resize = std::get_if<xmlproto::ResizeCmd>(&message)) {
      // Malleability: forward the resize to the engine; it takes effect at
      // the job's next poll-point and reports its own terminal outcome.
      ++commands_received_;
      if (metrics() != nullptr) {
        metrics()
            ->counter("commander.resizes_received", {{"verb", resize->verb}})
            .inc();
      }
      const auto verb = malleable::verb_from(resize->verb);
      if (malleable_ == nullptr || !verb.has_value()) {
        reject_resize(*resize,
                      malleable_ == nullptr ? "no malleable engine"
                                            : "unknown verb",
                      ctx);
        continue;
      }
      std::optional<mpi::SpawnStrategy> strategy;
      if (!resize->strategy.empty()) {
        strategy = mpi::spawn_strategy_from(resize->strategy);
      }
      const bool queued = malleable_->request_resize(
          resize->job, *verb, resize->delta, resize->hosts, strategy, ctx);
      if (tracer() != nullptr) {
        obs::Attrs attrs{{"job", resize->job},
                         {"verb", resize->verb},
                         {"delta", static_cast<double>(resize->delta)},
                         {"queued", queued}};
        obs::stamp(attrs, ctx);
        tracer()->instant("commander.resize", "commander", host_->name(),
                          std::move(attrs));
      }
      if (!queued) {
        // Nothing will run, so nothing will report: close the loop here or
        // the registry's debits only lapse by TTL.  Distinguish "the job is
        // gone" (registry should stop planning for it) from "try again
        // later" (a resize is already pending).
        const bool gone = !malleable_->known(resize->job) ||
                          malleable_->finished(resize->job) ||
                          malleable_->failed(resize->job);
        reject_resize(*resize, gone ? "job-finished" : "busy", ctx);
      } else {
        ARS_LOG_INFO("commander", host_->name()
                                      << " queued " << resize->verb << "("
                                      << resize->job << ", " << resize->delta
                                      << ")");
      }
      continue;
    }
    if (const auto* grant = std::get_if<xmlproto::CkptIoGrantMsg>(&message)) {
      // Checkpoint I/O verdict from the registry's scheduler: hand it to
      // the middleware's per-process checkpoint plan.
      if (metrics() != nullptr) {
        metrics()
            ->counter("commander.ckpt_grants", {{"verb", grant->verb}})
            .inc();
      }
      middleware_->deliver_ckpt_grant(grant->process, grant->verb,
                                      grant->retry_after);
      continue;
    }
    const auto* command = std::get_if<xmlproto::MigrateCmd>(&message);
    if (command == nullptr) {
      ARS_LOG_WARN("commander", "unexpected "
                                    << xmlproto::message_type(message)
                                    << " from " << wire.src_host);
      continue;
    }
    ++commands_received_;
    if (metrics() != nullptr) {
      metrics()->counter("commander.commands_received").inc();
    }
    // Each command gets its own fiber so a retrying delivery does not block
    // the inbox (and stop() can cancel in-flight retries).
    std::erase_if(command_fibers_,
                  [](const sim::Fiber& f) { return f.done(); });
    command_fibers_.push_back(sim::Fiber::spawn(
        host_->engine(), handle_migrate(*command, ctx),
        "commander.migrate." + host_->name()));
  }
}

sim::Task<> Commander::handle_migrate(xmlproto::MigrateCmd command,
                                      obs::TraceCtx ctx) {
  // Temp file + user-defined signal; the poll-point does the rest.
  bool ok = middleware_->request_migration(host_->name(), command.pid,
                                           command.dest_host, ctx);
  if (tracer() != nullptr) {
    // Signal delivery: the commander wrote the destination temp file and
    // raised the user-defined signal at the migrating process.
    obs::Attrs attrs{{"pid", command.pid},
                     {"process", command.process_name},
                     {"destination", command.dest_host},
                     {"ok", ok}};
    obs::stamp(attrs, ctx);
    tracer()->instant("commander.signal", "commander", host_->name(),
                      std::move(attrs));
  }
  // Bounded retry: the command may have raced the process's launch or
  // relaunch; back off exponentially before giving up.
  double backoff = kRetryBackoff;
  for (int attempt = 1; !ok && attempt <= kRetryLimit; ++attempt) {
    co_await sim::delay(host_->engine(), backoff);
    backoff *= 2.0;
    ++commands_retried_;
    if (metrics() != nullptr) {
      metrics()->counter("commander.commands_retried").inc();
    }
    ok = middleware_->request_migration(host_->name(), command.pid,
                                        command.dest_host, ctx);
    if (tracer() != nullptr) {
      obs::Attrs attrs{{"pid", command.pid},
                       {"process", command.process_name},
                       {"attempt", attempt},
                       {"ok", ok}};
      obs::stamp(attrs, ctx);
      tracer()->instant("commander.retry", "commander", host_->name(),
                        std::move(attrs));
    }
    ARS_LOG_INFO("commander", host_->name() << " retry " << attempt
                                            << " for pid " << command.pid
                                            << (ok ? " succeeded"
                                                   : " failed"));
  }
  if (!ok) {
    ++commands_failed_;
    if (metrics() != nullptr) {
      metrics()->counter("commander.commands_failed").inc();
    }
    ARS_LOG_WARN("commander", "migrate command for unknown pid "
                                  << command.pid << " on " << host_->name());
  } else {
    ARS_LOG_INFO("commander", host_->name() << " signalled pid "
                                            << command.pid
                                            << " to migrate to "
                                            << command.dest_host);
  }
  if (!config_.registry_host.empty()) {
    xmlproto::AckMsg ack;
    ack.of = "migrate";
    ack.ok = ok;
    ack.detail = ok ? "" : "unknown pid";
    send_to_registry(ack, ctx);
  }
}

}  // namespace ars::commander
