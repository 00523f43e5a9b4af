#pragma once
// Commander entity (paper §3.3): one per host.  Receives MIGRATE commands
// from the registry/scheduler, writes the destination address to a temp
// file, and raises the user-defined signal at the migrating process — the
// HPCM middleware's poll-point picks it up from there.

#include <string>
#include <vector>

#include "ars/hpcm/migration.hpp"
#include "ars/net/network.hpp"
#include "ars/sim/task.hpp"
#include "ars/xmlproto/messages.hpp"

namespace ars::obs {
class Tracer;
class MetricsRegistry;
}  // namespace ars::obs

namespace ars::malleable {
class MalleableEngine;
}  // namespace ars::malleable

namespace ars::commander {

class Commander {
 public:
  struct Config {
    int port = 0;  // allocated if 0
    // Where acknowledgements go (the registry); acks are dropped if unset.
    std::string registry_host;
    int registry_port = 0;
  };

  Commander(host::Host& h, net::Network& network,
            hpcm::MigrationEngine& middleware, Config config);
  ~Commander();
  Commander(const Commander&) = delete;
  Commander& operator=(const Commander&) = delete;

  void start();
  void stop();

  /// Forward a migration transaction's terminal outcome to the registry
  /// (fire-and-forget, like the migrate ack).  Dropped when the commander
  /// is stopped (its host failed) or no registry is configured.  `ctx`
  /// links the report to the migration transaction on the wire.
  void report_outcome(const xmlproto::MigrationOutcomeMsg& outcome,
                      obs::TraceCtx ctx = {});

  /// Forward a resize transaction's terminal outcome (same contract as
  /// report_outcome; the registry credits resize placement debits from it).
  void report_resize_outcome(const xmlproto::ResizeOutcomeMsg& outcome,
                             obs::TraceCtx ctx = {});

  /// Forward a checkpoint-write I/O event to the registry's I/O scheduler
  /// (same fire-and-forget contract; the scheduler's slot TTL covers lost
  /// done/abort reports and its grant covers lost requests via the
  /// middleware's grant timeout).
  void send_ckpt_request(const xmlproto::CkptIoRequestMsg& request,
                         obs::TraceCtx ctx = {});

  /// Wire the malleable engine RESIZE commands are forwarded to.  Unset,
  /// RESIZE commands are rejected with an immediate aborted outcome.
  void set_malleable(malleable::MalleableEngine* engine) {
    malleable_ = engine;
  }

  [[nodiscard]] int port() const noexcept { return config_.port; }
  [[nodiscard]] int commands_received() const noexcept {
    return commands_received_;
  }
  [[nodiscard]] int commands_failed() const noexcept {
    return commands_failed_;
  }
  /// Retry attempts made after a failed first delivery (any outcome).
  [[nodiscard]] int commands_retried() const noexcept {
    return commands_retried_;
  }

 private:
  [[nodiscard]] sim::Task<> serve();
  [[nodiscard]] sim::Task<> handle_migrate(xmlproto::MigrateCmd command,
                                           obs::TraceCtx ctx);

  void reject_resize(const xmlproto::ResizeCmd& command,
                     const std::string& reason, obs::TraceCtx ctx);
  /// Post `message` from this host to the registry, carrying `ctx`.
  void send_to_registry(const xmlproto::ProtocolMessage& message,
                        obs::TraceCtx ctx);

  /// The sinks of the engine this commander runs on.
  [[nodiscard]] obs::Tracer* tracer() const noexcept {
    return host_->engine().tracer();
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return host_->engine().metrics();
  }

  host::Host* host_;
  net::Network* network_;
  hpcm::MigrationEngine* middleware_;
  malleable::MalleableEngine* malleable_ = nullptr;
  Config config_;
  net::Endpoint* endpoint_ = nullptr;
  sim::Fiber fiber_;
  std::vector<sim::Fiber> command_fibers_;  // in-flight migrate handlers
  int commands_received_ = 0;
  int commands_failed_ = 0;
  int commands_retried_ = 0;
  bool running_ = false;
};

}  // namespace ars::commander
