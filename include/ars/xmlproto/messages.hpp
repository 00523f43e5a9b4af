#pragma once
// The rescheduler's wire protocol: typed messages encoded as XML documents,
// exchanged between monitor, registry/scheduler and commander entities over
// the simulated TCP transport (paper §3.3, "Entities of rescheduler").
//
// Each message is one XML element <ars type="..."> with typed children; its
// wire format is one field table in messages.cpp.  decode() gives back a
// std::variant so entity loops can dispatch with std::visit and malformed
// input (including a number outside its field's type range) surfaces as an
// Expected error instead of a crash — the control plane must survive
// garbage.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "ars/obs/trace_ctx.hpp"
#include "ars/support/expected.hpp"

namespace ars::xmlproto {

/// One-time static registration payload (host birth certificate).
struct StaticInfo {
  std::string host;
  std::string ip;
  std::string os;
  std::uint64_t memory_bytes = 0;
  std::uint64_t disk_bytes = 0;
  double cpu_speed = 1.0;
  std::string byte_order;  // "big" | "little"
  bool operator==(const StaticInfo&) const = default;
};

/// Periodic soft-state heartbeat from a monitor.
struct DynamicStatus {
  std::string host;
  std::string state;  // "free" | "busy" | "overloaded" (or finer grained)
  double load1 = 0.0;
  double load5 = 0.0;
  double cpu_util = 0.0;  // [0,1]
  int processes = 0;
  double mem_available_pct = 0.0;
  std::uint64_t disk_available = 0;
  double net_in_bps = 0.0;
  double net_out_bps = 0.0;
  int sockets_established = 0;
  double timestamp = 0.0;
  bool operator==(const DynamicStatus&) const = default;
};

/// Monitor -> registry: initial registration.
struct RegisterMsg {
  StaticInfo info;
  int monitor_port = 0;
  int commander_port = 0;
  bool operator==(const RegisterMsg&) const = default;
};

/// Monitor -> registry: heartbeat / state change.
struct UpdateMsg {
  DynamicStatus status;
  bool operator==(const UpdateMsg&) const = default;
};

/// Monitor -> registry: host is overloaded, request a migration decision.
/// The optional fields are filled when a registry escalates or routes the
/// consult across the hierarchy: they carry the child's process selection
/// and the source commander's return-path so a foreign domain can command
/// the migration without knowing the source host.
struct ConsultMsg {
  std::string host;
  std::string reason;
  std::string origin_registry;  // child registry that first escalated
  int pid = 0;                  // selected process (0: none carried)
  std::string process_name;
  std::string schema_name;
  int commander_port = 0;  // commander port on `host`
  bool operator==(const ConsultMsg&) const = default;
};

/// One compact lease renewal inside an UpdateBatchMsg: "nothing changed
/// since my last full status" — enough to refresh the soft-state lease
/// without re-encoding (or re-parsing) the full DynamicStatus.
struct LeaseRenewal {
  std::string host;
  std::string state;  // must match the registry's current view
  double timestamp = 0.0;
  bool operator==(const LeaseRenewal&) const = default;
};

/// Monitor -> registry: batched delta heartbeat.  Monitors coalesce
/// unchanged-state cycles into renewals; a full UpdateMsg is still sent on
/// any state change and periodically as a keyframe.
struct UpdateBatchMsg {
  std::vector<LeaseRenewal> renewals;
  bool operator==(const UpdateBatchMsg&) const = default;
};

/// Registry -> commander (of the overloaded host): migrate `pid` to dest.
struct MigrateCmd {
  int pid = 0;
  std::string process_name;
  std::string dest_host;
  std::string dest_ip;
  int dest_port = 0;
  std::string schema_name;
  bool operator==(const MigrateCmd&) const = default;
};

/// Commander/monitor -> registry: generic acknowledgement.
struct AckMsg {
  std::string of;  // message type being acknowledged
  bool ok = true;
  std::string detail;
  bool operator==(const AckMsg&) const = default;
};

/// Monitor -> registry: register a (migratable) process and its schema key.
struct ProcessRegisterMsg {
  std::string host;
  int pid = 0;
  std::string name;
  double start_time = 0.0;
  bool migration_enabled = false;
  std::string schema_name;
  bool operator==(const ProcessRegisterMsg&) const = default;
};

/// Monitor -> registry: a process finished or was migrated away.
struct ProcessDeregisterMsg {
  std::string host;
  int pid = 0;
  bool operator==(const ProcessDeregisterMsg&) const = default;
};

/// Child registry -> parent registry: aggregated health (hierarchy, §3.2).
struct HealthReportMsg {
  std::string registry_host;
  int registry_port = 0;  // where the parent can send routed consults
  int free_hosts = 0;
  int busy_hosts = 0;
  int overloaded_hosts = 0;
  double timestamp = 0.0;
  bool operator==(const HealthReportMsg&) const = default;
};

/// Administrator/monitor -> registry: migrate EVERY migration-enabled
/// process off `host` (planned shutdown, detected intrusion — the fault
/// tolerance use cases of the paper's §6) and stop assigning work to it.
struct EvacuateMsg {
  std::string host;
  std::string reason;
  bool operator==(const EvacuateMsg&) const = default;
};

/// Registry -> commander of the *destination* host: bring a process that
/// was lost with its host back to life from its latest checkpoint.
struct RelaunchCmd {
  std::string process_name;  // name in the checkpoint store / middleware
  std::string lost_host;     // where it was running
  std::string schema_name;
  bool operator==(const RelaunchCmd&) const = default;
};

/// Commander (source host) -> registry: terminal outcome of a migration
/// transaction.  "committed" credits back the registry's in-flight
/// placement debit; "aborted"/"rolled-back" additionally mark the failed
/// destination suspect and let the registry re-plan immediately.  The
/// reason/phase fields are only meaningful (and only encoded) for failures;
/// the precopy fields are only meaningful (and only encoded) when the
/// transaction ran iterative pre-copy rounds, so stop-and-copy outcomes —
/// and every pre-existing peer — keep the exact legacy wire form.
struct MigrationOutcomeMsg {
  std::string process;
  std::string source;
  std::string destination;
  std::string outcome;  // "committed" | "aborted" | "rolled-back"
  std::string reason;   // e.g. "init-timeout", "dest-failed"
  std::string phase;    // protocol phase the failure hit
  int precopy_rounds = 0;             // pre-copy rounds shipped (0: stop-and-copy)
  std::uint64_t precopy_bytes = 0;    // bytes moved outside the freeze window
  bool operator==(const MigrationOutcomeMsg&) const = default;
};

/// Registry -> commander (of a malleable job's root host): grow or shrink
/// the job.  For an expand, `hosts` are the spawn targets (one new rank
/// each); for a shrink they are the hosts to vacate (ranks there retire at
/// the job's next poll-point).  `strategy` selects the DPM fan-out
/// ("sequential" | "tree"; empty keeps the job's default).
struct ResizeCmd {
  std::string job;
  std::string verb;  // "expand" | "shrink"
  int delta = 0;
  std::string strategy;
  std::vector<std::string> hosts;
  bool operator==(const ResizeCmd&) const = default;
};

/// Commander (root host) -> registry: terminal outcome of a resize
/// transaction.  "committed" credits back the registry's per-target
/// placement debits exactly like MigrationOutcomeMsg; "aborted" and
/// "partial-rollback" additionally mark the commanded targets suspect.
/// The reason/phase fields are only meaningful (and only encoded) for
/// failures.
struct ResizeOutcomeMsg {
  std::string job;
  std::string verb;     // "expand" | "shrink"
  int delta = 0;
  std::string outcome;  // "committed" | "aborted" | "partial-rollback"
  std::string reason;   // e.g. "spawn-timeout", "no-capacity"
  std::string phase;    // transaction phase the failure hit
  int ranks_after = 0;
  bool operator==(const ResizeOutcomeMsg&) const = default;
};

/// Commander -> registry: one checkpoint-write I/O event for the central
/// I/O scheduler (DESIGN.md §17).  verb "request" asks for a write slot
/// (risk = elapsed-over-interval, how overdue the requester is); "done" and
/// "abort" release a previously granted slot.  bytes/risk are only
/// meaningful (and only encoded) on requests.
struct CkptIoRequestMsg {
  std::string host;
  std::string process;
  std::string verb;  // "request" | "done" | "abort"
  std::uint64_t bytes = 0;
  double risk = 0.0;
  bool operator==(const CkptIoRequestMsg&) const = default;
};

/// Registry -> commander: verdict on a CkptIoRequestMsg.  "admit" lets the
/// write proceed now; "defer" asks the requester to re-ask after
/// retry_after seconds; "preempt" tells the named process to abort its
/// in-flight write (it was evicted for a riskier peer) and back off.
struct CkptIoGrantMsg {
  std::string process;
  std::string verb;  // "admit" | "defer" | "preempt"
  double retry_after = 0.0;
  bool operator==(const CkptIoGrantMsg&) const = default;
};

using ProtocolMessage =
    std::variant<RegisterMsg, UpdateMsg, UpdateBatchMsg, ConsultMsg,
                 MigrateCmd, AckMsg, ProcessRegisterMsg, ProcessDeregisterMsg,
                 HealthReportMsg, EvacuateMsg, RelaunchCmd, MigrationOutcomeMsg,
                 ResizeCmd, ResizeOutcomeMsg, CkptIoRequestMsg, CkptIoGrantMsg>;

/// Serialize any protocol message to its XML wire form.
[[nodiscard]] std::string encode(const ProtocolMessage& message);

/// Serialize with a causal trace context riding on the envelope.  The
/// context travels as root attributes (txn="..." pspan="...") that are
/// emitted only when set — an unset context yields byte-identical output
/// to the context-free encode(), so pre-v2 peers and byte-exact replay
/// are unaffected when tracing is off.
[[nodiscard]] std::string encode(const ProtocolMessage& message,
                                 const obs::TraceCtx& ctx);

/// A decoded message together with the causal context its envelope
/// carried (unset when the sender attached none).
struct Envelope {
  ProtocolMessage message;
  obs::TraceCtx trace;
};

/// Parse a wire document back into a typed message.
[[nodiscard]] support::Expected<ProtocolMessage> decode(
    std::string_view wire);

/// Parse a wire document, preserving the envelope's trace context.
[[nodiscard]] support::Expected<Envelope> decode_envelope(
    std::string_view wire);

/// Wire type tag of a message ("register", "update", ...).
[[nodiscard]] std::string message_type(const ProtocolMessage& message);

}  // namespace ars::xmlproto
