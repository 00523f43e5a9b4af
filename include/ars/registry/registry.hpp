#pragma once
// Registry/scheduler entity (paper §3.2): global system-state manager and
// decision maker.
//
//   * Soft-state host table: monitors push REGISTER once and UPDATE
//     heartbeats; a lease sweeper marks silent hosts `unavailable`.
//   * Process registry: one ledger record per migration-enabled process
//     (start time, application-schema key, and where it stands: running,
//     relaunching or stranded, plus any open migration claim).
//   * Decision making: on CONSULT from an overloaded host, select the
//     process with the *latest completion time* (start time + schema
//     estimate) and the *first-fit* destination — the first registered host
//     that is in the `free` state, passes the policy's destination
//     conditions, and satisfies the schema's resource requirements — then
//     command the source host's commander to migrate.
//   * Hierarchy: a registry may have a parent; when no local candidate
//     exists the consult escalates ("the migration destination is chosen
//     inside one's control domain" when possible).
//
// Scale: every `HostEntry` is threaded onto an intrusive per-`SystemState`
// list ordered by `registration_order`, maintained in place on every state
// transition, so a decision walks only the `free` list — O(eligible).  The
// same walk counts why each host was or was not a destination (`WhyNot`, a
// fixed-size record; the other lists count by their sizes).  See DESIGN.md
// §10.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ars/ckpt/strategy.hpp"
#include "ars/hpcm/schema.hpp"
#include "ars/net/network.hpp"
#include "ars/obs/trace_ctx.hpp"
#include "ars/rules/policy.hpp"
#include "ars/rules/state.hpp"
#include "ars/sim/task.hpp"
#include "ars/support/rng.hpp"
#include "ars/xmlproto/messages.hpp"

namespace ars::obs {
class Tracer;
class MetricsRegistry;
}  // namespace ars::obs

namespace ars::registry {

struct HostEntry {
  xmlproto::StaticInfo info;
  xmlproto::DynamicStatus status;
  rules::SystemState state = rules::SystemState::kUnavailable;
  double last_update = -1.0;
  int monitor_port = 0;
  int commander_port = 0;
  int registration_order = 0;  // first-fit scans in this order
  bool draining = false;       // evacuated: never a destination again
  /// At least one full UpdateMsg has been applied since the host was last
  /// (re)admitted — until then `status` may be stale pre-crash data and the
  /// host must not be offered as a destination.
  bool status_seen = false;
  /// A migration to this host aborted or rolled back recently; it is not
  /// offered as a destination again until this (re-admission backoff)
  /// deadline passes.  Heartbeats keep flowing and refresh the lease.
  double suspect_until = -1.0;
  /// Intrusive links for the registry's per-state index.  Owned and
  /// maintained by the Registry; meaningless in copies of the entry.
  HostEntry* index_prev = nullptr;
  HostEntry* index_next = nullptr;
};

/// Destination-choice strategy.  The paper uses first-fit ("the
/// registry/scheduler chooses the first host, which is ready and owns all
/// the resources required"); best-fit and random-fit are provided for the
/// ablation benches.
enum class DestinationStrategy { kFirstFit, kBestFit, kRandomFit };

/// Whether a traced decision's `scheduler.decision` instant carries its
/// `WhyNot` counts as attributes.  Decisions record the counts either way;
/// this gates only the trace attributes.
enum class AuditMode {
  kAuto,  // the counts ride on the event whenever a tracer is configured
  kOff,   // never on the trace
};

/// A migration-enabled process as booked on the host it runs on.
struct ProcessEntry {
  std::string host;
  int pid = 0;
  std::string name;
  double start_time = 0.0;
  std::string schema_name;
  double last_migrated_at = -1.0e9;
};

/// Why a decision's registered hosts were or were not destinations: the
/// hosts off the free list by state, and the free hosts by the first
/// destination check each one failed.  Every registered host is counted
/// exactly once, so the counts sum to `Registry::hosts().size()`.
struct WhyNot {
  int eligible = 0;  // free, and passed every check
  // Off the free list.
  int busy = 0;
  int overloaded = 0;
  int unavailable = 0;
  // Free, but refused.
  int source = 0;          // the host the process leaves
  int draining = 0;        // evacuated: never a destination again
  int suspect = 0;         // a placement there failed recently
  int unregistered = 0;    // no RegisterMsg has supplied its ports
  int policy = 0;          // fails the policy's destination conditions
  int resources = 0;       // below the schema's requirements
  int inflight = 0;        // open placement claims exhaust its resources
  int recovery_round = 0;  // this round's restarts exhaust its resources

  [[nodiscard]] int total() const noexcept {
    return eligible + busy + overloaded + unavailable + source + draining +
           suspect + unregistered + policy + resources + inflight +
           recovery_round;
  }
};

/// One scheduling decision, for the experiment logs.
struct Decision {
  double at = 0.0;
  std::string source;
  std::string destination;  // empty if none found
  int pid = 0;
  std::string process_name;
  double decision_latency = 0.0;
  bool escalated = false;
  bool restart = false;  // failure recovery rather than live migration
  /// Why each registered host was or was not a destination.
  WhyNot why_not;
};

/// One registered malleable job the resize planner manages: the registry
/// watches its state indexes for slack (free hosts -> expand) and pressure
/// (overloaded member hosts -> shrink) and commands the resize through the
/// job's root-host commander.  `ranks` is soft state, re-synced by every
/// ResizeOutcomeMsg.
struct MalleableJobEntry {
  std::string name;
  std::string root_host;
  int ranks = 0;
  int min_ranks = 1;
  int max_ranks = 64;
  std::string strategy;  // "sequential" | "tree" | "" (job default)
  /// The job's resize claim: a command sent at `last_resize_at` awaits its
  /// outcome (or the placement TTL, like a migration claim).
  double last_resize_at = -1.0e9;
  bool resizing = false;
  /// Expand targets of the in-flight command: each counts as an in-flight
  /// placement on its host, and is marked suspect on failure.
  std::vector<std::string> pending_targets;
};

/// What a parent registry knows about one child domain, from the child's
/// periodic HealthReportMsg.  `routed_consults` counts consults forwarded to
/// the child since its last report — a conservative in-flight debit so
/// escalations spread across domains instead of piling onto the child that
/// reported the most free hosts.
struct ChildDomain {
  int port = 0;
  int free_hosts = 0;
  int busy_hosts = 0;
  int overloaded_hosts = 0;
  double last_report = -1.0;
  int routed_consults = 0;
};

class Registry {
 public:
  struct Config {
    int port = 0;  // allocated if 0
    rules::MigrationPolicy policy;  // destination conditions
    double lease_ttl = 35.0;        // ~3 missed 10 s heartbeats
    /// Parent registry for hierarchical escalation (empty: none).
    std::string parent_host;
    int parent_port = 0;
    /// How the destination is chosen among eligible hosts.
    DestinationStrategy strategy = DestinationStrategy::kFirstFit;
    std::uint64_t random_seed = 1;  // for kRandomFit (deterministic runs)
    /// When a host's soft-state lease expires (crash), command the
    /// relaunch of its registered processes on other hosts (from their
    /// checkpoints, via the destination commanders).
    bool auto_restart = false;
    /// Plan expand/shrink for registered malleable jobs during the sweep.
    bool enable_resize = false;
    /// Minimum spacing between commanded resizes of the same job.
    double resize_cooldown = 30.0;
    /// Upper bound on new ranks per expand command.
    int max_expand_step = 4;
    /// Current hosts of a malleable job (wired by the runtime): used to
    /// avoid doubling ranks onto member hosts and to pick pressure victims.
    std::function<std::vector<std::string>(const std::string&)> job_hosts;
    /// Cooperative checkpoint I/O scheduling (DESIGN.md §17): answer
    /// CkptIoRequestMsg with admit/defer/preempt grants so concurrent
    /// checkpoint writes do not saturate the shared store (the scheduler
    /// runs with ckpt::IoScheduler's fixed limits).
    bool enable_ckpt_io = false;
    /// Whether traced decisions carry their why-not counts (AuditMode).
    AuditMode audit = AuditMode::kAuto;
  };

  Registry(host::Host& h, net::Network& network, Config config);
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void start();
  void stop();

  /// Cold restart: drop all soft state (host table, every process record
  /// and claim, registration order), start again and trace
  /// `registry.cold_restart`.  Schemas, malleable-job registrations and the
  /// decision log survive: they are configuration and audit trail, not
  /// soft state.  Call while stopped; the tables rebuild from subsequent
  /// monitor announcements (paper §3).
  void restart_cold();

  [[nodiscard]] int port() const noexcept { return config_.port; }
  [[nodiscard]] const std::string& host_name() const {
    return host_->name();
  }

  /// Make an application schema known to the scheduler (resource
  /// requirements + execution-time estimates used by the selector).
  void register_schema(const hpcm::ApplicationSchema& schema);

  [[nodiscard]] const std::map<std::string, HostEntry>& hosts() const {
    return hosts_;
  }
  [[nodiscard]] const std::vector<Decision>& decisions() const {
    return decisions_;
  }
  [[nodiscard]] std::optional<rules::SystemState> host_state(
      const std::string& name) const;
  /// Processes booked as running on some host.
  [[nodiscard]] std::size_t process_count() const;

  /// Apply one protocol message as if it had arrived over the wire from
  /// `from_host` — the serve loop routes through this; benches and tests
  /// use it to drive the registry without paying for network simulation.
  /// `ctx` is the causal context of the message's envelope (unset when the
  /// sender attached none).
  void deliver(const xmlproto::ProtocolMessage& message,
               const std::string& from_host, obs::TraceCtx ctx = {});

  /// Scheduling core, also callable directly by tests: pick a destination
  /// for a migration off `source_host` using the configured strategy
  /// (nullopt if no eligible host).  A non-null `why_not` receives the
  /// walk's counts.
  [[nodiscard]] std::optional<std::string> choose_destination(
      const std::string& source_host, const std::string& schema_name,
      WhyNot* why_not = nullptr);

  /// The paper's default strategy, regardless of configuration.
  [[nodiscard]] std::optional<std::string> first_fit_destination(
      const std::string& source_host, const std::string& schema_name);

  /// Hosts eligible as destination, in registration order: a walk of the
  /// `free` index list, the only code that decides eligibility.  A
  /// non-null `why_not` receives the walk's counts.
  [[nodiscard]] std::vector<const HostEntry*> eligible_destinations(
      const std::string& source_host, const std::string& schema_name,
      WhyNot* why_not = nullptr) const;

  /// Selector: the migration-enabled process on `source_host` with the
  /// latest estimated completion time.
  [[nodiscard]] const ProcessEntry* select_process(
      const std::string& source_host);

  /// Fault-tolerance path (paper §6: "reschedule when the machine will
  /// shut down, intrusion is detected"): command every migration-enabled
  /// process off `host` and stop treating it as a destination.  Also
  /// reachable over the wire via an EvacuateMsg.
  void request_evacuation(const std::string& host, const std::string& reason);

  /// Number of evacuation commands issued so far.
  [[nodiscard]] int evacuations_commanded() const noexcept {
    return evacuations_commanded_;
  }

  /// Make a malleable job known to the resize planner (like schemas, job
  /// registrations are configuration and survive a cold restart; `ranks`
  /// re-syncs from outcome reports).
  void register_malleable_job(const std::string& name,
                              const std::string& root_host, int ranks,
                              int min_ranks, int max_ranks,
                              const std::string& strategy = "");
  [[nodiscard]] const std::map<std::string, MalleableJobEntry>&
  malleable_jobs() const {
    return malleable_jobs_;
  }
  /// Number of resize commands issued so far.
  [[nodiscard]] int resizes_commanded() const noexcept {
    return resizes_commanded_;
  }

  /// Canonical one-line-per-decision log (no why-not counts) —
  /// byte-comparable across runs of the same scenario (goldens pin it).
  [[nodiscard]] std::string decision_log() const;

  // -- state-index introspection (tests, benches) ---------------------------
  /// Host names on the index list for `state`, in list order.
  [[nodiscard]] std::vector<std::string> indexed_hosts(
      rules::SystemState state) const;
  [[nodiscard]] std::size_t indexed_count(rules::SystemState state) const;
  /// Every host is on exactly the list matching its state, list sizes are
  /// right, links are coherent, and the free list is ordered by
  /// registration_order.
  [[nodiscard]] bool index_consistent() const;

  /// Lost processes waiting for capacity (retried every sweep), in park
  /// order; one that registers again stays until that sweep counts it.
  [[nodiscard]] std::vector<ProcessEntry> stranded() const;

  /// Child domains known from HealthReportMsg (parent registries only).
  [[nodiscard]] const std::map<std::string, ChildDomain>& children() const {
    return children_;
  }

  /// Open placement claims: migrations commanded but not yet resolved by a
  /// MigrationOutcomeMsg, plus the spawn targets of in-flight expands.
  [[nodiscard]] std::size_t inflight_placements() const;

 private:
  /// Placements not yet visible in a destination's heartbeats.
  struct Debit {
    int placements = 0;
    std::uint64_t memory_bytes = 0;
    std::uint64_t disk_bytes = 0;
  };

  /// The restarts one recovery round has placed, debited per destination
  /// so a dead host's processes spread instead of piling onto one host.
  using RecoveryRound = std::map<std::string, Debit>;

  /// Where a process stands in the ledger (DESIGN.md §12).
  enum class ProcessState {
    kRunning,      // booked: `process.host` runs it as `process.pid`
    kRelaunching,  // RelaunchCmd sent to `relaunch_dest`, no report yet
    kStranded,     // no destination yet: the sweeper retries
    kClaimOnly,    // on nobody's books: the record only holds its claim
  };

  /// A commanded migration awaiting its outcome: it debits `dest` by the
  /// schema's requirements at command time, so placements spread.
  struct MigrationClaim {
    std::string dest;
    std::string schema_name;
    double at = 0.0;
    std::uint64_t order = 0;  // orphaned claims relaunch in claim order
    std::uint64_t memory_bytes = 0;
    std::uint64_t disk_bytes = 0;
  };

  /// The ledger's one record of a process name: exactly one state, plus at
  /// most one open migration claim.
  struct ProcessRecord {
    ProcessState state = ProcessState::kClaimOnly;
    /// The booking (kRunning), or what the next relaunch carries.
    ProcessEntry process;
    std::string relaunch_dest;   // kRelaunching
    double relaunched_at = 0.0;  // kRelaunching
    /// Park order (kStranded) or command order (kRelaunching).
    std::uint64_t order = 0;
    /// kRunning only: the process was stranded and registered again; it
    /// stays listed by stranded() until the next sweep counts the recovery.
    bool recovery_unreported = false;
    std::optional<MigrationClaim> claim;
    /// The (host, pid) the last committed migration retired: a
    /// registration naming it is stale (host pids never repeat).
    std::pair<std::string, int> retired;

    [[nodiscard]] bool parked() const {
      return state == ProcessState::kStranded || recovery_unreported;
    }
  };

  [[nodiscard]] sim::Task<> serve();
  [[nodiscard]] sim::Task<> sweep();
  [[nodiscard]] sim::Task<> report_health();
  void handle(const xmlproto::ProtocolMessage& message,
              const std::string& from_host, obs::TraceCtx ctx);
  [[nodiscard]] sim::Task<> decide(xmlproto::ConsultMsg consult,
                                   obs::TraceCtx ctx);
  [[nodiscard]] sim::Task<> evacuate(std::string drained_host,
                                     std::string reason);

  // -- ledger transitions (DESIGN.md §12) -----------------------------------
  /// The record of `name`, created empty and claim-only if unknown.
  ProcessRecord& record_of(const std::string& name);
  /// Any state -> running as `process`.
  void book(ProcessRecord& record, ProcessEntry process);
  /// Off the books: claim-only while a claim is open, else erased.
  void unbook(ProcessRecord& record);
  /// Place the lost process `record` holds: relaunching, else stranded.
  /// `record_stranded` logs a failure as a decision (only the first one
  /// is); `cause` links the restart to the transaction that killed the
  /// previous incarnation (a cause_txn attribute on the decision).
  bool restart_process(ProcessRecord& record, RecoveryRound& round,
                       bool record_stranded, obs::TraceCtx cause = {});
  /// Relaunching/stranded -> off the books: the process deregistered or a
  /// commander reported it already exited, so no relaunch is owed.
  void abandon_relaunch(ProcessRecord& record, const std::string& reason);
  /// Sweep steps: stranded -> relaunching in park order; relaunching ->
  /// stranded once `kRelaunchConfirmTtl` passes unconfirmed; claims past
  /// the placement TTL close, and a process on nobody's books relaunches.
  void drain_stranded();
  void confirm_relaunches(double now);
  void expire_claims(double now);
  /// The running records on `host` in pid text order (the old "host:pid"
  /// key order that selection, restarts and evacuations depend on).
  std::vector<ProcessRecord*> booked_on(const std::string& host);
  /// Back `host` off as a destination for the re-admission backoff after a
  /// failed placement.  Returns its entry, or nullptr for an unknown host.
  const HostEntry* suspect(const std::string& host, double now);
  /// Command the commander of `process`'s host (at `source_port`) to
  /// migrate it to `dest`: the process's one claim until the outcome.
  void command_migration(const ProcessEntry& process, int source_port,
                         const HostEntry& dest, obs::TraceCtx ctx);
  /// Apply a commander's MigrationOutcomeMsg: close the process's claim,
  /// mark failed destinations suspect, and re-plan aborts.  `ctx` is
  /// the transaction the outcome closes; a replanned consult opens a new
  /// transaction linked to it by a cause_txn attribute.
  void on_migration_outcome(const xmlproto::MigrationOutcomeMsg& outcome,
                            obs::TraceCtx ctx);
  /// Resize planner: slack/pressure detection over the state indexes,
  /// one command per eligible job per sweep tick.
  void plan_resizes(double now);
  void command_resize(MalleableJobEntry& job, const std::string& verb,
                      std::vector<std::string> hosts, double now);
  /// Apply a commander's ResizeOutcomeMsg: close the job's resize claim,
  /// re-sync its rank count, and suspect failed targets — the malleable
  /// mirror of on_migration_outcome.
  void on_resize_outcome(const xmlproto::ResizeOutcomeMsg& outcome,
                         obs::TraceCtx ctx);
  /// Answer one checkpoint-write I/O event (enable_ckpt_io): request ->
  /// admit/defer grant (possibly preempting an active writer), done/abort
  /// -> slot release.  Grants route to the requesting host's commander.
  void on_ckpt_io_request(const xmlproto::CkptIoRequestMsg& request,
                          obs::TraceCtx ctx);
  /// Send a CkptIoGrantMsg to the commander of `host` (no-op for unknown
  /// hosts or hosts without a known commander port).
  void send_ckpt_grant(const std::string& host,
                       const xmlproto::CkptIoGrantMsg& grant,
                       obs::TraceCtx ctx);
  /// The open claims against `host_name`: migration claims with their
  /// schema bytes, and expand targets (no bytes).
  [[nodiscard]] Debit inflight_debit(const std::string& host_name) const;
  /// Route an escalated consult to the child domain with the most reported
  /// free capacity (minus consults already routed there).  Returns false
  /// when no child can plausibly take it.
  bool route_to_child(const xmlproto::ConsultMsg& consult, obs::TraceCtx ctx);
  /// `consult` as forwarded to another registry: it carries this domain's
  /// process selection and the source commander's return-path, so whichever
  /// domain takes it can command the migration.
  [[nodiscard]] xmlproto::ConsultMsg forward_consult(
      const xmlproto::ConsultMsg& consult, const ProcessEntry& process) const;
  void send_to(const std::string& dst_host, int dst_port,
               const xmlproto::ProtocolMessage& message,
               obs::TraceCtx ctx = {});

  /// The `scheduler.decision` instant of `decision` (its why-not counts
  /// ride along unless `Config::audit` is kOff); no-op without a tracer.
  void trace_decision(const Decision& decision, const char* kind,
                      obs::TraceCtx ctx = {},
                      std::uint64_t cause_txn = 0) const;
  /// Find-or-create `hosts_[name]`, linking new entries into the
  /// `unavailable` index list.
  HostEntry& ensure_entry(const std::string& name);
  void index_insert(HostEntry& entry);
  void index_remove(HostEntry& entry);
  /// Transition `entry` to `next`, relinking it between index lists.
  void set_state(HostEntry& entry, rules::SystemState next);
  /// Re-sort `entry` within its current list after its
  /// `registration_order` changed (ghost entry adopted by a RegisterMsg).
  void reposition(HostEntry& entry);

  /// The why-not counter one host's verdict lands in.
  using Tally = int WhyNot::*;
  /// The first destination check the free host `entry` fails, or
  /// `&WhyNot::eligible`.  `round` (restarts only) adds the debits of the
  /// restarts it already placed.
  [[nodiscard]] Tally destination_verdict(
      const HostEntry& entry, const std::string& source_host,
      const hpcm::ApplicationSchema* schema, const RecoveryRound* round,
      double now) const;
  /// eligible_destinations under a recovery round's debits.
  [[nodiscard]] std::vector<const HostEntry*> walk(
      const std::string& source_host, const std::string& schema_name,
      WhyNot* why_not, const RecoveryRound* round) const;
  /// Every placement's one path: the walk, then the configured strategy's
  /// pick (within a recovery round, among the least-placed hosts only);
  /// nullptr when no host is eligible.
  [[nodiscard]] const HostEntry* place(const std::string& source_host,
                                       const std::string& schema_name,
                                       WhyNot* why_not,
                                       const RecoveryRound* round);

  struct StateList {
    HostEntry* head = nullptr;
    HostEntry* tail = nullptr;
    std::size_t size = 0;
  };
  static std::size_t state_slot(rules::SystemState state) noexcept {
    return static_cast<std::size_t>(state);
  }

  /// The sinks of the engine this registry runs on.
  [[nodiscard]] obs::Tracer* tracer() const noexcept {
    return host_->engine().tracer();
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return host_->engine().metrics();
  }

  host::Host* host_;
  net::Network* network_;
  Config config_;
  net::Endpoint* endpoint_ = nullptr;
  std::map<std::string, HostEntry> hosts_;  // node-based: stable addresses
  StateList index_[4];
  /// The process ledger, one record per (cluster-unique) process name.
  std::map<std::string, ProcessRecord> ledger_;
  /// Stamps the park, relaunch and claim orders of the records.
  std::uint64_t ledger_clock_ = 0;
  /// Synthetic pid for processes booked on a migration destination before
  /// the destination's own ProcessRegisterMsg arrives (negative: can never
  /// collide with a real registration).
  int next_placeholder_pid_ = -1;
  std::map<std::string, hpcm::ApplicationSchema> schemas_;
  std::vector<Decision> decisions_;
  std::map<std::string, ChildDomain> children_;
  std::map<std::string, MalleableJobEntry> malleable_jobs_;
  ckpt::IoScheduler ckpt_io_;
  int resizes_commanded_ = 0;
  int evacuations_commanded_ = 0;
  int next_registration_order_ = 0;
  support::Rng rng_{1};
  std::vector<sim::Fiber> fibers_;
  bool running_ = false;
};

}  // namespace ars::registry
