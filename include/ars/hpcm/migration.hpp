#pragma once
// HPCM migration engine: poll-points, state collection/restoration, and the
// MPI-2 DPM-based migration protocol (paper §3, §5.2).
//
// A migration-enabled application is a coroutine over (Proc&,
// MigrationContext&).  It keeps its live data registered (via an on_save
// callback filling the StateRegistry) and calls `co_await ctx.poll_point()`
// at the pre-defined points where a migration may occur.  When the
// commander's user-defined signal is pending, the poll-point executes the
// protocol as an explicit phased *transaction*:
//
//   1. "init"   — create the *initialized process* on the destination
//      through MPI-2 dynamic process management (Comm_spawn — or
//      Comm_connect to a pre-initialized daemon when that optimization is
//      enabled) and join the communicators (Intercomm_merge);
//   2. collect  — snapshot live variables into the StateRegistry;
//   3. "eager"  — send the execution state + eager data over the merged
//      communicator;
//   4. "ack"    — wait for the destination's resume acknowledgement.  This
//      is the transaction's HARD COMMIT POINT: until the ACK lands, the
//      source fiber stays authoritative and any failure (phase timeout,
//      destination crash, severed link) aborts the transaction and rolls
//      the process back to source-side execution with its state intact;
//   5. commit   — relocate the logical process, resume it on the
//      destination, and keep shipping the bulk of the memory state in the
//      background (the paper's §5.2 overlap).  A destination failure after
//      the commit but before background restoration finishes rolls the
//      transaction back to the checkpoint-restart path instead of silently
//      losing the process.
//
// Every phase carries a configurable timeout; every terminal outcome
// (committed / aborted{reason} / rolled-back) is timestamped in a
// MigrationTimeline and handed to the outcome listener so the registry can
// credit back its in-flight placement debit and mark failed destinations
// suspect (DESIGN.md §12).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ars/ckpt/io.hpp"
#include "ars/ckpt/strategy.hpp"
#include "ars/hpcm/schema.hpp"
#include "ars/hpcm/stateregistry.hpp"
#include "ars/mpi/mpi.hpp"
#include "ars/obs/trace_ctx.hpp"
#include "ars/txn/runner.hpp"

namespace ars::obs {
class Tracer;
class MetricsRegistry;
}  // namespace ars::obs

namespace ars::hpcm {

class MigrationEngine;

struct MigrationTimeline {
  std::string process;
  std::string source;
  std::string destination;
  double requested_at = -1.0;    // commander signal delivered
  double poll_point_at = -1.0;   // migrating process reached its poll-point
  double init_done_at = -1.0;    // initialized process ready (DPM done)
  double eager_done_at = -1.0;   // execution state + eager data landed
  double resumed_at = -1.0;      // application resumed on the destination
  double completed_at = -1.0;    // background restoration finished
  double state_bytes = 0.0;      // total state moved
  /// When the stop-the-world window opened.  Stop-and-copy freezes from the
  /// poll-point; iterative pre-copy keeps computing through its rounds and
  /// freezes only for the final dirty delta.
  double freeze_begin_at = -1.0;
  /// Pre-copy rounds shipped before the freeze (0: stop-and-copy).
  int precopy_rounds = 0;
  /// Bytes shipped by the overlapped pre-copy rounds (not counting the
  /// final frozen delta).
  double precopy_bytes = 0.0;
  bool succeeded = false;
  /// Transaction outcome: "in-flight" while the protocol runs, then one of
  /// "committed", "aborted" (pre-commit rollback to the source), or
  /// "rolled-back" (destination lost after the commit point; the process
  /// falls back to checkpoint-restart).
  std::string outcome = "in-flight";
  std::string abort_reason;  // set when outcome != "committed"
  std::string abort_phase;   // protocol phase the failure hit
  /// Causal context of the transaction: the MigrateCmd's txn (unset when
  /// the request was untraced) with the migration span as parent.  Rides on
  /// the MigrationOutcomeMsg envelope so the registry links the report to
  /// the original decision.
  obs::TraceCtx trace;

  [[nodiscard]] double reach_poll_point() const {
    return poll_point_at - requested_at;
  }
  [[nodiscard]] double initialization() const {
    return init_done_at - poll_point_at;
  }
  [[nodiscard]] double resume_latency() const {
    return resumed_at - init_done_at;
  }
  [[nodiscard]] double total() const { return completed_at - requested_at; }
  /// Stop-the-world duration: freeze open -> application resumed.
  [[nodiscard]] double freeze_window() const {
    return resumed_at - (freeze_begin_at >= 0.0 ? freeze_begin_at
                                                : poll_point_at);
  }
};

/// A process's state registry on the stable store — the checkpointing-based
/// alternative the paper contrasts with live migration (DESIGN.md §6, §17).
/// After a crash the process relaunches from its latest checkpoint, losing
/// only the work since it; without one it restarts from scratch, "the loss
/// of all partial results".
struct Checkpoint {
  double taken_at = 0.0;         // snapshot time (the consistency point)
  std::vector<std::byte> state;  // encoded registry
  std::uint64_t bytes = 0;       // stable-storage footprint (incl. opaque)
  /// False only for a torn write the sabotage path made the latest; a
  /// clean store never exposes an incomplete checkpoint.
  bool complete = true;
};

/// Persistent per-process migration state; survives fiber swaps across
/// hosts.  Handed to the application as `MigrationContext&`.
class MigrationContext {
 public:
  [[nodiscard]] StateRegistry& state() noexcept { return state_; }
  [[nodiscard]] const StateRegistry& state() const noexcept { return state_; }

  /// True when the current fiber resumed from migrated state (the app must
  /// restore its variables from state() instead of initializing).
  [[nodiscard]] bool restored() const noexcept { return restored_; }

  /// Number of completed migrations of this process.
  [[nodiscard]] int migrations() const noexcept { return migration_count_; }

  /// Register the collection callback: invoked at a migrating poll-point to
  /// snapshot live variables into state().  (This is the code HPCM's
  /// precompiler would have generated.)
  void on_save(std::function<void()> save) { save_ = std::move(save); }

  /// The poll-point: cheap when no migration is pending; otherwise runs the
  /// migration protocol.  Never returns on the source when the transaction
  /// commits (throws ProcMoved); returns normally — the process keeps
  /// computing on the source — when it aborts.
  [[nodiscard]] sim::Task<> poll_point();

  /// Write a checkpoint of the registered state to the stable store
  /// (checkpointing-based fault tolerance).  Blocks only for the snapshot;
  /// the write itself streams asynchronously through the shared checkpoint
  /// I/O resource and replaces the previous checkpoint atomically when it
  /// commits (DESIGN.md §17).  A no-op while a write is already in flight.
  [[nodiscard]] sim::Task<> checkpoint();

  /// Strategy-driven checkpointing hook for poll-point loops: consults the
  /// engine's checkpoint plan (ckpt_strategy / Young-Daly interval /
  /// cooperative admission) and checkpoints when one is due.  Cheap when
  /// nothing is due; a no-op when the strategy is "none".
  [[nodiscard]] sim::Task<> maybe_checkpoint();

  /// True when the current fiber was relaunched from a checkpoint (subset
  /// of restored(): restored() is also true after a live migration).
  [[nodiscard]] bool restarted_from_checkpoint() const noexcept {
    return restarted_from_checkpoint_;
  }

  [[nodiscard]] mpi::Proc& proc() const noexcept { return *proc_; }
  [[nodiscard]] MigrationEngine& engine() const noexcept { return *engine_; }

 private:
  friend class MigrationEngine;

  MigrationEngine* engine_ = nullptr;
  mpi::Proc* proc_ = nullptr;
  StateRegistry state_;
  std::function<void()> save_;
  bool restored_ = false;
  bool restarted_from_checkpoint_ = false;
  int migration_count_ = 0;
  double requested_at = -1.0;
  double launched_at = 0.0;
  /// Context delivered with the latest migration request; consumed by
  /// migrate() so the whole transaction links back to the decision.
  obs::TraceCtx pending_trace_;
  std::string schema_name_;
};

class MigrationEngine {
 public:
  struct Options {
    /// Bytes of bulk data shipped with the execution state before resume.
    double eager_bytes = 64.0 * 1024;
    /// Stable-store bandwidth for checkpoint writes/reads (2004-era
    /// NFS-backed disk).  This is the PER-HOST link into the store; see
    /// ckpt_aggregate_bps for the shared limit.
    double checkpoint_store_bps = 20.0e6;
    /// Aggregate checkpoint-store bandwidth shared fluid-flow style by all
    /// concurrent writes (DESIGN.md §17).  0 disables the shared limit:
    /// every write gets the per-host rate (legacy, interference-free).
    double ckpt_aggregate_bps = 0.0;
    /// Checkpoint scheduling strategy driving maybe_checkpoint():
    /// "none" (apps checkpoint explicitly), "periodic" (per-process
    /// Young/Daly intervals from ckpt_mtbf), or "cooperative" (periodic
    /// due-times, but writes ask the registry's I/O scheduler first).
    std::string ckpt_strategy = "none";
    /// Host MTBF feeding the Young/Daly interval (seconds; 0: checkpoints
    /// never become due).
    double ckpt_mtbf = 0.0;
    /// Sabotage knob for the chaos checker: an aborted in-flight write
    /// REPLACES the previous checkpoint with the torn partial (a store
    /// without atomic rename) — the bug class the no-torn-checkpoint
    /// invariant exists to catch.  Never set outside tests.
    bool sabotage_torn_commit = false;
    /// Per-phase transaction timeouts (seconds).  A phase that neither
    /// completes nor fails within its budget aborts the transaction and the
    /// process keeps computing on the source.
    double init_timeout = 10.0;
    double eager_timeout = 60.0;
    double ack_timeout = 10.0;
    /// Iterative pre-copy (live-VM style): ship the full state in round 0
    /// and dirty deltas in later rounds while the process keeps computing;
    /// freeze only for the final delta + comm-state handoff.  Off by
    /// default: stop-and-copy ships the whole state frozen, as one final
    /// round-0 frame.
    bool precopy = false;
    /// Give up converging and freeze after this many rounds.
    int precopy_max_rounds = 8;
    /// Sabotage knob for the chaos checker: skip the abort path's rollback
    /// so an aborted migration LOSES the logical process (the bug class the
    /// no-lost-process invariant exists to catch).  Never set outside tests.
    bool sabotage_skip_rollback = false;
  };

  explicit MigrationEngine(mpi::MpiSystem& mpi);
  MigrationEngine(mpi::MpiSystem& mpi, Options options);
  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;
  ~MigrationEngine();

  using MigratableApp =
      std::function<sim::Task<>(mpi::Proc&, MigrationContext&)>;
  /// Receives the stamped timeline of every ended transaction.
  using OutcomeListener = std::function<void(const MigrationTimeline&)>;

  /// Launch a migration-enabled application; registers it (and its schema)
  /// with the host process table.  A name that is running is refused with
  /// std::invalid_argument; a parked or exited one starts a new run (its
  /// checkpoint, plan and in-flight write go; its waste stays counted).
  mpi::RankId launch(const std::string& host_name, MigratableApp app,
                     const std::string& name, ApplicationSchema schema);

  /// Launch an n-rank migration-enabled MPI world (one rank per entry of
  /// `hosts`); every rank gets its own MigrationContext and can migrate
  /// independently while the others keep communicating with it.
  std::vector<mpi::RankId> launch_world(const std::vector<std::string>& hosts,
                                        MigratableApp app,
                                        const std::string& name,
                                        ApplicationSchema schema);

  /// Commander entry point: write the destination temp file and raise the
  /// user-defined signal at (host, pid).  Returns false for unknown pids.
  /// `ctx` is the causal context of the MigrateCmd (unset for untraced
  /// requests); the whole transaction inherits it.
  bool request_migration(const std::string& host_name, host::Pid pid,
                         const std::string& dest_host,
                         obs::TraceCtx ctx = {});

  /// Test/bench convenience: request by rank id.
  bool request_migration(mpi::RankId id, const std::string& dest_host,
                         obs::TraceCtx ctx = {});

  /// Pre-initialize a receiver daemon on `host_name` (paper §5.2's proposed
  /// optimization): later migrations to that host skip the DPM spawn cost.
  void pre_initialize_on(const std::string& host_name);
  [[nodiscard]] bool has_pre_initialized(const std::string& host_name) const;

  /// Terminal transaction outcomes (committed / aborted / rolled-back); the
  /// runtime forwards them to the registry.  At most one listener.
  void set_outcome_listener(OutcomeListener listener) {
    outcome_listener_ = std::move(listener);
  }
  /// Phase-entry notifications ("init", "precopy", "eager", "ack",
  /// "restore"; kind "migration"), for migration-window fault injection.
  /// The listener's stall holds a phase's body before it starts.
  void set_phase_listener(txn::PhaseListener listener) {
    phase_listener_ = std::move(listener);
  }

  // -- checkpoint/restart (the paper's checkpointing-based alternative) ----

  /// The shared checkpoint I/O resource all writes flow through.
  [[nodiscard]] ckpt::SharedStore& shared_store() noexcept {
    return *shared_store_;
  }

  /// The restorable checkpoint of the current run under `process_name`
  /// (null: none).  An in-flight write stays invisible until it commits.
  [[nodiscard]] const Checkpoint* latest_checkpoint(
      const std::string& process_name) const;
  /// Failure waste (checkpoint overhead + lost work + restart cost) of
  /// every run under `process_name`.
  [[nodiscard]] ckpt::Waste waste(const std::string& process_name) const;
  /// The same, summed over every process in name order.
  [[nodiscard]] ckpt::Waste cluster_waste() const;

  /// Cooperative checkpoint I/O: the engine's side of the admission
  /// protocol.  Requests ("request"/"done"/"abort") leave through the
  /// sender (the runtime wires it to the host's commander); grants
  /// ("admit"/"defer"/"preempt") come back via deliver_ckpt_grant.
  struct CkptIoRequest {
    std::string host;     // requesting process's current host
    std::string process;
    std::string verb;     // "request" | "done" | "abort"
    std::uint64_t bytes = 0;
    double risk = 0.0;    // elapsed / Young-Daly interval
  };
  using CkptRequestSender = std::function<void(const CkptIoRequest&)>;
  void set_ckpt_request_sender(CkptRequestSender sender) {
    ckpt_request_sender_ = std::move(sender);
  }
  /// Commander entry point for a CkptIoGrantMsg.  Safe to call inline from
  /// a serving fiber: it only mutates plan state (and may abort an
  /// in-flight write on "preempt").  Unknown processes are ignored.
  void deliver_ckpt_grant(const std::string& process, const std::string& verb,
                          double retry_after);

  [[nodiscard]] int ckpt_deferred() const noexcept { return ckpt_deferred_; }
  [[nodiscard]] int ckpt_preempted() const noexcept {
    return ckpt_preempted_;
  }
  /// Relaunches that restored a torn checkpoint (0 unless sabotaged).
  [[nodiscard]] int torn_restores() const noexcept { return torn_restores_; }

  /// Simulate a process crash (host failure, kill -9): the fiber dies on
  /// the spot, the logical process disappears, nothing is collected.  The
  /// application (and its context shell) is parked for relaunch.  An open
  /// migration transaction of the process is aborted (source-crashed), or
  /// rolled back when it already committed (restore-interrupted).
  /// Returns false for unknown ids.
  bool crash(mpi::RankId id);

  /// Relaunch a crashed application on `host_name`.  Restores from its
  /// latest checkpoint if one exists (paying the store read time),
  /// otherwise restarts from scratch — the paper's "loss of all partial
  /// results".  Returns the new rank id, or 0 unless the name is parked.
  /// `ctx` links the relaunch to the registry's recovery transaction.
  mpi::RankId relaunch(const std::string& process_name,
                       const std::string& host_name, obs::TraceCtx ctx = {});

  /// Crash every launched application currently on `host_name` (host
  /// failure).  In-flight transactions with this host as destination are
  /// aborted (pre-commit) or rolled back to checkpoint-restart
  /// (post-commit); a pre-initialized daemon on the host is dropped.
  /// Returns how many applications were crashed (and parked for relaunch).
  int crash_host(const std::string& host_name);

  [[nodiscard]] const std::vector<MigrationTimeline>& history() const {
    return history_;
  }
  /// Names of crashed applications currently parked for relaunch (the
  /// chaos no-lost-process invariant counts these as restartable).
  [[nodiscard]] std::vector<std::string> parked_for_relaunch() const;
  /// True when `process_name` ran to completion and exited normally — a
  /// relaunch request for it is stale (e.g. a falsely expired lease) and
  /// the registry should abandon the retry, not park it as stranded.
  [[nodiscard]] bool exited_normally(const std::string& process_name) const;
  [[nodiscard]] ApplicationSchema* schema(const std::string& name);

  [[nodiscard]] mpi::MpiSystem& mpi() const noexcept { return *mpi_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  friend class MigrationContext;

  /// One migration transaction, keyed by timeline index: the only record of
  /// it.  It owns its phase runner, its background collector and every span
  /// it opens, and end_transaction() alone ends it.  Heap allocated so phase
  /// fibers and deadline events can hold stable pointers.
  struct PendingTx {
    PendingTx(sim::Engine& engine, txn::PhaseEvent identity,
              const txn::PhaseListener* listener)
        : runner(engine, std::move(identity), listener) {}

    std::size_t timeline_index = 0;
    mpi::RankId proc_id = 0;
    std::string port;  // pre-initialized daemon's port (empty: spawn)
    mpi::RankId helper_id = 0;
    mpi::Comm merged;

    bool committed = false;

    // Collected state (filled by the collect step / the receiver).
    std::vector<std::byte> encoded;
    double eager_wire = 0.0;
    StateRegistry restored_state;
    bool state_ready = false;

    // Pre-copy loop state (source side).
    int rounds_sent = 0;
    /// Registry generation covered by the rounds shipped so far.
    std::uint64_t shipped_gen = 0;
    double round0_bytes = 0.0;

    // Span ids (0 when no tracer is attached).
    std::uint64_t migration_span = 0;  // requested -> terminal outcome
    std::uint64_t precopy_span = 0;    // pre-copy rounds: poll-point -> freeze
    std::uint64_t phase_span = 0;      // the frozen phase now running
    std::uint64_t restore_span = 0;    // eager state landed -> restore done
    std::uint64_t transfer_span = 0;   // commit -> bulk transfer done

    /// Source-side background bulk transfer, started at the commit.
    sim::Fiber collector;
    /// Runs every protocol phase: awaited by the migrating fiber, or
    /// polled at poll-points while pre-copy rounds overlap computation.
    /// Declared last so a phase body still in flight dies first.
    txn::Runner runner;
  };

  /// Per-process checkpoint plan state (strategy-driven checkpointing).
  struct CkptPlan {
    /// Progress baseline: last snapshot start (-1: re-baselined at the
    /// next poll — fresh launches and relaunches both start here).
    double last_mark = -1.0;
    double retry_at = 0.0;        // cooperative defer/preempt backoff
    bool awaiting_grant = false;  // request sent, no grant yet
    double requested_at = 0.0;
    bool granted = false;         // admit received, write not started yet
  };

  /// One process, by name: the engine's only per-process state (DESIGN.md
  /// §12).  It is running on `rank`, parked for relaunch, or exited; launch,
  /// exit, crash and relaunch move it between those states, and checkpoint
  /// writes and grants change it in place.
  struct ProcRecord {
    enum class State { kRunning, kParked, kExited };

    /// -> running on `proc` (a launch or a relaunch).
    void run_on(mpi::Proc& proc) {
      state = State::kRunning;
      rank = proc.id();
      context.proc_ = &proc;
    }
    /// running -> parked (crash) or exited: the fiber is gone, and with it
    /// the rank, the transaction link and the checkpoint plan.  A parked
    /// run relaunches from its app and context; an exited one drops them.
    void stop(State next) {
      state = next;
      rank = 0;
      tx = nullptr;
      plan = CkptPlan{};
      context.proc_ = nullptr;
      if (next == State::kExited) {
        app = nullptr;
        context = MigrationContext{};
      }
    }

    State state = State::kRunning;
    mpi::RankId rank = 0;  // while running
    MigrationContext context;
    MigrationEngine::MigratableApp app;
    /// The open transaction this process is the subject of (null: none);
    /// a process has at most one, so a poll-point drops requests while it
    /// is set.  An uncommitted one seen from a poll-point is a pre-copy in
    /// flight: stop-and-copy holds the fiber until it commits or ends.
    PendingTx* tx = nullptr;
    /// The open migration.signal span: signal delivered -> poll-point.
    std::uint64_t signal_span = 0;
    CkptPlan plan;
    /// The restorable checkpoint of this run.
    std::optional<Checkpoint> latest;
    /// The in-flight write's snapshot: its commit makes it the latest (the
    /// rename of an atomic shadow commit), its abort drops it.
    std::optional<Checkpoint> shadow;
    /// Failure waste of every run under this name.
    ckpt::Waste waste;
  };

  /// A pre-initialized receiver daemon.
  struct Daemon {
    mpi::RankId rank = 0;
    std::string port;  // empty until the daemon has opened it
  };

  /// MigrationContext::poll_point()'s body.
  [[nodiscard]] sim::Task<> poll_point(MigrationContext& ctx);

  /// The source-side protocol; runs inside the migrating fiber.
  [[nodiscard]] sim::Task<> migrate(ProcRecord& rec, std::string dest_host);

  // -- iterative pre-copy (source side) ------------------------------------
  /// Advance an in-flight pre-copy transaction at a poll-point: spawn the
  /// next round when the previous one landed, abort on a failed round, or
  /// freeze-and-commit once the dirty delta converged.  Throws ProcMoved
  /// when the transaction commits.
  [[nodiscard]] sim::Task<> continue_precopy(ProcRecord& rec);
  /// Snapshot this round's payload in the app fiber (round 0: full state;
  /// later: dirty delta) and start the round phase that ships it.
  void start_precopy_round(MigrationContext& ctx, PendingTx& tx);
  /// The round body: (round 0 only) run init/DPM, then ship the frame.
  [[nodiscard]] sim::Task<> precopy_round(PendingTx* tx, int round,
                                          double charge_bytes);
  /// Stop-the-world tail of a converged pre-copy: final dirty delta +
  /// resume handshake + commit.  Throws ProcMoved on commit.
  [[nodiscard]] sim::Task<> freeze_and_commit(ProcRecord& rec, PendingTx& tx);
  /// Shared frozen epilogue of both protocols: eager send -> resume ACK ->
  /// commit (relocate + background transfer of `remaining` bytes).  Returns
  /// normally only when a phase failed and the transaction aborted; throws
  /// ProcMoved on commit.
  [[nodiscard]] sim::Task<> freeze_tail(ProcRecord& rec, PendingTx& tx,
                                        double remaining);

  // Phase bodies (member coroutines — lambda coroutines would dangle their
  // captures once the spawning frame unwinds).
  [[nodiscard]] sim::Task<> phase_init(PendingTx& tx, mpi::Proc& proc);
  [[nodiscard]] sim::Task<> phase_eager(PendingTx& tx, mpi::Proc& proc);
  [[nodiscard]] sim::Task<> phase_ack(PendingTx& tx, mpi::Proc& proc);

  /// Shared phase-failure epilogue: log, abort the transaction with the
  /// reason derived from `status`, and (sabotaged builds only) lose the
  /// process by unwinding the source fiber without rollback.
  void fail_phase(PendingTx& tx, mpi::Proc& proc, txn::Status status);
  /// The one end of every transaction.  An empty `reason` on a committed
  /// transaction means its background restore finished (committed);
  /// otherwise an uncommitted one is aborted (the process keeps computing
  /// on the source) and a committed one rolled back (the process falls
  /// back to checkpoint-restart).  Stops the runner, tears down the
  /// destination helper on failure, closes every span the record still
  /// holds, stamps the timeline, hands it to the outcome listener and
  /// destroys the record.
  void end_transaction(PendingTx& tx, std::string reason);
  /// Kill a pre-initialized daemon and forget it (future migrations to the
  /// host fall back to MPI_Comm_spawn).
  void drop_daemon(const std::string& host_name);

  /// Destination-side protocol shared by spawned initialized processes and
  /// pre-initialized daemons.
  [[nodiscard]] sim::Task<> receiver_main(mpi::Proc& helper, mpi::Comm merged);

  /// Source-side background bulk transfer ("the process resumes execution
  /// at the destination before the migration ends").  Parameters are taken
  /// by value: this coroutine outlives the migrating fiber.
  [[nodiscard]] sim::Task<> run_collector(std::string source_host,
                                          std::string dest_host,
                                          double remaining,
                                          mpi::RankId helper_id,
                                          mpi::Comm merged);

  /// Destination-side takeover: relocate the proc and start the restored
  /// fiber.
  void takeover(ProcRecord& rec, host::Host& destination,
                StateRegistry restored_state, std::size_t timeline_index);

  /// Every application fiber, fresh, relaunched or resumed after a
  /// migration: wait `delay` (a checkpoint read), run the app, record the
  /// normal exit.
  [[nodiscard]] sim::Task<> run_app(mpi::Proc& proc, double delay);
  void finish_normal_exit(ProcRecord& rec);
  /// The record of the live process `id` (null: not one this engine runs).
  [[nodiscard]] ProcRecord* running(mpi::RankId id);

  /// Close the open migration.signal span of a process, if any;
  /// `closed_by` says why ("poll-point", "crash", "exit", ...).
  void close_signal_span(ProcRecord& rec, const char* closed_by);

  // -- shared checkpoint I/O (DESIGN.md §17) -------------------------------
  /// maybe_checkpoint() body: due-check against the Young/Daly interval,
  /// then either write directly (periodic) or run the admission protocol
  /// (cooperative).
  [[nodiscard]] sim::Task<> ckpt_poll(MigrationContext& ctx);
  /// checkpoint() body: blocking snapshot, then the asynchronous shared
  /// write with shadow-commit.
  [[nodiscard]] sim::Task<> write_checkpoint(MigrationContext& ctx);
  /// Uncontended write cost estimate feeding Young/Daly (last committed
  /// checkpoint's bytes, or the registry's current footprint).
  [[nodiscard]] double ckpt_write_cost(const ProcRecord& rec) const;
  void on_ckpt_commit(const std::string& process,
                      const ckpt::WriteOutcome& outcome);
  void on_ckpt_abort(const std::string& process,
                     const ckpt::WriteOutcome& outcome);
  void send_ckpt_io(const std::string& process, const std::string& host,
                    const char* verb, std::uint64_t bytes, double risk);
  /// Add `seconds` (when positive) to one waste component of a record and
  /// to the ars_ckpt.waste_s histogram.
  void charge(double& component, double seconds);

  /// Record one protocol phase's wall-clock into migration.phase_ms{phase}.
  void observe_phase_ms(const char* phase, double seconds);

  /// The sinks of the engine this middleware runs on.
  [[nodiscard]] obs::Tracer* tracer() const noexcept {
    return mpi_->engine().tracer();
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return mpi_->engine().metrics();
  }

  mpi::MpiSystem* mpi_;
  Options options_;
  /// Every process this engine launched, by name (records are never
  /// erased: an exited name keeps its waste and answers exited_normally).
  std::map<std::string, ProcRecord> ledger_;
  std::map<std::string, ApplicationSchema> schemas_;
  std::map<std::string, Daemon> daemons_;  // by host
  /// Open transactions, keyed by timeline index.
  std::map<std::size_t, std::unique_ptr<PendingTx>> pending_;
  std::vector<MigrationTimeline> history_;
  /// The shared I/O resource (declared after the ledger its callbacks
  /// write into, so it tears down first).
  std::unique_ptr<ckpt::SharedStore> shared_store_;
  CkptRequestSender ckpt_request_sender_;
  int ckpt_deferred_ = 0;
  int ckpt_preempted_ = 0;
  int torn_restores_ = 0;
  OutcomeListener outcome_listener_;
  txn::PhaseListener phase_listener_;
};

}  // namespace ars::hpcm
