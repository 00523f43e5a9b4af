#pragma once
// ars::malleable — grow/shrink as a first-class scheduler action.
//
// The paper's registry can only *move* a process.  This subsystem adds the
// malleability verbs the DMR line of work argues for: expand(job, +k) spawns
// k new ranks over the MPI-2 DPM layer (sequential or binomial-tree
// fan-out), shrink(job, -k) retires k ranks at the job's next poll-point.
// Both run as transactions with the same rigor as hpcm migration: phased
// (plan -> spawn -> redistribute -> commit), per-phase timeouts, rollback on
// failure, and a terminal outcome the commander reports back to the registry
// so placement debits are credited exactly like MigrationOutcomeMsg.
//
// A malleable job is a block-decomposed iterative SPMD computation (stencil
// sweeps, blocked matmul): every iteration the root broadcasts a sync
// payload, each rank computes its contiguous block range, and workers check
// in with the root.  The iteration boundary is the poll-point: resizes are
// requested asynchronously but only take effect between iterations, so the
// membership is stable while a compute step is in flight.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ars/hpcm/stateregistry.hpp"
#include "ars/mpi/mpi.hpp"
#include "ars/obs/trace_ctx.hpp"
#include "ars/txn/runner.hpp"

namespace ars::obs {
class Tracer;
class MetricsRegistry;
}  // namespace ars::obs

namespace ars::malleable {

enum class ResizeVerb { kExpand, kShrink };

[[nodiscard]] const char* verb_name(ResizeVerb verb);
[[nodiscard]] std::optional<ResizeVerb> verb_from(std::string_view name);

/// Terminal outcome strings (wire values of ResizeOutcomeMsg.outcome).
inline constexpr const char* kCommitted = "committed";
inline constexpr const char* kAborted = "aborted";
inline constexpr const char* kPartialRollback = "partial-rollback";

/// The block-decomposed computation a malleable job runs.  `blocks` is the
/// unit of decomposition AND of state redistribution: each block carries
/// `bytes_per_block` of named state that must move when ownership changes.
struct Workload {
  int blocks = 64;
  /// Reference-CPU seconds per block per iteration (CpuModel units).
  double work_per_block = 0.2;
  double bytes_per_block = 1.0e6;  // state shard bytes per block
  int iterations = 10;
  double sync_bytes = 4096.0;  // per-iteration root broadcast payload
};

struct JobSpec {
  std::string name;
  Workload workload;
  int min_ranks = 1;
  int max_ranks = 64;
  mpi::SpawnStrategy strategy = mpi::SpawnStrategy::kTree;
};

/// Terminal record of one resize transaction (mirrors hpcm's stamped
/// MigrationTimeline; feeds the registry's debit accounting).
struct ResizeOutcome {
  std::string job;
  ResizeVerb verb = ResizeVerb::kExpand;
  int delta = 0;
  std::vector<std::string> hosts;  // spawn targets / vacated hosts
  std::string outcome;             // kCommitted | kAborted | kPartialRollback
  std::string reason;              // set on failure ("spawn-timeout", ...)
  std::string phase;               // phase the failure hit
  int ranks_before = 0;
  int ranks_after = 0;
  double started_at = 0.0;
  double finished_at = 0.0;
  double spawn_seconds = 0.0;
  double redistribute_seconds = 0.0;
  double redistributed_bytes = 0.0;
  int spawn_rounds = 0;  // DPM rounds (sequential: k, tree: depth)
  obs::TraceCtx trace;
};

/// Runs malleable jobs and their resize transactions.  One engine per
/// cluster; jobs are identified by their spec name.
class MalleableEngine {
 public:
  struct Options {
    double spawn_timeout = 20.0;
    double redistribute_timeout = 30.0;
    /// Chaos: leave freshly spawned ranks alive after a failed
    /// redistribution instead of rolling them back (must trip the
    /// `no-lost-rank` invariant).
    bool sabotage_skip_resize_rollback = false;
  };

  using OutcomeListener = std::function<void(const ResizeOutcome&)>;

  MalleableEngine(mpi::MpiSystem& mpi, net::Network& network);
  MalleableEngine(mpi::MpiSystem& mpi, net::Network& network,
                  Options options);
  ~MalleableEngine();
  MalleableEngine(const MalleableEngine&) = delete;
  MalleableEngine& operator=(const MalleableEngine&) = delete;

  /// Launch a resizable job with one rank per host (hosts[0] is the root,
  /// which never retires).  Returns the initial members in rank order.
  std::vector<mpi::RankId> launch(const JobSpec& spec,
                                  const std::vector<std::string>& hosts);

  /// Request a resize; it takes effect at the job's next poll-point.
  /// For an expand, `hosts` must name exactly `delta` spawn targets; for a
  /// shrink they are the hosts to vacate (empty: the engine picks the
  /// highest-rank non-root members).  Returns false when the request cannot
  /// even be queued (unknown/finished job, resize already pending, bad
  /// delta) — no outcome is emitted in that case.
  bool request_resize(const std::string& job, ResizeVerb verb, int delta,
                      std::vector<std::string> hosts = {},
                      std::optional<mpi::SpawnStrategy> strategy = {},
                      obs::TraceCtx trace = {});

  // -- introspection --------------------------------------------------------
  [[nodiscard]] bool known(const std::string& job) const;
  [[nodiscard]] int ranks(const std::string& job) const;
  [[nodiscard]] std::vector<std::string> rank_hosts(
      const std::string& job) const;
  [[nodiscard]] bool finished(const std::string& job) const;
  [[nodiscard]] bool failed(const std::string& job) const;
  [[nodiscard]] double finished_at(const std::string& job) const;
  [[nodiscard]] bool resizing(const std::string& job) const;
  [[nodiscard]] bool all_finished() const;
  /// Total block-iterations completed so far; equals
  /// blocks * iterations at finish when no rank was lost mid-iteration.
  [[nodiscard]] long long processed_blocks(const std::string& job) const;
  [[nodiscard]] double state_bytes(const std::string& job) const;
  [[nodiscard]] std::vector<std::string> job_names() const;
  [[nodiscard]] const std::vector<ResizeOutcome>& history() const {
    return history_;
  }
  /// Ground truth for the chaos no-lost-rank invariant: ranks found alive
  /// but outside their job's membership at the instant a terminal resize
  /// outcome was reported.  Always 0 for a correct protocol; the
  /// sabotage_skip_resize_rollback knob makes it count.
  [[nodiscard]] long long ghost_ranks() const noexcept { return ghost_ranks_; }

  // -- chaos hooks ----------------------------------------------------------
  /// Kill an in-flight spawn toward `host` and abort the transaction with
  /// reason "no-capacity".  Returns false when no matching spawn is active.
  bool fail_resize_target(const std::string& job, const std::string& host);
  /// Host died: repair affected jobs at their next boundary; a dead root
  /// tears the whole job down.  Returns ranks lost.
  int on_host_failed(const std::string& host);

  void set_outcome_listener(OutcomeListener listener) {
    outcome_listener_ = std::move(listener);
  }
  /// Phase-entry notifications ("plan", "spawn", "redistribute",
  /// "commit"; kind "expand" or "shrink", targets = the request's hosts).
  /// The listener's stall holds a phase's body before it starts.
  void set_phase_listener(txn::PhaseListener listener) {
    phase_listener_ = std::move(listener);
  }

  [[nodiscard]] sim::Engine& engine() const { return mpi_->engine(); }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct Job;
  struct PendingResize;
  struct ResizeTx;

  [[nodiscard]] sim::Task<> member_main(std::shared_ptr<Job> job,
                                        mpi::Proc& proc);
  [[nodiscard]] sim::Task<> root_main(std::shared_ptr<Job> job,
                                      mpi::Proc& proc);
  [[nodiscard]] sim::Task<> worker_main(std::shared_ptr<Job> job,
                                        int join_iter, mpi::Proc& proc);
  [[nodiscard]] sim::Task<> execute_resize(std::shared_ptr<Job> job,
                                           mpi::Proc& proc);
  [[nodiscard]] sim::Task<> spawn_phase(std::shared_ptr<Job> job,
                                        mpi::Proc* proc);
  [[nodiscard]] sim::Task<> redistribute_phase(std::shared_ptr<Job> job);
  /// Open the transaction of the job's pending request (not yet entered).
  [[nodiscard]] std::unique_ptr<ResizeTx> open_tx(Job& job);

  void repair_membership(Job& job);
  void apply_assignment(Job& job);
  void finish_job(Job& job);
  void teardown_job(Job& job, const std::string& reason);
  void finish_resize(Job& job, const std::string& outcome,
                     const std::string& reason, const std::string& phase);
  /// Trace the phase and enter it on the transaction's runner.
  void enter_phase(Job& job, const char* phase);
  [[nodiscard]] int live_workers(const Job& job) const;
  [[nodiscard]] std::string validate_resize(const Job& job,
                                            const ResizeTx& tx) const;
  [[nodiscard]] const Job* find_job(const std::string& name) const;
  [[nodiscard]] Job* find_job(const std::string& name);
  /// The sinks of the engine this malleable engine runs on.
  [[nodiscard]] obs::Tracer* tracer() const noexcept {
    return engine().tracer();
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return engine().metrics();
  }

  mpi::MpiSystem* mpi_;
  net::Network* network_;
  Options options_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::vector<ResizeOutcome> history_;
  long long ghost_ranks_ = 0;
  OutcomeListener outcome_listener_;
  txn::PhaseListener phase_listener_;
};

/// Balanced contiguous block partition: rank r of n owns
/// [r*B/n, (r+1)*B/n) — the canonical re-decomposition used at every
/// resize.  Exposed for tests and the redistribution planner.
[[nodiscard]] std::vector<int> partition_blocks(int blocks, int ranks);

}  // namespace ars::malleable
