#pragma once
// Checkpoint scheduling strategies and failure-waste accounting
// (DESIGN.md §17).
//
// Two strategies from the InterferingCheckpoints line of work (Herault et
// al., INRIA RR-9109):
//
//   periodic    — every process checkpoints on its own Young/Daly-optimal
//                 interval W = sqrt(2 C M) derived from the host-crash MTBF
//                 and its own write cost.  Uncoordinated: when many jobs
//                 share one store, their writes collide and stretch.
//   cooperative — a central I/O scheduler (living in the registry, next to
//                 consult routing) admits at most K concurrent writes,
//                 defers the rest, and preempts a low-risk write when a
//                 much riskier one shows up.  Risk is elapsed-over-interval:
//                 how overdue the requester already is.
//
// Waste measures what either strategy costs: checkpoint overhead (time the
// store spent on writes), work lost to failures (progress since the last
// committed checkpoint), and restart/rework time.  The migration engine
// keeps one Waste per process record (DESIGN.md §17).

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace ars::ckpt {

/// Young/Daly first-order optimal checkpoint interval: W = sqrt(2 C M) for
/// write cost C and mean time between failures M (both seconds).  Returns
/// +inf when either input is non-positive (checkpointing never becomes
/// due) — callers clamp with their own minimum.
inline double young_daly_interval(double mtbf, double write_cost) {
  if (mtbf <= 0.0 || write_cost <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::sqrt(2.0 * write_cost * mtbf);
}

// -- cooperative admission ---------------------------------------------------

/// The I/O scheduler's verdict on one checkpoint write request.
struct Admission {
  enum class Verb { kAdmit, kDefer, kPreempt };
  Verb verb = Verb::kDefer;
  double retry_after = 0.0;   // defer: when the requester should re-ask
  /// Admit-by-preemption: the active write that must be aborted to make
  /// room (empty otherwise).  The caller notifies the victim.
  std::string preempt_victim;
  std::string victim_host;
};

/// Deterministic central admission for checkpoint writes.  Pure state
/// machine — no engine, no wire format — so it unit-tests in isolation and
/// the registry drives it from its message handlers and sweep loop.  Its
/// limits are fixed (strategy.cpp): two concurrent writes, a 5 s base defer
/// backoff, preemption at twice the victim's risk, and a 120 s slot lease.
class IoScheduler {
 public:
  /// One write request: admit, defer, or admit-by-preempting a victim.
  Admission request(const std::string& process, const std::string& host,
                    double risk, double now);

  /// The write of `process` finished or was dropped; free its slot.
  /// Idempotent (stale done/abort reports are normal under loss).
  void release(const std::string& process);

  /// Reap slots held past their lease; returns the reaped process names.
  std::vector<std::string> expire(double now);

  [[nodiscard]] std::size_t active() const { return active_.size(); }
  [[nodiscard]] bool holds_slot(const std::string& process) const {
    return active_.contains(process);
  }
  [[nodiscard]] int admitted() const noexcept { return admitted_; }
  [[nodiscard]] int deferred() const noexcept { return deferred_; }
  [[nodiscard]] int preemptions() const noexcept { return preemptions_; }

 private:
  struct Slot {
    std::string host;
    double risk = 0.0;
    double admitted_at = 0.0;
  };

  std::map<std::string, Slot> active_;  // stable order: determinism
  int admitted_ = 0;
  int deferred_ = 0;
  int preemptions_ = 0;
};

// -- waste accounting --------------------------------------------------------

/// Failure-waste breakdown for one process, or summed over a cluster (all
/// seconds).
struct Waste {
  /// Store time spent on checkpoint writes (committed and aborted).
  double overhead_s = 0.0;
  /// Work lost to crashes: progress since the last committed checkpoint.
  double lost_work_s = 0.0;
  /// Restart cost: checkpoint read-back on relaunch.
  double restart_s = 0.0;

  [[nodiscard]] double total() const {
    return overhead_s + lost_work_s + restart_s;
  }
};

}  // namespace ars::ckpt
