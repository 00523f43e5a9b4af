#pragma once
// Invariant checker (ars::chaos layer 2): consumes the obs trace, the
// registry's soft state, the middleware's migration history, and the hosts'
// process tables after a run, and asserts the rescheduler's safety and
// liveness properties:
//
//   * exactly-once completion — every expected application emits exactly
//     one process.exit, and no name is ever live on two hosts at once;
//   * exactly-once migration — every successful migration in the
//     middleware history has exactly one migration.resumed trace event;
//   * lease convergence — hosts expected alive at the horizon are not
//     stuck `unavailable` after all faults healed;
//   * no stranded work — every restart parked on the registry's retry
//     list (no capacity at crash time) has drained by the horizon;
//   * deadlock watchdog — virtual time must not quiesce (empty event
//     queue) while expected applications are unfinished;
//   * no lost rank — every terminal resize outcome leaves zero ghost
//     ranks (spawned children alive outside membership), every aborted
//     resize restores the original world size, and no malleable job is
//     left unfinished (unless its root died) at the horizon;
//   * no lost process — every aborted or rolled-back migration leaves
//     exactly one live or restartable instance: the process finished,
//     is live on some host, is parked for relaunch in the middleware,
//     or sits on the registry's retry list.  An abort must never
//     silently destroy the application.
//   * no torn checkpoint — no relaunch ever restores an incomplete
//     checkpoint (a ckpt.torn_restore trace event): the shared store's
//     shadow-commit must make a crash mid-write keep the previous
//     complete checkpoint.
//   * trace complete — the tracer's ring dropped no event, since the
//     trace-based checks above need the whole run.
//
// The checker is read-only: run the scenario, then call check().

#include <string>
#include <vector>

#include "ars/core/runtime.hpp"

namespace ars::chaos {

struct Violation {
  std::string invariant;  // e.g. "exactly-once-finish"
  std::string subject;    // application or host name
  std::string detail;
};

struct InvariantReport {
  std::vector<Violation> violations;
  std::size_t apps_checked = 0;
  std::size_t exits_seen = 0;
  std::size_t migrations_succeeded = 0;
  std::size_t migrations_aborted = 0;      // pre-commit rollbacks to source
  std::size_t migrations_rolled_back = 0;  // post-commit destination loss
  std::size_t relaunches_seen = 0;
  std::size_t hosts_checked = 0;
  std::size_t resizes_checked = 0;  // terminal resize outcomes examined
  long long ghost_ranks = 0;        // leaked ranks found at outcome time
  std::size_t torn_restores = 0;    // incomplete checkpoints restored

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// One line per violation (or "ok"), for logs and gtest messages.
  [[nodiscard]] std::string summary() const;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(core::ReschedulerRuntime& runtime)
      : runtime_(&runtime) {}

  /// Expect `process_name` (the mpi-level name, e.g. "job1.0") to finish
  /// exactly once by the horizon.
  void expect_app(std::string process_name);
  /// Expect `host_name` to be lease-available at the horizon (do not call
  /// for hosts a permanent fault leaves dead).
  void expect_alive(std::string host_name);

  [[nodiscard]] InvariantReport check() const;

 private:
  core::ReschedulerRuntime* runtime_;
  std::vector<std::string> expected_apps_;
  std::vector<std::string> expected_alive_;
};

}  // namespace ars::chaos
