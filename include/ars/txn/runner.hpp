#pragma once
// ars::txn — the phase runner every transaction kind shares (DESIGN.md §12).
//
// A transaction (a stop-and-copy or pre-copy migration, an expand, a
// shrink) is a sequence of named phases run by one Runner:
//
//   * enter(phase) announces the phase to the PhaseListener (fault
//     injectors, tests).  The listener's return value is a stall: seconds
//     to hold the phase's body before it starts.  Body-less phases
//     ("plan", "commit", "restore") are only entered.
//   * start(body, timeout) runs the entered phase's body in its own fiber
//     under a deadline the runner owns and cancels.  run() also waits for
//     the phase to end (awaited phases); poll() reads its status without
//     waiting (pre-copy rounds, checked at the application's poll-points).
//   * fail(reason) records an outside failure (a destination or spawn
//     target crashed).  It is sticky: it ends the running phase, and every
//     later phase ends failed at once without starting its body.
//
// One rule resolves a phase: the first terminal event wins — body
// finished, body threw, deadline, or outside failure — and events in the
// same simulated instant rank outside failure, then finished, then threw,
// then deadline.  The runner never kills a body on its own: after a failed
// phase the caller either stop()s it or settle()s (waits for it to return).

#include <functional>
#include <string>
#include <vector>

#include "ars/sim/engine.hpp"
#include "ars/sim/task.hpp"
#include "ars/sim/wait.hpp"

namespace ars::txn {

/// Phase-entry notification.
struct PhaseEvent {
  /// Transaction kind: "migration", "expand" or "shrink".
  std::string kind;
  /// The migrating process or the resizing job.
  std::string subject;
  std::string phase;
  /// Source host of a migration (empty for resizes).
  std::string source;
  /// A migration's destination, an expand's spawn targets, or the hosts a
  /// shrink vacates.
  std::vector<std::string> targets;
};

/// Called on every phase entry; returns the seconds to stall the phase's
/// body (0: none).  Must not reenter the calling engine inline — schedule
/// an engine event instead.
using PhaseListener = std::function<double(const PhaseEvent&)>;

/// How a phase stands.  The terminal values are declared in same-instant
/// precedence order: in one simulated instant a later value beats an
/// earlier one.
enum class Status {
  kRunning,   // the body runs and no terminal event has happened yet
  kTimedOut,  // the deadline passed first
  kThrew,     // the body threw (see Runner::error)
  kFinished,  // the body returned (a body-less phase is finished on entry)
  kFailed,    // outside failure (see Runner::failure)
};

class Runner {
 public:
  /// `identity` names the transaction (its `phase` is ignored).  The
  /// listener is not owned, may be empty, and must outlive the runner.
  Runner(sim::Engine& engine, PhaseEvent identity,
         const PhaseListener* listener);
  /// Cancels the deadline and kills the body of a phase still in flight.
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Enter `phase` and announce it.  A later start() runs its body.
  void enter(std::string phase);
  /// Run the entered phase's body in its own fiber, `timeout` seconds from
  /// now at most.  With an outside failure on record the phase ends failed
  /// at once and the body never starts.
  void start(sim::Task<> body, double timeout);
  /// start(), then wait for the phase to end; returns how it ended.
  [[nodiscard]] sim::Task<Status> run(sim::Task<> body, double timeout);
  /// The entered phase's status.  A finished phase reads kFailed once an
  /// outside failure is on record: the next phase would end failed at
  /// once, so a polling caller aborts without entering it.
  [[nodiscard]] Status poll() const;
  /// Record an outside failure (the first reason is kept).
  void fail(std::string reason);
  /// Cancel the deadline and kill the body, if either is still live.
  void stop();
  /// Wait until the body has returned (for a phase that ended without it).
  [[nodiscard]] sim::Task<> settle();

  [[nodiscard]] const std::string& phase() const noexcept {
    return event_.phase;
  }
  /// The body's exception text when the phase ended kThrew.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// The outside failure's reason (empty: none recorded).
  [[nodiscard]] const std::string& failure() const noexcept {
    return failure_;
  }

 private:
  [[nodiscard]] sim::Task<> drive(double stall, sim::Task<> body);
  /// A terminal event of the running phase (see the rule above).
  void end(Status status, std::string error = {});

  sim::Engine* engine_;
  PhaseEvent event_;
  const PhaseListener* listener_;
  double stall_ = 0.0;
  Status status_ = Status::kFinished;
  double ended_at_ = 0.0;
  std::string error_;
  std::string failure_;
  sim::Fiber body_;
  sim::Engine::EventHandle deadline_;
  sim::WaitQueue wake_;
};

}  // namespace ars::txn
