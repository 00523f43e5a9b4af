// The phase runner every transaction kind shares: deadlines, body failures,
// sticky outside failures, the same-instant tie rule, stalls, phase-entry
// announcements, polling, and teardown.

#include "ars/txn/runner.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ars::txn {
namespace {

using sim::Engine;
using sim::Task;

PhaseEvent identity() {
  return PhaseEvent{"migration", "p", "", "ws1", {"ws2"}};
}

Task<> sleep_for(Engine& engine, double seconds) {
  co_await sim::delay(engine, seconds);
}

Task<> throw_after(Engine& engine, double seconds, std::string what) {
  co_await sim::delay(engine, seconds);
  throw std::runtime_error(what);
}

/// Records when the body started, then sleeps.
Task<> note_start(Engine& engine, double& started_at, double seconds) {
  started_at = engine.now();
  co_await sim::delay(engine, seconds);
}

/// The awaiting side of a phase: enter, run, and record how and when the
/// phase ended.
Task<> run_phase(Runner& runner, std::string phase, Task<> body,
                 double timeout, Status& status, double& ended_at,
                 Engine& engine) {
  runner.enter(std::move(phase));
  status = co_await runner.run(std::move(body), timeout);
  ended_at = engine.now();
}

struct Outcome {
  Status status = Status::kRunning;
  double at = -1.0;
};

/// Run one awaited phase with `body` and `timeout`; events scheduled by
/// `setup` (given the runner) fire alongside it.
template <typename Setup>
Outcome awaited(Task<> (*make_body)(Engine&), double timeout, Setup setup) {
  Engine engine;
  Runner runner(engine, identity(), nullptr);
  Outcome out;
  auto fiber = sim::Fiber::spawn(
      engine, run_phase(runner, "work", make_body(engine), timeout,
                        out.status, out.at, engine));
  setup(engine, runner);
  engine.run_until(50.0);
  runner.stop();
  return out;
}

Task<> five_seconds(Engine& engine) { return sleep_for(engine, 5.0); }
Task<> throw_at_five(Engine& engine) {
  return throw_after(engine, 5.0, "boom");
}

TEST(RunnerTest, FinishedBodyLeavesNoDeadlineBehind) {
  Engine engine;
  Runner runner(engine, identity(), nullptr);
  Status status = Status::kRunning;
  double ended_at = -1.0;
  auto fiber = sim::Fiber::spawn(
      engine, run_phase(runner, "work", sleep_for(engine, 1.0), 10.0, status,
                        ended_at, engine));
  engine.run_until(2.0);
  EXPECT_EQ(status, Status::kFinished);
  EXPECT_DOUBLE_EQ(ended_at, 1.0);
  EXPECT_EQ(engine.pending_events(), 0U);  // the deadline was cancelled
}

TEST(RunnerTest, DeadlineEndsThePhaseButLeavesTheBody) {
  Engine engine;
  Runner runner(engine, identity(), nullptr);
  Status status = Status::kRunning;
  double ended_at = -1.0;
  auto fiber = sim::Fiber::spawn(
      engine, run_phase(runner, "work", sleep_for(engine, 100.0), 5.0,
                        status, ended_at, engine));
  engine.run_until(6.0);
  EXPECT_EQ(status, Status::kTimedOut);
  EXPECT_DOUBLE_EQ(ended_at, 5.0);
  // The runner never kills a body on its own: settle() waits it out.
  double settled_at = -1.0;
  auto settle = [](Runner& r, Engine& e, double& at) -> Task<> {
    co_await r.settle();
    at = e.now();
  };
  auto waiter = sim::Fiber::spawn(engine, settle(runner, engine, settled_at));
  engine.run_until(200.0);
  EXPECT_DOUBLE_EQ(settled_at, 100.0);
  EXPECT_EQ(runner.poll(), Status::kTimedOut);  // a late finish is too late
}

TEST(RunnerTest, ThrowingBodyKeepsItsText) {
  const Outcome boom = awaited(
      [](Engine& e) { return throw_after(e, 1.0, "boom"); }, 10.0,
      [](Engine&, Runner&) {});
  EXPECT_EQ(boom.status, Status::kThrew);
  EXPECT_DOUBLE_EQ(boom.at, 1.0);

  Engine engine;
  Runner runner(engine, identity(), nullptr);
  Status status = Status::kRunning;
  double ended_at = -1.0;
  auto fiber = sim::Fiber::spawn(
      engine, run_phase(runner, "work", throw_after(engine, 1.0, ""), 10.0,
                        status, ended_at, engine));
  engine.run_until(2.0);
  EXPECT_EQ(status, Status::kThrew);
  EXPECT_EQ(runner.error(), "phase failed");  // empty what()
  runner.enter("again");
  runner.start(throw_after(engine, 1.0, "boom"), 10.0);
  engine.run_until(4.0);
  EXPECT_EQ(runner.poll(), Status::kThrew);
  EXPECT_EQ(runner.error(), "boom");
}

TEST(RunnerTest, OutsideFailureIsSticky) {
  Engine engine;
  Runner runner(engine, identity(), nullptr);
  Status status = Status::kRunning;
  double ended_at = -1.0;
  auto fiber = sim::Fiber::spawn(
      engine, run_phase(runner, "first", sleep_for(engine, 100.0), 50.0,
                        status, ended_at, engine));
  engine.schedule_at(2.0, [&] { runner.fail("dest-failed"); });
  engine.schedule_at(3.0, [&] { runner.fail("later reason"); });
  engine.run_until(4.0);
  EXPECT_EQ(status, Status::kFailed);
  EXPECT_DOUBLE_EQ(ended_at, 2.0);
  EXPECT_EQ(runner.failure(), "dest-failed");  // the first reason is kept
  runner.stop();
  // The next phase ends failed at once; its body never starts.
  double started_at = -1.0;
  runner.enter("second");
  runner.start(note_start(engine, started_at, 1.0), 10.0);
  EXPECT_EQ(runner.poll(), Status::kFailed);
  engine.run_until(30.0);
  EXPECT_DOUBLE_EQ(started_at, -1.0);
  EXPECT_EQ(engine.pending_events(), 0U);
}

TEST(RunnerTest, FinishedPhaseReportsALaterOutsideFailure) {
  Engine engine;
  Runner runner(engine, identity(), nullptr);
  runner.enter("round");
  runner.start(sleep_for(engine, 1.0), 10.0);
  engine.run_until(2.0);
  EXPECT_EQ(runner.poll(), Status::kFinished);
  runner.fail("dest-failed");
  // A poller learns of it before entering another phase.
  EXPECT_EQ(runner.poll(), Status::kFailed);
}

TEST(RunnerTest, SameInstantTiesFollowTheRule) {
  // The deadline fires first in the instant; the finish behind it wins.
  EXPECT_EQ(awaited(five_seconds, 5.0, [](Engine&, Runner&) {}).status,
            Status::kFinished);
  // A throw behind the deadline beats it too.
  EXPECT_EQ(awaited(throw_at_five, 5.0, [](Engine&, Runner&) {}).status,
            Status::kThrew);
  // An outside failure beats a finish in the same instant, whichever of
  // the two the engine runs first.
  EXPECT_EQ(awaited(five_seconds, 10.0,
                    [](Engine& e, Runner& r) {
                      e.schedule_at(5.0, [&r] { r.fail("crash"); });
                    })
                .status,
            Status::kFailed);
  EXPECT_EQ(awaited(five_seconds, 10.0,
                    [](Engine& e, Runner& r) {
                      e.schedule_at(1.0, [&e, &r] {
                        e.schedule_at(5.0, [&r] { r.fail("crash"); });
                      });
                    })
                .status,
            Status::kFailed);
  // ... and a throw.
  EXPECT_EQ(awaited(throw_at_five, 10.0,
                    [](Engine& e, Runner& r) {
                      e.schedule_at(5.0, [&r] { r.fail("crash"); });
                    })
                .status,
            Status::kFailed);
  // The first instant decides: a failure one instant after a finish is
  // only sticky (it does not rewrite the finished phase's result).
  const Outcome late = awaited(five_seconds, 10.0, [](Engine& e, Runner& r) {
    e.schedule_at(6.0, [&r] { r.fail("crash"); });
  });
  EXPECT_EQ(late.status, Status::kFinished);
  EXPECT_DOUBLE_EQ(late.at, 5.0);
}

TEST(RunnerTest, PolledPhaseKeepsItsFirstInstant) {
  Engine engine;
  Runner runner(engine, identity(), nullptr);
  runner.enter("round");
  runner.start(sleep_for(engine, 6.0), 5.0);
  engine.run_until(7.0);  // deadline at 5, body done at 6, poll at 7
  EXPECT_EQ(runner.poll(), Status::kTimedOut);
}

TEST(RunnerTest, StallDelaysTheBodyAndAClearedStallDoesNot) {
  Engine engine;
  double stall = 3.0;
  const PhaseListener listener = [&stall](const PhaseEvent&) { return stall; };
  Runner runner(engine, identity(), &listener);
  double started_at = -1.0;
  runner.enter("stalled");
  runner.start(note_start(engine, started_at, 1.0), 10.0);
  engine.run_until(5.0);
  EXPECT_DOUBLE_EQ(started_at, 3.0);
  EXPECT_EQ(runner.poll(), Status::kFinished);
  // The stall eats into the deadline: 3 s held + 1 s of work < 10 s.
  stall = 0.0;
  runner.enter("clear");
  runner.start(note_start(engine, started_at, 1.0), 10.0);
  engine.run_until(10.0);
  EXPECT_DOUBLE_EQ(started_at, 5.0);
}

TEST(RunnerTest, ListenerSeesEveryEnteredPhaseInOrder) {
  Engine engine;
  std::vector<PhaseEvent> seen;
  const PhaseListener listener = [&seen](const PhaseEvent& e) {
    seen.push_back(e);
    return 0.0;
  };
  Runner runner(engine, PhaseEvent{"expand", "job", "", "", {"ws3", "ws4"}},
                &listener);
  runner.enter("plan");
  runner.enter("spawn");
  runner.start(sleep_for(engine, 1.0), 10.0);
  engine.run_until(2.0);
  runner.enter("redistribute");
  runner.start(sleep_for(engine, 1.0), 10.0);
  engine.run_until(4.0);
  runner.enter("commit");
  runner.enter("restore");
  std::vector<std::string> phases;
  for (const PhaseEvent& e : seen) {
    phases.push_back(e.phase);
    EXPECT_EQ(e.kind, "expand");
    EXPECT_EQ(e.subject, "job");
    EXPECT_EQ(e.targets, (std::vector<std::string>{"ws3", "ws4"}));
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"plan", "spawn", "redistribute",
                                              "commit", "restore"}));
  EXPECT_EQ(runner.phase(), "restore");
}

TEST(RunnerTest, PollReportsRunningUntilTheBodyEnds) {
  Engine engine;
  Runner runner(engine, identity(), nullptr);
  runner.enter("round");
  EXPECT_EQ(runner.poll(), Status::kFinished);  // entered, no body yet
  runner.start(sleep_for(engine, 4.0), 10.0);
  for (const double t : {0.0, 1.0, 2.0, 3.9}) {
    engine.run_until(t);
    EXPECT_EQ(runner.poll(), Status::kRunning) << "at t=" << t;
  }
  engine.run_until(4.0);
  EXPECT_EQ(runner.poll(), Status::kFinished);
}

TEST(RunnerTest, DestroyingMidPhaseCancelsDeadlineAndKillsBody) {
  Engine engine;
  auto runner = std::make_unique<Runner>(engine, identity(), nullptr);
  double started_at = -1.0;
  bool body_done = false;
  auto body = [](Engine& e, double& at, bool& done) -> Task<> {
    at = e.now();
    co_await sim::delay(e, 5.0);
    done = true;
  };
  runner->enter("work");
  runner->start(body(engine, started_at, body_done), 10.0);
  engine.run_until(1.0);
  EXPECT_DOUBLE_EQ(started_at, 0.0);
  runner.reset();
  EXPECT_EQ(engine.pending_events(), 0U);  // no deadline, no body wake-up
  engine.run_until(20.0);
  EXPECT_FALSE(body_done);
}

}  // namespace
}  // namespace ars::txn
