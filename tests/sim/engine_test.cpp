#include "ars/sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ars::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.pending_events(), 0U);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, SameTimeEventsRunFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(10.0, [&] {
    engine.schedule_after(2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(Engine, PastTimesClampToNow) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(10.0, [&] {
    engine.schedule_at(3.0, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool ran = false;
  auto handle = engine.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  engine.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelAfterFireIsNoOp) {
  Engine engine;
  int runs = 0;
  auto handle = engine.schedule_at(1.0, [&] { ++runs; });
  engine.run();
  handle.cancel();  // must not crash or double-run
  engine.run();
  EXPECT_EQ(runs, 1);
}

TEST(Engine, EmptyHandleCancelIsNoOp) {
  Engine::EventHandle handle;
  handle.cancel();
  EXPECT_FALSE(handle.pending());
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine engine;
  std::vector<double> fired;
  engine.schedule_at(1.0, [&] { fired.push_back(1.0); });
  engine.schedule_at(2.0, [&] { fired.push_back(2.0); });
  engine.schedule_at(5.0, [&] { fired.push_back(5.0); });
  engine.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  engine.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 5.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, EventAtBoundaryRunsInRunUntil) {
  Engine engine;
  bool ran = false;
  engine.schedule_at(3.0, [&] { ran = true; });
  engine.run_until(3.0);
  EXPECT_TRUE(ran);
}

// -- clamping / edge semantics (pinned before the queue rewrite) -------------

TEST(Engine, NegativeDelayClampsToNow) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(4.0, [&] {
    engine.schedule_after(-2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(Engine, NegativeAbsoluteTimeClampsToNow) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(-7.0, [&] { fired_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 0.0);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Engine, NegativeZeroTimeJoinsTimeZeroChain) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(0.0, [&] { order.push_back(1); });
  engine.schedule_at(-0.0, [&] { order.push_back(2); });  // same instant
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Engine, EventScheduledAtBoundaryFromInsideRunUntilStillRuns) {
  Engine engine;
  std::vector<double> fired;
  engine.schedule_at(3.0, [&] {
    fired.push_back(engine.now());
    // Same-timestamp reschedule from inside the boundary event: still <=
    // until, so it must run in this run_until call, after this event.
    engine.schedule_at(3.0, [&] { fired.push_back(engine.now()); });
  });
  EXPECT_EQ(engine.run_until(3.0), 2U);
  EXPECT_EQ(fired, (std::vector<double>{3.0, 3.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, RunUntilLeavesLaterEventsPending) {
  Engine engine;
  bool ran = false;
  engine.schedule_at(3.5, [&] { ran = true; });
  EXPECT_EQ(engine.run_until(3.0), 0U);
  EXPECT_FALSE(ran);
  EXPECT_EQ(engine.pending_events(), 1U);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, RunUntilInThePastDoesNotRewindClock) {
  Engine engine;
  engine.schedule_at(5.0, [] {});
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
  engine.run_until(2.0);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(Engine, StaleHandleAfterSlotReuseDoesNotCancelNewEvent) {
  Engine engine;
  auto stale = engine.schedule_at(1.0, [] {});
  engine.run();  // fires; its slot returns to the free list
  bool ran = false;
  auto fresh = engine.schedule_at(2.0, [&] { ran = true; });
  // `stale` likely refers to the same recycled slot as `fresh`; the
  // generation counter must make it inert.
  stale.cancel();
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  engine.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, CancelFromInsideOwnCallbackIsNoOp) {
  Engine engine;
  Engine::EventHandle self;
  int runs = 0;
  self = engine.schedule_at(1.0, [&] {
    ++runs;
    self.cancel();  // running event is already stale: must be harmless
  });
  engine.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(engine.pending_events(), 0U);
}

TEST(Engine, CancelMiddleOfSameTimeChainPreservesFifo) {
  Engine engine;
  std::vector<int> order;
  std::vector<Engine::EventHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(engine.schedule_at(2.0, [&order, i] {
      order.push_back(i);
    }));
  }
  handles[0].cancel();  // chain head
  handles[3].cancel();  // middle
  handles[5].cancel();  // tail (next append must keep the cancelled mark)
  bool appended = false;
  engine.schedule_at(2.0, [&] { appended = true; });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  EXPECT_TRUE(appended);
}

TEST(Engine, CancelEveryEventLeavesCleanQueue) {
  Engine engine;
  std::vector<Engine::EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(
        engine.schedule_at(static_cast<double>(i % 3), [] { FAIL(); }));
  }
  for (auto& handle : handles) {
    handle.cancel();
  }
  EXPECT_EQ(engine.pending_events(), 0U);
  EXPECT_EQ(engine.run(), 0U);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);  // no live event: clock untouched
}

TEST(Engine, StepRunsExactlyOneEvent) {
  Engine engine;
  int runs = 0;
  engine.schedule_at(1.0, [&] { ++runs; });
  engine.schedule_at(2.0, [&] { ++runs; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, EventsExecutedCounter) {
  Engine engine;
  for (int i = 0; i < 7; ++i) {
    engine.schedule_at(i, [] {});
  }
  engine.run();
  EXPECT_EQ(engine.events_executed(), 7U);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      engine.schedule_after(1.0, chain);
    }
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 99.0);
}

TEST(Engine, PendingEventsExcludesCancelled) {
  Engine engine;
  auto a = engine.schedule_at(1.0, [] {});
  auto b = engine.schedule_at(2.0, [] {});
  (void)b;
  EXPECT_EQ(engine.pending_events(), 2U);
  a.cancel();
  EXPECT_EQ(engine.pending_events(), 1U);
}

}  // namespace
}  // namespace ars::sim
