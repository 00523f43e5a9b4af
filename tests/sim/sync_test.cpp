#include "ars/sim/sync.hpp"

#include <gtest/gtest.h>

namespace ars::sim {
namespace {

TEST(Semaphore, LimitsConcurrency) {
  Engine engine;
  Semaphore semaphore{engine, 2};
  int active = 0;
  int peak = 0;
  auto worker = [](Engine& e, Semaphore& s, int& act, int& pk) -> Task<> {
    co_await s.acquire();
    ++act;
    pk = std::max(pk, act);
    co_await delay(e, 1.0);
    --act;
    s.release();
  };
  for (int i = 0; i < 6; ++i) {
    Fiber::spawn(engine, worker(engine, semaphore, active, peak));
  }
  engine.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(semaphore.available(), 2U);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);  // 6 jobs, 2 at a time, 1 s each
}

TEST(Semaphore, TryAcquireNeverSuspends) {
  Engine engine;
  Semaphore semaphore{engine, 1};
  EXPECT_TRUE(semaphore.try_acquire());
  EXPECT_FALSE(semaphore.try_acquire());
  semaphore.release();
  EXPECT_TRUE(semaphore.try_acquire());
}

TEST(Semaphore, ReleaseManyWakesMany) {
  Engine engine;
  Semaphore semaphore{engine, 0};
  int through = 0;
  auto worker = [](Semaphore& s, int& n) -> Task<> {
    co_await s.acquire();
    ++n;
  };
  for (int i = 0; i < 3; ++i) {
    Fiber::spawn(engine, worker(semaphore, through));
  }
  engine.run_until(1.0);
  EXPECT_EQ(through, 0);
  EXPECT_EQ(semaphore.waiting(), 3U);
  semaphore.release(3);
  engine.run_until(2.0);
  EXPECT_EQ(through, 3);
}

}  // namespace
}  // namespace ars::sim
