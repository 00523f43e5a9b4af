#include "ars/host/cpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ars/sim/task.hpp"
#include "ars/support/rng.hpp"

namespace ars::host {
namespace {

using sim::Engine;
using sim::Fiber;
using sim::Task;

Task<> run_compute(CpuModel& cpu, double work, double* finished_at) {
  co_await cpu.compute(work);
  *finished_at = cpu.engine().now();
}

TEST(CpuModel, SingleJobRunsAtFullSpeed) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done = -1.0;
  Fiber::spawn(engine, run_compute(cpu, 10.0, &done));
  engine.run();
  EXPECT_DOUBLE_EQ(done, 10.0);
}

TEST(CpuModel, FasterCpuFinishesSooner) {
  Engine engine;
  CpuModel cpu{engine, 2.0};
  double done = -1.0;
  Fiber::spawn(engine, run_compute(cpu, 10.0, &done));
  engine.run();
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST(CpuModel, TwoEqualJobsShareTheProcessor) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done_a = -1.0;
  double done_b = -1.0;
  Fiber::spawn(engine, run_compute(cpu, 5.0, &done_a));
  Fiber::spawn(engine, run_compute(cpu, 5.0, &done_b));
  engine.run();
  // Both share the CPU for the whole run: each takes 10 s of wall time.
  EXPECT_DOUBLE_EQ(done_a, 10.0);
  EXPECT_DOUBLE_EQ(done_b, 10.0);
}

TEST(CpuModel, UnequalJobsFinishAtProcessorSharingTimes) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done_small = -1.0;
  double done_big = -1.0;
  Fiber::spawn(engine, run_compute(cpu, 2.0, &done_small));
  Fiber::spawn(engine, run_compute(cpu, 6.0, &done_big));
  engine.run();
  // Shared until the small job ends: it needs 2 units at rate 1/2 -> t=4.
  EXPECT_DOUBLE_EQ(done_small, 4.0);
  // Big job: 2 units done by t=4, remaining 4 at full speed -> t=8.
  EXPECT_DOUBLE_EQ(done_big, 8.0);
}

TEST(CpuModel, LateArrivalSlowsExistingJob) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done_first = -1.0;
  double done_second = -1.0;
  Fiber::spawn(engine, run_compute(cpu, 10.0, &done_first));
  engine.schedule_at(5.0, [&] {
    Fiber::spawn(engine, run_compute(cpu, 10.0, &done_second));
  });
  engine.run();
  // First job: 5 done by t=5, then shares; needs 5 more at 1/2 -> t=15.
  EXPECT_DOUBLE_EQ(done_first, 15.0);
  // Second: 5 done by t=15 (shared), 5 more at full speed -> t=20.
  EXPECT_DOUBLE_EQ(done_second, 20.0);
}

TEST(CpuModel, RunnableCountTracksMembership) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done = -1.0;
  EXPECT_EQ(cpu.runnable_count(), 0U);
  Fiber::spawn(engine, run_compute(cpu, 10.0, &done));
  engine.run_until(1.0);
  EXPECT_EQ(cpu.runnable_count(), 1U);
  engine.run();
  EXPECT_EQ(cpu.runnable_count(), 0U);
}

TEST(CpuModel, ZeroWorkCompletesImmediately) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done = -1.0;
  Fiber::spawn(engine, run_compute(cpu, 0.0, &done));
  engine.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(CpuModel, KilledJobReleasesTheProcessor) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done_victim = -1.0;
  double done_other = -1.0;
  Fiber victim = Fiber::spawn(engine, run_compute(cpu, 100.0, &done_victim));
  Fiber::spawn(engine, run_compute(cpu, 10.0, &done_other));
  engine.schedule_at(4.0, [&] { victim.kill(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_victim, -1.0);
  // Other job: 2 units done by t=4 (shared), 8 more alone -> t=12.
  EXPECT_DOUBLE_EQ(done_other, 12.0);
  EXPECT_EQ(cpu.runnable_count(), 0U);
}

TEST(CpuModel, CumulativeBusyIntegratesBusyTime) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done = -1.0;
  engine.schedule_at(5.0, [&] {
    Fiber::spawn(engine, run_compute(cpu, 3.0, &done));
  });
  engine.run();
  EXPECT_DOUBLE_EQ(cpu.cumulative_busy(), 3.0);
}

TEST(CpuModel, BusyBetweenWindowsAreExact) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done = -1.0;
  engine.schedule_at(2.0, [&] {
    Fiber::spawn(engine, run_compute(cpu, 4.0, &done));
  });
  engine.run_until(20.0);
  // Busy exactly on [2, 6].
  EXPECT_DOUBLE_EQ(cpu.busy_between(0.0, 20.0), 4.0);
  EXPECT_DOUBLE_EQ(cpu.busy_between(0.0, 4.0), 2.0);
  EXPECT_DOUBLE_EQ(cpu.busy_between(5.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(cpu.busy_between(7.0, 10.0), 0.0);
}

TEST(CpuModel, BusyBetweenSeesOngoingWork) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  double done = -1.0;
  Fiber fiber = Fiber::spawn(engine, run_compute(cpu, 100.0, &done));
  engine.run_until(10.0);
  EXPECT_NEAR(cpu.busy_between(0.0, 10.0), 10.0, 1e-9);
  fiber.kill();  // release the CPU job before the model is destroyed
}

TEST(CpuModel, ManyJobsShareFairly) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  constexpr int kJobs = 8;
  std::vector<double> done(kJobs, -1.0);
  for (int i = 0; i < kJobs; ++i) {
    Fiber::spawn(engine, run_compute(cpu, 1.0, &done[static_cast<std::size_t>(i)]));
  }
  engine.run();
  for (const double d : done) {
    EXPECT_DOUBLE_EQ(d, static_cast<double>(kJobs));
  }
}

struct BusyPeriod {
  double begin;
  double end;
};

/// One job at a time with idle gaps between, on a quarter-second grid:
/// each job is exactly one busy period [start, finish] of the model's
/// history, and `running_since` is the start of the job in progress (or
/// negative between jobs).
Task<> busy_stream(CpuModel& cpu, support::Rng& rng,
                   std::vector<BusyPeriod>& periods, double& running_since) {
  for (;;) {
    co_await sim::delay(cpu.engine(),
                        0.25 * static_cast<double>(rng.uniform_int(1, 8)));
    running_since = cpu.engine().now();
    co_await cpu.compute(0.25 * static_cast<double>(rng.uniform_int(1, 16)));
    periods.push_back(BusyPeriod{running_since, cpu.engine().now()});
    running_since = -1.0;
  }
}

/// The windowed read as a scan of every busy period, in order, plus the
/// job in progress.
double scan_busy(const std::vector<BusyPeriod>& periods, double running_since,
                 double now, double t0, double t1) {
  double busy = 0.0;
  for (const BusyPeriod& p : periods) {
    busy += std::max(0.0, std::min(p.end, t1) - std::max(p.begin, t0));
  }
  if (running_since >= 0.0) {
    busy += std::max(0.0, std::min(now, t1) - std::max(running_since, t0));
  }
  return busy;
}

TEST(CpuModel, IdleCpuReadsZeroBusyTime) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  engine.run_until(50.0);
  EXPECT_EQ(cpu.busy_between(0.0, 50.0), 0.0);
  EXPECT_EQ(cpu.busy_between(10.0, 10.0), 0.0);
}

// A windowed read starts at the first busy period ending at or after the
// window, so it must equal a scan of every period bit for bit: early in a
// seeded random run, and past the hour after which old periods are pruned,
// for windows on period edges, windows ending before the newest period,
// and windows covering the job in progress.
TEST(CpuModel, WindowedBusyReadsEqualAFullScan) {
  Engine engine;
  CpuModel cpu{engine, 1.0};
  support::Rng rng{23};
  std::vector<BusyPeriod> periods;
  double running_since = -1.0;
  Fiber stream =
      Fiber::spawn(engine, busy_stream(cpu, rng, periods, running_since));
  support::Rng windows{5};
  int edges = 0;
  int early_ends = 0;
  // Windows start no earlier than `oldest`, inside what the model holds.
  const auto check = [&](double oldest) {
    const double now = engine.now();
    const auto expect_exact = [&](double t0, double t1) {
      EXPECT_EQ(cpu.busy_between(t0, t1),
                scan_busy(periods, running_since, now, t0, t1))
          << "[" << t0 << ", " << t1 << "] at " << now;
    };
    for (const BusyPeriod& p : periods) {
      if (p.end < oldest || windows.uniform() > 0.3) {
        continue;
      }
      ++edges;
      for (const double t0 : {p.begin, p.end}) {
        for (const double t1 : {t0, t0 + 0.25, t0 + 10.0, now}) {
          expect_exact(t0, t1);
          early_ends += t1 < periods.back().end ? 1 : 0;
        }
      }
    }
    for (int i = 0; i < 50; ++i) {
      const double t0 = windows.uniform(oldest, now + 1.0);
      expect_exact(t0, t0 + windows.uniform(0.0, 60.0));
    }
    expect_exact(now - 10.0, now);
  };
  engine.run_until(100.0);
  ASSERT_FALSE(periods.empty());
  check(0.0);
  engine.run_until(5000.25);
  check(engine.now() - 3600.0);
  // Periods older than the hour are gone from the model's history.
  EXPECT_LT(cpu.busy_between(0.0, engine.now()),
            scan_busy(periods, running_since, engine.now(), 0.0,
                      engine.now()));
  EXPECT_GT(edges, 100);
  EXPECT_GT(early_ends, 100);
  stream.kill();  // release the CPU job before the model is destroyed
}

}  // namespace
}  // namespace ars::host
