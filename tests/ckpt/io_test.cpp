// Shared checkpoint I/O store: fluid-flow bandwidth sharing, abort paths,
// the cooperative admission scheduler and Young/Daly intervals (DESIGN.md
// §17).  Failure waste is kept per process record by the migration engine
// (tests/hpcm/ckpt_strategy_test.cpp).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ars/ckpt/io.hpp"
#include "ars/ckpt/strategy.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/sim/engine.hpp"

namespace ars::ckpt {
namespace {

struct StoreFixture : ::testing::Test {
  sim::Engine engine;
  std::vector<WriteOutcome> committed;
  std::vector<WriteOutcome> aborted;

  SharedStore make_store(double per_host_bps, double aggregate_bps) {
    IoOptions options;
    options.per_host_bps = per_host_bps;
    options.aggregate_bps = aggregate_bps;
    return SharedStore{engine, options};
  }

  SharedStore::OutcomeFn commit_sink() {
    return [this](const WriteOutcome& o) { committed.push_back(o); };
  }
  SharedStore::OutcomeFn abort_sink() {
    return [this](const WriteOutcome& o) { aborted.push_back(o); };
  }
};

TEST_F(StoreFixture, SingleWriteRunsAtPerHostRate) {
  SharedStore store = make_store(10.0e6, 100.0e6);
  ASSERT_TRUE(
      store.begin_write("a.0", "ws1", 20'000'000, commit_sink(), abort_sink()));
  EXPECT_TRUE(store.writing("a.0"));
  engine.run_until(10.0);
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_DOUBLE_EQ(committed[0].finished_at, 2.0);  // 20 MB at 10 MB/s
  EXPECT_DOUBLE_EQ(committed[0].duration(), 2.0);
  EXPECT_EQ(store.commits(), 1);
  EXPECT_FALSE(store.writing("a.0"));
}

TEST_F(StoreFixture, ConcurrentWritesShareAggregateBandwidth) {
  // Aggregate 10 MB/s, per-host 10 MB/s: two writers get 5 MB/s each.
  SharedStore store = make_store(10.0e6, 10.0e6);
  store.begin_write("a.0", "ws1", 10'000'000, commit_sink(), abort_sink());
  store.begin_write("b.0", "ws2", 10'000'000, commit_sink(), abort_sink());
  EXPECT_DOUBLE_EQ(store.current_rate(), 5.0e6);
  engine.run_until(10.0);
  ASSERT_EQ(committed.size(), 2u);
  // Both 10 MB writes share the store: 20 MB total at 10 MB/s aggregate.
  EXPECT_DOUBLE_EQ(committed[0].finished_at, 2.0);
  EXPECT_DOUBLE_EQ(committed[1].finished_at, 2.0);
}

TEST_F(StoreFixture, LateArrivalStretchesTheEarlierWrite) {
  SharedStore store = make_store(10.0e6, 10.0e6);
  store.begin_write("a.0", "ws1", 10'000'000, commit_sink(), abort_sink());
  engine.schedule_at(0.5, [&] {
    store.begin_write("b.0", "ws2", 10'000'000, commit_sink(), abort_sink());
  });
  engine.run_until(10.0);
  ASSERT_EQ(committed.size(), 2u);
  // a.0: 5 MB alone in [0, 0.5), then 5 MB at the shared 5 MB/s → t=1.5.
  EXPECT_EQ(committed[0].process, "a.0");
  EXPECT_NEAR(committed[0].finished_at, 1.5, 1e-9);
  // b.0: shares until 1.5 (5 MB done), then full rate → t=2.0.
  EXPECT_EQ(committed[1].process, "b.0");
  EXPECT_NEAR(committed[1].finished_at, 2.0, 1e-9);
}

TEST_F(StoreFixture, ZeroAggregateDisablesSharing) {
  SharedStore store = make_store(10.0e6, 0.0);
  store.begin_write("a.0", "ws1", 10'000'000, commit_sink(), abort_sink());
  store.begin_write("b.0", "ws2", 10'000'000, commit_sink(), abort_sink());
  EXPECT_DOUBLE_EQ(store.current_rate(), 10.0e6);
  engine.run_until(10.0);
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_DOUBLE_EQ(committed[0].finished_at, 1.0);
  EXPECT_DOUBLE_EQ(committed[1].finished_at, 1.0);
}

TEST_F(StoreFixture, AbortDropsTheWriteAndFiresAbortCallback) {
  SharedStore store = make_store(10.0e6, 0.0);
  store.begin_write("a.0", "ws1", 10'000'000, commit_sink(), abort_sink());
  engine.schedule_at(0.4, [&] { EXPECT_TRUE(store.abort_write("a.0")); });
  engine.run_until(10.0);
  EXPECT_TRUE(committed.empty());
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_NEAR(aborted[0].finished_at, 0.4, 1e-9);
  EXPECT_EQ(store.aborts(), 1);
  EXPECT_FALSE(store.abort_write("a.0"));  // already gone
}

TEST_F(StoreFixture, HostAbortDropsOnlyThatHostsWrites) {
  SharedStore store = make_store(10.0e6, 0.0);
  store.begin_write("a.0", "ws1", 10'000'000, commit_sink(), abort_sink());
  store.begin_write("b.0", "ws1", 10'000'000, commit_sink(), abort_sink());
  store.begin_write("c.0", "ws2", 10'000'000, commit_sink(), abort_sink());
  engine.schedule_at(0.2, [&] { EXPECT_EQ(store.abort_host_writes("ws1"), 2); });
  engine.run_until(10.0);
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].process, "c.0");
  EXPECT_EQ(aborted.size(), 2u);
}

TEST_F(StoreFixture, DuplicateWriteForSameProcessIsRejected) {
  SharedStore store = make_store(10.0e6, 0.0);
  EXPECT_TRUE(
      store.begin_write("a.0", "ws1", 1'000'000, commit_sink(), abort_sink()));
  EXPECT_FALSE(
      store.begin_write("a.0", "ws1", 1'000'000, commit_sink(), abort_sink()));
  engine.run_until(10.0);
  EXPECT_EQ(committed.size(), 1u);
}

TEST_F(StoreFixture, RateWithOneMoreSignalsSaturation) {
  SharedStore store = make_store(10.0e6, 20.0e6);
  EXPECT_DOUBLE_EQ(store.rate_with_one_more(), 10.0e6);  // empty: full rate
  store.begin_write("a.0", "ws1", 50'000'000, commit_sink(), abort_sink());
  store.begin_write("b.0", "ws2", 50'000'000, commit_sink(), abort_sink());
  // A third write would drop everyone to 20/3 MB/s.
  EXPECT_NEAR(store.rate_with_one_more(), 20.0e6 / 3.0, 1.0);
}

TEST_F(StoreFixture, PreRegistersZeroValuedMetrics) {
  obs::MetricsRegistry metrics;
  engine.attach_sinks(nullptr, &metrics);
  SharedStore store{engine, IoOptions{}};
  ASSERT_NE(metrics.find_counter("ars_ckpt.writes"), nullptr);
  ASSERT_NE(metrics.find_counter("ars_ckpt.bytes"), nullptr);
  ASSERT_NE(metrics.find_counter("ars_ckpt.aborted"), nullptr);
  EXPECT_DOUBLE_EQ(metrics.find_counter("ars_ckpt.writes")->value(), 0.0);
  // The prometheus render carries them even before any write happens.
  EXPECT_NE(metrics.to_prometheus().find("ars_ckpt_writes"), std::string::npos);
}

// -- Young/Daly --------------------------------------------------------------

TEST(YoungDalyTest, IntervalIsSqrtTwoCM) {
  EXPECT_DOUBLE_EQ(young_daly_interval(450.0, 4.0), 60.0);
  EXPECT_DOUBLE_EQ(young_daly_interval(200.0, 1.0), 20.0);
}

TEST(YoungDalyTest, NonPositiveInputsNeverComeDue) {
  EXPECT_TRUE(std::isinf(young_daly_interval(0.0, 4.0)));
  EXPECT_TRUE(std::isinf(young_daly_interval(300.0, 0.0)));
  EXPECT_TRUE(std::isinf(young_daly_interval(-1.0, -1.0)));
}

// -- cooperative admission ---------------------------------------------------

TEST(IoSchedulerTest, AdmitsUpToMaxConcurrentThenDefers) {
  IoScheduler sched;  // two concurrent writes
  EXPECT_EQ(sched.request("a.0", "ws1", 0.5, 0.0).verb,
            Admission::Verb::kAdmit);
  EXPECT_EQ(sched.request("b.0", "ws2", 0.5, 0.0).verb,
            Admission::Verb::kAdmit);
  const Admission third = sched.request("c.0", "ws3", 0.6, 0.0);
  EXPECT_EQ(third.verb, Admission::Verb::kDefer);
  EXPECT_GT(third.retry_after, 0.0);
  EXPECT_EQ(sched.active(), 2u);
  EXPECT_EQ(sched.admitted(), 2);
  EXPECT_EQ(sched.deferred(), 1);
}

TEST(IoSchedulerTest, ReleaseFreesTheSlotIdempotently) {
  IoScheduler sched;
  sched.request("a.0", "ws1", 0.5, 0.0);
  sched.request("busy.0", "ws3", 0.5, 0.0);  // fills the second slot
  EXPECT_TRUE(sched.holds_slot("a.0"));
  sched.release("a.0");
  sched.release("a.0");  // stale duplicate done-report: harmless
  EXPECT_FALSE(sched.holds_slot("a.0"));
  EXPECT_EQ(sched.request("b.0", "ws2", 0.5, 1.0).verb,
            Admission::Verb::kAdmit);
}

TEST(IoSchedulerTest, OverdueRequesterPreemptsTheLeastRiskyWrite) {
  IoScheduler sched;  // two slots; preempts at twice the victim's risk
  sched.request("calm.0", "ws1", 0.4, 0.0);
  sched.request("mid.0", "ws2", 0.9, 0.0);
  // risk 1.5 >= 2 * 0.4 and > 1.0: preempt the calm writer, admit us.
  const Admission verdict = sched.request("late.0", "ws3", 1.5, 1.0);
  EXPECT_EQ(verdict.verb, Admission::Verb::kPreempt);
  EXPECT_EQ(verdict.preempt_victim, "calm.0");
  EXPECT_EQ(verdict.victim_host, "ws1");
  EXPECT_TRUE(sched.holds_slot("late.0"));
  EXPECT_FALSE(sched.holds_slot("calm.0"));
  EXPECT_EQ(sched.preemptions(), 1);
}

TEST(IoSchedulerTest, RiskBelowOneNeverPreempts) {
  IoScheduler sched;
  sched.request("a.0", "ws1", 0.1, 0.0);
  sched.request("busy.0", "ws3", 0.1, 0.0);  // fills the second slot
  // 0.9 >= 2 * 0.1 but the requester is not even overdue — defer.
  EXPECT_EQ(sched.request("b.0", "ws2", 0.9, 0.0).verb,
            Admission::Verb::kDefer);
}

TEST(IoSchedulerTest, ExpiryReapsLeakedSlots) {
  IoScheduler sched;  // slots are reaped 120 s after admission
  sched.request("lost.0", "ws1", 0.5, 10.0);
  sched.request("busy.0", "ws3", 0.5, 40.0);  // fills the second slot
  EXPECT_TRUE(sched.expire(50.0).empty());
  const std::vector<std::string> reaped = sched.expire(140.0);
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0], "lost.0");
  EXPECT_EQ(sched.request("next.0", "ws2", 0.5, 141.0).verb,
            Admission::Verb::kAdmit);
}

}  // namespace
}  // namespace ars::ckpt
