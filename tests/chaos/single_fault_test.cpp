// Every single control-plane fault, exhaustively: one 3-host run migrates
// an application off an overloaded ws1, and the migration's destination
// crashes shortly after the commit (reboot 60 s later).  The unfaulted run
// posts N control datagrams; each case then reruns the scenario N times,
// dropping or duplicating the k-th datagram in run k, and every run must
// hold the chaos invariants (exactly-once finish, no lost or stranded
// process, lease convergence).  The engine is deterministic, so the first
// k datagrams of run k are exactly those of the unfaulted run.

#include <ostream>
#include <string>

#include "ars/chaos/invariants.hpp"
#include "ars/core/runtime.hpp"
#include "ars/host/hog.hpp"
#include "ars/support/log.hpp"

#include <gtest/gtest.h>

namespace ars::chaos {
namespace {

enum class Fault { kNone, kDrop, kDuplicate };

/// Drops or duplicates the k-th post() and leaves every other datagram
/// and every bulk transfer alone.
class KthDatagramFault final : public net::FaultPolicy {
 public:
  KthDatagramFault(Fault fault, std::size_t k) : fault_(fault), k_(k) {}

  PostVerdict on_post(const net::Message& /*message*/) override {
    PostVerdict verdict;
    if (posts_++ == k_) {
      verdict.drop = fault_ == Fault::kDrop;
      verdict.duplicates = fault_ == Fault::kDuplicate ? 1 : 0;
    }
    return verdict;
  }

  double bandwidth_factor(const std::string& /*src*/,
                          const std::string& /*dst*/) override {
    return 1.0;
  }

  [[nodiscard]] std::size_t posts() const noexcept { return posts_; }

 private:
  Fault fault_;
  std::size_t k_;
  std::size_t posts_ = 0;
};

hpcm::MigrationEngine::MigratableApp counter_app() {
  return [](mpi::Proc& proc, hpcm::MigrationContext& ctx) -> sim::Task<> {
    std::int64_t i = ctx.restored() ? *ctx.state().get_int("i") : 0;
    ctx.on_save([&ctx, &i] { ctx.state().set_int("i", i); });
    for (; i < 120; ++i) {
      co_await ctx.poll_point();
      if (i > 0 && i % 10 == 0) {
        co_await ctx.checkpoint();
      }
      co_await proc.compute(1.0);
    }
  };
}

struct FaultRun {
  InvariantReport report;
  std::size_t datagrams = 0;
  bool crashed = false;
};

FaultRun run_once(Fault fault, std::size_t k, double crash_after) {
  rules::MigrationPolicy policy = rules::paper_policy2();
  policy.set_warmup(20.0);
  core::ClusterConfig config = core::make_cluster(3, policy);
  config.registry_host = "ws1";
  config.auto_restart = true;
  config.lease_ttl = 25.0;
  config.monitor_reregister_period = 20.0;
  config.hpcm.init_timeout = 8.0;
  config.hpcm.eager_timeout = 20.0;
  config.hpcm.ack_timeout = 8.0;
  // Declared before the runtime so it outlives the network it is wired to.
  KthDatagramFault policy_fault{fault, k};
  core::ReschedulerRuntime runtime{config};
  runtime.network().set_fault_policy(&policy_fault);
  runtime.start_rescheduler();

  runtime.engine().schedule_at(10.0, [&runtime] {
    runtime.launch_app("ws1", counter_app(), "app",
                       hpcm::ApplicationSchema{"app"});
  });
  host::CpuHog hog{runtime.host("ws1"),
                   {.threads = 3, .duration = 120.0, .name = "hog"}};
  runtime.engine().schedule_at(40.0, [&hog] { hog.start(); });

  // The first commit arms the destination crash: the "restore" phase opens
  // at the commit point, the instant the application resumes there.
  FaultRun run;
  runtime.set_phase_listener([&](const txn::PhaseEvent& event) {
    if (!run.crashed && event.kind == "migration" &&
        event.phase == "restore") {
      run.crashed = true;
      const std::string dest = event.targets.front();
      runtime.engine().schedule_after(crash_after, [&runtime, dest] {
        (void)runtime.fail_host(dest);
        runtime.engine().schedule_after(
            60.0, [&runtime, dest] { runtime.restart_host(dest); });
      });
    }
    return 0.0;
  });

  InvariantChecker checker{runtime};
  checker.expect_app("app.0");
  for (const std::string& host_name : runtime.host_names()) {
    checker.expect_alive(host_name);
  }
  runtime.run_until(600.0);
  run.report = checker.check();
  run.datagrams = policy_fault.posts();
  runtime.network().set_fault_policy(nullptr);
  return run;
}

struct SingleFaultCase {
  const char* name;
  Fault fault;
  double crash_after;  // seconds from the commit to the destination crash
};

void PrintTo(const SingleFaultCase& param, std::ostream* os) {
  *os << param.name;
}

class SingleFaultTest : public ::testing::TestWithParam<SingleFaultCase> {
 protected:
  void SetUp() override {
    // Every faulted run narrates its drops and lease expiries at WARN.
    saved_level_ = support::Logger::global().level();
    support::Logger::global().set_level(support::LogLevel::kError);
  }
  void TearDown() override {
    support::Logger::global().set_level(saved_level_);
  }

 private:
  support::LogLevel saved_level_ = support::LogLevel::kWarn;
};

TEST_P(SingleFaultTest, EveryDatagramHoldsTheInvariants) {
  const SingleFaultCase& param = GetParam();
  const FaultRun clean = run_once(Fault::kNone, 0, param.crash_after);
  ASSERT_TRUE(clean.crashed) << "the migration never committed";
  ASSERT_TRUE(clean.report.ok()) << clean.report.summary();
  ASSERT_GT(clean.datagrams, 100U);
  int failing = 0;
  for (std::size_t k = 0; k < clean.datagrams; ++k) {
    const FaultRun run = run_once(param.fault, k, param.crash_after);
    if (!run.report.ok()) {
      ++failing;
      ADD_FAILURE() << param.name << ", datagram " << k << " of "
                    << clean.datagrams << ":\n"
                    << run.report.summary();
    }
  }
  EXPECT_EQ(failing, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, SingleFaultTest,
    ::testing::Values(
        SingleFaultCase{"DropCrash50ms", Fault::kDrop, 0.05},
        SingleFaultCase{"DropCrash3s", Fault::kDrop, 3.0},
        SingleFaultCase{"DuplicateCrash50ms", Fault::kDuplicate, 0.05},
        SingleFaultCase{"DuplicateCrash3s", Fault::kDuplicate, 3.0}),
    [](const ::testing::TestParamInfo<SingleFaultCase>& case_info) {
      return std::string(case_info.param.name);
    });

}  // namespace
}  // namespace ars::chaos
