// Workload `policies`: the paper's Table 2 scenario (bench_table2_policies),
// the three migration policies each on five hosts and one engine for 3000
// simulated seconds, Policy 2 and 3 with one ~50 MB HPCM migration.  The
// scenario has no random input, so the seed does not change it.

#include <memory>
#include <string>

#include "ars/apps/test_tree.hpp"
#include "ars/core/runtime.hpp"
#include "ars/host/hog.hpp"
#include "ars/net/commhog.hpp"
#include "capture.hpp"
#include "record.hpp"

namespace perfbench {

namespace {

using namespace ars;

constexpr double kHorizon = 3000.0;
constexpr double kLoadStart = 30.0;

apps::TestTree::Params tree_params() {
  apps::TestTree::Params params;
  params.levels = 18;
  params.build_work_per_knode = 0.137;
  params.fill_work_per_knode = 0.068;
  params.sort_work_per_knode = 0.751;
  params.sum_work_per_knode = 0.068;
  params.chunk_work = 1.4;
  params.node_overhead_bytes = 183;  // ~50 MB of migrated state
  return params;
}

struct PolicyRun {
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t events = 0;
  double total = 0.0;  // application finish time, simulated s
  std::string migrate_to = "-";
  double migration_time = 0.0;
  bool correct = false;
  hpcm::MigrationTimeline timeline;  // the committed migration, if any
  int migrations = 0;
  int aborts = 0;
  int rollbacks = 0;
  int consults = 0;
  std::size_t decisions = 0;
  std::uint64_t dropped = 0;
  int registry_port = 0;
};

/// One policy's cluster with Table 2's competing load and the application,
/// built and started but not yet run.  `recorder` (traced passes) is
/// installed before anything is posted.
struct Scenario {
  Scenario(rules::MigrationPolicy policy, net::FaultPolicy* recorder)
      : runtime{core::make_cluster(5, std::move(policy))},
        // ws2 talks to ws5 at ~7 MB/s with light CPU activity, ws3 carries
        // ~2.52 of CPU load, ws1 gets 3 extra threads from kLoadStart.
        comm{runtime.network(),
             {.src = "ws2", .dst = "ws5", .rate_bps = 7.0e6, .period = 0.5,
              .bidirectional = true}},
        ws2_cpu{runtime.host("ws2"), {.duty = 0.70}},
        ws3_cpu{runtime.host("ws3"), {.threads = 2}},
        ws3_duty{runtime.host("ws3"), {.duty = 0.26}},
        additional{runtime.host("ws1"), {.threads = 3, .name = "additional"}} {
    if (recorder != nullptr) {
      runtime.network().set_fault_policy(recorder);
    }
    runtime.start_rescheduler();
    comm.start();
    ws2_cpu.start();
    ws3_cpu.start();
    ws3_duty.start();
    runtime.launch_app("ws1", apps::TestTree::make(params, &app), "test_tree",
                       apps::TestTree::schema(params));
    runtime.engine().schedule_at(kLoadStart, [this] { additional.start(); });
  }

  core::ReschedulerRuntime runtime;
  net::CommHog comm;
  host::DutyCycleHog ws2_cpu;
  host::CpuHog ws3_cpu;
  host::DutyCycleHog ws3_duty;
  host::CpuHog additional;
  const apps::TestTree::Params params = tree_params();
  apps::TestTree::Result app;
};

/// One policy's run.  `clock` (timed passes) gets the run phase, right
/// after a reference loop; `capture` (traced passes) receives every
/// datagram; `slices` (traced passes) gets the wall time of each simulated
/// second.
PolicyRun run_policy(rules::MigrationPolicy policy, SpeedScaled* clock,
                     Capture* capture, RunRecord* slices) {
  PolicyRun run;
  std::unique_ptr<DatagramRecorder> recorder;  // outlives the scenario
  if (capture != nullptr) {
    recorder = std::make_unique<DatagramRecorder>(*capture, 1);
  }
  Scenario scenario{std::move(policy), recorder.get()};
  core::ReschedulerRuntime& runtime = scenario.runtime;

  if (clock != nullptr) {
    clock->reference();
  }
  const double cpu_start = cpu_now();
  const double run_start = wall_now();
  if (slices == nullptr) {
    runtime.run_until(kHorizon);
  } else {
    for (int second = 1; second <= static_cast<int>(kHorizon); ++second) {
      const double slice_start = wall_now();
      runtime.run_until(second);
      slices->sample("slice_ms", (wall_now() - slice_start) * 1e3);
    }
  }
  run.run_s = wall_now() - run_start;
  run.cpu_s = cpu_now() - cpu_start;
  if (clock != nullptr) {
    clock->add(run.run_s);
  }
  if (recorder != nullptr) {
    runtime.network().set_fault_policy(nullptr);
  }

  run.events = runtime.engine().events_executed();
  run.total = scenario.app.finished_at;
  run.correct = scenario.app.finished &&
                scenario.app.sum == apps::TestTree::expected_sum(scenario.params);
  for (const hpcm::MigrationTimeline& t : runtime.middleware().history()) {
    if (t.succeeded) {
      ++run.migrations;
    } else if (t.outcome == "aborted") {
      ++run.aborts;
    } else if (t.outcome == "rolled-back") {
      ++run.rollbacks;
    }
  }
  if (!runtime.middleware().history().empty() &&
      runtime.middleware().history().front().succeeded) {
    run.timeline = runtime.middleware().history().front();
    run.migrate_to = run.timeline.destination;
    run.migration_time = run.timeline.completed_at - run.timeline.requested_at;
  }
  for (const std::string& name : runtime.host_names()) {
    run.consults += runtime.monitor_on(name).consults_sent();
  }
  run.decisions = runtime.scheduler().decisions().size();
  run.dropped = runtime.network().dropped_total();
  run.registry_port = runtime.scheduler().port();
  return run;
}

struct Pass {
  PolicyRun p1;
  PolicyRun p2;
  PolicyRun p3;
};

Pass run_pass(SpeedScaled* clock, Capture* capture, RunRecord* slices) {
  return {run_policy(rules::paper_policy1(), clock, capture, slices),
          run_policy(rules::paper_policy2(), clock, capture, slices),
          run_policy(rules::paper_policy3(), clock, capture, slices)};
}

/// Set-up of one pass, the construction of its three scenarios: each is
/// built kSetupRepeats times after one reference loop, and the mean is
/// sampled.
void probe_setup(RunRecord& record) {
  constexpr int kSetupRepeats = 20;
  SpeedScaled clock;
  for (const auto& make_policy :
       {rules::paper_policy1, rules::paper_policy2, rules::paper_policy3}) {
    clock.reference();
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double start = wall_now();
      const Scenario scenario{make_policy(), nullptr};
      clock.add(wall_now() - start);
    }
  }
  const double setup_s = clock.scaled_s() / kSetupRepeats;
  record.sample("setup_s", setup_s);
  record.sample("raw.setup_s", clock.wall_s() / kSetupRepeats);
  record.sample("core.setup_us_per_host", 1e6 * setup_s / 15.0);
}

double pass_run_s(const Pass& pass) {
  return pass.p1.run_s + pass.p2.run_s + pass.p3.run_s;
}

/// Correctness checks, exact values and (when `clock` is set: a timed pass)
/// timing samples of one pass.
void record_pass(const Pass& pass, const Pass& first,
                 const SpeedScaled* clock, RunRecord& record) {
  const PolicyRun* runs[] = {&pass.p1, &pass.p2, &pass.p3};
  const char* names[] = {"policy1", "policy2", "policy3"};
  for (int i = 0; i < 3; ++i) {
    record.check(std::string("policies.") + names[i] + ".app_sum",
                 runs[i]->correct, "test_tree finished with the expected sum");
  }
  record.check("policies.shape.destinations",
               pass.p1.migrate_to == "-" && pass.p2.migrate_to == "ws2" &&
                   pass.p3.migrate_to == "ws4",
               "destinations " + pass.p1.migrate_to + ", " +
                   pass.p2.migrate_to + ", " + pass.p3.migrate_to +
                   " (want -, ws2, ws4)");
  record.check("policies.shape.ordering",
               pass.p3.total < pass.p2.total && pass.p2.total < pass.p1.total,
               "total time P3 < P2 < P1");
  record.check("policies.shape.migration_cost",
               pass.p2.migration_time > pass.p3.migration_time,
               "migration into the comm-busy host is slower");
  record.check("policies.shape.speedup", pass.p3.total < 0.5 * pass.p1.total,
               "rescheduling cuts execution time more than 2x");
  record.check("policies.repeat_identical",
               pass.p3.total == first.p3.total &&
                   pass.p1.events + pass.p2.events + pass.p3.events ==
                       first.p1.events + first.p2.events + first.p3.events,
               "a repeated pass simulates exactly the same run");

  const double run_s = pass_run_s(pass);
  const double cpu_s = pass.p1.cpu_s + pass.p2.cpu_s + pass.p3.cpu_s;
  const auto events =
      static_cast<double>(pass.p1.events + pass.p2.events + pass.p3.events);
  if (clock != nullptr) {
    record.sample("wall_s", clock->scaled_s());
    record.sample("raw.wall_s", run_s);
    record.sample("raw.reference_ms", clock->reference_ms());
    record.sample("sim.events_per_s", events / run_s);
    record.sample("sim.cpu_per_wall", cpu_s / run_s);
  }

  record.set("sim_exec_s", pass.p3.total);
  record.set("sim_migration_s", pass.p3.migration_time);
  record.set("sim.events", events);
  record.set("sim.shard_imbalance", 1.0);  // one engine per run
  record.set("registry.decisions", static_cast<double>(
      pass.p1.decisions + pass.p2.decisions + pass.p3.decisions));
  record.set("monitor.consults", static_cast<double>(
      pass.p1.consults + pass.p2.consults + pass.p3.consults));
  record.set("net.dropped", static_cast<double>(
      pass.p1.dropped + pass.p2.dropped + pass.p3.dropped));
  record.set("hpcm.migrations", static_cast<double>(
      pass.p1.migrations + pass.p2.migrations + pass.p3.migrations));
  record.set("hpcm.aborts", static_cast<double>(
      pass.p1.aborts + pass.p2.aborts + pass.p3.aborts));
  record.set("hpcm.rollbacks", static_cast<double>(
      pass.p1.rollbacks + pass.p2.rollbacks + pass.p3.rollbacks));
  const hpcm::MigrationTimeline& t = pass.p3.timeline;
  record.set("hpcm.reach_poll_point_s", t.reach_poll_point());
  record.set("hpcm.init_s", t.initialization());
  record.set("hpcm.freeze_s", t.freeze_window());
  record.set("hpcm.restore_s", t.completed_at - t.resumed_at);
  record.set("hpcm.state_mb", t.state_bytes / 1e6);
}

}  // namespace

void run_policies(const RunArgs& args, RunRecord& record) {
  const Pass first = run_pass(nullptr, nullptr, nullptr);  // warm-up
  record_pass(first, first, nullptr, record);
  const double start = wall_now();
  do {
    probe_setup(record);
    SpeedScaled clock;
    const Pass pass = run_pass(&clock, nullptr, nullptr);
    record_pass(pass, first, &clock, record);
  } while (wall_now() - start < args.seconds);
  if (!args.trace) {
    return;
  }

  Capture capture;
  const Pass traced = run_pass(nullptr, &capture, &record);
  record.check("policies.traced_identical",
               traced.p3.total == first.p3.total &&
                   traced.p1.events + traced.p2.events + traced.p3.events ==
                       first.p1.events + first.p2.events + first.p3.events,
               "the recording policy and slicing leave the run unchanged");
  const double wall = record.median("raw.wall_s");
  record.set("obs.trace_overhead_s", pass_run_s(traced) - wall);

  record_capture("policies", capture, {first.p3.registry_port},
                 rules::paper_policy3(), wall, record);
}

}  // namespace perfbench
