// Workload `ckpt-storm`: the ckpt_campaign sweep, 25 seeds x {periodic,
// cooperative} x host MTBF {120, 300} s = 100 chaos::run_scenario calls,
// each 4 hosts and 3 jobs writing 60 MB checkpoints into a 12 MB/s shared
// store under crash arrivals and 5% message loss.  Every failing seed and
// the first 2 passing seeds of each cell are replayed and must match
// byte for byte.  The seed argument is the sweep's seed base.  Many short
// runs, so per-run construction dominates — the opposite regime from the
// heartbeat workloads.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

#include "ars/chaos/faultplan.hpp"
#include "ars/chaos/scenario.hpp"
#include "record.hpp"

namespace perfbench {

namespace {

using ars::chaos::ScenarioOptions;
using ars::chaos::ScenarioReport;

constexpr int kSeeds = 25;
constexpr double kMtbfs[] = {120.0, 300.0};
constexpr const char* kStrategies[] = {"periodic", "cooperative"};
constexpr int kReplayPassing = 2;
constexpr double kHorizon = 1000.0;

/// ckpt_campaign's defaults, cell by cell.
ScenarioOptions make_scenario(double mtbf, const std::string& strategy,
                              std::uint64_t seed) {
  ars::chaos::FaultPlan plan{"ckpt-sweep"};
  plan.host_crash_rate(40.0, std::min(kHorizon - 300.0, 400.0), mtbf, "*",
                       30.0)
      .message_loss(60.0, 300.0, 0.05);
  ScenarioOptions scenario;
  scenario.hosts = 4;
  scenario.apps = 3;
  scenario.iterations = 60;
  scenario.horizon = kHorizon;
  scenario.seed = seed;
  scenario.plan = std::move(plan);
  scenario.ckpt_strategy = strategy;
  scenario.ckpt_mtbf = mtbf;
  scenario.ckpt_state_mb = 60.0;
  scenario.ckpt_aggregate_mbps = 12.0;
  return scenario;
}

/// Exact simulated totals of one sweep (first runs only, not replays).
struct Totals {
  double waste_s = 0.0;
  double waste_periodic_s = 0.0;
  double waste_cooperative_s = 0.0;
  double overhead_s = 0.0;
  double lost_work_s = 0.0;
  double restart_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t deferred = 0;
  std::uint64_t preempted = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migration_aborts = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t crashes = 0;
  std::uint64_t decisions = 0;
  std::uint64_t dropped = 0;
  std::uint64_t replays = 0;

  bool operator==(const Totals&) const = default;
};

/// One sweep: every seed and replay is a correctness operation and, when
/// `timed`, every run_scenario call is a seed-run sample taken right after
/// a reference loop.
Totals run_pass(std::uint64_t seed_base, bool timed, RunRecord& record) {
  Totals totals;
  std::uint64_t events_with_replays = 0;
  SpeedScaled clock;
  // One timed scenario run: a reference loop, then the call.
  auto run = [&](const ScenarioOptions& scenario) {
    if (timed) {
      clock.reference();
    }
    const double start = wall_now();
    ScenarioReport report = ars::chaos::run_scenario(scenario);
    const double wall = wall_now() - start;
    if (timed) {
      clock.add(wall);
      record.sample("seed_run_ms", wall * 1e3);
    }
    return report;
  };
  const double cpu_start = cpu_now();
  const double start = wall_now();
  for (const double mtbf : kMtbfs) {
    for (const std::string strategy : kStrategies) {
      const std::string cell =
          strategy + "/mtbf" + std::to_string(static_cast<int>(mtbf));
      int passing_replays_left = kReplayPassing;
      for (int i = 0; i < kSeeds; ++i) {
        const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
        const ScenarioOptions scenario = make_scenario(mtbf, strategy, seed);
        const ScenarioReport report = run(scenario);
        const std::string name =
            "ckpt-storm." + cell + ".seed" + std::to_string(seed);
        record.check(name + ".invariants", report.ok(),
                     report.ok() ? "" : report.invariants.summary());

        const double waste = report.waste_total_s();
        totals.waste_s += waste;
        (strategy == "periodic" ? totals.waste_periodic_s
                                : totals.waste_cooperative_s) += waste;
        totals.overhead_s += report.waste_overhead_s;
        totals.lost_work_s += report.waste_lost_work_s;
        totals.restart_s += report.waste_restart_s;
        totals.events += report.events_executed;
        totals.commits += report.ckpt_commits;
        totals.aborts += report.ckpt_aborts;
        totals.deferred += report.ckpt_deferred;
        totals.preempted += report.ckpt_preempted;
        totals.migrations += report.migrations_succeeded;
        totals.migration_aborts += report.migrations_aborted;
        totals.rollbacks += report.migrations_rolled_back;
        totals.crashes += static_cast<std::uint64_t>(
            report.faults.host_crashes);
        totals.decisions += report.decisions;
        totals.dropped += report.messages_dropped;
        events_with_replays += report.events_executed;

        // A reproducer must reproduce: replay every failing seed and the
        // first passing ones of the cell.
        if (!report.ok() || passing_replays_left > 0) {
          if (report.ok()) {
            --passing_replays_left;
          }
          const ScenarioReport again = run(scenario);
          ++totals.replays;
          events_with_replays += again.events_executed;
          record.check(name + ".replay",
                       again.trace_hash == report.trace_hash &&
                           again.events_executed == report.events_executed,
                       "replay is byte-identical");
        }
      }
    }
  }
  const double pass_s = wall_now() - start;
  if (timed) {
    record.sample("wall_s", clock.scaled_s());
    record.sample("raw.wall_s", clock.wall_s());
    record.sample("raw.reference_ms", clock.reference_ms());
    record.sample("sim.events_per_s",
                  static_cast<double>(events_with_replays) / clock.wall_s());
    record.sample("sim.cpu_per_wall", (cpu_now() - cpu_start) / pass_s);
  }
  return totals;
}

/// Set-up of one seed run: the same scenario with a zero horizon builds the
/// runtime, arms the faults, runs only the t = 0 events and tears down.
/// Sampled as the mean over kBatches batches of kBatchCalls such calls per
/// cell, each batch right after a reference loop.
void probe_setup(std::uint64_t seed_base, RunRecord& record) {
  constexpr int kBatches = 5;
  constexpr int kBatchCalls = 5;
  SpeedScaled clock;
  for (const double mtbf : kMtbfs) {
    for (const std::string strategy : kStrategies) {
      ScenarioOptions scenario = make_scenario(mtbf, strategy, seed_base);
      scenario.horizon = 0.0;
      for (int batch = 0; batch < kBatches; ++batch) {
        clock.reference();
        const double start = wall_now();
        for (int i = 0; i < kBatchCalls; ++i) {
          (void)ars::chaos::run_scenario(scenario);
        }
        clock.add(wall_now() - start);
      }
    }
  }
  constexpr auto kCalls = static_cast<double>(
      kBatches * kBatchCalls * std::size(kMtbfs) * std::size(kStrategies));
  record.sample("setup_s", clock.scaled_s() / kCalls);
  record.sample("raw.setup_s", clock.wall_s() / kCalls);
}

void record_totals(const Totals& totals, RunRecord& record) {
  record.set("sim_waste_s", totals.waste_s);
  record.set("sim.events", static_cast<double>(totals.events));
  record.set("sim.shard_imbalance", 1.0);  // one engine per run
  record.set("ckpt.waste_s.periodic", totals.waste_periodic_s);
  record.set("ckpt.waste_s.cooperative", totals.waste_cooperative_s);
  record.set("ckpt.overhead_s", totals.overhead_s);
  record.set("ckpt.lost_work_s", totals.lost_work_s);
  record.set("ckpt.restart_s", totals.restart_s);
  record.set("ckpt.commits", static_cast<double>(totals.commits));
  record.set("ckpt.aborts", static_cast<double>(totals.aborts));
  record.set("ckpt.deferred", static_cast<double>(totals.deferred));
  record.set("ckpt.preempted", static_cast<double>(totals.preempted));
  record.set("ckpt.useful_ratio",
             static_cast<double>(totals.commits) /
                 static_cast<double>(
                     std::max<std::uint64_t>(totals.commits + totals.aborts,
                                             1)));
  record.set("hpcm.migrations", static_cast<double>(totals.migrations));
  record.set("hpcm.aborts", static_cast<double>(totals.migration_aborts));
  record.set("hpcm.rollbacks", static_cast<double>(totals.rollbacks));
  record.set("chaos.crashes", static_cast<double>(totals.crashes));
  record.set("chaos.replays", static_cast<double>(totals.replays));
  record.set("registry.decisions", static_cast<double>(totals.decisions));
  record.set("net.dropped", static_cast<double>(totals.dropped));
}

}  // namespace

void run_ckpt_storm(const RunArgs& args, RunRecord& record) {
  const Totals first = run_pass(args.seed, false, record);  // warm-up
  record_totals(first, record);
  const double start = wall_now();
  do {
    probe_setup(args.seed, record);
    record.check("ckpt-storm.repeat_identical",
                 run_pass(args.seed, true, record) == first,
                 "a repeated sweep yields exactly the same totals");
  } while (wall_now() - start < args.seconds);
  // run_scenario owns its network and engine, so a traced run has nothing
  // to install from outside: every ckpt-storm metric comes from the
  // scenario reports, and tracing costs nothing here.
  if (args.trace) {
    record.set("obs.trace_overhead_s", 0.0);
  }
}

}  // namespace perfbench
