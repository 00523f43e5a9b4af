#include "ars/chaos/scenario.hpp"

#include <memory>
#include <vector>

#include "ars/ckpt/strategy.hpp"
#include "ars/core/runtime.hpp"
#include "ars/host/hog.hpp"
#include "ars/rules/policy.hpp"
#include "ars/support/hash.hpp"
#include "ars/support/rng.hpp"

namespace ars::chaos {

namespace {

/// Checkpointing counter application (the failover tests' workload shape):
/// restores its loop index after a migration or relaunch, checkpoints
/// periodically, and records where it finished.
struct ScenarioApp {
  static constexpr int kBlocks = 8;
  static constexpr int kBlockDoubles = 8 * 1024;  // 64 KiB per block

  int iterations = 60;
  int checkpoint_every = 10;
  /// Pre-copy runs carry a block-structured state (one block rewritten per
  /// iteration — the write set the rounds must chase) plus a scratch entry
  /// erased halfway, so deltas ship tombstones under fire.
  bool heavy_state = false;
  /// Strategy-driven checkpointing (DESIGN.md §17): poll the middleware's
  /// checkpoint plan every iteration instead of the fixed every-N schedule.
  bool strategy_checkpoints = false;
  /// Opaque payload dragged along so checkpoint writes cost store time.
  std::uint64_t opaque_bytes = 0;
  bool finished = false;
  std::string finished_on;

  hpcm::MigrationEngine::MigratableApp make() {
    return [this](mpi::Proc& proc,
                  hpcm::MigrationContext& ctx) -> sim::Task<> {
      std::int64_t i = ctx.restored() ? *ctx.state().get_int("i") : 0;
      bool scratch_live = true;
      std::vector<std::vector<double>> data;
      if (heavy_state) {
        data.assign(kBlocks, std::vector<double>(kBlockDoubles, 0.0));
        if (ctx.restored()) {
          scratch_live = ctx.state().contains("scratch");
          for (int b = 0; b < kBlocks; ++b) {
            data[static_cast<std::size_t>(b)] =
                *ctx.state().get_doubles("block" + std::to_string(b));
          }
        }
      }
      ctx.on_save([this, &ctx, &i, &scratch_live, &data] {
        ctx.state().set_int("i", i);
        if (!heavy_state) {
          return;
        }
        if (scratch_live) {
          ctx.state().set_string("scratch", "pre-copy tombstone bait");
        }
        for (int b = 0; b < kBlocks; ++b) {
          ctx.state().set_doubles("block" + std::to_string(b),
                                  data[static_cast<std::size_t>(b)]);
        }
      });
      if (opaque_bytes > 0) {
        ctx.state().set_opaque("payload", opaque_bytes);
      }
      for (; i < iterations; ++i) {
        co_await ctx.poll_point();
        if (heavy_state && scratch_live && i == iterations / 2) {
          ctx.state().erase("scratch");
          scratch_live = false;
        }
        if (strategy_checkpoints) {
          co_await ctx.maybe_checkpoint();
        } else if (checkpoint_every > 0 && i > 0 &&
                   i % checkpoint_every == 0) {
          co_await ctx.checkpoint();
        }
        co_await proc.compute(1.0);
        if (heavy_state) {
          data[static_cast<std::size_t>(i % kBlocks)][0] += 1.0;
        }
      }
      finished = true;
      finished_on = proc.host().name();
    };
  }
};

}  // namespace

ScenarioReport run_scenario(const ScenarioOptions& options) {
  rules::MigrationPolicy policy = rules::paper_policy2();
  policy.set_warmup(20.0);
  core::ClusterConfig config = core::make_cluster(options.hosts, policy);
  config.registry_host = "ws1";
  config.auto_restart = true;
  // The sabotage knob disables lease expiry in effect (the sweeper never
  // sees a stale lease), so crashed hosts' work is never relaunched — the
  // checker must catch the stranded applications.
  config.lease_ttl = options.sabotage_lease_expiry ? 1.0e18 : 25.0;
  config.monitor_reregister_period = 20.0;
  config.monitor_delta_heartbeats = options.delta_heartbeats;
  // Tight transaction timeouts so migration-window faults resolve (abort
  // or commit) well inside the horizon.
  config.hpcm.init_timeout = 8.0;
  config.hpcm.eager_timeout = 20.0;
  config.hpcm.ack_timeout = 8.0;
  config.hpcm.sabotage_skip_rollback = options.sabotage_migration_rollback;
  config.hpcm.precopy = options.precopy;
  // Malleable jobs: the resize planner grows them into slack and shrinks
  // them off pressure; tight transaction timeouts so resize-window stalls
  // resolve (abort or rollback) well inside the horizon.
  config.enable_resize_planner = options.malleable_jobs > 0;
  config.resize_cooldown = 20.0;
  config.malleable.spawn_timeout = 12.0;
  config.malleable.redistribute_timeout = 25.0;
  config.malleable.sabotage_skip_resize_rollback =
      options.sabotage_resize_rollback;
  // Checkpoint scheduling (DESIGN.md §17): checkpoints route through the
  // shared store; "cooperative" additionally turns on the registry's I/O
  // scheduler (the runtime wires the request path from the same knob).
  config.hpcm.ckpt_strategy = options.ckpt_strategy;
  config.hpcm.ckpt_mtbf = options.ckpt_mtbf;
  config.hpcm.ckpt_aggregate_bps = options.ckpt_aggregate_mbps * 1.0e6;
  config.hpcm.sabotage_torn_commit = options.sabotage_torn_checkpoint;
  core::ReschedulerRuntime runtime{config};
  runtime.start_rescheduler();

  // Staggered application launches, derived from the seed alone.
  support::Rng rng{options.seed};
  std::vector<std::unique_ptr<ScenarioApp>> apps;
  std::vector<std::string> app_names;
  for (int i = 1; i <= options.apps; ++i) {
    apps.push_back(std::make_unique<ScenarioApp>());
    ScenarioApp& app = *apps.back();
    app.iterations = options.iterations;
    app.checkpoint_every = options.checkpoint_every;
    app.heavy_state = options.precopy;
    app.strategy_checkpoints = !options.ckpt_strategy.empty();
    app.opaque_bytes =
        static_cast<std::uint64_t>(options.ckpt_state_mb * 1.0e6);
    const std::string name = "job" + std::to_string(i);
    app_names.push_back(name + ".0");
    const std::string host =
        "ws" + std::to_string((i - 1) % options.hosts + 1);
    const double start_at = rng.uniform(10.0, 30.0);
    runtime.engine().schedule_at(start_at, [&runtime, &app, name, host] {
      runtime.launch_app(host, app.make(), name,
                         hpcm::ApplicationSchema{name});
    });
  }

  // Malleable jobs launch staggered on host pairs; the planner takes it
  // from there.  Everything (start time, placement) derives from the seed.
  for (int i = 1; i <= options.malleable_jobs; ++i) {
    malleable::JobSpec spec;
    spec.name = "mjob" + std::to_string(i);
    spec.workload.blocks = 16;
    spec.workload.work_per_block = 0.25;
    spec.workload.bytes_per_block = 2.0e5;
    spec.workload.iterations = options.iterations * 3;
    spec.workload.sync_bytes = 4096.0;
    spec.min_ranks = 1;
    spec.max_ranks = 6;
    const int base = ((i - 1) * 2) % options.hosts;
    const std::vector<std::string> world = {
        "ws" + std::to_string(base + 1),
        "ws" + std::to_string((base + 1) % options.hosts + 1)};
    const double start_at = rng.uniform(10.0, 30.0);
    runtime.engine().schedule_at(start_at, [&runtime, spec, world] {
      (void)runtime.launch_malleable_job(spec, world);
    });
  }

  // A CPU hog overloads ws1 so the run includes policy-driven migrations,
  // not only injected faults.
  host::CpuHog hog{runtime.host("ws1"),
                   {.threads = 3, .duration = 120.0, .name = "hog"}};
  if (options.with_load) {
    runtime.engine().schedule_at(40.0, [&hog] { hog.start(); });
  }

  FaultInjector injector{runtime, options.plan, options.seed};
  injector.arm();

  InvariantChecker checker{runtime};
  for (const std::string& name : app_names) {
    checker.expect_app(name);
  }
  for (const std::string& host_name : runtime.host_names()) {
    // Hosts a permanent crash leaves dead are exempt from the liveness
    // expectation; everything else must converge after the faults heal.
    bool permanently_dead = false;
    for (const FaultSpec& spec : options.plan.specs()) {
      if (spec.kind == FaultKind::kHostCrash && spec.permanent() &&
          spec.host_a == host_name) {
        permanently_dead = true;
      }
      // A migration-window destination crash with no reboot delay leaves
      // the (named) destination down for good.
      if (spec.kind == FaultKind::kMigrationDestCrash && spec.delay <= 0.0 &&
          spec.host_a == host_name) {
        permanently_dead = true;
      }
      // A resize target crash with no reboot kills SOME host for good, and
      // which one depends on the planner — no host can be promised alive.
      if (spec.kind == FaultKind::kResizeTargetCrash && spec.delay <= 0.0) {
        permanently_dead = true;
      }
      // Crash-rate arrivals with no reboot leave any matching host down for
      // good (the wildcard spares the registry host, as the injector does).
      if (spec.kind == FaultKind::kHostCrashRate && spec.delay <= 0.0 &&
          (spec.host_a == host_name ||
           (spec.host_a == "*" && host_name != config.registry_host))) {
        permanently_dead = true;
      }
    }
    if (!permanently_dead) {
      checker.expect_alive(host_name);
    }
  }

  runtime.run_until(options.horizon);

  ScenarioReport report;
  report.invariants = checker.check();
  const std::string trace = runtime.tracer().to_jsonl();
  report.trace_hash = support::fnv1a(trace);
  if (options.keep_trace || !report.invariants.ok()) {
    // Black-box rule: a failing run keeps its evidence.
    report.trace_jsonl = trace;
    report.metrics_json = runtime.metrics().to_json();
  }
  report.events_executed = runtime.engine().events_executed();
  report.final_time = runtime.engine().now();
  report.migration_attempts = runtime.middleware().history().size();
  for (const hpcm::MigrationTimeline& timeline :
       runtime.middleware().history()) {
    if (timeline.succeeded) {
      ++report.migrations_succeeded;
    }
    if (timeline.outcome == "aborted") {
      ++report.migrations_aborted;
    } else if (timeline.outcome == "rolled-back") {
      ++report.migrations_rolled_back;
    }
    report.precopy_rounds +=
        static_cast<std::size_t>(timeline.precopy_rounds);
  }
  for (const malleable::ResizeOutcome& outcome :
       runtime.malleable().history()) {
    ++report.resizes_attempted;
    if (outcome.outcome == malleable::kCommitted) {
      ++report.resizes_committed;
    } else if (outcome.outcome == malleable::kAborted) {
      ++report.resizes_aborted;
    } else if (outcome.outcome == malleable::kPartialRollback) {
      ++report.resizes_rolled_back;
    }
  }
  report.ghost_ranks = runtime.malleable().ghost_ranks();
  report.ckpt_commits = runtime.middleware().shared_store().commits();
  report.ckpt_aborts = runtime.middleware().shared_store().aborts();
  report.ckpt_deferred = runtime.middleware().ckpt_deferred();
  report.ckpt_preempted = runtime.middleware().ckpt_preempted();
  report.torn_restores = runtime.middleware().torn_restores();
  const ckpt::Waste cluster_waste = runtime.middleware().cluster_waste();
  report.waste_overhead_s = cluster_waste.overhead_s;
  report.waste_lost_work_s = cluster_waste.lost_work_s;
  report.waste_restart_s = cluster_waste.restart_s;
  report.faults = injector.stats();
  report.messages_dropped = runtime.network().dropped_total();
  report.decisions = runtime.scheduler().decisions().size();
  report.decision_log_hash =
      support::fnv1a(runtime.scheduler().decision_log());
  return report;
}

}  // namespace ars::chaos
