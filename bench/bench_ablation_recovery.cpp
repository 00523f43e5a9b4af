// Ablation: live migration vs checkpointing vs static re-assignment.
//
// The paper's introduction motivates runtime rescheduling against the
// state of the art: "In traditional job scheduling systems, task allocation
// is static.  Once a task is assigned, it will stay where it is until it
// finishes or restarts at another site from the beginning...  a
// reassignment means the loss of all partial results", and §2 reviews
// checkpointing-based systems (Condor) that can only restart from saved
// snapshots.  This bench quantifies the three options on the same event:
// a host must give up a half-finished long-running job at t = T.
//
//   restart    - kill and start from scratch elsewhere (static allocation)
//   checkpoint - periodic checkpoints to stable storage; restore the last
//   migrate    - HPCM live migration (no lost work, overlapped restore)

#include "common.hpp"

#include "ars/hpcm/migration.hpp"

using namespace ars;

namespace {

struct Recovery {
  std::string method;
  double total = 0.0;          // job completion time
  double lost_work = 0.0;      // reference-seconds of redone computation
  double overhead_time = 0.0;  // time spent on checkpoints / migration
  bool correct = false;
};

constexpr int kIterations = 200;       // 200 ref-seconds of work
constexpr double kEventAt = 100.3;     // the host is lost mid-run
constexpr double kStateBytes = 50.0e6; // job footprint

struct Rig {
  Rig() : net(with_sinks()), mpi(engine, net), middleware(mpi) {
    for (const char* name : {"ws1", "ws2"}) {
      host::HostSpec spec;
      spec.name = name;
      hosts.push_back(std::make_unique<host::Host>(engine, spec));
      net.attach(*hosts.back());
    }
  }
  void run_to_completion() {
    while (mpi.live_procs() > 0) {
      engine.run_until(engine.now() + 25.0);
    }
  }
  sim::Engine engine;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  net::Network net;
  std::vector<std::unique_ptr<host::Host>> hosts;
  mpi::MpiSystem mpi;
  hpcm::MigrationEngine middleware;

 private:
  /// The engine, with the sinks attached before anything is built on it.
  sim::Engine& with_sinks() {
    engine.attach_sinks(&tracer, &metrics);
    return engine;
  }
};

struct JobResult {
  double finished_at = 0.0;
  int executed = 0;
  bool correct = false;
};

hpcm::MigrationEngine::MigratableApp job(JobResult* out, int checkpoint_every) {
  return [out, checkpoint_every](mpi::Proc& proc,
                                 hpcm::MigrationContext& ctx) -> sim::Task<> {
    std::int64_t i = 0;
    if (ctx.restored()) {
      i = *ctx.state().get_int("i");
    }
    ctx.on_save([&ctx, &i] {
      ctx.state().set_int("i", i);
      ctx.state().set_opaque("heap",
                             static_cast<std::uint64_t>(kStateBytes));
    });
    for (; i < kIterations; ++i) {
      co_await ctx.poll_point();
      if (checkpoint_every > 0 && i > 0 && i % checkpoint_every == 0) {
        co_await ctx.checkpoint();
      }
      co_await proc.compute(1.0);
      ++out->executed;
    }
    out->finished_at = proc.system().engine().now();
    out->correct = true;
  };
}

Recovery run_restart() {
  Rig rig;
  JobResult result;
  const auto id = rig.middleware.launch("ws1", job(&result, 0), "job",
                                        hpcm::ApplicationSchema{"job"});
  rig.engine.schedule_at(kEventAt, [&] {
    rig.middleware.crash(id);
    rig.middleware.relaunch("job.0", "ws2");
  });
  rig.run_to_completion();
  Recovery r;
  r.method = "restart from scratch";
  r.total = result.finished_at;
  r.lost_work = result.executed - kIterations;
  r.correct = result.correct;
  bench::export_obs(rig.tracer, rig.metrics, "restart");
  return r;
}

Recovery run_checkpoint(int every) {
  Rig rig;
  JobResult result;
  const auto id = rig.middleware.launch("ws1", job(&result, every), "job",
                                        hpcm::ApplicationSchema{"job"});
  rig.engine.schedule_at(kEventAt, [&] {
    rig.middleware.crash(id);
    rig.middleware.relaunch("job.0", "ws2");
  });
  rig.run_to_completion();
  Recovery r;
  r.method = "checkpoint every " + std::to_string(every) + "s";
  r.total = result.finished_at;
  r.lost_work = result.executed - kIterations;
  // Each write moves the full footprint to stable storage.
  r.overhead_time = rig.middleware.shared_store().commits() * kStateBytes /
                    rig.middleware.options().checkpoint_store_bps;
  r.correct = result.correct;
  bench::export_obs(rig.tracer, rig.metrics,
                    "checkpoint" + std::to_string(every));
  return r;
}

Recovery run_migration() {
  Rig rig;
  JobResult result;
  const auto id = rig.middleware.launch("ws1", job(&result, 0), "job",
                                        hpcm::ApplicationSchema{"job"});
  rig.engine.schedule_at(kEventAt,
                         [&] { rig.middleware.request_migration(id, "ws2"); });
  rig.run_to_completion();
  Recovery r;
  r.method = "HPCM live migration";
  r.total = result.finished_at;
  r.lost_work = result.executed - kIterations;
  if (!rig.middleware.history().empty()) {
    r.overhead_time = rig.middleware.history().front().total();
  }
  r.correct = result.correct;
  bench::export_obs(rig.tracer, rig.metrics, "migrate");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_obs_export(argc, argv);
  bench::heading(
      "Ablation: how to vacate a host mid-job (the paper's motivation)");
  std::printf(
      "  A %d-second job must leave its host at t=%.0f s (half done),\n"
      "  carrying a %.0f MB memory footprint.\n",
      kIterations, kEventAt, kStateBytes / 1e6);

  const Recovery restart = run_restart();
  const Recovery chk20 = run_checkpoint(20);
  const Recovery chk5 = run_checkpoint(5);
  const Recovery migrate = run_migration();

  bench::Table table({"method", "completion (s)", "redone work (s)",
                      "overhead (s)", "result"});
  for (const Recovery* r : {&restart, &chk20, &chk5, &migrate}) {
    table.add_row({r->method, bench::fmt(r->total, 2),
                   bench::fmt(r->lost_work, 0),
                   bench::fmt(r->overhead_time, 2),
                   r->correct ? "correct" : "WRONG"});
  }
  table.print();

  std::printf(
      "\n  \"a reassignment means the loss of all partial results\" -- the\n"
      "  static restart redoes %.0f s of work; well-tuned checkpointing\n"
      "  trades steady overhead for a bounded tail; live migration redoes\n"
      "  nothing and pays only %.2f s once.  Note the anti-pattern: at a\n"
      "  5 s period the checkpoint overhead (%.0f s) exceeds what a crash\n"
      "  could ever lose -- over-checkpointing a %0.f MB footprint is\n"
      "  worse than restarting.\n",
      restart.lost_work, migrate.overhead_time, chk5.overhead_time,
      kStateBytes / 1e6);

  const bool shape = migrate.total < chk20.total &&
                     chk20.total < restart.total && migrate.lost_work == 0 &&
                     restart.lost_work > 90 && restart.correct &&
                     chk20.correct && chk5.correct && migrate.correct;
  std::printf("  Shape check (migrate < tuned checkpoint < restart) -> %s\n",
              shape ? "REPRODUCED" : "NOT reproduced");
  return shape ? 0 : 1;
}
