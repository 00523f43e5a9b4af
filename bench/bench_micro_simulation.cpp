// Micro benchmarks of the simulated substrates: MPI point-to-point and
// collectives, CPU processor-sharing model, network fluid model, the
// monitor's sensor snapshot, and a full HPCM migration — wall-clock cost of
// simulating each, for ablation of the DES design choice.

#include <benchmark/benchmark.h>

#include "common.hpp"

#include <algorithm>

#include "ars/hpcm/migration.hpp"
#include "ars/monitor/sensors.hpp"
#include "ars/mpi/mpi.hpp"
#include "ars/net/commhog.hpp"
#include "ars/net/network.hpp"

namespace {

using namespace ars;

struct Cluster {
  explicit Cluster(int n) : net(engine), mpi(engine, net) {
    for (int i = 0; i < n; ++i) {
      host::HostSpec spec;
      spec.name = "ws" + std::to_string(i + 1);
      hosts.push_back(std::make_unique<host::Host>(engine, spec));
      net.attach(*hosts.back());
    }
  }
  /// Run until every MPI process has exited (the load-average samplers
  /// never drain, so a plain run() would not terminate).
  void run_to_completion() {
    while (mpi.live_procs() > 0) {
      engine.run_until(engine.now() + 10.0);
    }
  }

  sim::Engine engine;
  std::vector<std::unique_ptr<host::Host>> hosts;
  net::Network net;
  mpi::MpiSystem mpi;
};

// The event-queue throughput number the perf baseline tracks: everything
// below (MPI, CPU, network, migration) is events through this queue.
void BM_EngineEventQueue(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineEventQueue)->Arg(1000)->Arg(10000);

void BM_MpiPingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Cluster cluster{2};
    auto app = [rounds](mpi::Proc& self) -> sim::Task<> {
      const mpi::Comm world = self.world();
      for (int i = 0; i < rounds; ++i) {
        if (self.world_rank() == 0) {
          co_await self.send(world, 1, 0, 1024.0);
          (void)co_await self.recv(world, 1, 1);
        } else {
          (void)co_await self.recv(world, 0, 0);
          co_await self.send(world, 0, 1, 1024.0);
        }
      }
    };
    cluster.mpi.launch_world({"ws1", "ws2"}, app, "pp");
    cluster.run_to_completion();
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_MpiPingPong)->Arg(100)->Arg(1000);

void BM_MpiAllreduce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Cluster cluster{n};
    std::vector<std::string> hosts;
    for (int i = 0; i < n; ++i) {
      hosts.push_back("ws" + std::to_string(i + 1));
    }
    auto app = [](mpi::Proc& self) -> sim::Task<> {
      for (int i = 0; i < 10; ++i) {
        std::vector<double> mine{1.0};
        (void)co_await self.allreduce_sum(self.world(), std::move(mine), 8.0);
      }
    };
    cluster.mpi.launch_world(hosts, app, "ar");
    cluster.run_to_completion();
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_MpiAllreduce)->Arg(4)->Arg(8);

void BM_ProcessorSharing(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    host::HostSpec spec;
    spec.name = "ws1";
    host::Host h{engine, spec};
    auto body = [](host::Host& target) -> sim::Task<> {
      for (int i = 0; i < 20; ++i) {
        co_await target.cpu().compute(0.5);
      }
    };
    std::vector<sim::Fiber> fibers;
    for (int i = 0; i < jobs; ++i) {
      fibers.push_back(sim::Fiber::spawn(engine, body(h)));
    }
    while (std::any_of(fibers.begin(), fibers.end(),
                       [](const sim::Fiber& f) { return !f.done(); })) {
      engine.run_until(engine.now() + 10.0);
    }
  }
  state.SetItemsProcessed(state.iterations() * jobs * 20);
}
BENCHMARK(BM_ProcessorSharing)->Arg(4)->Arg(32);

void BM_NetworkSharedTransfers(benchmark::State& state) {
  const int transfers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Cluster cluster{4};
    auto mover = [](net::Network& network) -> sim::Task<> {
      for (int i = 0; i < 10; ++i) {
        (void)co_await network.transfer("ws1", "ws2", 125000.0);
      }
    };
    std::vector<sim::Fiber> fibers;
    for (int i = 0; i < transfers; ++i) {
      fibers.push_back(sim::Fiber::spawn(cluster.engine, mover(cluster.net)));
    }
    while (std::any_of(fibers.begin(), fibers.end(),
                       [](const sim::Fiber& f) { return !f.done(); })) {
      cluster.engine.run_until(cluster.engine.now() + 10.0);
    }
  }
  state.SetItemsProcessed(state.iterations() * transfers * 10);
}
BENCHMARK(BM_NetworkSharedTransfers)->Arg(2)->Arg(16);

// What the monitor pays per heartbeat for one host's status snapshot after
// range(0) simulated seconds of steady two-host traffic: a CommHog each way
// between the hosts and a half-busy CPU loop on ws1, so the flow meters and
// the busy-period history hold the whole run's segments.  The windowed
// reads (10 s CPU utilization, net in/out) should cost the window, not the
// history, so the per-snapshot time should not grow with range(0).
void BM_SensorSnapshot(benchmark::State& state) {
  Cluster cluster{2};
  net::CommHog::Options traffic;
  traffic.src = "ws1";
  traffic.dst = "ws2";
  traffic.rate_bps = 2.0e6;
  net::CommHog hog{cluster.net, traffic};
  hog.start();
  auto half_busy = [](host::Host& target) -> sim::Task<> {
    for (;;) {
      co_await target.cpu().compute(0.5);
      co_await sim::delay(target.engine(), 0.5);
    }
  };
  sim::Fiber cpu_loop =
      sim::Fiber::spawn(cluster.engine, half_busy(*cluster.hosts[0]));
  cluster.engine.run_until(static_cast<double>(state.range(0)));
  monitor::HostSensorSource sensors{*cluster.hosts[0], cluster.net,
                                    cluster.net.id_of("ws1")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensors.snapshot());
  }
  state.SetItemsProcessed(state.iterations());
  cpu_loop.kill();
  hog.stop();
}
BENCHMARK(BM_SensorSnapshot)->Arg(60)->Arg(600)->Arg(3000);

void BM_FullMigration(benchmark::State& state) {
  // Wall-clock cost of simulating one complete HPCM migration (spawn,
  // merge, eager + background transfer of ~10 MB, takeover).
  for (auto _ : state) {
    Cluster cluster{2};
    // Attach the process-wide obs sinks (null unless --trace-out/
    // --metrics-out was requested) so the export holds real migration
    // spans and phase histograms from the final iterations.
    sim::Engine& engine = cluster.engine;
    engine.attach_sinks(bench::obs_trace_sink(), bench::obs_metrics_sink());
    hpcm::MigrationEngine middleware{cluster.mpi};
    auto app = [](mpi::Proc& proc, hpcm::MigrationContext& ctx) -> sim::Task<> {
      std::int64_t i = ctx.restored() ? *ctx.state().get_int("i") : 0;
      ctx.on_save([&ctx, &i] {
        ctx.state().set_int("i", i);
        ctx.state().set_opaque("heap", 10u << 20);
      });
      for (; i < 30; ++i) {
        co_await ctx.poll_point();
        co_await proc.compute(1.0);
      }
    };
    hpcm::ApplicationSchema schema{"bench"};
    const auto id = middleware.launch("ws1", app, "bench", schema);
    engine.schedule_at(5.0, [&middleware, id] {
      middleware.request_migration(id, "ws2");
    });
    cluster.run_to_completion();
    if (middleware.history().empty() ||
        !middleware.history().front().succeeded) {
      state.SkipWithError("migration did not complete");
      break;
    }
  }
}
BENCHMARK(BM_FullMigration);

void BM_FullMigrationLargeState(benchmark::State& state) {
  // Simulated freeze window (seconds the application is stopped) for one
  // migration of a large block-structured state: Arg(0) = stop-and-copy,
  // Arg(1) = iterative pre-copy.  Manual time is *simulated* seconds, so
  // the numbers — and the precopy_freeze_reduction ratio derived from them
  // — are stable across machines.  --state-mb=N overrides the default
  // 8 MiB state (the pinned baseline configuration).
  const bool precopy = state.range(0) != 0;
  const int state_mb =
      bench::bench_state_mb() > 0 ? bench::bench_state_mb() : 8;
  const int blocks = state_mb * 4;             // 256 KiB blocks
  constexpr int kBlockDoubles = 32 * 1024;     // 256 KiB of doubles
  for (auto _ : state) {
    Cluster cluster{2};
    hpcm::MigrationEngine::Options options;
    options.precopy = precopy;
    hpcm::MigrationEngine middleware{cluster.mpi, options};
    auto app = [blocks](mpi::Proc& proc,
                        hpcm::MigrationContext& ctx) -> sim::Task<> {
      std::int64_t i = ctx.restored() ? *ctx.state().get_int("i") : 0;
      std::vector<std::vector<double>> data(
          static_cast<std::size_t>(blocks),
          std::vector<double>(kBlockDoubles, 0.0));
      if (ctx.restored()) {
        for (int b = 0; b < blocks; ++b) {
          data[static_cast<std::size_t>(b)] =
              *ctx.state().get_doubles("block" + std::to_string(b));
        }
      }
      ctx.on_save([&ctx, &i, &data, blocks] {
        ctx.state().set_int("i", i);
        for (int b = 0; b < blocks; ++b) {
          ctx.state().set_doubles("block" + std::to_string(b),
                                  data[static_cast<std::size_t>(b)]);
        }
      });
      for (; i < 30; ++i) {
        co_await ctx.poll_point();
        co_await proc.compute(1.0);
        // One block rewritten per iteration: the write set pre-copy chases.
        data[static_cast<std::size_t>(i) %
             static_cast<std::size_t>(blocks)][0] += 1.0;
      }
    };
    hpcm::ApplicationSchema schema{"bench"};
    const auto id = middleware.launch("ws1", app, "bench", schema);
    cluster.engine.schedule_at(5.0, [&middleware, id] {
      middleware.request_migration(id, "ws2");
    });
    cluster.run_to_completion();
    if (middleware.history().empty() ||
        !middleware.history().front().succeeded) {
      state.SkipWithError("migration did not complete");
      break;
    }
    state.SetIterationTime(middleware.history().front().freeze_window());
  }
}
BENCHMARK(BM_FullMigrationLargeState)->Arg(0)->Arg(1)->UseManualTime();

}  // namespace

ARS_BENCH_MAIN();
