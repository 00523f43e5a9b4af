// Micro benchmarks (google-benchmark) for the design choices DESIGN.md
// calls out: event-queue throughput (DES choice), rule evaluation cost
// (rule-based monitoring must be "very light-weighted"), XML codec cost
// (the control plane's wire format), and state-registry serialization
// (migration data collection).

#include <benchmark/benchmark.h>

#include "common.hpp"

#include "ars/hpcm/stateregistry.hpp"
#include "ars/rules/engine.hpp"
#include "ars/rules/rulefile.hpp"
#include "ars/sim/engine.hpp"
#include "ars/sim/task.hpp"
#include "ars/xmlproto/messages.hpp"

namespace {

using namespace ars;

/// Bench-level telemetry for the uniform --trace-out/--metrics-out export:
/// one instant per benchmark case plus an iteration counter.  The sinks are
/// nullptr unless an export was requested, so measured numbers are
/// undisturbed.  (Nothing here takes an obs::Tracer — these are codec and
/// event-queue micro benches — hence the harness-side telemetry.)
void note_case(benchmark::State& state, const char* name) {
  if (auto* metrics = bench::obs_metrics_sink()) {
    metrics->counter("bench.iterations", {{"bench", name}})
        .inc(static_cast<double>(state.iterations()));
  }
  if (auto* tracer = bench::obs_trace_sink()) {
    tracer->instant("bench.case", "bench", name);
  }
}

void BM_EngineScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * events);
  note_case(state, "BM_EngineScheduleRun");
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000);

// Steady state: a long-lived engine whose slot pool and timestamp index are
// warm — the zero-allocation regime the alloc-counter test pins down.
void BM_EngineSteadyState(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::Engine engine;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      engine.schedule_after(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  note_case(state, "BM_EngineSteadyState");
}
BENCHMARK(BM_EngineSteadyState)->Arg(1000);

// O(1) handle cancellation: half the scheduled events are cancelled before
// the run drains the rest (timer-heavy workloads cancel most timeouts).
void BM_EngineCancelHalf(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::vector<sim::Engine::EventHandle> handles(events);
  sim::Engine engine;
  for (auto _ : state) {
    for (int i = 0; i < events; ++i) {
      handles[i] =
          engine.schedule_after(static_cast<double>(i % 97), [] {});
    }
    for (int i = 0; i < events; i += 2) {
      handles[i].cancel();
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * events);
  note_case(state, "BM_EngineCancelHalf");
}
BENCHMARK(BM_EngineCancelHalf)->Arg(1000);

void BM_FiberSpawnResume(benchmark::State& state) {
  const int fibers = static_cast<int>(state.range(0));
  auto body = [](sim::Engine& engine) -> sim::Task<> {
    co_await sim::delay(engine, 1.0);
  };
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < fibers; ++i) {
      sim::Fiber::spawn(engine, body(engine));
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * fibers);
  note_case(state, "BM_FiberSpawnResume");
}
BENCHMARK(BM_FiberSpawnResume)->Arg(100)->Arg(1000);

void BM_SimpleRuleEvaluation(benchmark::State& state) {
  auto engine = rules::RuleEngine::from_text(rules::paper_figure3_text());
  rules::MapSensorSource sensors;
  sensors.set("processorStatus.sh", 47.0);
  sensors.set("ntStatIpv4.sh", "ESTABLISHED", 800.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->evaluate_all(sensors));
  }
  note_case(state, "BM_SimpleRuleEvaluation");
}
BENCHMARK(BM_SimpleRuleEvaluation);

void BM_ComplexRuleEvaluation(benchmark::State& state) {
  const std::string text =
      "rl_number: 1\nrl_name: a\nrl_type: simple\nrl_script: s1\n"
      "rl_operator: >\nrl_busy: 1\nrl_overLd: 2\n"
      "rl_number: 2\nrl_name: b\nrl_type: simple\nrl_script: s2\n"
      "rl_operator: >\nrl_busy: 1\nrl_overLd: 2\n"
      "rl_number: 3\nrl_name: c\nrl_type: simple\nrl_script: s3\n"
      "rl_operator: >\nrl_busy: 1\nrl_overLd: 2\n"
      "rl_number: 4\nrl_name: d\nrl_type: simple\nrl_script: s4\n"
      "rl_operator: >\nrl_busy: 1\nrl_overLd: 2\n" +
      rules::paper_figure4_text();
  auto engine = rules::RuleEngine::from_text(text);
  rules::MapSensorSource sensors;
  for (const char* s : {"s1", "s2", "s3", "s4"}) {
    sensors.set(s, 1.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->evaluate(5, sensors));
  }
  note_case(state, "BM_ComplexRuleEvaluation");
}
BENCHMARK(BM_ComplexRuleEvaluation);

void BM_RuleFileParse(benchmark::State& state) {
  const std::string text = rules::paper_figure3_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rules::parse_rule_file(text));
  }
  state.SetBytesProcessed(state.iterations() * text.size());
  note_case(state, "BM_RuleFileParse");
}
BENCHMARK(BM_RuleFileParse);

xmlproto::UpdateMsg sample_update() {
  xmlproto::UpdateMsg m;
  m.status.host = "ws1";
  m.status.state = "busy";
  m.status.load1 = 0.97;
  m.status.load5 = 0.64;
  m.status.cpu_util = 0.42;
  m.status.processes = 84;
  m.status.mem_available_pct = 61.2;
  m.status.disk_available = 1234567890;
  m.status.net_in_bps = 5990.0;
  m.status.net_out_bps = 5820.0;
  m.status.sockets_established = 14;
  m.status.timestamp = 280.0;
  return m;
}

void BM_XmlEncodeHeartbeat(benchmark::State& state) {
  const xmlproto::ProtocolMessage message{sample_update()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(xmlproto::encode(message));
  }
  note_case(state, "BM_XmlEncodeHeartbeat");
}
BENCHMARK(BM_XmlEncodeHeartbeat);

void BM_XmlDecodeHeartbeat(benchmark::State& state) {
  const std::string wire = xmlproto::encode(sample_update());
  for (auto _ : state) {
    benchmark::DoNotOptimize(xmlproto::decode(wire));
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
  note_case(state, "BM_XmlDecodeHeartbeat");
}
BENCHMARK(BM_XmlDecodeHeartbeat);

// A one-renewal batch: the lease refresh a monitor sends while its host's
// state holds, and most of a large cluster's heartbeat traffic.
xmlproto::UpdateBatchMsg sample_renewal() {
  xmlproto::UpdateBatchMsg m;
  m.renewals.push_back({"ws1", "busy", 280.0});
  return m;
}

void BM_XmlEncodeRenewal(benchmark::State& state) {
  const xmlproto::ProtocolMessage message{sample_renewal()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(xmlproto::encode(message));
  }
  note_case(state, "BM_XmlEncodeRenewal");
}
BENCHMARK(BM_XmlEncodeRenewal);

void BM_XmlDecodeRenewal(benchmark::State& state) {
  const std::string wire = xmlproto::encode(sample_renewal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(xmlproto::decode(wire));
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
  note_case(state, "BM_XmlDecodeRenewal");
}
BENCHMARK(BM_XmlDecodeRenewal);

void BM_StateRegistryEncode(benchmark::State& state) {
  const std::size_t doubles = static_cast<std::size_t>(state.range(0));
  hpcm::StateRegistry reg;
  reg.set_int("phase", 2);
  reg.set_double("progress", 0.5);
  reg.set_doubles("values", std::vector<double>(doubles, 1.5));
  reg.set_opaque("heap", 50u << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.encode());
  }
  state.SetBytesProcessed(state.iterations() * doubles * 8);
  note_case(state, "BM_StateRegistryEncode");
}
BENCHMARK(BM_StateRegistryEncode)->Arg(1024)->Arg(65536);

void BM_StateRegistryDecode(benchmark::State& state) {
  const std::size_t doubles = static_cast<std::size_t>(state.range(0));
  hpcm::StateRegistry reg;
  reg.set_doubles("values", std::vector<double>(doubles, 1.5));
  const auto wire = reg.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hpcm::StateRegistry::decode(wire));
  }
  state.SetBytesProcessed(state.iterations() * wire.size());
  note_case(state, "BM_StateRegistryDecode");
}
BENCHMARK(BM_StateRegistryDecode)->Arg(1024)->Arg(65536);

}  // namespace

ARS_BENCH_MAIN();
