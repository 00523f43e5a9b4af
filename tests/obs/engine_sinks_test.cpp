// The engine carries the observability sinks of everything simulated on it.
// A network, a registry, monitors and commanders built with default configs
// (nothing in them names a sink) on an engine with a tracer and a metrics
// registry attached record into those; on an engine with nothing attached
// the same run records nothing and still migrates.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ars/commander/commander.hpp"
#include "ars/host/hog.hpp"
#include "ars/hpcm/migration.hpp"
#include "ars/monitor/monitor.hpp"
#include "ars/net/network.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/registry/registry.hpp"
#include "ars/rules/policy.hpp"

namespace ars {
namespace {

using commander::Commander;
using monitor::Monitor;

/// A registry on "hub" and a commander and a monitor on each workstation,
/// composed by hand.  A migratable loop runs on ws1, which a CPU hog
/// overloads at t = 5: its monitor consults, the registry decides, and
/// ws1's commander signals the loop to move to ws2.
struct World {
  World(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    engine.attach_sinks(tracer, metrics);
    net = std::make_unique<net::Network>(engine);
    for (const char* name : {"hub", "ws1", "ws2"}) {
      host::HostSpec spec;
      spec.name = name;
      hosts.push_back(std::make_unique<host::Host>(engine, spec));
      net->attach(*hosts.back());
    }
    mpi = std::make_unique<mpi::MpiSystem>(engine, *net);
    hpcm = std::make_unique<hpcm::MigrationEngine>(*mpi);
    const rules::MigrationPolicy policy = rules::paper_policy2();
    registry::Registry::Config config;
    config.policy = policy;
    registry = std::make_unique<registry::Registry>(*hosts[0], *net, config);
    registry->start();
    for (std::size_t i = 1; i < hosts.size(); ++i) {
      host::Host& h = *hosts[i];
      Commander::Config acks;  // where the commander's acks go
      acks.registry_host = "hub";
      acks.registry_port = registry->port();
      commanders.push_back(std::make_unique<Commander>(h, *net, *hpcm, acks));
      commanders.back()->start();
      Monitor::Config watch;
      watch.registry_host = "hub";
      watch.registry_port = registry->port();
      watch.commander_port = commanders.back()->port();
      watch.policy = policy;
      watch.classifier = monitor::classifier_from_policy(policy);
      monitors.push_back(std::make_unique<Monitor>(h, *net, watch));
      monitors.back()->start();
    }
    const hpcm::ApplicationSchema schema{"loop"};
    registry->register_schema(schema);
    hpcm->launch("ws1", loop(), "loop", schema);
    host::CpuHog::Options overload;
    overload.threads = 3;
    hog = std::make_unique<host::CpuHog>(*hosts[1], overload);
    engine.schedule_at(5.0, [this] { hog->start(); });
  }

  ~World() {
    hog->stop();
    for (auto& m : monitors) {
      m->stop();
    }
    for (auto& c : commanders) {
      c->stop();
    }
    registry->stop();
  }

  static hpcm::MigrationEngine::MigratableApp loop() {
    return [](mpi::Proc& proc, hpcm::MigrationContext& ctx) -> sim::Task<> {
      std::int64_t i = ctx.restored() ? *ctx.state().get_int("i") : 0;
      ctx.on_save([&ctx, &i] { ctx.state().set_int("i", i); });
      for (; i < 400; ++i) {
        co_await ctx.poll_point();
        co_await proc.compute(1.0);
      }
    };
  }

  /// A datagram from ws2 to a port nothing on ws1 bound.
  void post_to_unbound_port() {
    net::Message message;
    message.src_host = "ws2";
    message.dst_host = "ws1";
    message.dst_port = 9999;
    message.payload = "x";
    net->post(std::move(message));
  }

  sim::Engine engine;
  std::vector<std::unique_ptr<host::Host>> hosts;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<mpi::MpiSystem> mpi;
  std::unique_ptr<hpcm::MigrationEngine> hpcm;
  std::unique_ptr<registry::Registry> registry;
  std::vector<std::unique_ptr<Commander>> commanders;
  std::vector<std::unique_ptr<Monitor>> monitors;
  std::unique_ptr<host::CpuHog> hog;
};

constexpr double kHorizon = 300.0;

bool traced(const obs::Tracer& tracer, const std::string& name,
            const std::string& category) {
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.name == name && event.category == category) {
      return true;
    }
  }
  return false;
}

bool has_series(const std::string& json, const std::string& prefix) {
  return json.find('"' + prefix) != std::string::npos;
}

TEST(EngineSinks, ComponentsRecordIntoTheSinksOfTheirEngine) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  {
    World world{&tracer, &metrics};
    world.post_to_unbound_port();
    world.engine.run_until(kHorizon);
    ASSERT_EQ(world.hpcm->history().size(), 1U);
  }
  EXPECT_TRUE(traced(tracer, "monitor.consult", "monitor"));
  EXPECT_TRUE(traced(tracer, "scheduler.decision", "scheduler"));
  EXPECT_TRUE(traced(tracer, "commander.signal", "commander"));
  EXPECT_TRUE(traced(tracer, "net.recv", "net"));
  EXPECT_TRUE(traced(tracer, "migration", "hpcm"));

  const std::string json = metrics.to_json();
  EXPECT_TRUE(has_series(json, "rules.")) << json;
  EXPECT_TRUE(has_series(json, "registry.")) << json;
  EXPECT_TRUE(has_series(json, "commander.")) << json;
  const obs::Counter* unbound = metrics.find_counter(
      "ars_net_dropped_total", {{"reason", "unbound_port"}});
  ASSERT_NE(unbound, nullptr);
  EXPECT_EQ(unbound->value(), 1.0);
}

TEST(EngineSinks, NothingAttachedRecordsNothing) {
  // Sinks that exist but hang off no engine: the dark run must not reach
  // them (nor crash on the missing ones) and still migrates the loop.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  World dark{nullptr, nullptr};
  dark.post_to_unbound_port();
  dark.engine.run_until(kHorizon);
  EXPECT_EQ(dark.engine.tracer(), nullptr);
  EXPECT_EQ(dark.engine.metrics(), nullptr);
  EXPECT_EQ(dark.net->dropped_total(), 1U);
  ASSERT_EQ(dark.hpcm->history().size(), 1U);
  EXPECT_EQ(dark.hpcm->history().front().destination, "ws2");
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(metrics.series_count(), 0U);
}

TEST(EngineSinks, AnAttachedTracerIsClockedByItsEngine) {
  sim::Engine engine;
  engine.run_until(5.0);
  obs::Tracer tracer;
  engine.attach_sinks(&tracer, nullptr);
  tracer.instant("probe", "test", "track");
  engine.schedule_at(7.0, [&] { tracer.instant("later", "test", "track"); });
  engine.run();
  ASSERT_EQ(tracer.events().size(), 2U);
  EXPECT_EQ(tracer.events()[0].t, 5.0);
  EXPECT_EQ(tracer.events()[1].t, 7.0);
}

}  // namespace
}  // namespace ars
