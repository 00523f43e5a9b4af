// Drop accounting and the FaultPolicy hook on net::Network: every datagram
// the network abandons is counted (total, per source host, and as a labeled
// obs counter), and an installed policy can drop, duplicate, delay, and
// throttle traffic.

#include <gtest/gtest.h>

#include "ars/net/network.hpp"
#include "ars/obs/metrics.hpp"

namespace ars::net {
namespace {

using sim::Engine;
using sim::Fiber;
using sim::Task;

class NetFaultsTest : public ::testing::Test {
 protected:
  NetFaultsTest() : net_(engine_, make_options()) {
    engine_.attach_sinks(nullptr, &metrics_);
    for (const char* name : {"ws1", "ws2"}) {
      host::HostSpec spec;
      spec.name = name;
      hosts_.push_back(std::make_unique<host::Host>(engine_, spec));
      net_.attach(*hosts_.back());
    }
    inbox_ = &net_.bind("ws2", 7000);
  }

  static Network::Options make_options() {
    Network::Options options;
    options.latency = 0.001;
    options.bandwidth_bps = 1000.0;
    options.message_overhead = 0;
    return options;
  }

  void post(const std::string& dst_host, int port,
            const std::string& payload = "x") {
    Message wire;
    wire.src_host = "ws1";
    wire.dst_host = dst_host;
    wire.dst_port = port;
    wire.payload = payload;
    net_.post(std::move(wire));
  }

  int drain() {
    int received = 0;
    while (inbox_->inbox.try_recv()) {
      ++received;
    }
    return received;
  }

  Engine engine_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  Network net_;
  Endpoint* inbox_ = nullptr;
};

/// Scriptable policy for the tests.
struct ScriptedPolicy final : FaultPolicy {
  PostVerdict verdict;
  double factor = 1.0;
  int posts_seen = 0;

  PostVerdict on_post(const Message&) override {
    ++posts_seen;
    return verdict;
  }
  double bandwidth_factor(const std::string&, const std::string&) override {
    return factor;
  }
};

TEST_F(NetFaultsTest, UnknownHostAndUnboundPortAreCounted) {
  post("nowhere", 7000);  // unknown destination host
  post("ws2", 9999);      // known host, nothing bound
  engine_.run_until(10.0);

  EXPECT_EQ(net_.dropped_total(), 2u);
  EXPECT_EQ(net_.dropped_count("ws1"), 2u);  // attributed to the source
  EXPECT_EQ(net_.dropped_count("ws2"), 0u);
  const obs::Counter* unknown = metrics_.find_counter(
      "ars_net_dropped_total", {{"reason", "unknown_host"}});
  ASSERT_NE(unknown, nullptr);
  EXPECT_DOUBLE_EQ(unknown->value(), 1.0);
  const obs::Counter* unbound = metrics_.find_counter(
      "ars_net_dropped_total", {{"reason", "unbound_port"}});
  ASSERT_NE(unbound, nullptr);
  EXPECT_DOUBLE_EQ(unbound->value(), 1.0);
}

TEST_F(NetFaultsTest, PolicyDropIsCountedWithFaultReason) {
  ScriptedPolicy policy;
  policy.verdict.drop = true;
  net_.set_fault_policy(&policy);
  post("ws2", 7000);
  engine_.run_until(10.0);

  EXPECT_EQ(drain(), 0);
  EXPECT_EQ(policy.posts_seen, 1);
  EXPECT_EQ(net_.dropped_total(), 1u);
  const obs::Counter* fault = metrics_.find_counter("ars_net_dropped_total",
                                                    {{"reason", "fault"}});
  ASSERT_NE(fault, nullptr);
  EXPECT_DOUBLE_EQ(fault->value(), 1.0);
  net_.set_fault_policy(nullptr);
}

TEST_F(NetFaultsTest, PolicyDuplicatesDeliverExtraCopies) {
  ScriptedPolicy policy;
  policy.verdict.duplicates = 2;
  net_.set_fault_policy(&policy);
  post("ws2", 7000);
  engine_.run_until(10.0);

  EXPECT_EQ(drain(), 3);  // the original plus two copies
  EXPECT_EQ(net_.dropped_total(), 0u);
  net_.set_fault_policy(nullptr);
}

TEST_F(NetFaultsTest, PolicyDelayHoldsTheMessage) {
  ScriptedPolicy policy;
  policy.verdict.extra_delay = 5.0;
  net_.set_fault_policy(&policy);
  post("ws2", 7000);
  engine_.run_until(4.9);
  EXPECT_EQ(drain(), 0);  // still held
  engine_.run_until(10.0);
  EXPECT_EQ(drain(), 1);
  net_.set_fault_policy(nullptr);
}

TEST_F(NetFaultsTest, BandwidthFactorScalesTransferTime) {
  ScriptedPolicy policy;
  policy.factor = 0.5;
  net_.set_fault_policy(&policy);
  double elapsed = -1.0;
  Fiber::spawn(engine_,
               [](Network& net, double* out) -> Task<> {
                 *out = co_await net.transfer("ws1", "ws2", 1000.0);
               }(net_, &elapsed));
  engine_.run_until(100.0);
  // 1000 B at an effective 500 B/s.
  EXPECT_NEAR(elapsed, 0.001 + 2.0, 1e-6);
  net_.set_fault_policy(nullptr);
}

TEST_F(NetFaultsTest, ZeroFactorStallsUntilHeal) {
  ScriptedPolicy policy;
  policy.factor = 0.0;
  net_.set_fault_policy(&policy);
  double elapsed = -1.0;
  Fiber::spawn(engine_,
               [](Network& net, double* out) -> Task<> {
                 *out = co_await net.transfer("ws1", "ws2", 1000.0);
               }(net_, &elapsed));
  engine_.run_until(50.0);
  EXPECT_DOUBLE_EQ(elapsed, -1.0);  // fully stalled
  // Heal: restore the link and re-rate in-flight transfers.
  policy.factor = 1.0;
  net_.on_fault_change();
  engine_.run_until(100.0);
  EXPECT_NEAR(elapsed, 50.0 + 1.0, 1e-6);
  net_.set_fault_policy(nullptr);
}

}  // namespace
}  // namespace ars::net
