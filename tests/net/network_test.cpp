#include "ars/net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "ars/net/commhog.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/support/log.hpp"
#include "ars/support/rng.hpp"

namespace ars::net {
namespace {

using sim::Engine;
using sim::Fiber;
using sim::Task;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(engine_, make_options()) {
    for (const char* name : {"ws1", "ws2", "ws3"}) {
      host::HostSpec spec;
      spec.name = name;
      hosts_.push_back(std::make_unique<host::Host>(engine_, spec));
      net_.attach(*hosts_.back());
    }
  }

  static Network::Options make_options() {
    Network::Options options;
    options.latency = 0.001;
    options.bandwidth_bps = 1000.0;  // round numbers for exact assertions
    options.message_overhead = 0;
    return options;
  }

  Engine engine_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  Network net_;
};

Task<> do_transfer(Network& net, std::string src, std::string dst,
                   double bytes, double* elapsed) {
  *elapsed = co_await net.transfer(std::move(src), std::move(dst), bytes);
}

TEST_F(NetworkTest, SingleTransferUsesFullBandwidth) {
  double elapsed = -1.0;
  Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws2", 2000.0, &elapsed));
  engine_.run_until(1000.0);
  EXPECT_NEAR(elapsed, 0.001 + 2.0, 1e-9);
}

TEST_F(NetworkTest, LoopbackCostsOnlyLatency) {
  double elapsed = -1.0;
  Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws1", 1.0e9, &elapsed));
  engine_.run_until(1000.0);
  EXPECT_NEAR(elapsed, 0.001, 1e-9);
}

TEST_F(NetworkTest, SharedSourceNicHalvesRates) {
  double elapsed_a = -1.0;
  double elapsed_b = -1.0;
  Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws2", 1000.0, &elapsed_a));
  Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws3", 1000.0, &elapsed_b));
  engine_.run_until(1000.0);
  // Both share ws1's TX: each runs at 500 B/s for 2 s.
  EXPECT_NEAR(elapsed_a, 0.001 + 2.0, 1e-6);
  EXPECT_NEAR(elapsed_b, 0.001 + 2.0, 1e-6);
}

TEST_F(NetworkTest, DistinctPathsDoNotInterfere) {
  double elapsed_a = -1.0;
  double elapsed_b = -1.0;
  Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws2", 1000.0, &elapsed_a));
  Fiber::spawn(engine_, do_transfer(net_, "ws3", "ws1", 1000.0, &elapsed_b));
  engine_.run_until(1000.0);
  // ws1 TX and ws1 RX are independent (full duplex).
  EXPECT_NEAR(elapsed_a, 0.001 + 1.0, 1e-6);
  EXPECT_NEAR(elapsed_b, 0.001 + 1.0, 1e-6);
}

TEST_F(NetworkTest, LateArrivalSlowsExistingTransfer) {
  double elapsed_a = -1.0;
  double elapsed_b = -1.0;
  Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws2", 2000.0, &elapsed_a));
  engine_.schedule_at(1.001, [&] {
    Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws3", 500.0, &elapsed_b));
  });
  engine_.run_until(1000.0);
  // A: 1000 B by t=1.001, then shares at 500 B/s for the rest.
  // B finishes 500 B at 500 B/s: elapsed = latency + 1.0.
  EXPECT_NEAR(elapsed_b, 0.001 + 1.0, 1e-6);
  // A: remaining 1000 B: 500 B shared (1 s), 500 B alone (0.5 s).
  EXPECT_NEAR(elapsed_a, 0.001 + 1.0 + 1.0 + 0.5, 1e-3);
}

TEST_F(NetworkTest, KilledTransferReleasesBandwidth) {
  double elapsed_a = -1.0;
  double elapsed_b = -1.0;
  Fiber victim =
      Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws2", 1.0e6, &elapsed_a));
  Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws3", 1000.0, &elapsed_b));
  engine_.schedule_at(1.001, [&] { victim.kill(); });
  engine_.run_until(1000.0);
  EXPECT_DOUBLE_EQ(elapsed_a, -1.0);
  // B: 500 B shared in the first second, remaining 500 B at full speed.
  EXPECT_NEAR(elapsed_b, 0.001 + 1.0 + 0.5, 1e-3);
  EXPECT_EQ(net_.active_transfers(), 0U);
}

TEST_F(NetworkTest, FlowMetersAccountTransferredBytes) {
  double elapsed = -1.0;
  Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws2", 2000.0, &elapsed));
  engine_.run_until(1000.0);
  EXPECT_NEAR(net_.tx_meter("ws1").total_bytes(), 2000.0, 1e-6);
  EXPECT_NEAR(net_.rx_meter("ws2").total_bytes(), 2000.0, 1e-6);
  EXPECT_NEAR(net_.tx_meter("ws2").total_bytes(), 0.0, 1e-9);
}

TEST_F(NetworkTest, RateQuerySeesLiveTransfer) {
  double elapsed = -1.0;
  Fiber fiber =
      Fiber::spawn(engine_, do_transfer(net_, "ws1", "ws2", 10000.0, &elapsed));
  engine_.run_until(5.0);
  // Mid-transfer at ~1000 B/s.
  EXPECT_NEAR(net_.tx_rate_bps("ws1", 2.0), 1000.0, 50.0);
  EXPECT_NEAR(net_.rx_rate_bps("ws2", 2.0), 1000.0, 50.0);
  fiber.kill();  // withdraw the transfer before the network is destroyed
}

TEST_F(NetworkTest, PostDeliversToBoundEndpoint) {
  Endpoint& endpoint = net_.bind("ws2", 5000);
  Message received;
  auto reader = [](Endpoint& ep, Message& out) -> Task<> {
    out = co_await ep.inbox.recv();
  };
  Fiber::spawn(engine_, reader(endpoint, received));
  Message msg;
  msg.src_host = "ws1";
  msg.dst_host = "ws2";
  msg.dst_port = 5000;
  msg.payload = "<hello/>";
  net_.post(msg);
  engine_.run_until(1000.0);
  EXPECT_EQ(received.payload, "<hello/>");
  EXPECT_EQ(received.src_host, "ws1");
  EXPECT_GT(received.delivered_at, 0.0);
}

TEST_F(NetworkTest, PostToUnboundPortIsDropped) {
  Message msg;
  msg.src_host = "ws1";
  msg.dst_host = "ws2";
  msg.dst_port = 9999;
  msg.payload = "x";
  net_.post(msg);
  engine_.run_until(1000.0);  // must not crash or leave dangling transfers
  EXPECT_EQ(net_.active_transfers(), 0U);
}

TEST_F(NetworkTest, DoubleBindThrows) {
  net_.bind("ws1", 5000);
  EXPECT_THROW(net_.bind("ws1", 5000), std::invalid_argument);
  net_.unbind("ws1", 5000);
  EXPECT_NO_THROW(net_.bind("ws1", 5000));
}

TEST_F(NetworkTest, BindUnknownHostThrows) {
  EXPECT_THROW(net_.bind("nosuch", 1), std::out_of_range);
}

TEST_F(NetworkTest, AllocatePortYieldsDistinctPorts) {
  const int a = net_.allocate_port("ws1");
  const int b = net_.allocate_port("ws1");
  EXPECT_NE(a, b);
}

TEST_F(NetworkTest, AttachAssignsDistinctIps) {
  EXPECT_EQ(net_.host_names().size(), 3U);
  host::HostSpec spec;
  spec.name = "ws1";
  host::Host duplicate{engine_, spec};
  EXPECT_THROW(net_.attach(duplicate), std::invalid_argument);
}

TEST(NetworkIds, AreDenseInAttachOrderWhileNamesStayInNameOrder) {
  Engine engine;
  std::vector<std::unique_ptr<host::Host>> hosts;
  Network net{engine};
  auto attach = [&](const char* name) {
    host::HostSpec spec;
    spec.name = name;
    hosts.push_back(std::make_unique<host::Host>(engine, spec));
    return net.attach(*hosts.back());
  };
  const std::vector<std::string> attach_order = {"ws3", "alpha", "ws10",
                                                 "ws1"};
  for (std::size_t i = 0; i < attach_order.size(); ++i) {
    EXPECT_EQ(attach(attach_order[i].c_str()), static_cast<HostId>(i));
  }
  for (std::size_t i = 0; i < attach_order.size(); ++i) {
    const auto id = static_cast<HostId>(i);
    EXPECT_EQ(net.id_of(attach_order[i]), id);
    EXPECT_EQ(&net.host(id), hosts[i].get());
    EXPECT_EQ(net.find_host(attach_order[i]), hosts[i].get());
  }
  const std::vector<std::string> name_order = {"alpha", "ws1", "ws10", "ws3"};
  EXPECT_EQ(net.host_names(), name_order);
  std::vector<std::string> indexed;
  for (const auto& [name, id] : net.host_index()) {
    indexed.push_back(name);
    EXPECT_EQ(net.host(id).name(), name);
  }
  EXPECT_EQ(indexed, name_order);

  EXPECT_EQ(net.find_id("nosuch"), std::nullopt);
  EXPECT_THROW((void)net.id_of("nosuch"), std::out_of_range);
  // A refused duplicate takes no id: the next host gets the next one.
  EXPECT_THROW(attach("ws10"), std::invalid_argument);
  EXPECT_EQ(attach("beta"), static_cast<HostId>(4));
  EXPECT_EQ(net.host_index().size(), 5U);
}

TEST_F(NetworkTest, RateReadsByIdAndByNameAreBitIdenticalInFlight) {
  double elapsed[3] = {-1.0, -1.0, -1.0};
  std::vector<Fiber> fibers;
  fibers.push_back(Fiber::spawn(
      engine_, do_transfer(net_, "ws1", "ws2", 10000.0, &elapsed[0])));
  fibers.push_back(Fiber::spawn(
      engine_, do_transfer(net_, "ws3", "ws2", 4000.0, &elapsed[1])));
  fibers.push_back(Fiber::spawn(
      engine_, do_transfer(net_, "ws2", "ws1", 2500.0, &elapsed[2])));
  int live_reads = 0;
  for (const double t : {0.3, 1.7, 2.45, 4.0, 6.2, 9.9}) {
    engine_.run_until(t);
    EXPECT_GT(net_.active_transfers(), 0U) << "at t=" << t;
    for (const char* name : {"ws1", "ws2", "ws3"}) {
      const HostId id = net_.id_of(name);
      for (const double window : {0.25, 2.0, 10.0}) {
        const double tx = net_.tx_rate_bps(id, window);
        const double rx = net_.rx_rate_bps(id, window);
        EXPECT_EQ(tx, net_.tx_rate_bps(name, window)) << name << " t=" << t;
        EXPECT_EQ(rx, net_.rx_rate_bps(name, window)) << name << " t=" << t;
        live_reads += (tx > 0.0 ? 1 : 0) + (rx > 0.0 ? 1 : 0);
      }
    }
  }
  EXPECT_GT(live_reads, 20);
  for (Fiber& fiber : fibers) {
    fiber.kill();  // withdraw what is still in flight
  }
}

/// One datagram ws1 -> ws2:5000 on a fresh network, posted by ids or by
/// names; returns what the endpoint received.
Message post_once(bool by_ids) {
  Engine engine;
  std::vector<std::unique_ptr<host::Host>> hosts;
  Network::Options options;
  options.latency = 0.001;
  options.bandwidth_bps = 1000.0;
  Network net{engine, options};
  std::vector<HostId> ids;
  for (const char* name : {"ws1", "ws2"}) {
    host::HostSpec spec;
    spec.name = name;
    hosts.push_back(std::make_unique<host::Host>(engine, spec));
    ids.push_back(net.attach(*hosts.back()));
  }
  Endpoint& endpoint = net.bind("ws2", 5000);
  engine.run_until(2.5);  // post at a non-zero time
  Message msg;
  msg.dst_port = 5000;
  msg.payload = "<update>x</update>";
  if (by_ids) {
    net.post(ids[0], ids[1], msg);
  } else {
    msg.src_host = "ws1";
    msg.dst_host = "ws2";
    net.post(msg);
  }
  engine.run_until(100.0);
  std::optional<Message> received = endpoint.inbox.try_recv();
  EXPECT_TRUE(received.has_value());
  EXPECT_FALSE(endpoint.inbox.try_recv().has_value());
  return received.value_or(Message{});
}

TEST(NetworkIds, PostByIdsAndByNamesArriveAtTheSameTimeWithTheSameBytes) {
  const Message by_ids = post_once(true);
  const Message by_names = post_once(false);
  EXPECT_EQ(by_ids.src_host, "ws1");  // filled in from the ids
  EXPECT_EQ(by_ids.dst_host, "ws2");
  EXPECT_EQ(by_ids.src_host, by_names.src_host);
  EXPECT_EQ(by_ids.dst_host, by_names.dst_host);
  EXPECT_EQ(by_ids.dst_port, by_names.dst_port);
  EXPECT_EQ(by_ids.payload, by_names.payload);
  EXPECT_EQ(by_ids.size_bytes, by_names.size_bytes);
  EXPECT_EQ(by_ids.sent_at, by_names.sent_at);
  EXPECT_EQ(by_ids.delivered_at, by_names.delivered_at);
  // 18 payload + 64 overhead bytes at 1000 B/s, after the latency.
  EXPECT_EQ(by_ids.size_bytes, 82U);
  EXPECT_DOUBLE_EQ(by_ids.sent_at, 2.5);
  EXPECT_NEAR(by_ids.delivered_at, 2.5 + 0.001 + 0.082, 1e-9);
}

TEST(NetworkIds, DropsAreStillCountedByReason) {
  Engine engine;
  std::vector<std::unique_ptr<host::Host>> hosts;
  obs::MetricsRegistry metrics;
  engine.attach_sinks(nullptr, &metrics);
  Network net{engine};
  std::vector<HostId> ids;
  for (const char* name : {"ws1", "ws2"}) {
    host::HostSpec spec;
    spec.name = name;
    hosts.push_back(std::make_unique<host::Host>(engine, spec));
    ids.push_back(net.attach(*hosts.back()));
  }
  auto by_name = [](const char* dst, int port) {
    Message msg;
    msg.src_host = "ws1";
    msg.dst_host = dst;
    msg.dst_port = port;
    msg.payload = "x";
    return msg;
  };
  net.post(by_name("nosuch", 5000));  // unknown destination
  net.post(by_name("ws2", 9999));     // unbound port, by name
  Message unbound;
  unbound.dst_port = 9999;
  net.post(ids[0], ids[1], unbound);  // unbound port, by ids
  // A destination attached here needs a source attached here too.
  Message ghost = by_name("ws2", 9999);
  ghost.src_host = "ghost";
  EXPECT_THROW(net.post(ghost), std::out_of_range);
  engine.run_until(100.0);

  auto dropped = [&](const char* reason) {
    const obs::Counter* counter =
        metrics.find_counter("ars_net_dropped_total", {{"reason", reason}});
    return counter == nullptr ? 0.0 : counter->value();
  };
  EXPECT_EQ(dropped("unknown_host"), 1.0);
  EXPECT_EQ(dropped("unbound_port"), 2.0);
  EXPECT_EQ(dropped("fault"), 0.0);
  EXPECT_EQ(net.dropped_count("ws1"), 3U);
  EXPECT_EQ(net.dropped_count("ws2"), 0U);
  EXPECT_EQ(net.dropped_total(), 3U);
  EXPECT_EQ(net.active_transfers(), 0U);
}

// A dropped datagram is counted, never logged: the labeled counter and the
// per-poster count are its one record, so the drop path stays clear of the
// global logger's mutex even at kWarn, which every shard thread shares.
TEST(NetworkIds, DropsAreCountedWithoutALogRecord) {
  struct DropAll final : FaultPolicy {
    PostVerdict on_post(const Message&) override { return {.drop = true}; }
    double bandwidth_factor(const std::string&, const std::string&) override {
      return 1.0;
    }
  };
  support::Logger& logger = support::Logger::global();
  const support::LogLevel saved_level = logger.level();
  logger.set_level(support::LogLevel::kWarn);
  int records = 0;
  logger.set_sink([&records](support::LogLevel, std::string_view,
                             std::string_view, double) { ++records; });

  Engine engine;
  obs::MetricsRegistry metrics;
  engine.attach_sinks(nullptr, &metrics);
  Network net{engine};
  std::vector<std::unique_ptr<host::Host>> hosts;
  for (const char* name : {"ws1", "ws2"}) {
    host::HostSpec spec;
    spec.name = name;
    hosts.push_back(std::make_unique<host::Host>(engine, spec));
    net.attach(*hosts.back());
  }
  auto to = [](const char* dst) {
    Message msg;
    msg.src_host = "ws1";
    msg.dst_host = dst;
    msg.dst_port = 9999;
    return msg;
  };
  net.post(to("nosuch"));  // unknown_host
  net.post(to("ws2"));     // unbound_port
  DropAll drop_all;
  net.set_fault_policy(&drop_all);
  net.post(to("ws2"));  // fault
  net.set_fault_policy(nullptr);
  engine.run_until(10.0);
  logger.set_sink(nullptr);
  logger.set_level(saved_level);

  for (const char* reason : {"unknown_host", "unbound_port", "fault"}) {
    const obs::Counter* counter =
        metrics.find_counter("ars_net_dropped_total", {{"reason", reason}});
    ASSERT_NE(counter, nullptr) << reason;
    EXPECT_EQ(counter->value(), 1.0) << reason;
  }
  EXPECT_EQ(net.dropped_count("ws1"), 3U);
  EXPECT_EQ(net.dropped_total(), 3U);
  EXPECT_EQ(records, 0);
}

TEST(FlowMeter, WindowOverlapIsProportional) {
  FlowMeter meter;
  meter.add(0.0, 10.0, 1000.0);
  EXPECT_DOUBLE_EQ(meter.bytes_between(0.0, 10.0), 1000.0);
  EXPECT_DOUBLE_EQ(meter.bytes_between(0.0, 5.0), 500.0);
  EXPECT_DOUBLE_EQ(meter.bytes_between(9.0, 20.0), 100.0);
  EXPECT_DOUBLE_EQ(meter.bytes_between(10.0, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(meter.rate_bps(10.0, 10.0), 100.0);
}

TEST(FlowMeter, InstantBurstCounting) {
  FlowMeter meter;
  meter.add(5.0, 5.0, 42.0);
  EXPECT_DOUBLE_EQ(meter.bytes_between(0.0, 10.0), 42.0);
  EXPECT_DOUBLE_EQ(meter.bytes_between(6.0, 10.0), 0.0);
}

TEST(FlowMeter, ZeroOrNegativeBytesIgnored) {
  FlowMeter meter;
  meter.add(0.0, 1.0, 0.0);
  meter.add(0.0, 1.0, -5.0);
  EXPECT_DOUBLE_EQ(meter.total_bytes(), 0.0);
}

struct Accrual {
  double begin;
  double end;
  double bytes;
};

/// The windowed read as a scan of every segment ever added, in order.
double scan_bytes(const std::vector<Accrual>& all, double t0, double t1) {
  double bytes = 0.0;
  for (const Accrual& a : all) {
    if (a.end <= a.begin) {
      if (a.begin >= t0 && a.begin <= t1) {
        bytes += a.bytes;
      }
      continue;
    }
    const double overlap = std::min(a.end, t1) - std::max(a.begin, t0);
    if (overlap > 0.0) {
      bytes += a.bytes * overlap / (a.end - a.begin);
    }
  }
  return bytes;
}

TEST(FlowMeter, EmptyMeterReadsZero) {
  const FlowMeter meter;
  EXPECT_EQ(meter.bytes_between(0.0, 10.0), 0.0);
  EXPECT_EQ(meter.bytes_between(5.0, 5.0), 0.0);
  EXPECT_EQ(meter.rate_bps(10.0, 100.0), 0.0);
}

// A windowed read starts at the first segment ending at or after the
// window, so it must equal a scan of all segments bit for bit: on a seeded
// random stream of spans and bursts with non-decreasing ends (times on a
// quarter-second grid, so windows hit segment edges exactly), before and
// after the meter has pruned segments older than its hour of retention.
TEST(FlowMeter, WindowedReadsEqualAFullScan) {
  support::Rng rng{23};
  support::Rng windows{5};
  FlowMeter meter;
  std::vector<Accrual> all;
  double clock = 0.0;
  int burst_edges = 0;
  int span_edges = 0;
  int early_ends = 0;
  // Checks every kind of window against the scan; windows start no earlier
  // than `oldest`, inside what the meter still holds.
  const auto check = [&](double oldest) {
    const double newest = all.back().end;
    for (const Accrual& a : all) {
      if (a.end < oldest || windows.uniform() > 0.1) {
        continue;
      }
      // A burst on the window's left edge counts; a span ending there adds
      // nothing.
      const double t0 = a.end;
      ++(a.end == a.begin ? burst_edges : span_edges);
      for (const double t1 : {t0, t0 + 0.25, t0 + 10.0, newest}) {
        EXPECT_EQ(meter.bytes_between(t0, t1), scan_bytes(all, t0, t1))
            << "[" << t0 << ", " << t1 << "]";
        early_ends += t1 < newest ? 1 : 0;
      }
    }
    for (int i = 0; i < 50; ++i) {
      const double t0 = windows.uniform(oldest + 10.0, newest + 1.0);
      const double t1 = t0 + windows.uniform(0.0, 60.0);
      EXPECT_EQ(meter.bytes_between(t0, t1), scan_bytes(all, t0, t1))
          << "[" << t0 << ", " << t1 << "]";
      EXPECT_EQ(meter.rate_bps(10.0, t1),
                scan_bytes(all, t1 - 10.0, t1) / 10.0);
    }
  };
  for (int i = 0; i < 12000; ++i) {
    clock += 0.25 * static_cast<double>(rng.uniform_int(0, 4));
    const bool burst = rng.uniform_int(0, 3) == 0;
    const double length =
        burst ? 0.0 : 0.25 * static_cast<double>(rng.uniform_int(1, 16));
    const double begin = clock - length;
    const double bytes = rng.uniform(1.0, 1000.0);
    meter.add(begin, clock, bytes);
    all.push_back(Accrual{begin, clock, bytes});
    if (i == 200) {
      check(0.0);  // nothing pruned yet
    }
  }
  ASSERT_GT(clock, 5000.0);
  // The hour behind the newest segment is still held; the rest is pruned.
  check(clock - 3600.0);
  EXPECT_LT(meter.bytes_between(0.0, clock), scan_bytes(all, 0.0, clock));
  EXPECT_GT(burst_edges, 50);
  EXPECT_GT(span_edges, 50);
  EXPECT_GT(early_ends, 50);
}

class CommHogTest : public NetworkTest {};

TEST_F(CommHogTest, SustainsTargetRate) {
  CommHog::Options options;
  options.src = "ws1";
  options.dst = "ws2";
  options.rate_bps = 200.0;  // well under the 1000 B/s NIC
  options.period = 1.0;
  options.bidirectional = false;
  CommHog hog{net_, options};
  hog.start();
  engine_.run_until(100.0);
  EXPECT_NEAR(net_.tx_meter("ws1").total_bytes() / 100.0, 200.0, 20.0);
  hog.stop();
  const double frozen = net_.tx_meter("ws1").total_bytes();
  engine_.run_until(150.0);
  EXPECT_DOUBLE_EQ(net_.tx_meter("ws1").total_bytes(), frozen);
}

TEST_F(CommHogTest, BidirectionalAdjustsSockets) {
  CommHog::Options options;
  options.src = "ws1";
  options.dst = "ws2";
  options.rate_bps = 100.0;
  options.sockets = 2;
  CommHog hog{net_, options};
  hog.start();
  EXPECT_EQ(hosts_[0]->established_sockets(), 2);
  EXPECT_EQ(hosts_[1]->established_sockets(), 2);
  engine_.run_until(10.0);
  EXPECT_GT(net_.rx_meter("ws1").total_bytes(), 0.0);  // reverse direction
  hog.stop();
  EXPECT_EQ(hosts_[0]->established_sockets(), 0);
}

}  // namespace
}  // namespace ars::net
