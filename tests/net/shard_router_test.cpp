// net::ShardRouter: a host's shard is the other shard whose network has it
// attached, and a cross-shard datagram pays exactly the group's lookahead.
// Part of the `sharding` binary, so the TSan and ASan jobs run it.

#include "ars/net/shard_router.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ars/obs/metrics.hpp"

namespace ars::net {
namespace {

constexpr double kFabric = 0.005;

/// Three shards with one network each: host "a" on shard 0, "b" on 1 and
/// "c" on 2, each with port 7000 bound.
struct ThreeShards {
  ThreeShards() {
    for (std::size_t shard = 0; shard < 3; ++shard) {
      group.engine(shard).attach_sinks(nullptr, &metrics[shard]);
      networks.push_back(std::make_unique<Network>(group.engine(shard)));
      host::HostSpec spec;
      spec.name = std::string(1, static_cast<char>('a' + shard));
      hosts.push_back(
          std::make_unique<host::Host>(group.engine(shard), spec));
      networks[shard]->attach(*hosts[shard]);
      inboxes.push_back(&networks[shard]->bind(spec.name, 7000));
      router.attach(shard, *networks[shard]);
    }
  }

  /// Post src -> dst:7000 from `src`'s shard at time `at`.
  void post_at(std::size_t shard, double at, const std::string& src,
               const std::string& dst) {
    Network* network = networks[shard].get();
    group.engine(shard).schedule_at(at, [network, src, dst] {
      Message message;
      message.src_host = src;
      message.dst_host = dst;
      message.dst_port = 7000;
      message.payload = src + "->" + dst;
      network->post(std::move(message));
    });
  }

  sim::ShardGroup group{3, {.lookahead = kFabric}};
  obs::MetricsRegistry metrics[3];
  std::vector<std::unique_ptr<host::Host>> hosts;
  std::vector<std::unique_ptr<Network>> networks;
  std::vector<Endpoint*> inboxes;
  ShardRouter router{group};
};

TEST(ShardRouter, FindsAHostOnlyOnTheOtherShardThatHoldsIt) {
  ThreeShards fabric;
  EXPECT_EQ(fabric.router.shard_of("c", 0), std::optional<std::size_t>(2));
  EXPECT_EQ(fabric.router.shard_of("a", 2), std::optional<std::size_t>(0));
  EXPECT_EQ(fabric.router.shard_of("a", 0), std::nullopt);  // own shard
  EXPECT_EQ(fabric.router.shard_of("nosuch", 0), std::nullopt);
}

TEST(ShardRouter, PostToAHostOnAnotherShardArrivesOneLookaheadLater) {
  ThreeShards fabric;
  fabric.post_at(0, 1.0, "a", "c");
  fabric.post_at(2, 1.25, "c", "b");
  fabric.group.run_until(2.0);

  const std::optional<Message> at_c = fabric.inboxes[2]->inbox.try_recv();
  ASSERT_TRUE(at_c.has_value());
  EXPECT_EQ(at_c->payload, "a->c");
  EXPECT_EQ(at_c->sent_at, 1.0);
  EXPECT_EQ(at_c->delivered_at, 1.0 + kFabric);
  const std::optional<Message> at_b = fabric.inboxes[1]->inbox.try_recv();
  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(at_b->payload, "c->b");
  EXPECT_EQ(at_b->delivered_at, 1.25 + kFabric);
  EXPECT_FALSE(fabric.inboxes[0]->inbox.try_recv().has_value());
  EXPECT_EQ(fabric.router.forwarded(), 2U);
  EXPECT_EQ(fabric.group.cross_events(), 2U);
}

TEST(ShardRouter, PostToANameNoShardHoldsIsDroppedAsUnknownHost) {
  ThreeShards fabric;
  fabric.post_at(1, 1.0, "b", "nosuch");
  fabric.group.run_until(2.0);

  EXPECT_EQ(fabric.router.forwarded(), 0U);
  EXPECT_EQ(fabric.networks[1]->dropped_count("b"), 1U);
  EXPECT_EQ(fabric.networks[1]->dropped_total(), 1U);
  const obs::Counter* unknown = fabric.metrics[1].find_counter(
      "ars_net_dropped_total", {{"reason", "unknown_host"}});
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->value(), 1.0);
}

}  // namespace
}  // namespace ars::net
