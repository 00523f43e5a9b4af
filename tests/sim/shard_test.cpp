// ShardGroup (ISSUE 7): conservative multi-threaded epochs over per-shard
// engines.  The properties pinned here are the ones the sharded runtime
// builds on: the one-shard path is plain Engine::run_until (no threads), the
// cross-shard merge order is (timestamp, source shard, sequence), posts obey
// the lookahead contract, and a fixed shard count replays byte-identically.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ars/sim/shard.hpp"

namespace ars::sim {
namespace {

constexpr double kLookahead = 0.001;

/// Per-shard execution log: "t<time>:s<shard>:<tag>" lines, written only by
/// the owning shard's thread, concatenated (by shard) after the run.
struct Logs {
  explicit Logs(std::size_t shards) : per_shard(shards) {}
  std::vector<std::vector<std::string>> per_shard;

  void record(ShardGroup& group, std::size_t shard, const std::string& tag) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "t%.6f:s%zu:%s",
                  group.engine(shard).now(), shard, tag.c_str());
    per_shard[shard].emplace_back(buf);
  }

  [[nodiscard]] std::string merged() const {
    std::string out;
    for (const auto& lines : per_shard) {
      for (const auto& line : lines) {
        out += line;
        out += "\n";
      }
    }
    return out;
  }
};

TEST(ShardGroup, SingleShardRunsInlineWithoutThreads) {
  ShardGroup group{1, {.lookahead = kLookahead}};
  std::vector<int> order;
  group.engine(0).schedule_at(1.0, [&] { order.push_back(1); });
  group.post(0, 0, 2.0, [&] { order.push_back(2); });
  const std::size_t executed = group.run_until(5.0);
  EXPECT_EQ(executed, 2U);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(group.epochs(), 0U);
  EXPECT_DOUBLE_EQ(group.engine(0).now(), 5.0);
}

TEST(ShardGroup, SetupPostsAreFlushedBeforeTheFirstEpoch) {
  ShardGroup group{2, {.lookahead = kLookahead}};
  std::vector<int> seen;
  group.post(0, 1, 0.5, [&] { seen.push_back(1); });
  group.post(1, 0, 0.25, [&] { seen.push_back(0); });
  group.run_until(1.0);
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0], 0);  // earlier timestamp first, across shards
  EXPECT_EQ(seen[1], 1);
  EXPECT_DOUBLE_EQ(group.engine(0).now(), 1.0);
  EXPECT_DOUBLE_EQ(group.engine(1).now(), 1.0);
}

TEST(ShardGroup, CrossShardMergeOrderIsTimestampSourceSequence) {
  ShardGroup group{3, {.lookahead = kLookahead}};
  std::vector<std::string> order;  // written only by shard 0's owner
  // All three sources post two same-timestamp events each into shard 0
  // during the first epoch; the merge must interleave them (t, src, seq).
  for (std::size_t src : {2UL, 1UL, 0UL}) {
    group.engine(src).schedule_at(0.1, [&group, &order, src] {
      for (int i = 0; i < 2; ++i) {
        const std::string tag =
            "s" + std::to_string(src) + "#" + std::to_string(i);
        group.post(src, 0, 0.1 + kLookahead,
                   [&order, tag] { order.push_back(tag); });
      }
    });
  }
  group.run_until(1.0);
  EXPECT_EQ(order,
            (std::vector<std::string>{"s0#0", "s0#1", "s1#0", "s1#1", "s2#0",
                                      "s2#1"}));
  EXPECT_EQ(group.cross_events(), 4U);  // shard 0's own posts go direct
  // Epoch 1 runs the three posters and shard 0's own two deliveries (they
  // land on the horizon); epoch 2 runs the four merged ones.
  EXPECT_EQ(group.epochs(), 2U);
}

TEST(ShardGroup, PingPongAcrossShardsAdvancesInLookaheadEpochs) {
  ShardGroup group{2, {.lookahead = kLookahead}};
  int hops = 0;
  // Relay a token: each hop re-posts to the other shard one lookahead
  // later.  40 hops => the run needs at least 40 epochs and the token's
  // timestamps must be exact multiples of the lookahead.
  struct Relay {
    ShardGroup* group;
    int* hops;
    void hop(std::size_t from, int remaining) const {
      ++*hops;
      if (remaining == 0) {
        return;
      }
      const std::size_t to = 1 - from;
      Relay self = *this;
      group->post(from, to, group->engine(from).now() + kLookahead,
                  [self, to, remaining] { self.hop(to, remaining - 1); });
    }
  };
  Relay relay{&group, &hops};
  group.engine(0).schedule_at(0.0, [relay] { relay.hop(0, 40); });
  group.run_until(1.0);
  EXPECT_EQ(hops, 41);
  EXPECT_GE(group.epochs(), 40U);
  EXPECT_EQ(group.cross_events(), 40U);
}

TEST(ShardGroup, FixedShardCountReplaysByteIdentically) {
  const auto run_once = [] {
    ShardGroup group{4, {.lookahead = kLookahead}};
    auto logs = std::make_shared<Logs>(4);
    // Each shard runs a periodic local tick and fans a post out to every
    // other shard with per-source timing, so the merged log exercises
    // same-timestamp collisions from distinct sources.
    for (std::size_t shard = 0; shard < 4; ++shard) {
      struct Ticker {
        ShardGroup* group;
        std::shared_ptr<Logs> logs;
        std::size_t shard;
        void tick(int remaining) const {
          logs->record(*group, shard, "tick");
          for (std::size_t dst = 0; dst < 4; ++dst) {
            if (dst == shard) {
              continue;
            }
            Ticker self = *this;
            group->post(shard, dst,
                        group->engine(shard).now() + kLookahead * 2,
                        [self, dst] {
                          self.logs->record(*self.group, dst,
                                            "from" + std::to_string(self.shard));
                        });
          }
          if (remaining > 0) {
            Ticker self = *this;
            group->engine(shard).schedule_after(
                0.0103 + 0.001 * static_cast<double>(shard),
                [self, remaining] { self.tick(remaining - 1); });
          }
        }
      };
      Ticker ticker{&group, logs, shard};
      group.engine(shard).schedule_at(0.0, [ticker] { ticker.tick(12); });
    }
    group.run_until(0.5);
    return logs->merged() + "events=" +
           std::to_string(group.events_executed()) +
           " cross=" + std::to_string(group.cross_events());
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_GT(first.size(), 100U);
  EXPECT_EQ(first, second)
      << "same shard count, different merged timeline: the cross-shard "
         "merge is not deterministic";
}

TEST(ShardGroup, RepeatedRunUntilWindowsCompose) {
  ShardGroup group{2, {.lookahead = kLookahead}};
  int fired = 0;
  group.engine(0).schedule_at(0.2, [&group, &fired] {
    ++fired;
    group.post(0, 1, 0.2 + kLookahead, [&fired] { ++fired; });
  });
  group.engine(1).schedule_at(0.9, [&fired] { ++fired; });
  group.run_until(0.5);
  EXPECT_EQ(fired, 2);
  group.run_until(1.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(group.engine(0).now(), 1.0);
  EXPECT_DOUBLE_EQ(group.engine(1).now(), 1.0);
}

/// A 3-shard schedule driven by one run_until call per entry of `calls`:
/// every shard ticks on its own period and posts each tick to the next
/// shard, and setup posts are made from the calling thread before the first
/// call whose window holds them.  Returns the delivery logs, the clocks and
/// the event counts; the group is destroyed right after the last call.
std::string run_three_shards(const std::vector<SimTime>& calls) {
  struct SetupPost {
    SimTime at;
    std::size_t src;
    std::size_t dst;
  };
  static constexpr SetupPost kSetupPosts[] = {
      {0.1337, 0, 2}, {0.4441, 2, 1}, {0.4442, 1, 0}, {2.7183, 0, 1}};
  ShardGroup group{3, {.lookahead = kLookahead}};
  auto logs = std::make_shared<Logs>(3);
  for (std::size_t shard = 0; shard < 3; ++shard) {
    struct Ticker {
      ShardGroup* group;
      std::shared_ptr<Logs> logs;
      std::size_t shard;
      void tick(int remaining) const {
        logs->record(*group, shard, "tick");
        const std::size_t dst = (shard + 1) % 3;
        Ticker self = *this;
        group->post(shard, dst, group->engine(shard).now() + 2 * kLookahead,
                    [self, dst] {
                      self.logs->record(*self.group, dst,
                                        "from" + std::to_string(self.shard));
                    });
        if (remaining > 0) {
          group->engine(shard).schedule_after(
              0.05 + 0.01 * static_cast<double>(shard),
              [self, remaining] { self.tick(remaining - 1); });
        }
      }
    };
    Ticker ticker{&group, logs, shard};
    group.engine(shard).schedule_at(0.0, [ticker] { ticker.tick(20); });
  }
  std::size_t posted = 0;
  for (const SimTime until : calls) {
    for (; posted < std::size(kSetupPosts) && kSetupPosts[posted].at <= until;
         ++posted) {
      const SetupPost post = kSetupPosts[posted];
      group.post(post.src, post.dst, post.at, [&group, logs, post] {
        logs->record(group, post.dst, "setup" + std::to_string(post.src));
      });
    }
    group.run_until(until);
  }
  std::string out = logs->merged();
  for (std::size_t shard = 0; shard < 3; ++shard) {
    out += "clock" + std::to_string(shard) + "=" +
           std::to_string(group.engine(shard).now()) + "\n";
  }
  return out + "events=" + std::to_string(group.events_executed()) +
         " cross=" + std::to_string(group.cross_events());
}

// Each run_until call starts and joins its own threads: repeated calls,
// windows with no event in them, and setup posts made between calls leave
// the same clocks, counts and delivery order as one call.
TEST(ShardGroup, ManyCallsWithIdleGapsMatchOneCall) {
  const std::string one = run_three_shards({4.0});
  EXPECT_NE(one.find("setup0"), std::string::npos);
  EXPECT_NE(one.find("clock2=4.0"), std::string::npos);
  EXPECT_EQ(run_three_shards({0.2, 0.2, 0.5, 2.0, 2.5, 3.0, 4.0}), one);
}

// A hand-computed schedule (lookahead 1 ms, until 1 s) pins the horizon
// rule min(until, min next + lookahead):
//   epoch 1: next 0.1    -> horizon 0.101: shard 0 runs 0.1 and 0.1005;
//   epoch 2: next 0.3    -> horizon 0.301: shard 1 runs 0.3, which posts
//            to shard 0 at 0.301;
//   epoch 3: next 0.301  -> horizon 0.302: shard 0 runs the delivery;
//   epoch 4: next 0.9995 -> horizon 1.0 (until): shard 0 runs 0.9995;
//   then the next event, 1.5 on shard 1, lies past until: no epoch 5.
TEST(ShardGroup, EpochCountFollowsTheHorizonRule) {
  ShardGroup group{2, {.lookahead = kLookahead}};
  std::vector<SimTime> ran;  // shard 0's events only
  for (const SimTime at : {0.1, 0.1005, 0.9995}) {
    group.engine(0).schedule_at(at, [&group, &ran] {
      ran.push_back(group.engine(0).now());
    });
  }
  group.engine(1).schedule_at(0.3, [&group, &ran] {
    group.post(1, 0, group.engine(1).now() + kLookahead,
               [&group, &ran] { ran.push_back(group.engine(0).now()); });
  });
  group.engine(1).schedule_at(1.5, [] {});
  EXPECT_EQ(group.run_until(1.0), 5U);
  EXPECT_EQ(group.epochs(), 4U);
  EXPECT_EQ(ran, (std::vector<SimTime>{0.1, 0.1005, 0.3 + kLookahead,
                                       0.9995}));
  EXPECT_DOUBLE_EQ(group.engine(0).now(), 1.0);
  EXPECT_DOUBLE_EQ(group.engine(1).now(), 1.0);
  EXPECT_DOUBLE_EQ(group.engine(1).next_event_at(), 1.5);
}

// An event that throws, on the calling thread's shard or on another, ends
// the run for every shard on that epoch; run_until rethrows it after the
// join, and the next call carries on from there.
TEST(ShardGroup, AnEventThatThrowsSurfacesFromRunUntil) {
  for (const std::size_t thrower : {0UL, 2UL}) {
    ShardGroup group{3, {.lookahead = kLookahead}};
    std::vector<int> late(3, 0);  // each written only by its own shard
    group.engine(thrower).schedule_at(
        0.5, [] { throw std::runtime_error("event failed"); });
    for (std::size_t shard = 0; shard < 3; ++shard) {
      group.engine(shard).schedule_at(0.9, [&late, shard] { ++late[shard]; });
    }
    EXPECT_THROW(group.run_until(1.0), std::runtime_error) << thrower;
    EXPECT_EQ(late, (std::vector<int>{0, 0, 0})) << thrower;
    EXPECT_EQ(group.run_until(1.0), 3U) << thrower;
    EXPECT_EQ(late, (std::vector<int>{1, 1, 1})) << thrower;
    EXPECT_DOUBLE_EQ(group.engine(thrower).now(), 1.0);
  }
}

TEST(ShardGroup, RejectsZeroShardsAndZeroLookahead) {
  EXPECT_THROW(ShardGroup(0, {}), std::invalid_argument);
  EXPECT_THROW(ShardGroup(2, {.lookahead = 0.0}), std::invalid_argument);
  EXPECT_THROW(ShardGroup(2, {.lookahead = -1.0}), std::invalid_argument);
}

// Dense concurrent load; primarily a ThreadSanitizer target (the CI TSan job
// runs this label) — every shard hammers its own engine while cross posts
// flow through every mailbox pair.
TEST(ShardGroup, ConcurrentStressStaysCoherent) {
  ShardGroup group{4, {.lookahead = kLookahead}};
  std::vector<std::uint64_t> local(4, 0);
  std::vector<std::uint64_t> remote(4, 0);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    struct Worker {
      ShardGroup* group;
      std::uint64_t* local;
      std::uint64_t* remote;
      std::size_t shard;
      void spin(int remaining) const {
        ++*local;
        const std::size_t dst = (shard + 1) % 4;
        Worker self = *this;
        group->post(shard, dst, group->engine(shard).now() + kLookahead,
                    [self] { ++self.remote[0]; });
        if (remaining > 0) {
          group->engine(shard).schedule_after(
              kLookahead / 4, [self, remaining] { self.spin(remaining - 1); });
        }
      }
    };
    Worker worker{&group, &local[shard], &remote[(shard + 1) % 4], shard};
    group.engine(shard).schedule_at(0.0, [worker] { worker.spin(500); });
  }
  group.run_until(2.0);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(local[shard], 501U);
    EXPECT_EQ(remote[shard], 501U);
  }
  EXPECT_EQ(group.cross_events(), 4U * 501U);
}

TEST(EngineNextEventAt, PeeksEarliestLiveEvent) {
  Engine engine;
  EXPECT_TRUE(std::isinf(engine.next_event_at()));
  auto first = engine.schedule_at(2.0, [] {});
  engine.schedule_at(5.0, [] {});
  EXPECT_DOUBLE_EQ(engine.next_event_at(), 2.0);
  first.cancel();
  EXPECT_DOUBLE_EQ(engine.next_event_at(), 5.0);
  engine.run_until(10.0);
  EXPECT_TRUE(std::isinf(engine.next_event_at()));
}

}  // namespace
}  // namespace ars::sim
