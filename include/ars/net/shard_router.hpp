#pragma once
// Cross-shard datagram routing for the sharded simulation.
//
// Each shard owns one Network (its intra-shard switched Ethernet, default
// 0.0001 s latency); shards are connected by an inter-domain fabric whose
// one-way latency is the shard group's lookahead: a datagram posted at
// source time t arrives at t + lookahead, so exchanging messages at the
// epoch barriers never delivers into a peer's past (sim/shard.hpp).
//
// The router keeps no host map: a host lives on the shard whose Network has
// it attached, and the networks' name indexes answer the lookup.
// Network::post() keeps its local fast path (destination attached to the
// same network: bit-identical to the unsharded build); only when the
// destination is foreign does it ask the router for the destination's
// shard, apply the source-side fault verdict, and forward.  The destination
// shard's network finishes the delivery with deliver_local() — endpoint
// lookup, net.recv stamp on the *destination's* tracer, drop accounting —
// on the destination's own thread.
//
// Cross-shard datagrams pay the fabric latency but not fluid bandwidth
// sharing: the control plane's messages are hundreds of bytes, far below
// the regime where NIC contention matters, and modeling them latency-only
// keeps each shard's bandwidth state thread-local.  Bulk transfer() across
// shards is not supported (unknown host, as before).
//
// Thread contract: attach every host to its network, each name to one
// network only, before the run.  The name indexes are read-only while epochs
// are in flight, so any shard's thread may look a name up in any network.
// forward() runs on the source shard's thread; the delivery callback runs on
// the destination's.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ars/net/network.hpp"
#include "ars/sim/shard.hpp"

namespace ars::net {

class ShardRouter {
 public:
  explicit ShardRouter(sim::ShardGroup& group);
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;
  ~ShardRouter();

  /// Wire shard `shard`'s network to the fabric: installs this router as the
  /// network's cross-shard hook.
  void attach(std::size_t shard, Network& network);

  /// The shard other than `from_shard` whose network has `host` attached;
  /// nullopt when none has.
  [[nodiscard]] std::optional<std::size_t> shard_of(
      const std::string& host, std::size_t from_shard) const;

  /// Ship `copies` copies of `message` to shard `dst_shard`, arriving one
  /// lookahead + extra_delay after the source shard's current time.  The
  /// caller (Network::post) has already applied the fault verdict.
  void forward(std::size_t src_shard, std::size_t dst_shard, Message message,
               double extra_delay, int copies);

  /// Datagrams forwarded through the fabric so far (all sources).  Stable
  /// only while no epoch is in flight.
  [[nodiscard]] std::uint64_t forwarded() const;

 private:
  struct alignas(64) Counter {  // one writer per shard; avoid shared lines
    std::uint64_t value = 0;
  };

  sim::ShardGroup* group_;
  std::vector<Network*> networks_;  // by shard id
  std::vector<Counter> forwarded_;  // by source shard
};

}  // namespace ars::net
