#include "ars/net/shard_router.hpp"

#include <stdexcept>
#include <utility>

namespace ars::net {

ShardRouter::ShardRouter(sim::ShardGroup& group)
    : ShardRouter(group, Options{}) {}

ShardRouter::ShardRouter(sim::ShardGroup& group, Options options)
    : group_(&group),
      options_(options),
      networks_(group.size(), nullptr),
      forwarded_(group.size()) {
  if (options_.cross_latency < group.lookahead()) {
    throw std::invalid_argument(
        "ShardRouter cross_latency must be >= the group lookahead");
  }
}

ShardRouter::~ShardRouter() {
  for (Network* network : networks_) {
    if (network != nullptr) {
      network->set_shard_router(nullptr, 0);
    }
  }
}

void ShardRouter::attach(std::size_t shard, Network& network) {
  if (shard >= networks_.size()) {
    throw std::out_of_range("ShardRouter::attach: shard out of range");
  }
  if (networks_[shard] != nullptr) {
    throw std::invalid_argument("ShardRouter::attach: shard already wired");
  }
  networks_[shard] = &network;
  network.set_shard_router(this, shard);
  for (const auto& [host, id] : network.host_index()) {
    assign_host(host, shard);
  }
}

void ShardRouter::assign_host(const std::string& host, std::size_t shard) {
  if (shard >= networks_.size()) {
    throw std::out_of_range("ShardRouter::assign_host: shard out of range");
  }
  const auto [it, inserted] = hosts_.emplace(host, shard);
  if (!inserted && it->second != shard) {
    throw std::invalid_argument("host assigned to two shards: " + host);
  }
}

std::optional<std::size_t> ShardRouter::shard_of(
    const std::string& host) const {
  const auto it = hosts_.find(host);
  return it == hosts_.end() ? std::nullopt
                            : std::optional<std::size_t>(it->second);
}

bool ShardRouter::routes(const std::string& host,
                         std::size_t from_shard) const {
  const auto it = hosts_.find(host);
  return it != hosts_.end() && it->second != from_shard &&
         networks_[it->second] != nullptr;
}

void ShardRouter::forward(std::size_t src_shard, Message message,
                          double extra_delay, int copies) {
  const auto it = hosts_.find(message.dst_host);
  if (it == hosts_.end() || networks_[it->second] == nullptr) {
    return;  // caller checked routes(); defensive no-op
  }
  const std::size_t dst_shard = it->second;
  Network* dst_net = networks_[dst_shard];
  const sim::SimTime at = group_->engine(src_shard).now() +
                          options_.cross_latency +
                          std::max(extra_delay, 0.0);
  for (int copy = 0; copy < copies; ++copy) {
    Message shipped = copy + 1 < copies ? message : std::move(message);
    group_->post(src_shard, dst_shard, at,
                 [dst_net, msg = std::move(shipped)]() mutable {
                   dst_net->deliver_local(std::move(msg));
                 });
  }
  forwarded_[src_shard].value += static_cast<std::uint64_t>(copies);
}

std::uint64_t ShardRouter::forwarded() const {
  std::uint64_t total = 0;
  for (const Counter& counter : forwarded_) {
    total += counter.value;
  }
  return total;
}

}  // namespace ars::net
