#include "ars/net/shard_router.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ars::net {

ShardRouter::ShardRouter(sim::ShardGroup& group)
    : group_(&group),
      networks_(group.size(), nullptr),
      forwarded_(group.size()) {}

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
}

std::optional<std::size_t> ShardRouter::shard_of(
    const std::string& host, std::size_t from_shard) const {
  for (std::size_t shard = 0; shard < networks_.size(); ++shard) {
    if (shard != from_shard && networks_[shard] != nullptr &&
        networks_[shard]->find_id(host)) {
      return shard;
    }
  }
  return std::nullopt;
}

void ShardRouter::forward(std::size_t src_shard, std::size_t dst_shard,
                          Message message, double extra_delay, int copies) {
  Network* dst_net = networks_[dst_shard];
  const sim::SimTime at = group_->engine(src_shard).now() +
                          group_->lookahead() + std::max(extra_delay, 0.0);
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
