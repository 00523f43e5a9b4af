#include "ars/sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace ars::sim {

ShardGroup::ShardGroup(std::size_t shards) : ShardGroup(shards, Options{}) {}

ShardGroup::ShardGroup(std::size_t shards, Options options)
    : options_(options) {
  if (shards == 0) {
    throw std::invalid_argument("ShardGroup needs at least one shard");
  }
  if (!(options_.lookahead > 0.0)) {
    throw std::invalid_argument("ShardGroup lookahead must be > 0");
  }
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<ShardState>());
  }
  outbox_.resize(shards * shards);
}

void ShardGroup::post(std::size_t src, std::size_t dst, SimTime at,
                      Callback fn) {
  assert(src < shards_.size() && dst < shards_.size());
  if (src == dst) {
    // The caller owns this shard's engine right now; no mailbox needed.
    shards_[src]->engine.schedule_at(at, std::move(fn));
    return;
  }
  Mailbox& box = outbox(src, dst);
  box.items.push_back(Pending{at, box.next_seq++, std::move(fn)});
}

void ShardGroup::deliver_inbox(std::size_t dst) {
  ShardState& state = *shards_[dst];
  std::vector<Incoming>& incoming = state.scratch;
  incoming.clear();
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    Mailbox& box = outbox(src, dst);
    for (Pending& pending : box.items) {
      incoming.push_back(
          Incoming{pending.at, src, pending.seq, std::move(pending.fn)});
    }
    box.items.clear();
  }
  if (incoming.empty()) {
    return;
  }
  // The deterministic merge order the whole scheme hinges on: timestamp,
  // then source shard, then per-mailbox sequence.  Same-timestamp events
  // then enqueue in this order and the engine's structural FIFO chains keep
  // it — no further tie-breaking needed.
  std::sort(incoming.begin(), incoming.end(),
            [](const Incoming& a, const Incoming& b) {
              return std::tie(a.at, a.src, a.seq) <
                     std::tie(b.at, b.src, b.seq);
            });
  for (Incoming& item : incoming) {
    // Lookahead contract: the post may not land in this shard's past.  (The
    // engine would clamp to `now`, still deterministic, but a violation
    // means some cross-shard path undercuts the configured lookahead.)
    assert(item.at >= state.engine.now());
    state.engine.schedule_at(item.at, std::move(item.fn));
  }
  state.cross_in += incoming.size();
  incoming.clear();
}

void ShardGroup::run_shard(std::size_t shard, SimTime until,
                           std::barrier<>& sync) {
  ShardState& state = *shards_[shard];
  sync.arrive_and_wait();  // every thread started, or the run called off
  for (;;) {
    // Every shard reads the same published values here, so all of them
    // take the same horizon and leave on the same epoch.
    SimTime next = std::numeric_limits<SimTime>::infinity();
    for (const auto& other : shards_) {
      if (other->error) {
        return;  // run_until rethrows it after the join
      }
      next = std::min(next, other->next_at);
    }
    if (!(next <= until)) {
      break;  // nothing left inside the window (covers next == +inf)
    }
    if (shard == 0) {
      ++epochs_;
    }
    std::exception_ptr error;
    try {
      state.engine.run_until(std::min(until, next + options_.lookahead));
    } catch (...) {
      error = std::current_exception();
    }
    sync.arrive_and_wait();  // all outboxes final for this epoch
    deliver_inbox(shard);
    state.next_at = state.engine.next_event_at();
    state.error = error;
    sync.arrive_and_wait();  // every next event time published
  }
  // Land the clock exactly on `until` (the final horizon may fall short
  // when the last events cluster before it).
  state.engine.run_until(until);
}

std::size_t ShardGroup::run_until(SimTime until) {
  const std::uint64_t before = events_executed();
  if (shards_.size() == 1) {
    // Inline path: identical to driving the engine directly — no threads,
    // no epochs, no barriers.  (post() with one shard already schedules
    // straight into the engine.)
    shards_[0]->engine.run_until(until);
    return static_cast<std::size_t>(events_executed() - before);
  }

  // Setup-time posts (wiring done before the run) are merged on the
  // calling thread, in the same deterministic order as epoch merges.
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    deliver_inbox(dst);
    shards_[dst]->next_at = shards_[dst]->engine.next_event_at();
    shards_[dst]->error = nullptr;
  }
  std::barrier<> sync(static_cast<std::ptrdiff_t>(shards_.size()));
  {
    std::vector<std::jthread> threads;
    threads.reserve(shards_.size() - 1);
    try {
      for (std::size_t shard = 1; shard < shards_.size(); ++shard) {
        threads.emplace_back(
            [this, shard, until, &sync] { run_shard(shard, until, sync); });
      }
    } catch (...) {
      // A thread failed to start: publish the failure, stand in for the
      // missing threads at the start barrier, and let the started ones read
      // it there and return before they are joined.
      shards_[0]->error = std::current_exception();
      for (std::size_t k = threads.size() + 1; k < shards_.size(); ++k) {
        sync.arrive_and_drop();
      }
      sync.arrive_and_wait();
      throw;
    }
    run_shard(0, until, sync);
  }  // joins every thread

  for (const auto& state : shards_) {
    if (state->error) {
      std::rethrow_exception(state->error);
    }
  }
  return static_cast<std::size_t>(events_executed() - before);
}

std::uint64_t ShardGroup::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& state : shards_) {
    total += state->engine.events_executed();
  }
  return total;
}

std::uint64_t ShardGroup::cross_events() const {
  std::uint64_t total = 0;
  for (const auto& state : shards_) {
    total += state->cross_in;
  }
  return total;
}

}  // namespace ars::sim
