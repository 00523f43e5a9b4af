#pragma once
// Conservative parallel discrete-event simulation: a group of independent
// engines (shards) advanced in lock-step epochs, one thread per shard.
//
// The synchronization protocol is the classic lookahead/window scheme
// (YAWNS-style adaptive barriers).  Every shard runs the same epoch loop;
// no thread coordinates the others:
//
//   1. each shard reads the next event times that every shard published
//      and computes the same epoch horizon  min(until, min next + lookahead);
//      when no shard has an event left inside the window, every shard
//      leaves the loop on the same epoch;
//   2. each shard runs its own engine up to the horizon — intra-shard
//      events execute lock-free on the ordinary slot-slab + 4-ary-heap
//      engine, no atomics on the hot path;
//   3. barrier; each shard drains the cross-shard mailboxes addressed to it
//      (sorted by (timestamp, source shard, sequence) so the merge order is
//      deterministic for a fixed shard count), schedules the deliveries
//      into its own engine and publishes its next event time; barrier;
//      repeat.
//
// Correctness rests on the lookahead contract: a cross-shard post made at
// source time t must be timestamped >= t + lookahead.  Every event executed
// inside an epoch has t >= the global minimum the horizon was derived from,
// so its posts land at or after the horizon — never in a peer's past.  The
// network's cross-shard fabric latency (net/shard_router.hpp) is this
// lookahead.
//
// Threading contract:
//   * run_until starts one thread for every shard but shard 0, runs shard 0
//     on the calling thread, and joins the threads before it returns;
//   * shard s's engine (and everything hanging off it — hosts, networks,
//     tracers) is touched only by shard s's thread inside run_until, and by
//     the calling thread outside it;
//   * post(src, ...) may be called from shard src's thread inside run_until,
//     or from the calling thread outside it (setup posts are merged before
//     the first epoch);
//   * an exception thrown by an event on any shard ends the run for every
//     shard on that epoch and is rethrown by run_until after the join, and
//     so is the failure to start a thread (before any epoch);
//   * with one shard everything runs inline on the caller's thread — no
//     threads, no epochs, bit-identical to driving the engine directly.

#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "ars/sim/engine.hpp"

namespace ars::sim {

class ShardGroup {
 public:
  struct Options {
    /// Conservative synchronization bound, seconds: the minimum delay of any
    /// cross-shard post.  Must be > 0 (zero-lookahead would stall the epoch
    /// loop).
    double lookahead = 0.0001;
  };

  explicit ShardGroup(std::size_t shards);
  ShardGroup(std::size_t shards, Options options);
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }
  [[nodiscard]] Engine& engine(std::size_t shard) noexcept {
    return shards_[shard]->engine;
  }
  [[nodiscard]] double lookahead() const noexcept { return options_.lookahead; }

  /// Cross-shard event: run `fn` on shard `dst`'s engine at absolute time
  /// `at`.  src == dst degenerates to a plain schedule_at.  During an epoch
  /// `at` must honor the lookahead contract (>= source now + lookahead);
  /// delivery happens at the next epoch barrier.
  void post(std::size_t src, std::size_t dst, SimTime at, Callback fn);

  /// Advance every shard to `until` (events with t <= until execute, clocks
  /// land on `until`).  Returns the number of events executed across all
  /// shards.  Not reentrant; every shard's thread has joined on return.
  std::size_t run_until(SimTime until);

  /// Sum of events executed across shards.  Read outside run_until, like
  /// the other accessors.
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Epochs run by multi-shard run_until calls so far (0 with one shard).
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }
  /// Cross-shard deliveries merged into destination engines so far.
  [[nodiscard]] std::uint64_t cross_events() const;

 private:
  struct Pending {
    SimTime at = 0.0;
    std::uint64_t seq = 0;
    Callback fn;
  };

  /// One (src, dst) mailbox.  Written only by src's thread during the run
  /// phase, drained only by dst's thread during the exchange phase; the
  /// epoch barriers order the two.  Cache-line sized so neighbouring
  /// writers never share a line.
  struct alignas(64) Mailbox {
    std::vector<Pending> items;
    std::uint64_t next_seq = 0;
  };

  struct Incoming {
    SimTime at = 0.0;
    std::size_t src = 0;
    std::uint64_t seq = 0;
    Callback fn;
  };

  struct alignas(64) ShardState {
    Engine engine;
    std::vector<Incoming> scratch;  // exchange-phase merge buffer
    std::uint64_t cross_in = 0;     // deliveries merged into this shard
    // The next event time, and the exception an event threw (null: none).
    // The calling thread sets both before the threads start; then only the
    // owner (for shard 0, the calling thread) writes them, before the start
    // barrier or between an epoch's two barriers, and every shard reads
    // them only after the start barrier or an epoch's second one.
    SimTime next_at = 0.0;
    std::exception_ptr error;
  };

  [[nodiscard]] Mailbox& outbox(std::size_t src, std::size_t dst) noexcept {
    return outbox_[src * shards_.size() + dst];
  }

  /// Drain every mailbox addressed to `dst` into its engine, deterministic
  /// (timestamp, source shard, sequence) order.
  void deliver_inbox(std::size_t dst);
  /// One shard's epoch loop up to `until`; every shard runs it in step,
  /// meeting the others at `sync` twice per epoch.
  void run_shard(std::size_t shard, SimTime until, std::barrier<>& sync);

  Options options_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<Mailbox> outbox_;  // shards * shards, row-major by source
  std::uint64_t epochs_ = 0;     // counted by shard 0
};

}  // namespace ars::sim
