#pragma once
// Discrete-event simulation engine.
//
// The engine owns the virtual clock and a time-ordered event queue.  All
// simulated activity — coroutine resumptions, CPU-model completions, network
// deliveries, monitor timers — is expressed as events.  Two events at the
// same timestamp run in scheduling (FIFO) order, which keeps every run
// deterministic.
//
// Internals (see DESIGN.md §8 for the full rationale):
//   * events live in a chunked slab of pooled, cache-line-sized `Slot`s
//     recycled through a free list, so steady-state scheduling performs zero
//     heap allocations and slab growth never moves live callables;
//   * the priority queue holds one entry per *distinct* timestamp; events
//     sharing a timestamp form an intrusive FIFO chain, so the pervasive
//     same-instant events (zero-delay wakeups, fiber starts, completion
//     fan-out) enqueue and dequeue in O(1) — FIFO order is structural, no
//     sequence-number tie-break needed;
//   * distinct timestamps are ordered by a 4-ary (cache-line-friendly) heap
//     and located on insert by an open-addressed hash index;
//   * an `EventHandle` is a generation-counted 8-byte id plus the engine
//     pointer: cancellation is O(1) (mark the slot, lazy unlink when it
//     reaches the front) and stale handles — fired, cancelled, or whose slot
//     was since reused — are harmlessly inert;
//   * callables are `sim::Callback` (small-buffer-optimized), not
//     `std::function`, so typical captures stay inline.
//
// The engine also carries the observability sinks of everything simulated
// on it: whoever builds a simulated world attaches one tracer and one
// metrics registry (either may be null) before building its components,
// and every component reads them back through the engine it runs on.

#include <cstdint>
#include <memory>
#include <vector>

#include "ars/sim/callback.hpp"

namespace ars::obs {
class Tracer;
class MetricsRegistry;
}  // namespace ars::obs

namespace ars::sim {

/// Virtual time in seconds since the start of the experiment.
using SimTime = double;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// A cancellable reference to a scheduled event.  Default-constructed
  /// handles are empty; cancelling an empty, already-fired, or stale handle
  /// is a harmless no-op (awaitable destructors rely on that).  Handles must
  /// not outlive their engine — they keep a raw pointer to it.
  class EventHandle {
   public:
    EventHandle() = default;

    /// Prevent the event from running.  Safe to call at any point.
    void cancel() noexcept;

    [[nodiscard]] bool pending() const noexcept;

   private:
    friend class Engine;
    EventHandle(Engine* engine, std::uint64_t id) noexcept
        : engine_(engine), id_(id) {}

    Engine* engine_ = nullptr;
    /// Packed (generation << 32 | slot + 1); 0 means empty.
    std::uint64_t id_ = 0;
  };

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now, clamped otherwise).
  EventHandle schedule_at(SimTime at, Callback fn);

  /// Schedule `fn` after a relative delay (>= 0, clamped otherwise).
  EventHandle schedule_after(SimTime delay, Callback fn);

  /// Run the next pending event.  Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains.  Returns the number of events executed.
  std::size_t run();

  /// Run every event with timestamp <= `until`, then advance the clock to
  /// `until`.  Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Timestamp of the earliest live pending event, +infinity when the queue
  /// is empty.  Settles cancelled fronts on the way, so repeated peeks stay
  /// O(1) amortized.  Each shard of a sim::ShardGroup publishes this after
  /// every epoch, and every shard derives the next horizon from them.
  [[nodiscard]] SimTime next_event_at();

  /// Attach the sinks (not owned) that every component on this engine
  /// records into; null leaves that pillar dark.  Attach before building
  /// the components: constructors pre-register their metric series.  An
  /// attached tracer is clocked by this engine: it records nothing once
  /// the engine is gone.
  void attach_sinks(obs::Tracer* tracer, obs::MetricsRegistry* metrics);
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }

  [[nodiscard]] std::size_t pending_events() const noexcept {
    return live_events_;
  }
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

 private:
  static constexpr std::uint32_t kNone = 0x7fffffffU;
  static constexpr std::uint32_t kCancelledBit = 0x80000000U;
  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1U << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  /// One pooled event, exactly one cache line.  `link` is the freelist next
  /// when free, or the next event of the same-timestamp FIFO chain (plus the
  /// cancelled bit) when scheduled.  `generation` is bumped whenever the
  /// slot's current schedule ends (fired or cancelled), invalidating
  /// outstanding handles.
  struct alignas(64) Slot {
    Callback fn;
    std::uint32_t generation = 0;
    std::uint32_t link = kNone;
  };
  static_assert(sizeof(Callback) <= 56, "Slot must stay one cache line");

  /// FIFO chain of events sharing one timestamp; referenced by heap entries
  /// and pooled/recycled like slots.
  struct TimeNode {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    std::uint32_t next_free = kNone;
  };

  /// Heap entries carry the timestamp so sift comparisons never touch the
  /// pools; `at` values in the heap are unique by construction.
  struct HeapEntry {
    SimTime at;
    std::uint32_t node;
  };

  /// Open-addressed hash index: timestamp bits -> TimeNode, so pushes find
  /// an existing chain in O(1).  Linear probing with backward-shift
  /// deletion; rehashes only on growth, so steady state never allocates.
  class TimeIndex {
   public:
    [[nodiscard]] std::uint32_t find(SimTime at) const noexcept;
    void insert(SimTime at, std::uint32_t node);
    void erase(SimTime at) noexcept;

   private:
    struct Cell {
      std::uint64_t key = 0;
      std::uint32_t node = kNone;
    };

    [[nodiscard]] static std::uint64_t key_bits(SimTime at) noexcept;
    void grow();

    std::vector<Cell> cells_;
    std::size_t used_ = 0;
  };

  [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }

  bool pop_and_run(SimTime limit, bool bounded);
  /// Drop cancelled chain fronts and emptied timestamps; afterwards the heap
  /// head (if any) fronts a live event.
  void settle_head();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index) noexcept;
  std::uint32_t acquire_node();
  void release_node(std::uint32_t index) noexcept;

  // 4-ary heap over distinct timestamps.
  void heap_push(HeapEntry entry);
  void heap_pop_front();
  void sift_down(std::size_t pos) noexcept;

  [[nodiscard]] static std::uint64_t pack(std::uint32_t index,
                                          std::uint32_t generation) noexcept {
    return (static_cast<std::uint64_t>(generation) << 32) |
           (static_cast<std::uint64_t>(index) + 1);
  }
  /// The slot the id refers to, or nullptr when stale/empty.  A matching
  /// generation implies the slot is scheduled and not cancelled.
  [[nodiscard]] Slot* resolve(std::uint64_t id) noexcept;

  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_slot_ = kNone;
  std::vector<TimeNode> nodes_;
  std::uint32_t free_node_ = kNone;
  std::vector<HeapEntry> heap_;
  TimeIndex index_;
  std::size_t live_events_ = 0;
};

}  // namespace ars::sim
