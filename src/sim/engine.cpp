#include "ars/sim/engine.hpp"

#include <bit>
#include <cassert>
#include <limits>

#include "ars/obs/tracer.hpp"

namespace ars::sim {

// -- EventHandle -------------------------------------------------------------

void Engine::EventHandle::cancel() noexcept {
  if (engine_ == nullptr) {
    return;
  }
  Slot* slot = engine_->resolve(id_);
  if (slot != nullptr) {
    slot->link |= kCancelledBit;  // lazily unlinked when it reaches the front
    slot->fn.reset();             // release captured resources eagerly
    ++slot->generation;           // invalidate handles (incl. this one)
    --engine_->live_events_;
  }
}

bool Engine::EventHandle::pending() const noexcept {
  return engine_ != nullptr && engine_->resolve(id_) != nullptr;
}

Engine::Slot* Engine::resolve(std::uint64_t id) noexcept {
  if (id == 0) {
    return nullptr;
  }
  const auto index = static_cast<std::uint32_t>(id & 0xffffffffU) - 1;
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slot_count_ || slot(index).generation != generation) {
    return nullptr;
  }
  return &slot(index);
}

// -- pools -------------------------------------------------------------------

std::uint32_t Engine::acquire_slot() {
  if (free_slot_ != kNone) {
    const std::uint32_t index = free_slot_;
    free_slot_ = slot(index).link;
    return index;
  }
  if ((slot_count_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void Engine::release_slot(std::uint32_t index) noexcept {
  Slot& s = slot(index);
  ++s.generation;  // invalidate outstanding handles
  s.link = free_slot_;
  free_slot_ = index;
}

std::uint32_t Engine::acquire_node() {
  if (free_node_ != kNone) {
    const std::uint32_t index = free_node_;
    free_node_ = nodes_[index].next_free;
    return index;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Engine::release_node(std::uint32_t index) noexcept {
  nodes_[index].next_free = free_node_;
  free_node_ = index;
}

// -- timestamp hash index ----------------------------------------------------

std::uint64_t Engine::TimeIndex::key_bits(SimTime at) noexcept {
  return std::bit_cast<std::uint64_t>(at);
}

std::uint32_t Engine::TimeIndex::find(SimTime at) const noexcept {
  if (cells_.empty()) {
    return kNone;
  }
  const std::uint64_t key = key_bits(at);
  const std::size_t mask = cells_.size() - 1;
  std::size_t pos = (key * 0x9e3779b97f4a7c15ULL) & mask;
  while (cells_[pos].node != kNone) {
    if (cells_[pos].key == key) {
      return cells_[pos].node;
    }
    pos = (pos + 1) & mask;
  }
  return kNone;
}

void Engine::TimeIndex::grow() {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(old.empty() ? 64 : old.size() * 2, Cell{});
  const std::size_t mask = cells_.size() - 1;
  for (const Cell& cell : old) {
    if (cell.node == kNone) {
      continue;
    }
    std::size_t pos = (cell.key * 0x9e3779b97f4a7c15ULL) & mask;
    while (cells_[pos].node != kNone) {
      pos = (pos + 1) & mask;
    }
    cells_[pos] = cell;
  }
}

void Engine::TimeIndex::insert(SimTime at, std::uint32_t node) {
  if (cells_.empty() || (used_ + 1) * 10 > cells_.size() * 7) {
    grow();
  }
  const std::uint64_t key = key_bits(at);
  const std::size_t mask = cells_.size() - 1;
  std::size_t pos = (key * 0x9e3779b97f4a7c15ULL) & mask;
  while (cells_[pos].node != kNone) {
    pos = (pos + 1) & mask;
  }
  cells_[pos] = Cell{key, node};
  ++used_;
}

void Engine::TimeIndex::erase(SimTime at) noexcept {
  const std::uint64_t key = key_bits(at);
  const std::size_t mask = cells_.size() - 1;
  std::size_t pos = (key * 0x9e3779b97f4a7c15ULL) & mask;
  while (cells_[pos].key != key || cells_[pos].node == kNone) {
    if (cells_[pos].node == kNone) {
      return;  // not present (settle/pop always erase live keys, though)
    }
    pos = (pos + 1) & mask;
  }
  // Backward-shift deletion keeps probe sequences intact without
  // tombstones, so long-running engines never degrade.
  std::size_t hole = pos;
  for (;;) {
    cells_[hole].node = kNone;
    std::size_t probe = hole;
    for (;;) {
      probe = (probe + 1) & mask;
      if (cells_[probe].node == kNone) {
        --used_;
        return;
      }
      const std::size_t ideal =
          (cells_[probe].key * 0x9e3779b97f4a7c15ULL) & mask;
      // The cell at `probe` may fill the hole only if its ideal position
      // does not lie in the cyclic range (hole, probe].
      const bool movable = (probe > hole)
                               ? (ideal <= hole || ideal > probe)
                               : (ideal <= hole && ideal > probe);
      if (movable) {
        cells_[hole] = cells_[probe];
        hole = probe;
        break;
      }
    }
  }
}

// -- 4-ary heap over distinct timestamps -------------------------------------

void Engine::heap_push(HeapEntry entry) {
  std::size_t pos = heap_.size();
  heap_.push_back(entry);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (heap_[parent].at <= entry.at) {
      break;
    }
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = entry;
}

void Engine::heap_pop_front() {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = moved;
    sift_down(0);
  }
}

void Engine::sift_down(std::size_t pos) noexcept {
  const std::size_t size = heap_.size();
  const HeapEntry entry = heap_[pos];
  for (;;) {
    const std::size_t first = pos * 4 + 1;
    if (first >= size) {
      break;
    }
    const std::size_t last = first + 4 < size ? first + 4 : size;
    std::size_t best = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (heap_[child].at < heap_[best].at) {
        best = child;
      }
    }
    if (entry.at <= heap_[best].at) {
      break;
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = entry;
}

// -- scheduling --------------------------------------------------------------

Engine::EventHandle Engine::schedule_at(SimTime at, Callback fn) {
  SimTime when = at > now_ ? at : now_;
  when += 0.0;  // canonicalize -0.0: timestamp identity must match equality
  const std::uint32_t index = acquire_slot();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.link = kNone;
  std::uint32_t node_index = index_.find(when);
  if (node_index == kNone) {
    node_index = acquire_node();
    nodes_[node_index] = TimeNode{index, index, kNone};
    index_.insert(when, node_index);
    heap_push(HeapEntry{when, node_index});
  } else {
    TimeNode& node = nodes_[node_index];
    Slot& tail = slot(node.tail);
    tail.link = index | (tail.link & kCancelledBit);
    node.tail = index;
  }
  ++live_events_;
  return EventHandle{this, pack(index, s.generation)};
}

Engine::EventHandle Engine::schedule_after(SimTime delay, Callback fn) {
  return schedule_at(now_ + (delay > 0.0 ? delay : 0.0), std::move(fn));
}

// -- event loop --------------------------------------------------------------

void Engine::settle_head() {
  while (!heap_.empty()) {
    TimeNode& node = nodes_[heap_[0].node];
    while (node.head != kNone) {
      Slot& s = slot(node.head);
      if ((s.link & kCancelledBit) == 0) {
        return;  // live event at the front
      }
      const std::uint32_t index = node.head;
      node.head = s.link & ~kCancelledBit;
      release_slot(index);
    }
    // Every event at this timestamp was cancelled: retire it.
    index_.erase(heap_[0].at);
    release_node(heap_[0].node);
    heap_pop_front();
  }
}

bool Engine::pop_and_run(SimTime limit, bool bounded) {
  settle_head();
  if (heap_.empty()) {
    return false;
  }
  const HeapEntry head = heap_[0];
  if (bounded && head.at > limit) {
    return false;
  }
  TimeNode& node = nodes_[head.node];
  const std::uint32_t index = node.head;
  Slot& s = slot(index);
  const std::uint32_t next = s.link;  // front is live: no cancelled bit
  if (next == kNone) {
    // Last event at this timestamp: retire it before running the callable,
    // so a same-time reschedule from inside the event starts a fresh chain.
    index_.erase(head.at);
    release_node(head.node);
    heap_pop_front();
  } else {
    node.head = next;
  }

  assert(head.at >= now_ && "event queue went backwards");
  now_ = head.at;
  // Move the callable out and recycle the slot *before* invoking, so the
  // event body can schedule (and the freed slot can absorb) new events, and
  // handles to the running event are already stale.
  Callback fn = std::move(s.fn);
  release_slot(index);
  --live_events_;
  ++executed_;
  if (fn) {
    fn();
  }
  return true;
}

bool Engine::step() { return pop_and_run(0.0, /*bounded=*/false); }

std::size_t Engine::run() {
  std::size_t count = 0;
  while (pop_and_run(0.0, /*bounded=*/false)) {
    ++count;
  }
  return count;
}

std::size_t Engine::run_until(SimTime until) {
  std::size_t count = 0;
  while (pop_and_run(until, /*bounded=*/true)) {
    ++count;
  }
  if (until > now_) {
    now_ = until;
  }
  return count;
}

void Engine::attach_sinks(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  if (tracer != nullptr) {
    tracer->set_clock([this] { return now_; });
  }
}

SimTime Engine::next_event_at() {
  settle_head();
  return heap_.empty() ? std::numeric_limits<SimTime>::infinity()
                       : heap_.front().at;
}

}  // namespace ars::sim
