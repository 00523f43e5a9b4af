#pragma once
// Higher-level synchronization utilities on top of WaitQueue: a counting
// semaphore.

#include "ars/sim/wait.hpp"

namespace ars::sim {

/// Counting semaphore for fibers (resource pools, bounded concurrency).
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t initial)
      : count_(initial), waiters_(engine) {}

  /// Acquire one unit, suspending while none are available.
  [[nodiscard]] Task<> acquire() {
    while (count_ == 0) {
      co_await waiters_.wait();
    }
    --count_;
  }

  /// Try to acquire without suspending.
  [[nodiscard]] bool try_acquire() noexcept {
    if (count_ == 0) {
      return false;
    }
    --count_;
    return true;
  }

  void release(std::size_t units = 1) {
    count_ += units;
    for (std::size_t i = 0; i < units; ++i) {
      waiters_.notify_one();
    }
  }

  [[nodiscard]] std::size_t available() const noexcept { return count_; }
  [[nodiscard]] std::size_t waiting() const noexcept {
    return waiters_.waiter_count();
  }

 private:
  std::size_t count_;
  WaitQueue waiters_;
};

}  // namespace ars::sim
