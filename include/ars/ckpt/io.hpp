#pragma once
// Shared checkpoint I/O resource (DESIGN.md §17).
//
// PR 5 made checkpoint-restart load-bearing, but writes were free of
// contention: every process paid a fixed `bytes / checkpoint_store_bps`
// regardless of who else was writing.  This module models the stable store
// the way `net/` models links: a parallel-filesystem / burst-buffer with a
// finite AGGREGATE bandwidth shared fluid-flow style across the N active
// writes, on top of the per-host link cap.  Each write's instantaneous rate
// is min(per_host_bps, aggregate_bps / N), re-evaluated whenever the active
// set changes — so concurrent checkpoints stretch each other out and
// checkpoint *duration* becomes a first-class simulated cost.
//
// The store itself is payload-agnostic: callers hand it (process, host,
// bytes) plus commit/abort callbacks, and the HPCM engine keeps the actual
// Checkpoint as the shadow on the process's record until the write lands
// (atomic shadow-commit: a crash mid-write aborts the write and the
// previous complete checkpoint stays the restorable one).

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "ars/sim/engine.hpp"

namespace ars::ckpt {

struct IoOptions {
  /// Per-host link bandwidth into the store (the legacy
  /// `checkpoint_store_bps`: 2004-era NFS-backed disk).
  double per_host_bps = 20.0e6;
  /// Aggregate store bandwidth shared by all concurrent writes.
  /// 0 disables the shared limit: each write gets the per-host rate (the
  /// pre-interference behavior, kept as the default for compatibility).
  double aggregate_bps = 0.0;
};

/// Terminal record of one write, handed to its commit/abort callback.
struct WriteOutcome {
  std::string process;
  std::string host;
  std::uint64_t bytes = 0;
  double started_at = 0.0;
  double finished_at = 0.0;  // commit or abort time

  [[nodiscard]] double duration() const { return finished_at - started_at; }
};

/// The shared checkpoint I/O resource.  One write per process at a time;
/// writes progress via engine events (fluid-flow: advance remaining bytes
/// at the old rate, re-rate, reschedule the next completion).
class SharedStore {
 public:
  using OutcomeFn = std::function<void(const WriteOutcome&)>;

  SharedStore(sim::Engine& engine, IoOptions options);
  SharedStore(const SharedStore&) = delete;
  SharedStore& operator=(const SharedStore&) = delete;
  ~SharedStore();

  /// Start an asynchronous write.  `on_commit` fires (at the simulated
  /// completion time) when all bytes landed; `on_abort` fires if the write
  /// is dropped first.  Returns false (and calls neither) when a write for
  /// `process` is already in flight.
  bool begin_write(const std::string& process, const std::string& host,
                   std::uint64_t bytes, OutcomeFn on_commit,
                   OutcomeFn on_abort);

  /// Drop the in-flight write of `process` (crash, preemption).  The
  /// bytes written so far are lost; `on_abort` fires.  Returns false when
  /// no write is in flight.
  bool abort_write(const std::string& process);

  /// Drop every in-flight write sourced from `host` (host failure).
  /// Returns how many writes were aborted.
  int abort_host_writes(const std::string& host);

  [[nodiscard]] bool writing(const std::string& process) const {
    return active_.contains(process);
  }
  /// Current per-write rate (what one more byte would flow at).
  [[nodiscard]] double current_rate() const { return rate_; }
  /// Rate a hypothetical (N+1)th write would get — the admission
  /// scheduler's saturation signal.
  [[nodiscard]] double rate_with_one_more() const;

  [[nodiscard]] int commits() const noexcept { return commits_; }
  [[nodiscard]] int aborts() const noexcept { return aborts_; }
  [[nodiscard]] const IoOptions& options() const noexcept { return options_; }

 private:
  struct Write {
    std::string host;
    std::uint64_t bytes = 0;
    double remaining = 0.0;
    double started_at = 0.0;
    OutcomeFn on_commit;
    OutcomeFn on_abort;
    std::uint64_t span = 0;  // ckpt.write span (0: tracing off)
  };

  [[nodiscard]] double fair_rate(std::size_t writers) const;
  /// Fluid-flow step: charge progress since `last_update_` at the old
  /// rate, commit writes that finished, recompute the shared rate, and
  /// reschedule the single next-completion event.
  void advance();
  void rerate_and_reschedule();
  void finish(const std::string& process, double finished_at);
  void drop(std::map<std::string, Write>::iterator it);

  sim::Engine* engine_;
  IoOptions options_;
  std::map<std::string, Write> active_;  // keyed by process name
  double rate_ = 0.0;                    // current per-write rate
  double last_update_ = 0.0;
  sim::Engine::EventHandle completion_;
  int commits_ = 0;
  int aborts_ = 0;
};

}  // namespace ars::ckpt
