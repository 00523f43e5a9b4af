#pragma once
// Structured event tracing for the rescheduler (obs pillar 1).
//
// A Tracer records sim-time-stamped *instant events* and nestable *spans*
// (explicit begin/end pairs carrying key/value attributes) into a bounded
// in-memory ring.  Spans may cross coroutine suspension points — the id
// returned by begin_span() is plain data, so a migration span can open on
// the source host and close on the destination many virtual seconds later.
//
// Two exporters turn a recorded timeline into files:
//   * to_jsonl()        — one JSON object per line, grep/jq-friendly;
//   * to_chrome_trace() — the Chrome trace_event format (async "b"/"e"
//     events plus thread-name metadata), directly loadable in
//     chrome://tracing or https://ui.perfetto.dev, with one timeline row
//     ("thread") per track (host or process name).
//
// The tracer is single-writer by design: all simulated activity runs on the
// discrete-event engine's thread.  Cross-thread log forwarding (LogBridge)
// is serialized by the Logger's own mutex.
//
// Sharded runs (sim/shard.hpp) keep that rule by confinement: every shard
// owns a private Tracer written only by its worker thread, and the per-shard
// timelines are combined after the run with merged_jsonl(), which orders
// events by (timestamp, shard, recording order) — deterministic for a fixed
// shard count, and per-txn span pairs stay intact because a transaction's
// causal chain is already ordered by timestamp.  Never share one Tracer
// across shards.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "ars/obs/trace_ctx.hpp"

namespace ars::obs {

/// One key/value span or event attribute.
struct Attr {
  std::string key;
  std::variant<std::string, double, bool> value;

  Attr(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}
  Attr(std::string k, const char* v) : key(std::move(k)), value(std::string(v)) {}
  Attr(std::string k, double v) : key(std::move(k)), value(v) {}
  Attr(std::string k, int v) : key(std::move(k)), value(static_cast<double>(v)) {}
  Attr(std::string k, std::size_t v)
      : key(std::move(k)), value(static_cast<double>(v)) {}
  Attr(std::string k, bool v) : key(std::move(k)), value(v) {}
};

using Attrs = std::vector<Attr>;

enum class EventKind { kInstant, kSpanBegin, kSpanEnd };

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  double t = 0.0;          // sim time, seconds
  std::string name;        // e.g. "migration.spawn"
  std::string category;    // emitting subsystem, e.g. "hpcm"
  std::string track;       // timeline row: host or process name
  std::uint64_t span_id = 0;  // non-zero for kSpanBegin/kSpanEnd
  Attrs attrs;
};

/// A fully closed span, reassembled from its begin/end events.
struct CompletedSpan {
  std::uint64_t id = 0;
  std::string name;
  std::string category;
  std::string track;
  double begin = 0.0;
  double end = 0.0;
  Attrs attrs;  // begin attrs followed by end attrs

  [[nodiscard]] double duration() const { return end - begin; }
};

class Tracer {
 public:
  using ClockFn = std::function<double()>;

  struct Options {
    /// Maximum buffered events; the oldest are dropped beyond this.
    std::size_t capacity = 1 << 16;
    bool enabled = true;
  };

  Tracer() : Tracer(Options{}) {}
  explicit Tracer(Options options) : options_(options) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Install the virtual-time source (sim::Engine::attach_sinks installs
  /// its engine's clock).
  void set_clock(ClockFn clock) { clock_ = std::move(clock); }

  void set_enabled(bool enabled) noexcept { options_.enabled = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return options_.enabled; }

  /// Record an instant event.
  void instant(std::string name, std::string category, std::string track,
               Attrs attrs = {});

  /// Open a span; returns its id (0 when the tracer is disabled — safe to
  /// pass straight back to end_span, which ignores 0).
  [[nodiscard]] std::uint64_t begin_span(std::string name,
                                         std::string category,
                                         std::string track, Attrs attrs = {});

  /// Close a span opened by begin_span; extra attributes are attached to
  /// the end event.  id 0 is a no-op.
  void end_span(std::uint64_t id, Attrs attrs = {});

  /// Record an instant at an explicit timestamp (log forwarding keeps the
  /// record's own stamp instead of re-reading the clock).
  void instant_at(double t, std::string name, std::string category,
                  std::string track, Attrs attrs = {});

  /// Mint a transaction id for a new causal chain (one migration, relaunch
  /// or consult decision).  Deterministic: a plain counter, like span ids,
  /// so identically seeded runs mint identical ids.  Returns 0 when the
  /// tracer is disabled — a TraceCtx built from it stays unset and nothing
  /// downstream is stamped or encoded.
  [[nodiscard]] std::uint64_t new_txn() noexcept {
    return options_.enabled ? next_txn_id_++ : 0;
  }

  [[nodiscard]] const std::deque<TraceEvent>& events() const noexcept {
    return events_;
  }
  /// Events evicted by the capacity bound since the last clear().
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  /// Spans begun but not yet ended.
  [[nodiscard]] std::size_t open_spans() const noexcept {
    return open_info_.size();
  }

  /// All fully closed spans, in end order.  Begin events evicted by the
  /// ring bound leave their ends unmatched (skipped).
  [[nodiscard]] std::vector<CompletedSpan> completed_spans() const;

  /// Closed spans with the given name, in end order.
  [[nodiscard]] std::vector<CompletedSpan> spans_named(
      const std::string& name) const;

  void clear();

  /// One JSON object per line: {"t":..,"kind":..,"name":..,...}.
  [[nodiscard]] std::string to_jsonl() const;

  /// Chrome trace_event JSON document (see header comment).
  [[nodiscard]] std::string to_chrome_trace() const;

 private:
  struct OpenSpan {
    std::string name;
    std::string category;
    std::string track;
  };

  void push(TraceEvent event);
  [[nodiscard]] double now() const { return clock_ ? clock_() : 0.0; }

  Options options_;
  ClockFn clock_;
  std::deque<TraceEvent> events_;
  std::map<std::uint64_t, OpenSpan> open_info_;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t next_txn_id_ = 1;
  std::size_t dropped_ = 0;
};

/// Merge per-shard timelines into one JSONL document, events ordered by
/// (timestamp, shard index, per-shard recording order).  With a single
/// tracer this is byte-identical to its to_jsonl() (per-shard order is
/// already non-decreasing in time), which is what the 1-shard == legacy
/// determinism tests lean on.  Span ids collide across shards only if the
/// tracers were written from the same id space — per-shard tracers mint
/// independent ids, so exporters downstream must treat (shard, span) as the
/// key; the critical-path tool keys on txn attrs, which stay globally
/// meaningful because each consult mints its txn on one shard.
[[nodiscard]] std::string merged_jsonl(const std::vector<const Tracer*>& shards);

/// Append the causal attrs ("txn", and "pspan" when known) to an attribute
/// list.  A no-op for an unset context, so call sites stay branch-free.
inline void stamp(Attrs& attrs, const TraceCtx& ctx) {
  if (!ctx.set()) {
    return;
  }
  attrs.emplace_back("txn", static_cast<std::size_t>(ctx.txn));
  if (ctx.parent_span != 0) {
    attrs.emplace_back("pspan", static_cast<std::size_t>(ctx.parent_span));
  }
}

/// True when `tracer` exists *and* is recording.  Hot paths must use this as
/// the call-site guard so a disabled tracer costs one branch — no attribute
/// vectors, no string formatting (instant()/begin_span() would discard the
/// fully built arguments otherwise).
[[nodiscard]] inline bool active(const Tracer* tracer) noexcept {
  return tracer != nullptr && tracer->enabled();
}

/// While alive, forwards every support::Logger record into `tracer` as an
/// instant event (category "log", track = component) so logs and spans
/// share one timeline.  Install at most one at a time.
class LogBridge {
 public:
  explicit LogBridge(Tracer& tracer);
  ~LogBridge();
  LogBridge(const LogBridge&) = delete;
  LogBridge& operator=(const LogBridge&) = delete;
};

}  // namespace ars::obs
