#include "ars/ckpt/io.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"

namespace ars::ckpt {

namespace {

/// Bytes below this are considered flushed (guards float drift in the
/// fluid-flow arithmetic, same idea as net::Network's byte epsilon).
constexpr double kByteEpsilon = 1e-6;

/// Second buckets for checkpoint write durations: uncontended sub-second
/// flushes up to badly interfered multi-minute stalls.
std::vector<double> write_s_bounds() {
  return {0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0};
}

}  // namespace

SharedStore::SharedStore(sim::Engine& engine, IoOptions options)
    : engine_(&engine), options_(options) {
  if (obs::MetricsRegistry* m = engine_->metrics()) {
    // Pre-register the checkpoint I/O series so every export carries them,
    // zero-valued, even on runs that never checkpoint (the
    // migration.phase_ms convention).
    m->counter("ars_ckpt.writes");
    m->counter("ars_ckpt.bytes");
    m->counter("ars_ckpt.aborted");
    m->histogram("ars_ckpt.write_s", {}, write_s_bounds());
  }
}

SharedStore::~SharedStore() { completion_.cancel(); }

double SharedStore::fair_rate(std::size_t writers) const {
  if (writers == 0) {
    return 0.0;
  }
  double rate = options_.per_host_bps;
  if (options_.aggregate_bps > 0.0) {
    rate = std::min(rate,
                    options_.aggregate_bps / static_cast<double>(writers));
  }
  return std::max(rate, 1.0);  // never stall a write completely
}

double SharedStore::rate_with_one_more() const {
  return fair_rate(active_.size() + 1);
}

bool SharedStore::begin_write(const std::string& process,
                              const std::string& host, std::uint64_t bytes,
                              OutcomeFn on_commit, OutcomeFn on_abort) {
  if (active_.contains(process)) {
    return false;
  }
  advance();
  Write write;
  write.host = host;
  write.bytes = bytes;
  write.remaining = static_cast<double>(bytes);
  write.started_at = engine_->now();
  write.on_commit = std::move(on_commit);
  write.on_abort = std::move(on_abort);
  if (obs::Tracer* t = engine_->tracer(); obs::active(t)) {
    write.span = t->begin_span(
        "ckpt.write", "ckpt", process,
        {{"host", host}, {"bytes", static_cast<std::size_t>(bytes)},
         {"writers", active_.size() + 1}});
  }
  active_.emplace(process, std::move(write));
  rerate_and_reschedule();
  return true;
}

bool SharedStore::abort_write(const std::string& process) {
  const auto it = active_.find(process);
  if (it == active_.end()) {
    return false;
  }
  advance();
  drop(it);
  rerate_and_reschedule();
  return true;
}

int SharedStore::abort_host_writes(const std::string& host) {
  advance();
  int dropped = 0;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.host == host) {
      auto victim = it++;
      drop(victim);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) {
    rerate_and_reschedule();
  }
  return dropped;
}

void SharedStore::drop(std::map<std::string, Write>::iterator it) {
  WriteOutcome outcome;
  outcome.process = it->first;
  outcome.host = it->second.host;
  outcome.bytes = it->second.bytes;
  outcome.started_at = it->second.started_at;
  outcome.finished_at = engine_->now();
  if (obs::Tracer* t = engine_->tracer(); obs::active(t)) {
    t->end_span(it->second.span, {{"outcome", "aborted"}});
  }
  if (obs::MetricsRegistry* m = engine_->metrics()) {
    m->counter("ars_ckpt.aborted").inc();
  }
  OutcomeFn on_abort = std::move(it->second.on_abort);
  active_.erase(it);
  ++aborts_;
  if (on_abort) {
    on_abort(outcome);
  }
}

void SharedStore::advance() {
  const double now = engine_->now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0.0 || active_.empty() || rate_ <= 0.0) {
    return;
  }
  const double moved = rate_ * dt;
  // Collect finishers first: their commit callbacks may re-enter the store
  // (e.g. an admission scheduler granting a deferred write).
  std::vector<std::string> done;
  for (auto& [process, write] : active_) {
    write.remaining -= moved;
    if (write.remaining <= kByteEpsilon) {
      done.push_back(process);
    }
  }
  for (const std::string& process : done) {
    finish(process, now);
  }
}

void SharedStore::finish(const std::string& process, double finished_at) {
  const auto it = active_.find(process);
  if (it == active_.end()) {
    return;
  }
  WriteOutcome outcome;
  outcome.process = process;
  outcome.host = it->second.host;
  outcome.bytes = it->second.bytes;
  outcome.started_at = it->second.started_at;
  outcome.finished_at = finished_at;
  if (obs::Tracer* t = engine_->tracer(); obs::active(t)) {
    t->end_span(it->second.span, {{"outcome", "committed"}});
  }
  if (obs::MetricsRegistry* m = engine_->metrics()) {
    m->counter("ars_ckpt.writes").inc();
    m->counter("ars_ckpt.bytes").inc(static_cast<double>(outcome.bytes));
    m->histogram("ars_ckpt.write_s", {}, write_s_bounds())
        .observe(outcome.duration());
  }
  OutcomeFn on_commit = std::move(it->second.on_commit);
  active_.erase(it);
  ++commits_;
  if (on_commit) {
    on_commit(outcome);
  }
}

void SharedStore::rerate_and_reschedule() {
  completion_.cancel();
  rate_ = fair_rate(active_.size());
  if (active_.empty()) {
    return;
  }
  double shortest = std::numeric_limits<double>::infinity();
  for (const auto& [process, write] : active_) {
    shortest = std::min(shortest, std::max(write.remaining, 0.0));
  }
  const double eta = shortest / rate_;
  completion_ = engine_->schedule_after(eta, [this] {
    advance();
    rerate_and_reschedule();
  });
}

}  // namespace ars::ckpt
