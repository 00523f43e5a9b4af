#include "ars/host/cpu.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ars::host {

namespace {
// Work remainders below this are treated as complete; the value is far below
// any observable timescale in the experiments (nano-seconds of CPU time).
constexpr double kWorkEpsilon = 1e-9;
// Completion events must strictly advance virtual time: below one ulp of a
// large `now`, now + delay == now and the loop would spin forever.
constexpr double kMinCompletionDelay = 1e-9;
// Busy periods that ended more than this long ago are dropped; every
// utilization window is far shorter.
constexpr double kHistoryRetentionSeconds = 3600.0;
}  // namespace

CpuModel::CpuModel(sim::Engine& engine, double speed)
    : engine_(&engine), speed_(speed), last_update_(engine.now()) {
  assert(speed > 0.0 && "CPU speed must be positive");
}

CpuModel::~CpuModel() {
  completion_event_.cancel();
  assert(jobs_.empty() && "CpuModel destroyed with active jobs");
}

void CpuModel::advance() {
  const double now = engine_->now();
  const double dt = now - last_update_;
  if (dt <= 0.0) {
    last_update_ = now;
    return;
  }
  if (!jobs_.empty()) {
    const double rate = speed_ / static_cast<double>(jobs_.size());
    for (auto* job : jobs_) {
      job->remaining_ = std::max(job->remaining_ - dt * rate, 0.0);
    }
    busy_accum_ += dt;
    job_seconds_ += dt * static_cast<double>(jobs_.size());
    record_busy(last_update_, now);
  }
  last_update_ = now;
}

double CpuModel::cumulative_job_seconds() const noexcept {
  return job_seconds_ + (engine_->now() - last_update_) *
                            static_cast<double>(jobs_.size());
}

void CpuModel::record_busy(double begin, double end) {
  if (!busy_segments_.empty() && busy_segments_.back().end >= begin) {
    busy_segments_.back().end = end;  // extend the contiguous busy period
  } else {
    busy_segments_.push_back(BusySegment{begin, end});
  }
  const double horizon = engine_->now() - kHistoryRetentionSeconds;
  while (!busy_segments_.empty() && busy_segments_.front().end < horizon) {
    busy_segments_.pop_front();
  }
}

double CpuModel::busy_between(double t0, double t1) const noexcept {
  // record_busy only appends or extends the newest period, so ends are
  // non-decreasing; a period that ended before t0 would add +0.0, which
  // leaves the sum bit for bit unchanged, so the sum starts past them.
  const auto first = std::partition_point(
      busy_segments_.begin(), busy_segments_.end(),
      [t0](const BusySegment& segment) { return segment.end < t0; });
  double busy = 0.0;
  for (auto it = first; it != busy_segments_.end(); ++it) {
    busy += std::max(0.0, std::min(it->end, t1) - std::max(it->begin, t0));
  }
  if (!jobs_.empty()) {
    // Ongoing busy period not yet folded into the history.
    busy += std::max(0.0, std::min(engine_->now(), t1) -
                              std::max(last_update_, t0));
  }
  return busy;
}

void CpuModel::reschedule_completion() {
  completion_event_.cancel();
  if (jobs_.empty()) {
    return;
  }
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const auto* job : jobs_) {
    min_remaining = std::min(min_remaining, job->remaining_);
  }
  const double until_done =
      min_remaining * static_cast<double>(jobs_.size()) / speed_;
  completion_event_ = engine_->schedule_after(
      std::max(until_done, kMinCompletionDelay),
      [this] { on_completion_event(); });
}

void CpuModel::on_completion_event() {
  advance();
  // Complete every job that has exhausted its work; resume through events so
  // completions at the same instant run in job order, deterministically.
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    ComputeAwaiter* job = *it;
    if (job->remaining_ <= kWorkEpsilon) {
      it = jobs_.erase(it);
      job->registered_ = false;
      job->completed_ = true;
      const auto handle = job->handle_;
      job->resume_event_ =
          engine_->schedule_after(0.0, [handle] { handle.resume(); });
    } else {
      ++it;
    }
  }
  reschedule_completion();
}

void CpuModel::add_job(ComputeAwaiter* job) {
  advance();
  jobs_.push_back(job);
  reschedule_completion();
}

void CpuModel::remove_job(ComputeAwaiter* job) {
  advance();
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
  reschedule_completion();
}

void CpuModel::set_speed(double speed) {
  assert(speed > 0.0 && "CPU speed must be positive");
  advance();  // settle progress at the old rate first
  speed_ = speed;
  reschedule_completion();
}

double CpuModel::cumulative_busy() const noexcept {
  double busy = busy_accum_;
  if (!jobs_.empty()) {
    busy += engine_->now() - last_update_;
  }
  return busy;
}

CpuModel::ComputeAwaiter::~ComputeAwaiter() {
  if (registered_) {
    cpu_->remove_job(this);
  }
  resume_event_.cancel();
}

void CpuModel::ComputeAwaiter::await_suspend(std::coroutine_handle<> h) {
  handle_ = h;
  remaining_ = work_;
  registered_ = true;
  cpu_->add_job(this);
}

}  // namespace ars::host
