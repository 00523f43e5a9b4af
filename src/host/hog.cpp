#include "ars/host/hog.hpp"

namespace ars::host {

namespace {

/// CpuHog's compute-chunk granularity (reference seconds).
constexpr double kHogSlice = 1.0;
/// DutyCycleHog's on/off cycle (seconds).
constexpr double kDutyPeriod = 1.0;
/// DutyCycleHog's fiber name.
constexpr const char* kDutyName = "ambient";

}  // namespace

CpuHog::CpuHog(Host& target, Options options)
    : host_(&target), options_(std::move(options)) {}

sim::Task<> CpuHog::worker(double until) {
  auto& engine = host_->engine();
  while (until < 0.0 || engine.now() < until) {
    double chunk = kHogSlice;
    if (until >= 0.0) {
      // Never request work beyond the deadline even on an idle CPU.
      chunk = std::min(chunk, (until - engine.now()) * host_->cpu().speed());
      if (chunk <= 0.0) {
        break;
      }
    }
    co_await host_->cpu().compute(chunk);
  }
}

void CpuHog::start() {
  if (running_) {
    return;
  }
  running_ = true;
  auto& engine = host_->engine();
  const double until =
      options_.duration < 0.0 ? -1.0 : engine.now() + options_.duration;
  for (int i = 0; i < options_.threads; ++i) {
    const std::string name = options_.name + "#" + std::to_string(i);
    pids_.push_back(
        host_->processes().register_process(name, engine.now()));
    fibers_.push_back(sim::Fiber::spawn(engine, worker(until), name));
  }
  host_->set_ambient_process_count(host_->ambient_process_count() +
                                   options_.ambient_process_delta);
}

void CpuHog::stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  for (auto& fiber : fibers_) {
    fiber.kill();
  }
  fibers_.clear();
  for (const Pid pid : pids_) {
    host_->processes().deregister(pid);
  }
  pids_.clear();
  host_->set_ambient_process_count(host_->ambient_process_count() -
                                   options_.ambient_process_delta);
}

DutyCycleHog::DutyCycleHog(Host& target, Options options)
    : host_(&target), options_(std::move(options)) {}

sim::Task<> DutyCycleHog::worker() {
  auto& engine = host_->engine();
  const double busy = options_.duty * kDutyPeriod;
  const double idle = kDutyPeriod - busy;
  while (true) {
    if (busy > 0.0) {
      // Demand enough work to stay busy `busy` seconds at the achieved
      // rate; under contention the duty fraction degrades naturally.
      co_await host_->cpu().compute(busy * host_->cpu().speed());
    }
    if (idle > 0.0) {
      co_await sim::delay(engine, idle);
    }
  }
}

void DutyCycleHog::start() {
  if (running_) {
    return;
  }
  running_ = true;
  fiber_ = sim::Fiber::spawn(host_->engine(), worker(), kDutyName);
}

void DutyCycleHog::stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  fiber_.kill();
}

}  // namespace ars::host
