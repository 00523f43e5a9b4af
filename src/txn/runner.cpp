#include "ars/txn/runner.hpp"

#include <exception>
#include <utility>

namespace ars::txn {

Runner::Runner(sim::Engine& engine, PhaseEvent identity,
               const PhaseListener* listener)
    : engine_(&engine),
      event_(std::move(identity)),
      listener_(listener),
      wake_(engine) {}

Runner::~Runner() { stop(); }

void Runner::enter(std::string phase) {
  event_.phase = std::move(phase);
  status_ = Status::kFinished;
  ended_at_ = engine_->now();
  stall_ = 0.0;
  if (listener_ != nullptr && *listener_) {
    stall_ = (*listener_)(event_);
  }
}

void Runner::start(sim::Task<> body, double timeout) {
  stop();
  error_.clear();
  if (!failure_.empty()) {
    status_ = Status::kFailed;
    ended_at_ = engine_->now();
    return;
  }
  status_ = Status::kRunning;
  body_ = sim::Fiber::spawn(*engine_, drive(stall_, std::move(body)),
                            event_.subject + "." + event_.phase);
  deadline_ = engine_->schedule_after(timeout,
                                      [this] { end(Status::kTimedOut); });
}

sim::Task<Status> Runner::run(sim::Task<> body, double timeout) {
  start(std::move(body), timeout);
  while (status_ == Status::kRunning) {
    co_await wake_.wait();
  }
  co_return poll();
}

Status Runner::poll() const {
  return status_ == Status::kFinished && !failure_.empty() ? Status::kFailed
                                                           : status_;
}

void Runner::fail(std::string reason) {
  if (failure_.empty()) {
    failure_ = std::move(reason);
  }
  end(Status::kFailed);
}

void Runner::stop() {
  deadline_.cancel();
  body_.kill();
}

sim::Task<> Runner::settle() {
  while (!body_.done()) {
    co_await wake_.wait();
  }
}

sim::Task<> Runner::drive(double stall, sim::Task<> body) {
  if (stall > 0.0) {
    co_await sim::delay(*engine_, stall);
  }
  try {
    co_await std::move(body);
  } catch (const std::exception& e) {
    end(Status::kThrew, e.what());
    co_return;
  }
  end(Status::kFinished);
}

void Runner::end(Status status, std::string error) {
  const double now = engine_->now();
  if (status_ == Status::kRunning || (now == ended_at_ && status > status_)) {
    if (status_ == Status::kRunning) {
      ended_at_ = now;
      deadline_.cancel();
    }
    status_ = status;
    if (status == Status::kThrew) {
      error_ = error.empty() ? "phase failed" : std::move(error);
    }
  }
  // Every event wakes the waiters: run() re-reads the status, settle()
  // checks whether the body has returned.
  wake_.notify_all();
}

}  // namespace ars::txn
