#pragma once
// Processor-sharing CPU model.
//
// Jobs submit `work` in *reference-CPU seconds*.  A host of speed `s` running
// `n` jobs gives each job rate s/n, matching an egalitarian UNIX scheduler at
// the timescale the paper's metrics observe.  Run-queue length feeds the
// load-average EMA, and cumulative busy time feeds the utilization meter.

#include <coroutine>
#include <vector>

#include "ars/sim/engine.hpp"
#include "ars/support/ringbuffer.hpp"

namespace ars::host {

class CpuModel {
 public:
  CpuModel(sim::Engine& engine, double speed);
  CpuModel(const CpuModel&) = delete;
  CpuModel& operator=(const CpuModel&) = delete;
  ~CpuModel();

  /// Awaitable that completes after `work` reference-seconds of CPU time.
  /// Destroying the awaiter (fiber kill / migration) withdraws the job.
  class ComputeAwaiter {
   public:
    ComputeAwaiter(CpuModel& cpu, double work) noexcept
        : cpu_(&cpu), work_(work) {}
    ComputeAwaiter(const ComputeAwaiter&) = delete;
    ComputeAwaiter& operator=(const ComputeAwaiter&) = delete;
    ~ComputeAwaiter();

    [[nodiscard]] bool await_ready() const noexcept { return work_ <= 0.0; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

   private:
    friend class CpuModel;
    CpuModel* cpu_;
    double work_;
    std::coroutine_handle<> handle_;
    double remaining_ = 0.0;
    bool registered_ = false;
    bool completed_ = false;
    sim::Engine::EventHandle resume_event_;
  };

  [[nodiscard]] ComputeAwaiter compute(double work) noexcept {
    return ComputeAwaiter{*this, work};
  }

  /// Number of runnable jobs right now (the instantaneous run-queue length).
  [[nodiscard]] std::size_t runnable_count() const noexcept {
    return jobs_.size();
  }

  /// Total busy (non-idle) CPU time accumulated up to the current instant.
  [[nodiscard]] double cumulative_busy() const noexcept;

  /// Integral of the run-queue length over time (job-seconds) up to now;
  /// the load average samples its rate, which is alias-free for periodic
  /// workloads (unlike point sampling).
  [[nodiscard]] double cumulative_job_seconds() const noexcept;

  /// Busy time that fell inside [t0, t1], including any ongoing busy period.
  /// Finished busy periods are kept for an hour of simulated time, in
  /// non-decreasing `end` order, so the read binary-searches for the first
  /// one ending at or after t0: O(log n + k) for the k periods from there.
  [[nodiscard]] double busy_between(double t0, double t1) const noexcept;

  [[nodiscard]] double speed() const noexcept { return speed_; }

  /// Change the effective speed mid-run (chaos CPU slowdown / thermal
  /// throttling).  In-flight jobs keep their accrued progress and finish at
  /// the new rate.
  void set_speed(double speed);

  [[nodiscard]] sim::Engine& engine() const noexcept { return *engine_; }

 private:
  struct BusySegment {
    double begin = 0.0;
    double end = 0.0;
  };

  void advance();
  void record_busy(double begin, double end);
  void reschedule_completion();
  void add_job(ComputeAwaiter* job);
  void remove_job(ComputeAwaiter* job);
  void on_completion_event();

  sim::Engine* engine_;
  double speed_;
  std::vector<ComputeAwaiter*> jobs_;
  support::RingBuffer<BusySegment> busy_segments_;
  double last_update_ = 0.0;
  double busy_accum_ = 0.0;
  double job_seconds_ = 0.0;
  sim::Engine::EventHandle completion_event_;
};

}  // namespace ars::host
