#pragma once
// Background workload generators used by the experiments: the "additional
// application, which causes a dramatic load increase" of §5.2 and the
// competing load on workstations 1 and 3 of Table 2.

#include <string>
#include <vector>

#include "ars/host/host.hpp"
#include "ars/sim/task.hpp"

namespace ars::host {

/// CPU load generator: `threads` runnable loops, each burning CPU until the
/// duration elapses (or forever if duration <= 0).  One thread raises the
/// 1-minute load average toward ~1, two toward ~2, and so on.
class CpuHog {
 public:
  struct Options {
    int threads = 1;
    double duration = -1.0;        // seconds of wall time; <0 means unbounded
    std::string name = "cpu_hog";
    int ambient_process_delta = 0;  // extra `ps` processes to simulate
  };

  CpuHog(Host& target, Options options);
  ~CpuHog() { stop(); }
  CpuHog(const CpuHog&) = delete;
  CpuHog& operator=(const CpuHog&) = delete;

  /// Begin generating load (idempotent).
  void start();

  /// Kill all generator threads and undo process-count adjustments.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }

 private:
  [[nodiscard]] sim::Task<> worker(double until);

  Host* host_;
  Options options_;
  std::vector<sim::Fiber> fibers_;
  std::vector<Pid> pids_;
  bool running_ = false;
};

/// Duty-cycle load generator: keeps the CPU busy a fixed fraction of each
/// one-second cycle (interactive daemons, cron jobs).  A 26 % duty cycle
/// reproduces the paper's idle-workstation baseline (load average ~0.256,
/// CPU ~26 %).
class DutyCycleHog {
 public:
  struct Options {
    double duty = 0.26;  // busy fraction in [0, 1]
  };

  DutyCycleHog(Host& target, Options options);
  ~DutyCycleHog() { stop(); }
  DutyCycleHog(const DutyCycleHog&) = delete;
  DutyCycleHog& operator=(const DutyCycleHog&) = delete;

  void start();
  void stop();

 private:
  [[nodiscard]] sim::Task<> worker();

  Host* host_;
  Options options_;
  sim::Fiber fiber_;
  bool running_ = false;
};

}  // namespace ars::host
