#pragma once
// What one benchmark run measured, handed to run.py as one JSON document.
//
// The C++ side only measures and checks: it collects raw timing samples
// (one per pass, per seed run or per simulated-second slice), exact
// simulated values and counts, and named correctness checks.  run.py turns
// samples into medians and tail percentiles, compares the exact values
// against the pinned expectations and prints the metrics.

#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

/// Wall clock of the host (steady, monotonic), in seconds.
inline double wall_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds burned by every thread of this process so far.
inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The reference loop's wall time at the speed that scaled times are
/// expressed at (the loop takes 1.4-1.9 ms on a 2.1 GHz Xeon vCPU).
constexpr double kReferenceLoopS = 2.0e-3;

/// Wall time of one run of a fixed reference loop (heap, hash table and
/// formatting work, ~2 ms), the yardstick for the core's current speed.
/// The single-thread speed of a shared VM drifts by up to 40% within
/// seconds, so a time that is to be compared across runs is taken right
/// after this loop and rescaled by kReferenceLoopS / its time (see
/// SpeedScaled).  Repo code never runs in it, so a change to the simulator
/// moves only the rescaled time, never the yardstick.
double reference_loop_s();

/// Wall time of timed calls, each taken right after a reference loop,
/// rescaled to the reference speed: seconds at kReferenceLoopS per loop.
class SpeedScaled {
 public:
  /// Run the reference loop; call right before each timed call.
  void reference() {
    reference_s_ += reference_loop_s();
    ++references_;
  }
  void add(double wall_s) { wall_s_ += wall_s; }

  [[nodiscard]] double wall_s() const { return wall_s_; }
  [[nodiscard]] double scaled_s() const {
    return wall_s_ * kReferenceLoopS * references_ / reference_s_;
  }
  [[nodiscard]] double reference_ms() const {
    return 1e3 * reference_s_ / references_;
  }

 private:
  double wall_s_ = 0.0;
  double reference_s_ = 0.0;
  int references_ = 0;
};

/// Peak resident set of this process, MiB.
inline double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class RunRecord {
 public:
  /// Append one timing sample to the series `name`.
  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  /// Median of the series `name` (0 when empty).
  [[nodiscard]] double median(const std::string& name) const;

  void set(const std::string& name, double value) { values_[name] = value; }

  /// One correctness operation; a false `ok` counts as a failed operation.
  void check(std::string name, bool ok, std::string detail = {}) {
    checks_.push_back({std::move(name), ok, std::move(detail)});
  }

  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::vector<Check> checks_;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

void run_policies(const RunArgs& args, RunRecord& record);
void run_heartbeats(const RunArgs& args, RunRecord& record);
void run_ckpt_storm(const RunArgs& args, RunRecord& record);

}  // namespace perfbench
