#pragma once
// A simulated workstation: CPU, load averages, memory, disk, process table,
// temp-file store, and the counters the monitor's sensors read.  The paper's
// testbed node (Sun Blade 100: 500 MHz UltraSPARC-IIe, 128 MB) is the
// reference configuration.

#include <cstdint>
#include <memory>
#include <string>

#include "ars/host/accounts.hpp"
#include "ars/host/cpu.hpp"
#include "ars/host/loadavg.hpp"
#include "ars/host/process.hpp"
#include "ars/sim/engine.hpp"
#include "ars/support/byteorder.hpp"

namespace ars::host {

struct HostSpec {
  std::string name;
  /// CPU speed relative to the reference workstation (1.0 = Sun Blade 100).
  double cpu_speed = 1.0;
  std::uint64_t memory_bytes = 128ULL * 1024 * 1024;
  std::uint64_t disk_bytes = 20ULL * 1024 * 1024 * 1024;
  support::ByteOrder byte_order = support::ByteOrder::kBigEndian;
  std::string os = "SunOS 5.8";
};

class Host {
 public:
  Host(sim::Engine& engine, HostSpec spec);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const HostSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& name() const noexcept {
    return spec_.name;
  }
  [[nodiscard]] sim::Engine& engine() const noexcept { return *engine_; }

  [[nodiscard]] CpuModel& cpu() noexcept { return cpu_; }
  [[nodiscard]] const CpuModel& cpu() const noexcept { return cpu_; }
  [[nodiscard]] LoadAverage& loadavg() noexcept { return loadavg_; }
  [[nodiscard]] const LoadAverage& loadavg() const noexcept {
    return loadavg_;
  }
  [[nodiscard]] ProcessTable& processes() noexcept { return processes_; }
  [[nodiscard]] const ProcessTable& processes() const noexcept {
    return processes_;
  }
  [[nodiscard]] MemoryAccount& memory() noexcept { return memory_; }
  [[nodiscard]] const MemoryAccount& memory() const noexcept {
    return memory_;
  }
  [[nodiscard]] DiskAccount& disk() noexcept { return disk_; }
  [[nodiscard]] const DiskAccount& disk() const noexcept { return disk_; }
  [[nodiscard]] KvStore& tmpfiles() noexcept { return tmpfiles_; }

  /// CPU utilization over the window ending now (busy fraction in [0,1]).
  /// Backed by the cumulative busy-time integral, so any window works.
  [[nodiscard]] double cpu_utilization(double window) noexcept;

  /// Idle percentage as `vmstat` reports it (100 - 100*utilization), over
  /// the sensor's sampling window.
  [[nodiscard]] double cpu_idle_percent(double window) noexcept {
    return 100.0 * (1.0 - cpu_utilization(window));
  }

  /// Ambient processes beyond the registered table (system daemons etc.),
  /// included in the `ps`-style process-count sensor.
  void set_ambient_process_count(int count) noexcept {
    ambient_processes_ = count;
  }
  [[nodiscard]] int ambient_process_count() const noexcept {
    return ambient_processes_;
  }
  [[nodiscard]] int total_process_count() const noexcept {
    return static_cast<int>(processes_.count()) + ambient_processes_;
  }

  /// Open IPv4 sockets in ESTABLISHED state (`netstat` sensor); the network
  /// layer and traffic generators adjust this.
  void adjust_established_sockets(int delta) noexcept {
    established_sockets_ += delta;
  }
  void set_established_sockets(int value) noexcept {
    established_sockets_ = value;
  }
  [[nodiscard]] int established_sockets() const noexcept {
    return established_sockets_;
  }

 private:
  sim::Engine* engine_;
  HostSpec spec_;
  CpuModel cpu_;
  LoadAverage loadavg_;
  ProcessTable processes_;
  MemoryAccount memory_;
  DiskAccount disk_;
  KvStore tmpfiles_;
  int ambient_processes_ = 0;
  int established_sockets_ = 0;
};

}  // namespace ars::host
