#include "ars/core/trace.hpp"

#include <cstdio>

namespace ars::core {

void TraceRecorder::start(double interval) {
  if (running_) {
    return;
  }
  running_ = true;
  interval_ = interval;
  timer_ = engine_->schedule_after(interval_, [this] { sample_all(); });
}

void TraceRecorder::stop() {
  running_ = false;
  timer_.cancel();
}

void TraceRecorder::sample_all() {
  const double now = engine_->now();
  for (const auto& [name, id] : network_->host_index()) {
    host::Host& h = network_->host(id);
    TraceSample sample;
    sample.t = now;
    sample.host = name;
    sample.load1 = h.loadavg().one_minute();
    sample.load5 = h.loadavg().five_minute();
    sample.cpu_util = h.cpu_utilization(interval_);
    sample.tx_bps = network_->tx_rate_bps(id, interval_);
    sample.rx_bps = network_->rx_rate_bps(id, interval_);
    sample.processes = h.total_process_count();
    samples_.push_back(std::move(sample));
  }
  if (running_) {
    timer_ = engine_->schedule_after(interval_, [this] { sample_all(); });
  }
}

std::vector<TraceSample> TraceRecorder::series(const std::string& host) const {
  std::vector<TraceSample> out;
  for (const auto& sample : samples_) {
    if (sample.host == host) {
      out.push_back(sample);
    }
  }
  return out;
}

std::string TraceRecorder::to_csv() const {
  std::string out = "t,host,load1,load5,cpu_util,tx_bps,rx_bps,processes\n";
  char line[256];
  for (const auto& s : samples_) {
    std::snprintf(line, sizeof line, "%.3f,%s,%.4f,%.4f,%.4f,%.1f,%.1f,%d\n",
                  s.t, s.host.c_str(), s.load1, s.load5, s.cpu_util,
                  s.tx_bps, s.rx_bps, s.processes);
    out += line;
  }
  return out;
}

double TraceRecorder::mean(const std::string& host, double t0, double t1,
                           double TraceSample::* field) const {
  double sum = 0.0;
  int count = 0;
  for (const auto& sample : samples_) {
    if (sample.host == host && sample.t >= t0 && sample.t <= t1) {
      sum += sample.*field;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace ars::core
