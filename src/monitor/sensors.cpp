#include "ars/monitor/sensors.hpp"

#include "ars/support/strings.hpp"

namespace ars::monitor {

using support::Expected;
using support::make_error;

Expected<double> HostSensorSource::sample(const std::string& script,
                                          const std::string& param) {
  const double now = host_->engine().now();
  if (script == kScriptProcessorStatus) {
    return host_->cpu_idle_percent(window_);
  }
  if (script == kScriptLoadAvg1) {
    return host_->loadavg().one_minute();
  }
  if (script == kScriptLoadAvg5) {
    return host_->loadavg().five_minute();
  }
  if (script == kScriptProcessCount) {
    return static_cast<double>(host_->total_process_count());
  }
  if (script == kScriptMemFree) {
    return host_->memory().percent_available();
  }
  if (script == kScriptDiskFree) {
    return static_cast<double>(host_->disk().total_available());
  }
  if (script == kScriptNetFlow) {
    if (param == "out") {
      return network_->tx_rate_bps(id_, window_);
    }
    if (param == "in" || param.empty()) {
      return network_->rx_rate_bps(id_, window_);
    }
    return make_error("sensor", "netFlow.sh: unknown direction '" + param +
                                    "' (use in|out)");
  }
  if (script == kScriptNtStatIpv4) {
    // Only ESTABLISHED is modeled; other socket states read as zero.
    if (param.empty() || support::iequals(param, "ESTABLISHED")) {
      return static_cast<double>(host_->established_sockets());
    }
    return 0.0;
  }
  (void)now;
  return make_error("sensor", "unknown script '" + script + "'");
}

xmlproto::DynamicStatus HostSensorSource::snapshot() {
  xmlproto::DynamicStatus status;
  status.host = host_->name();
  status.load1 = host_->loadavg().one_minute();
  status.load5 = host_->loadavg().five_minute();
  status.cpu_util = host_->cpu_utilization(window_);
  status.processes = host_->total_process_count();
  status.mem_available_pct = host_->memory().percent_available();
  status.disk_available = host_->disk().total_available();
  status.net_in_bps = network_->rx_rate_bps(id_, window_);
  status.net_out_bps = network_->tx_rate_bps(id_, window_);
  status.sockets_established = host_->established_sockets();
  status.timestamp = host_->engine().now();
  return status;
}

xmlproto::StaticInfo static_info_of(const host::Host& h) {
  xmlproto::StaticInfo info;
  info.host = h.name();
  info.os = h.spec().os;
  info.memory_bytes = h.spec().memory_bytes;
  info.disk_bytes = h.spec().disk_bytes;
  info.cpu_speed = h.spec().cpu_speed;
  info.byte_order =
      h.spec().byte_order == support::ByteOrder::kBigEndian ? "big" : "little";
  return info;
}

}  // namespace ars::monitor
