#pragma once
// Host-backed sensors.
//
// The paper's monitors run shell scripts (`vmstat`, `netstat`, `prstat`,
// `ps`) to read system state.  Here each script *name* is bound to a reading
// of the simulated host or network, so rule files written in the paper's
// format (Figure 3) evaluate against live simulation state unchanged.

#include <string>

#include "ars/host/host.hpp"
#include "ars/net/network.hpp"
#include "ars/rules/engine.hpp"
#include "ars/xmlproto/messages.hpp"

namespace ars::monitor {

/// Script names understood by HostSensorSource.
inline constexpr const char* kScriptProcessorStatus = "processorStatus.sh";
inline constexpr const char* kScriptLoadAvg1 = "loadAvg1.sh";
inline constexpr const char* kScriptLoadAvg5 = "loadAvg5.sh";
inline constexpr const char* kScriptProcessCount = "nproc.sh";
inline constexpr const char* kScriptMemFree = "memFree.sh";
inline constexpr const char* kScriptDiskFree = "diskFree.sh";
inline constexpr const char* kScriptNetFlow = "netFlow.sh";  // param in|out
inline constexpr const char* kScriptNtStatIpv4 = "ntStatIpv4.sh";

class HostSensorSource final : public rules::SensorSource {
 public:
  /// `id` is the host's id on `network`: the flow sensors read its meters
  /// by id.
  HostSensorSource(host::Host& h, net::Network& network, net::HostId id,
                   double window = 10.0)
      : host_(&h), network_(&network), id_(id), window_(window) {}

  [[nodiscard]] support::Expected<double> sample(
      const std::string& script, const std::string& param) override;

  /// One full status snapshot (what the UPDATE heartbeat carries).
  [[nodiscard]] xmlproto::DynamicStatus snapshot();

  [[nodiscard]] double window() const noexcept { return window_; }

 private:
  host::Host* host_;
  net::Network* network_;
  net::HostId id_;
  double window_;
};

/// Static registration payload for a host.
[[nodiscard]] xmlproto::StaticInfo static_info_of(const host::Host& h);

}  // namespace ars::monitor
