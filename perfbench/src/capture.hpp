#pragma once
// Per-layer probes that work from outside the simulator's code.
//
// DatagramRecorder is a net::FaultPolicy that never faults: installed with
// Network::set_fault_policy (traced runs only), it sees every datagram the
// network posts and counts them by wire type, bytes and port, keeping a
// full copy of a deterministic sample.  record_capture() then replays the
// sample through the public xmlproto codec, Registry::deliver and the
// migration policy's rule checks.  Replays run after the live run, with
// other cache state, so the costs they yield are estimates of each layer's
// share.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ars/net/network.hpp"
#include "ars/rules/policy.hpp"

namespace perfbench {

class RunRecord;

struct CapturedDatagram {
  std::string src_host;
  int dst_port = 0;
  std::string payload;
};

/// What the recorders of one pass saw.
struct Capture {
  std::uint64_t datagrams = 0;
  std::uint64_t bytes = 0;
  std::map<std::string, std::uint64_t> types;  // by wire type tag
  std::map<int, std::uint64_t> ports;          // by destination port
  std::vector<CapturedDatagram> kept;

  void merge(Capture&& other);
};

class DatagramRecorder final : public ars::net::FaultPolicy {
 public:
  /// Keeps a full copy of every datagram posted by a worker host whose
  /// index is a multiple of `sample_every` ("ws000008", ...), and of every
  /// datagram from non-worker hosts (registries).
  DatagramRecorder(Capture& capture, int sample_every)
      : capture_(&capture), sample_every_(sample_every) {}

  PostVerdict on_post(const ars::net::Message& message) override;
  double bandwidth_factor(const std::string&, const std::string&) override {
    return 1.0;
  }

 private:
  Capture* capture_;
  int sample_every_;
};

/// Record the capture's counts and replay costs as net.*, xmlproto.*,
/// registry.* and rules.* metrics.  Shares are of `wall`, the median timed
/// pass of the workload.
void record_capture(const std::string& workload, const Capture& capture,
                    const std::set<int>& registry_ports,
                    const ars::rules::MigrationPolicy& policy, double wall,
                    RunRecord& record);

}  // namespace perfbench
