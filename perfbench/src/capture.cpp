#include "capture.hpp"

#include <cctype>

#include "ars/host/host.hpp"
#include "ars/registry/registry.hpp"
#include "ars/sim/engine.hpp"
#include "ars/xmlproto/messages.hpp"
#include "record.hpp"

namespace perfbench {

namespace {

using namespace ars;

/// Each replay repeats its batch until this much wall time was measured,
/// so per-item costs of small samples are not single-shot timings.
constexpr double kMinReplaySeconds = 0.2;

bool sampled(const std::string& host, int every) {
  if (every <= 1 || host.size() < 3 || host.compare(0, 2, "ws") != 0) {
    return true;
  }
  std::uint64_t index = 0;
  for (std::size_t i = 2; i < host.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(host[i])) == 0) {
      return true;
    }
    index = index * 10 + static_cast<std::uint64_t>(host[i] - '0');
  }
  return index % static_cast<std::uint64_t>(every) == 0;
}

/// Mean seconds per item: runs `batch` (which handles `items` items) until
/// kMinReplaySeconds have been measured.  `batch` returns the seconds it
/// spent on the timed part.
template <typename Batch>
double per_item_seconds(std::size_t items, Batch&& batch) {
  if (items == 0) {
    return 0.0;
  }
  double spent = 0.0;
  std::size_t done = 0;
  do {
    spent += batch();
    done += items;
  } while (spent < kMinReplaySeconds);
  return spent / static_cast<double>(done);
}

/// Wire type tag of an xmlproto payload ("update", "health", ...), "other"
/// for anything that is not an <ars type="..."> document.
std::string wire_type(const std::string& payload) {
  // Envelope attributes may precede `type` (trace context), so search the
  // root element's opening tag rather than a fixed prefix.
  if (payload.compare(0, 5, "<ars ") != 0) {
    return "other";
  }
  const std::size_t tag_end = payload.find('>');
  const std::size_t at = payload.find(" type=\"");
  if (at == std::string::npos || at > tag_end) {
    return "other";
  }
  const std::size_t begin = at + 7;
  const std::size_t end = payload.find('"', begin);
  return end == std::string::npos ? "other"
                                  : payload.substr(begin, end - begin);
}

struct ReplayCost {
  double decode_us = 0.0;      // xmlproto::decode_envelope per datagram
  double encode_us = 0.0;      // xmlproto::encode per decoded message
  double deliver_us = 0.0;     // Registry::deliver per registry-bound message
  double rules_eval_us = 0.0;  // should_offload + accepts_destination
  std::size_t decode_errors = 0;
};

/// Time the captured sample through the codec, a fresh registry (messages
/// addressed to `registry_ports` only) and `policy`'s rule checks.
ReplayCost replay(const Capture& capture, const std::set<int>& registry_ports,
                  const rules::MigrationPolicy& policy) {
  ReplayCost cost;

  struct Decoded {
    const CapturedDatagram* datagram;
    xmlproto::Envelope envelope;
  };
  std::vector<Decoded> decoded;
  decoded.reserve(capture.kept.size());
  for (const CapturedDatagram& datagram : capture.kept) {
    auto envelope = xmlproto::decode_envelope(datagram.payload);
    if (envelope.has_value()) {
      decoded.push_back({&datagram, std::move(envelope.value())});
    } else {
      ++cost.decode_errors;
    }
  }

  cost.decode_us = 1e6 * per_item_seconds(capture.kept.size(), [&] {
    const double start = wall_now();
    for (const CapturedDatagram& datagram : capture.kept) {
      (void)xmlproto::decode_envelope(datagram.payload);
    }
    return wall_now() - start;
  });
  cost.encode_us = 1e6 * per_item_seconds(decoded.size(), [&] {
    const double start = wall_now();
    for (const Decoded& item : decoded) {
      (void)xmlproto::encode(item.envelope.message, item.envelope.trace);
    }
    return wall_now() - start;
  });

  std::vector<const Decoded*> to_registry;
  std::vector<const xmlproto::DynamicStatus*> statuses;
  for (const Decoded& item : decoded) {
    if (registry_ports.contains(item.datagram->dst_port)) {
      to_registry.push_back(&item);
    }
    if (const auto* update =
            std::get_if<xmlproto::UpdateMsg>(&item.envelope.message)) {
      statuses.push_back(&update->status);
    }
  }

  registry::Registry::Config config;
  config.policy = policy;
  config.audit = registry::AuditMode::kOff;
  cost.deliver_us = 1e6 * per_item_seconds(to_registry.size(), [&] {
    // A fresh registry per batch, so every batch replays the same history
    // (registrations first) and construction stays outside the timing.
    sim::Engine engine;
    host::HostSpec spec;
    spec.name = "replay-registry";
    host::Host hub{engine, spec};
    net::Network network{engine};
    network.attach(hub);
    registry::Registry registry{hub, network, config};
    const double start = wall_now();
    for (const Decoded* item : to_registry) {
      registry.deliver(item->envelope.message, item->datagram->src_host,
                       item->envelope.trace);
    }
    return wall_now() - start;
  });

  cost.rules_eval_us = 1e6 * per_item_seconds(statuses.size(), [&] {
    const double start = wall_now();
    for (const xmlproto::DynamicStatus* status : statuses) {
      (void)policy.should_offload(*status);
      (void)policy.accepts_destination(*status);
    }
    return wall_now() - start;
  });

  return cost;
}

}  // namespace

void Capture::merge(Capture&& other) {
  datagrams += other.datagrams;
  bytes += other.bytes;
  for (const auto& [type, count] : other.types) {
    types[type] += count;
  }
  for (const auto& [port, count] : other.ports) {
    ports[port] += count;
  }
  for (CapturedDatagram& datagram : other.kept) {
    kept.push_back(std::move(datagram));
  }
}

net::FaultPolicy::PostVerdict DatagramRecorder::on_post(
    const net::Message& message) {
  Capture& capture = *capture_;
  ++capture.datagrams;
  capture.bytes += message.size_bytes;
  ++capture.types[wire_type(message.payload)];
  ++capture.ports[message.dst_port];
  if (sampled(message.src_host, sample_every_)) {
    capture.kept.push_back(
        {message.src_host, message.dst_port, message.payload});
  }
  return {};
}

void record_capture(const std::string& workload, const Capture& capture,
                    const std::set<int>& registry_ports,
                    const rules::MigrationPolicy& policy, double wall,
                    RunRecord& record) {
  record.set("net.datagrams", static_cast<double>(capture.datagrams));
  record.set("net.datagram_bytes_mean",
             static_cast<double>(capture.bytes) /
                 static_cast<double>(capture.datagrams));
  for (const auto& [type, count] : capture.types) {
    record.set("xmlproto.msgs." + type, static_cast<double>(count));
  }
  std::uint64_t to_registry = 0;
  for (const int port : registry_ports) {
    const auto it = capture.ports.find(port);
    to_registry += it == capture.ports.end() ? 0 : it->second;
  }
  const ReplayCost cost = replay(capture, registry_ports, policy);
  record.check(workload + ".replay_decodes", cost.decode_errors == 0,
               std::to_string(cost.decode_errors) +
                   " captured datagrams failed to decode");
  record.set("xmlproto.decode_us", cost.decode_us);
  record.set("xmlproto.encode_us", cost.encode_us);
  record.set("xmlproto.share_est",
             (cost.decode_us + cost.encode_us) * 1e-6 *
                 static_cast<double>(capture.datagrams) / wall);
  record.set("registry.deliver_us", cost.deliver_us);
  record.set("registry.share_est", cost.deliver_us * 1e-6 *
                                       static_cast<double>(to_registry) /
                                       wall);
  record.set("rules.eval_us", cost.rules_eval_us);
}

}  // namespace perfbench
