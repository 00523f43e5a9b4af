#pragma once
// Simulated workstation network.
//
// Model: full-duplex NICs of fixed capacity (default 100 Mb/s, the paper's
// switched Ethernet), fixed propagation latency, and fluid bandwidth
// sharing — an active transfer's rate is min(src TX capacity / src TX count,
// dst RX capacity / dst RX count), recomputed whenever the set of active
// transfers changes.  This captures the effect the paper's Table 2 hinges
// on: migrating toward a communication-busy workstation is slower.
//
// Two interfaces sit on top:
//   * transfer(src, dst, bytes)  — awaitable bulk move (MPI payloads, HPCM
//     state chunks); completes when the last byte lands.
//   * post(message)              — fire-and-forget datagram delivered into a
//     bound Endpoint's inbox (the rescheduler's XML/TCP control plane).
//
// Every attached host has a dense HostId (its attach order) indexing one
// record table.  The hot paths (a monitor's sensor reads and heartbeats)
// take ids; the by-name forms resolve each name once in the name index and
// run the same code.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ars/host/host.hpp"
#include "ars/net/flowmeter.hpp"
#include "ars/obs/trace_ctx.hpp"
#include "ars/sim/channel.hpp"
#include "ars/sim/task.hpp"
#include "ars/sim/wait.hpp"

namespace ars::net {

class ShardRouter;

/// Dense handle of a host attached to one Network: 0, 1, 2, ... in attach
/// order.  Meaningful only on the network that issued it.
enum class HostId : std::uint32_t {};

struct Message {
  std::string src_host;
  std::string dst_host;
  int dst_port = 0;
  std::string payload;           // wire content (XML for the control plane)
  std::uint64_t size_bytes = 0;  // defaults to payload size at post()
  double sent_at = 0.0;
  double delivered_at = 0.0;
  /// Causal context the payload's envelope carries (unset for untraced
  /// traffic).  Lets the network stamp net.send/net.recv instants without
  /// re-parsing the XML payload.
  obs::TraceCtx trace;
};

/// A bound (host, port): messages posted to it appear in `inbox`.
struct Endpoint {
  explicit Endpoint(sim::Engine& engine) : inbox(engine) {}
  sim::Channel<Message> inbox;
};

/// Per-link fault policy consulted by the network (chaos injection hook).
/// Implementations are not owned by the network; install with
/// Network::set_fault_policy and clear (nullptr) before destruction.
class FaultPolicy {
 public:
  virtual ~FaultPolicy() = default;

  struct PostVerdict {
    bool drop = false;        // discard the datagram entirely
    int duplicates = 0;       // extra copies delivered alongside the original
    double extra_delay = 0.0; // added seconds before the copy enters the NIC
  };

  /// Consulted once per post(); may advance internal (seeded) random state.
  virtual PostVerdict on_post(const Message& message) = 0;

  /// Bandwidth multiplier in [0, 1] applied to bulk transfers src -> dst.
  /// 0 stalls the transfer until the factor recovers (full partition); call
  /// Network::on_fault_change() whenever the answer changes over time.
  virtual double bandwidth_factor(const std::string& src,
                                  const std::string& dst) = 0;
};

class Network {
 public:
  struct Options {
    double latency = 0.0001;          // one-way propagation, seconds
    double bandwidth_bps = 12.5e6;    // per-NIC, bytes/second (100 Mb/s)
    std::uint64_t message_overhead = 64;  // headers added to each post()
  };

  explicit Network(sim::Engine& engine);  // default options
  Network(sim::Engine& engine, Options options);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  /// Register a host and return its id (the next in attach order).  The
  /// host object must outlive the network.  Throws if the name is taken.
  HostId attach(host::Host& h);

  /// The name index: every attached host's id, in name order.
  [[nodiscard]] const std::map<std::string, HostId>& host_index()
      const noexcept {
    return ids_;
  }
  /// Resolve a name; throws std::out_of_range if it is not attached here.
  [[nodiscard]] HostId id_of(const std::string& hostname) const;
  /// Resolve a name; nullopt when it is not attached here.  In a sharded
  /// run other shards' threads call this too (net/shard_router.hpp), so
  /// attach nothing while one is in flight.
  [[nodiscard]] std::optional<HostId> find_id(
      const std::string& hostname) const;
  [[nodiscard]] host::Host& host(HostId id) const;
  [[nodiscard]] host::Host* find_host(const std::string& name) const;
  /// Attached host names, in name order.
  [[nodiscard]] std::vector<std::string> host_names() const;

  /// Bind a port on a host; returns the endpoint whose inbox receives
  /// posted messages.  Throws if already bound or the host is unknown.
  Endpoint& bind(const std::string& hostname, int port);
  void unbind(const std::string& hostname, int port);
  [[nodiscard]] int allocate_port(HostId host);
  [[nodiscard]] int allocate_port(const std::string& hostname);

  /// Fire-and-forget control message.  Unknown destinations or unbound
  /// ports drop the message, counted by reason (soft-state tolerates loss).
  /// With a shard router attached, destinations living on another shard are
  /// forwarded through the inter-shard fabric instead of dropped; the local
  /// fast path (destination attached here) is unchanged.  A destination
  /// attached here needs the source attached too (std::out_of_range).
  void post(Message message);
  /// The same post between two attached hosts, resolving no name: fills in
  /// the message's src_host and dst_host from the ids.  The by-name post
  /// resolves both ends and sends through here.
  void post(HostId src, HostId dst, Message message);

  /// Hand a datagram that has paid its wire cost to its bound endpoint
  /// (stamping net.recv on the engine's tracer); unbound ports drop as
  /// usual.  The destination side of a cross-shard datagram: the shard
  /// router calls it on this shard's thread.
  void deliver_local(Message message);

  /// Awaitable bulk transfer; returns elapsed seconds.  Loopback (src==dst)
  /// costs only latency and is not metered.
  [[nodiscard]] sim::Task<double> transfer(HostId src, HostId dst,
                                           double bytes);
  /// By name: resolves both names at the call (std::out_of_range for a host
  /// not attached here), then transfers by id.
  [[nodiscard]] sim::Task<double> transfer(const std::string& src,
                                           const std::string& dst,
                                           double bytes);

  [[nodiscard]] const FlowMeter& tx_meter(const std::string& hostname) const;
  [[nodiscard]] const FlowMeter& rx_meter(const std::string& hostname) const;
  /// One direction's traffic over the trailing `window` seconds, completed
  /// and in flight, in bytes per second.
  [[nodiscard]] double tx_rate_bps(HostId host, double window) const;
  [[nodiscard]] double rx_rate_bps(HostId host, double window) const;
  [[nodiscard]] double tx_rate_bps(const std::string& hostname,
                                   double window) const;
  [[nodiscard]] double rx_rate_bps(const std::string& hostname,
                                   double window) const;

  [[nodiscard]] sim::Engine& engine() const noexcept { return *engine_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Number of in-flight bulk transfers (excluding loopback).
  [[nodiscard]] std::size_t active_transfers() const noexcept {
    return jobs_.size();
  }

  // -- fault injection (ars::chaos hook points) -----------------------------

  /// Install (or clear, with nullptr) the link fault policy.  Not owned; the
  /// policy must outlive the network or be cleared before it goes away.
  void set_fault_policy(FaultPolicy* policy) noexcept;
  [[nodiscard]] FaultPolicy* fault_policy() const noexcept {
    return fault_policy_;
  }

  /// Re-evaluate active transfer rates against the fault policy.  Call when
  /// a time-varying fault (partition heal, bandwidth degradation boundary)
  /// changes what bandwidth_factor would answer.
  void on_fault_change();

  // -- cross-shard routing (sharded runs; see net/shard_router.hpp) ---------

  /// Wire this network to the inter-shard fabric as shard `shard_id`; clear
  /// with nullptr.  Normally called by ShardRouter::attach, not directly.
  void set_shard_router(ShardRouter* router, std::size_t shard_id) noexcept {
    shard_router_ = router;
    shard_id_ = shard_id;
  }

  /// Datagrams dropped so far with `hostname` as the poster (all reasons:
  /// unknown destination, unbound port, injected fault).
  [[nodiscard]] std::uint64_t dropped_count(const std::string& hostname) const;
  /// Total datagrams dropped across all hosts and reasons.
  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_total_;
  }

 private:
  struct HostRecord {
    host::Host* host = nullptr;
    int tx_active = 0;
    int rx_active = 0;
    FlowMeter tx_meter;
    FlowMeter rx_meter;
    int next_port = 40000;
    std::uint64_t messages_dropped = 0;
  };

  struct TransferJob {
    TransferJob(sim::Engine& engine, HostRecord* src_rec, HostRecord* dst_rec,
                double total_bytes)
        : src(src_rec), dst(dst_rec), remaining(total_bytes), done(engine) {}
    HostRecord* src;
    HostRecord* dst;
    double remaining;
    double rate = 0.0;
    bool completed = false;
    sim::Trigger done;
  };

  HostRecord& record(HostId id);
  [[nodiscard]] const HostRecord& record(HostId id) const;

  void advance();
  void recompute_rates();
  void reschedule_completion();
  void on_completion_event();
  void register_job(TransferJob* job);
  void withdraw_job(TransferJob* job);
  /// Default the datagram's size, stamp sent_at and (traced) net.send.
  void stamp_send(Message& message);
  /// What the fault policy lets through of one posted datagram.
  struct Fanout {
    int copies = 1;
    double extra_delay = 0.0;
  };
  /// Consult the fault policy where the message is posted: nullopt when it
  /// drops the message (the caller counts the drop), else the copies to
  /// send and their extra delay.
  [[nodiscard]] std::optional<Fanout> fault_fanout(const Message& message);
  /// Tail of every delivery: hand the datagram to the open endpoint bound
  /// at (dst, dst_port) and stamp net.recv, or count an unbound_port drop
  /// against `poster` (the source, when it is attached here).
  void hand_over(std::optional<HostId> dst, std::optional<HostId> poster,
                 Message message);
  /// tx_rate_bps / rx_rate_bps: one direction's metered bytes plus the
  /// live portion of its in-flight transfers, per second of `window`.
  [[nodiscard]] double rate_bps(HostId host, bool outbound,
                                double window) const;
  /// Source side of a cross-shard post: find the destination's shard once,
  /// take the fault verdict, then hand the copies to the router.  Returns
  /// false when no other shard holds the destination (the caller then drops
  /// it as unknown_host).
  bool route_cross_shard(Message& message);
  /// Account one dropped datagram: the poster's count when it is attached
  /// here, the total, and the labeled ars_net_dropped_total counter when
  /// the engine has a metrics sink.
  void count_drop(std::optional<HostId> poster, const char* reason);

  sim::Engine* engine_;
  Options options_;
  std::deque<HostRecord> records_;  // by HostId; appends never move records
  std::map<std::string, HostId> ids_;  // the name index
  std::map<std::pair<HostId, int>, std::unique_ptr<Endpoint>> endpoints_;
  std::vector<sim::Fiber> delivery_fibers_;  // in-flight post() deliveries
  std::vector<TransferJob*> jobs_;
  double last_update_ = 0.0;
  sim::Engine::EventHandle completion_event_;
  FaultPolicy* fault_policy_ = nullptr;
  std::uint64_t dropped_total_ = 0;
  ShardRouter* shard_router_ = nullptr;
  std::size_t shard_id_ = 0;
};

}  // namespace ars::net
