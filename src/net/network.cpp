#include "ars/net/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "ars/net/shard_router.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/support/log.hpp"

namespace ars::net {

namespace {
constexpr double kByteEpsilon = 1e-6;  // sub-byte residue counts as done
// Completion events must strictly advance virtual time even when `now` is
// large: below one ulp of `now`, now + delay == now and the event loop
// would spin forever on floating-point residue.
constexpr double kMinCompletionDelay = 1e-9;
}  // namespace

Network::Network(sim::Engine& engine) : Network(engine, Options{}) {}

Network::Network(sim::Engine& engine, Options options)
    : engine_(&engine), options_(options), last_update_(engine.now()) {}

Network::~Network() {
  // Kill in-flight datagram deliveries; their transfer guards withdraw the
  // associated bandwidth jobs.
  for (auto& fiber : delivery_fibers_) {
    fiber.kill();
  }
  completion_event_.cancel();
  assert(jobs_.empty() && "Network destroyed with active transfers");
}

void Network::attach(host::Host& h) {
  if (hosts_.contains(h.name())) {
    throw std::invalid_argument("host already attached: " + h.name());
  }
  HostRecord rec;
  rec.host = &h;
  rec.ip = "10.0.0." + std::to_string(next_ip_suffix_++);
  hosts_.emplace(h.name(), std::move(rec));
}

host::Host* Network::find_host(const std::string& name) const {
  const auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.host;
}

std::vector<std::string> Network::host_names() const {
  std::vector<std::string> names;
  names.reserve(hosts_.size());
  for (const auto& [name, rec] : hosts_) {
    names.push_back(name);
  }
  return names;
}

Network::HostRecord& Network::record(const std::string& hostname) {
  const auto it = hosts_.find(hostname);
  if (it == hosts_.end()) {
    throw std::out_of_range("unknown host: " + hostname);
  }
  return it->second;
}

const Network::HostRecord& Network::record(const std::string& hostname) const {
  const auto it = hosts_.find(hostname);
  if (it == hosts_.end()) {
    throw std::out_of_range("unknown host: " + hostname);
  }
  return it->second;
}

Endpoint& Network::bind(const std::string& hostname, int port) {
  (void)record(hostname);  // validate host
  const auto key = std::make_pair(hostname, port);
  if (endpoints_.contains(key)) {
    throw std::invalid_argument("port already bound: " + hostname + ":" +
                                std::to_string(port));
  }
  auto endpoint = std::make_unique<Endpoint>(*engine_);
  Endpoint& ref = *endpoint;
  endpoints_.emplace(key, std::move(endpoint));
  return ref;
}

void Network::unbind(const std::string& hostname, int port) {
  const auto it = endpoints_.find(std::make_pair(hostname, port));
  if (it != endpoints_.end()) {
    it->second->inbox.close();
    endpoints_.erase(it);
  }
}

int Network::allocate_port(const std::string& hostname) {
  return record(hostname).next_port++;
}

void Network::post(Message message) {
  if (message.size_bytes == 0) {
    message.size_bytes = message.payload.size() + options_.message_overhead;
  }
  message.sent_at = engine_->now();
  if (message.trace.set() && obs::active(options_.tracer)) {
    obs::Attrs attrs{{"dst", message.dst_host},
                     {"port", message.dst_port},
                     {"bytes", static_cast<std::size_t>(message.size_bytes)}};
    obs::stamp(attrs, message.trace);
    options_.tracer->instant("net.send", "net", message.src_host,
                             std::move(attrs));
  }
  if (!hosts_.contains(message.dst_host)) {
    if (shard_router_ != nullptr && route_cross_shard(message)) {
      return;  // handled (forwarded, or dropped by the fault verdict)
    }
    ARS_LOG_WARN("net", "dropping message to unknown host "
                            << message.dst_host);
    count_drop(message.src_host, "unknown_host");
    return;
  }
  const std::optional<Fanout> fanout = fault_fanout(message);
  if (!fanout) {
    return;
  }
  // Deliver through a detached fiber so the datagram pays the same latency
  // and bandwidth-sharing costs as any other traffic.
  auto deliver = [](Network* net, Message msg, double hold) -> sim::Task<> {
    if (hold > 0.0) {
      co_await sim::delay(*net->engine_, hold);
    }
    (void)co_await net->transfer(msg.src_host, msg.dst_host,
                                 static_cast<double>(msg.size_bytes));
    net->deliver_local(std::move(msg));
  };
  // Prune finished deliveries so the tracking list stays small.
  std::erase_if(delivery_fibers_,
                [](const sim::Fiber& f) { return f.done(); });
  for (int copy = 1; copy < fanout->copies; ++copy) {  // injected duplicates
    delivery_fibers_.push_back(sim::Fiber::spawn(
        *engine_, deliver(this, message, fanout->extra_delay), "net.post"));
  }
  delivery_fibers_.push_back(sim::Fiber::spawn(
      *engine_, deliver(this, std::move(message), fanout->extra_delay),
      "net.post"));
}

std::optional<Network::Fanout> Network::fault_fanout(const Message& message) {
  Fanout fanout;
  if (fault_policy_ == nullptr) {
    return fanout;
  }
  const FaultPolicy::PostVerdict verdict = fault_policy_->on_post(message);
  if (verdict.drop) {
    ARS_LOG_WARN("net", "fault drops message " << message.src_host << " -> "
                                               << message.dst_host << ":"
                                               << message.dst_port);
    count_drop(message.src_host, "fault");
    return std::nullopt;
  }
  fanout.copies += std::max(verdict.duplicates, 0);
  fanout.extra_delay = std::max(verdict.extra_delay, 0.0);
  return fanout;
}

bool Network::route_cross_shard(Message& message) {
  if (!shard_router_->routes(message.dst_host, shard_id_)) {
    return false;
  }
  // Same source-side fault semantics as the local path: the verdict (and
  // any seeded random state it advances) is charged where the message is
  // posted, so a fixed shard layout keeps fault runs deterministic.
  const std::optional<Fanout> fanout = fault_fanout(message);
  if (!fanout) {
    return true;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("ars_net_cross_shard_total")
        .inc(fanout->copies);
  }
  shard_router_->forward(shard_id_, std::move(message), fanout->extra_delay,
                         fanout->copies);
  return true;
}

void Network::deliver_local(Message message) {
  message.delivered_at = engine_->now();
  const auto it =
      endpoints_.find(std::make_pair(message.dst_host, message.dst_port));
  if (it == endpoints_.end() || it->second->inbox.closed()) {
    ARS_LOG_WARN("net", "dropping message to unbound "
                            << message.dst_host << ":" << message.dst_port);
    // A cross-shard poster lives on another shard, so only this network's
    // totals and the labeled counter move; the per-poster count stays on
    // its own shard.
    count_drop(message.src_host, "unbound_port");
    return;
  }
  if (message.trace.set() && obs::active(options_.tracer)) {
    obs::Attrs attrs{
        {"src", message.src_host},
        {"port", message.dst_port},
        {"latency_ms", (message.delivered_at - message.sent_at) * 1e3}};
    obs::stamp(attrs, message.trace);
    options_.tracer->instant("net.recv", "net", message.dst_host,
                             std::move(attrs));
  }
  it->second->inbox.send(std::move(message));
}

sim::Task<double> Network::transfer(std::string src, std::string dst,
                                    double bytes) {
  const double start = engine_->now();
  co_await sim::delay(*engine_, options_.latency);
  if (src == dst || bytes <= 0.0) {
    co_return engine_->now() - start;
  }
  HostRecord& src_rec = record(src);
  HostRecord& dst_rec = record(dst);

  // RAII registration: a killed fiber (or a migration that withdraws) must
  // release its NIC share immediately.
  struct JobGuard {
    Network* net;
    TransferJob job;
    JobGuard(Network* n, sim::Engine& e, HostRecord* s, HostRecord* d,
             double total)
        : net(n), job(e, s, d, total) {
      net->register_job(&job);
    }
    ~JobGuard() {
      if (!job.completed) {
        net->withdraw_job(&job);
      }
    }
  };

  JobGuard guard{this, *engine_, &src_rec, &dst_rec, bytes};
  co_await guard.job.done.wait();
  co_return engine_->now() - start;
}

void Network::advance() {
  const double now = engine_->now();
  const double dt = now - last_update_;
  if (dt <= 0.0) {
    last_update_ = now;
    return;
  }
  for (auto* job : jobs_) {
    const double moved = std::min(job->rate * dt, job->remaining);
    if (moved > 0.0) {
      job->remaining -= moved;
      job->src->tx_meter.add(last_update_, now, moved);
      job->dst->rx_meter.add(last_update_, now, moved);
    }
  }
  last_update_ = now;
}

void Network::recompute_rates() {
  for (auto* job : jobs_) {
    const double tx_share =
        options_.bandwidth_bps / std::max(job->src->tx_active, 1);
    const double rx_share =
        options_.bandwidth_bps / std::max(job->dst->rx_active, 1);
    job->rate = std::min(tx_share, rx_share);
    if (fault_policy_ != nullptr) {
      // Degraded links slow bulk transfers; factor 0 (partition) stalls them
      // until on_fault_change() reports the link healed.
      const double factor = std::clamp(
          fault_policy_->bandwidth_factor(job->src->host->name(),
                                          job->dst->host->name()),
          0.0, 1.0);
      job->rate *= factor;
    }
  }
}

void Network::reschedule_completion() {
  completion_event_.cancel();
  if (jobs_.empty()) {
    return;
  }
  double next = std::numeric_limits<double>::infinity();
  for (const auto* job : jobs_) {
    if (job->rate > 0.0) {
      next = std::min(next, job->remaining / job->rate);
    }
  }
  if (std::isfinite(next)) {
    completion_event_ = engine_->schedule_after(
        std::max(next, kMinCompletionDelay),
        [this] { on_completion_event(); });
  }
}

void Network::on_completion_event() {
  advance();
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    TransferJob* job = *it;
    if (job->remaining <= kByteEpsilon) {
      it = jobs_.erase(it);
      --job->src->tx_active;
      --job->dst->rx_active;
      job->completed = true;
      job->done.fire();
    } else {
      ++it;
    }
  }
  recompute_rates();
  reschedule_completion();
}

void Network::register_job(TransferJob* job) {
  advance();
  jobs_.push_back(job);
  ++job->src->tx_active;
  ++job->dst->rx_active;
  recompute_rates();
  reschedule_completion();
}

void Network::withdraw_job(TransferJob* job) {
  advance();
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
  --job->src->tx_active;
  --job->dst->rx_active;
  recompute_rates();
  reschedule_completion();
}

void Network::set_fault_policy(FaultPolicy* policy) noexcept {
  fault_policy_ = policy;
  on_fault_change();
}

void Network::on_fault_change() {
  advance();
  recompute_rates();
  reschedule_completion();
}

std::uint64_t Network::dropped_count(const std::string& hostname) const {
  const auto it = hosts_.find(hostname);
  return it == hosts_.end() ? 0 : it->second.messages_dropped;
}

void Network::count_drop(const std::string& src_host, const char* reason) {
  ++dropped_total_;
  const auto it = hosts_.find(src_host);
  if (it != hosts_.end()) {
    ++it->second.messages_dropped;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("ars_net_dropped_total", {{"reason", reason}})
        .inc();
  }
}

const FlowMeter& Network::tx_meter(const std::string& hostname) const {
  return record(hostname).tx_meter;
}

const FlowMeter& Network::rx_meter(const std::string& hostname) const {
  return record(hostname).rx_meter;
}

double Network::tx_rate_bps(const std::string& hostname,
                            double window) const {
  return rate_bps(hostname, /*outbound=*/true, window);
}

double Network::rx_rate_bps(const std::string& hostname,
                            double window) const {
  return rate_bps(hostname, /*outbound=*/false, window);
}

double Network::rate_bps(const std::string& hostname, bool outbound,
                         double window) const {
  // Fold in the live portion of in-flight transfers so sensors see current
  // traffic, not just completed accounting intervals.
  const HostRecord& rec = record(hostname);
  const FlowMeter& meter = outbound ? rec.tx_meter : rec.rx_meter;
  double bytes = meter.bytes_between(engine_->now() - window, engine_->now());
  const double live_span = engine_->now() - last_update_;
  if (live_span > 0.0) {
    for (const auto* job : jobs_) {
      if ((outbound ? job->src : job->dst) == &rec) {
        bytes += std::min(job->rate * std::min(live_span, window),
                          job->remaining);
      }
    }
  }
  return window > 0.0 ? bytes / window : 0.0;
}

}  // namespace ars::net
