#include "ars/net/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "ars/net/shard_router.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"

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

HostId Network::attach(host::Host& h) {
  const auto id = static_cast<HostId>(records_.size());
  if (!ids_.emplace(h.name(), id).second) {
    throw std::invalid_argument("host already attached: " + h.name());
  }
  records_.emplace_back().host = &h;
  return id;
}

HostId Network::id_of(const std::string& hostname) const {
  const auto it = ids_.find(hostname);
  if (it == ids_.end()) {
    throw std::out_of_range("unknown host: " + hostname);
  }
  return it->second;
}

std::optional<HostId> Network::find_id(const std::string& hostname) const {
  const auto it = ids_.find(hostname);
  return it == ids_.end() ? std::nullopt : std::optional(it->second);
}

host::Host& Network::host(HostId id) const { return *record(id).host; }

host::Host* Network::find_host(const std::string& name) const {
  const std::optional<HostId> id = find_id(name);
  return id ? record(*id).host : nullptr;
}

std::vector<std::string> Network::host_names() const {
  std::vector<std::string> names;
  names.reserve(ids_.size());
  for (const auto& [name, id] : ids_) {
    names.push_back(name);
  }
  return names;
}

Network::HostRecord& Network::record(HostId id) {
  return records_.at(static_cast<std::size_t>(id));
}

const Network::HostRecord& Network::record(HostId id) const {
  return records_.at(static_cast<std::size_t>(id));
}

Endpoint& Network::bind(const std::string& hostname, int port) {
  const auto key = std::make_pair(id_of(hostname), port);
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
  const std::optional<HostId> id = find_id(hostname);
  if (!id) {
    return;
  }
  const auto it = endpoints_.find(std::make_pair(*id, port));
  if (it != endpoints_.end()) {
    it->second->inbox.close();
    endpoints_.erase(it);
  }
}

int Network::allocate_port(HostId host) { return record(host).next_port++; }

int Network::allocate_port(const std::string& hostname) {
  return allocate_port(id_of(hostname));
}

void Network::stamp_send(Message& message) {
  if (message.size_bytes == 0) {
    message.size_bytes = message.payload.size() + options_.message_overhead;
  }
  message.sent_at = engine_->now();
  if (message.trace.set() && obs::active(engine_->tracer())) {
    obs::Attrs attrs{{"dst", message.dst_host},
                     {"port", message.dst_port},
                     {"bytes", static_cast<std::size_t>(message.size_bytes)}};
    obs::stamp(attrs, message.trace);
    engine_->tracer()->instant("net.send", "net", message.src_host,
                               std::move(attrs));
  }
}

void Network::post(Message message) {
  const auto dst = ids_.find(message.dst_host);
  if (dst != ids_.end()) {
    const HostId src = id_of(message.src_host);
    post(src, dst->second, std::move(message));
    return;
  }
  stamp_send(message);
  if (shard_router_ != nullptr && route_cross_shard(message)) {
    return;  // handled (forwarded, or dropped by the fault verdict)
  }
  count_drop(find_id(message.src_host), "unknown_host");
}

void Network::post(HostId src, HostId dst, Message message) {
  message.src_host = record(src).host->name();
  message.dst_host = record(dst).host->name();
  stamp_send(message);
  const std::optional<Fanout> fanout = fault_fanout(message);
  if (!fanout) {
    count_drop(src, "fault");
    return;
  }
  // Deliver through a detached fiber so the datagram pays the same latency
  // and bandwidth-sharing costs as any other traffic.
  auto deliver = [](Network* net, HostId from, HostId to, Message msg,
                    double hold) -> sim::Task<> {
    if (hold > 0.0) {
      co_await sim::delay(*net->engine_, hold);
    }
    (void)co_await net->transfer(from, to,
                                 static_cast<double>(msg.size_bytes));
    net->hand_over(to, from, std::move(msg));
  };
  // Prune finished deliveries so the tracking list stays small.
  std::erase_if(delivery_fibers_,
                [](const sim::Fiber& f) { return f.done(); });
  for (int copy = 1; copy < fanout->copies; ++copy) {  // injected duplicates
    delivery_fibers_.push_back(sim::Fiber::spawn(
        *engine_, deliver(this, src, dst, message, fanout->extra_delay),
        "net.post"));
  }
  delivery_fibers_.push_back(sim::Fiber::spawn(
      *engine_,
      deliver(this, src, dst, std::move(message), fanout->extra_delay),
      "net.post"));
}

std::optional<Network::Fanout> Network::fault_fanout(const Message& message) {
  Fanout fanout;
  if (fault_policy_ == nullptr) {
    return fanout;
  }
  const FaultPolicy::PostVerdict verdict = fault_policy_->on_post(message);
  if (verdict.drop) {
    return std::nullopt;
  }
  fanout.copies += std::max(verdict.duplicates, 0);
  fanout.extra_delay = std::max(verdict.extra_delay, 0.0);
  return fanout;
}

bool Network::route_cross_shard(Message& message) {
  const std::optional<std::size_t> dst_shard =
      shard_router_->shard_of(message.dst_host, shard_id_);
  if (!dst_shard) {
    return false;
  }
  // Same source-side fault semantics as the local path: the verdict (and
  // any seeded random state it advances) is charged where the message is
  // posted, so a fixed shard layout keeps fault runs deterministic.
  const std::optional<Fanout> fanout = fault_fanout(message);
  if (!fanout) {
    count_drop(find_id(message.src_host), "fault");
    return true;
  }
  if (engine_->metrics() != nullptr) {
    engine_->metrics()->counter("ars_net_cross_shard_total")
        .inc(fanout->copies);
  }
  shard_router_->forward(shard_id_, *dst_shard, std::move(message),
                         fanout->extra_delay, fanout->copies);
  return true;
}

void Network::deliver_local(Message message) {
  // Names arrive here from another shard: resolve the destination once.
  // The poster lives on another shard, so a drop moves only this network's
  // totals and the labeled counter; the per-poster count stays on its own
  // shard.
  const std::optional<HostId> dst = find_id(message.dst_host);
  hand_over(dst, std::nullopt, std::move(message));
}

void Network::hand_over(std::optional<HostId> dst,
                        std::optional<HostId> poster, Message message) {
  message.delivered_at = engine_->now();
  const auto it = dst ? endpoints_.find(std::make_pair(*dst, message.dst_port))
                      : endpoints_.end();
  if (it == endpoints_.end() || it->second->inbox.closed()) {
    count_drop(poster, "unbound_port");
    return;
  }
  if (message.trace.set() && obs::active(engine_->tracer())) {
    obs::Attrs attrs{
        {"src", message.src_host},
        {"port", message.dst_port},
        {"latency_ms", (message.delivered_at - message.sent_at) * 1e3}};
    obs::stamp(attrs, message.trace);
    engine_->tracer()->instant("net.recv", "net", message.dst_host,
                               std::move(attrs));
  }
  it->second->inbox.send(std::move(message));
}

sim::Task<double> Network::transfer(const std::string& src,
                                    const std::string& dst, double bytes) {
  return transfer(id_of(src), id_of(dst), bytes);
}

sim::Task<double> Network::transfer(HostId src, HostId dst, double bytes) {
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
  const std::optional<HostId> id = find_id(hostname);
  return id ? record(*id).messages_dropped : 0;
}

void Network::count_drop(std::optional<HostId> poster, const char* reason) {
  ++dropped_total_;
  if (poster) {
    ++record(*poster).messages_dropped;
  }
  if (engine_->metrics() != nullptr) {
    engine_->metrics()->counter("ars_net_dropped_total", {{"reason", reason}})
        .inc();
  }
}

const FlowMeter& Network::tx_meter(const std::string& hostname) const {
  return record(id_of(hostname)).tx_meter;
}

const FlowMeter& Network::rx_meter(const std::string& hostname) const {
  return record(id_of(hostname)).rx_meter;
}

double Network::tx_rate_bps(HostId host, double window) const {
  return rate_bps(host, /*outbound=*/true, window);
}

double Network::rx_rate_bps(HostId host, double window) const {
  return rate_bps(host, /*outbound=*/false, window);
}

double Network::tx_rate_bps(const std::string& hostname,
                            double window) const {
  return tx_rate_bps(id_of(hostname), window);
}

double Network::rx_rate_bps(const std::string& hostname,
                            double window) const {
  return rx_rate_bps(id_of(hostname), window);
}

double Network::rate_bps(HostId host, bool outbound, double window) const {
  // Fold in the live portion of in-flight transfers so sensors see current
  // traffic, not just completed accounting intervals.
  const HostRecord& rec = record(host);
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
