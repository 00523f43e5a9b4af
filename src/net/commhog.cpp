#include "ars/net/commhog.hpp"

namespace ars::net {

CommHog::CommHog(Network& network, Options options)
    : network_(&network), options_(std::move(options)) {}

sim::Task<> CommHog::pump(std::string from, std::string to) {
  auto& engine = network_->engine();
  const HostId src = network_->id_of(from);
  const HostId dst = network_->id_of(to);
  const double chunk = options_.rate_bps * options_.period;
  while (true) {
    const double started = engine.now();
    (void)co_await network_->transfer(src, dst, chunk);
    const double elapsed = engine.now() - started;
    if (elapsed < options_.period) {
      // Pace to the target rate; under contention the transfer itself is
      // the pacer and the achieved rate degrades naturally.
      co_await sim::delay(engine, options_.period - elapsed);
    }
  }
}

void CommHog::start() {
  if (running_) {
    return;
  }
  running_ = true;
  auto& engine = network_->engine();
  fibers_.push_back(sim::Fiber::spawn(engine, pump(options_.src, options_.dst),
                                      options_.name + ".fwd"));
  if (options_.bidirectional) {
    fibers_.push_back(sim::Fiber::spawn(
        engine, pump(options_.dst, options_.src), options_.name + ".rev"));
  }
  if (host::Host* src = network_->find_host(options_.src)) {
    src->adjust_established_sockets(options_.sockets);
  }
  if (host::Host* dst = network_->find_host(options_.dst)) {
    dst->adjust_established_sockets(options_.sockets);
  }
}

void CommHog::stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  for (auto& fiber : fibers_) {
    fiber.kill();
  }
  fibers_.clear();
  if (host::Host* src = network_->find_host(options_.src)) {
    src->adjust_established_sockets(-options_.sockets);
  }
  if (host::Host* dst = network_->find_host(options_.dst)) {
    dst->adjust_established_sockets(-options_.sockets);
  }
}

}  // namespace ars::net
