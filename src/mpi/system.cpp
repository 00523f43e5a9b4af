#include <cassert>
#include <stdexcept>
#include <utility>

#include "ars/mpi/mpi.hpp"
#include "ars/support/log.hpp"

namespace ars::mpi {

namespace {

/// Fixed per-message software overhead bytes (headers, matching).
constexpr double kMessageOverheadBytes = 64.0;

}  // namespace

int Comm::rank_of(RankId id) const noexcept {
  for (std::size_t i = 0; i < state_->members.size(); ++i) {
    if (state_->members[i] == id) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

MpiSystem::MpiSystem(sim::Engine& engine, net::Network& network)
    : MpiSystem(engine, network, Options{}) {}

MpiSystem::MpiSystem(sim::Engine& engine, net::Network& network,
                     Options options)
    : engine_(&engine), network_(&network), options_(options) {}

MpiSystem::~MpiSystem() {
  // Kill remaining application fibers before the ports/procs they may be
  // suspended on are destroyed; awaitable destructors deregister cleanly.
  for (auto& [id, fiber] : fibers_) {
    fiber.kill();
  }
}

Comm MpiSystem::make_comm(std::vector<RankId> members) {
  auto state = std::make_shared<Comm::State>();
  state->context = next_context_++;
  state->members = std::move(members);
  return Comm{std::move(state)};
}

std::pair<Comm, Comm> MpiSystem::make_intercomm_pair(
    std::vector<RankId> local, std::vector<RankId> remote) {
  const int context = next_context_++;
  auto a = std::make_shared<Comm::State>();
  a->context = context;
  a->members = local;
  a->inter = true;
  a->remote = remote;
  auto b = std::make_shared<Comm::State>();
  b->context = context;
  b->members = std::move(remote);
  b->inter = true;
  b->remote = std::move(local);
  return {Comm{std::move(a)}, Comm{std::move(b)}};
}

Proc& MpiSystem::create_proc(const std::string& host_name, std::string name,
                             bool migration_enabled,
                             const std::string& schema_name) {
  host::Host* h = network_->find_host(host_name);
  if (h == nullptr) {
    throw std::out_of_range("mpi: unknown host " + host_name);
  }
  const RankId id = next_rank_++;
  auto proc = std::unique_ptr<Proc>(new Proc(*this, id, *h, std::move(name)));
  proc->pid_ = h->processes().register_process(
      proc->name_, engine_->now(), migration_enabled, schema_name);
  Proc& ref = *proc;
  procs_.emplace(id, std::move(proc));
  exit_triggers_.emplace(id, std::make_unique<sim::Trigger>(*engine_));
  return ref;
}

void MpiSystem::start_app(Proc& proc, AppMain app) {
  auto wrapper = [](MpiSystem* system, RankId id, AppMain main) -> sim::Task<> {
    Proc* proc_ptr = system->find(id);
    assert(proc_ptr != nullptr);
    try {
      co_await main(*proc_ptr);
    } catch (const ProcMoved&) {
      // The logical process lives on at its new host; this fiber just ends.
      co_return;
    }
    system->terminate(id);
  };
  fibers_[proc.id()] = sim::Fiber::spawn(
      *engine_, wrapper(this, proc.id(), std::move(app)),
      "mpi." + proc.name());
}

std::vector<RankId> MpiSystem::launch_world(
    const std::vector<std::string>& hosts, AppMain app,
    const std::string& name, bool migration_enabled,
    const std::string& schema_name) {
  std::vector<RankId> members;
  std::vector<Proc*> created;
  members.reserve(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    Proc& proc = create_proc(hosts[i], name + "." + std::to_string(i),
                             migration_enabled, schema_name);
    members.push_back(proc.id());
    created.push_back(&proc);
  }
  const Comm world = make_comm(members);
  for (Proc* proc : created) {
    proc->world_ = world;
    start_app(*proc, app);
  }
  return members;
}

RankId MpiSystem::launch(const std::string& host_name, AppMain app,
                         const std::string& name, bool migration_enabled,
                         const std::string& schema_name) {
  return launch_world({host_name}, std::move(app), name, migration_enabled,
                      schema_name)
      .front();
}

RankId MpiSystem::launch_exact(const std::string& host_name, AppMain app,
                               const std::string& name,
                               bool migration_enabled,
                               const std::string& schema_name) {
  Proc& proc = create_proc(host_name, name, migration_enabled, schema_name);
  proc.world_ = make_comm({proc.id()});
  start_app(proc, std::move(app));
  return proc.id();
}

bool MpiSystem::kill(RankId id) {
  if (!alive(id)) {
    return false;
  }
  const auto fiber_it = fibers_.find(id);
  if (fiber_it != fibers_.end()) {
    fiber_it->second.kill();
  }
  terminate(id);
  return true;
}

Proc* MpiSystem::find(RankId id) const {
  const auto it = procs_.find(id);
  return it == procs_.end() ? nullptr : it->second.get();
}

Proc* MpiSystem::find_by_pid(const std::string& host_name,
                             host::Pid pid) const {
  for (const auto& [id, proc] : procs_) {
    if (proc->pid() == pid && proc->host().name() == host_name) {
      return proc.get();
    }
  }
  return nullptr;
}

void MpiSystem::relocate(Proc& proc, host::Host& destination) {
  host::Host& old_host = proc.host();
  if (&old_host == &destination) {
    return;
  }
  const host::ProcessInfo* info = old_host.processes().find(proc.pid());
  const bool migration_enabled = info != nullptr && info->migration_enabled;
  const std::string schema_name = info != nullptr ? info->schema_name : "";
  const double start_time = info != nullptr ? info->start_time : engine_->now();
  old_host.processes().deregister(proc.pid());
  proc.host_ = &destination;
  proc.pid_ = destination.processes().register_process(
      proc.name(), start_time, migration_enabled, schema_name);
  ARS_LOG_INFO("mpi", "proc " << proc.name() << " relocated "
                              << old_host.name() << " -> "
                              << destination.name());
}

void MpiSystem::terminate(RankId id) {
  const auto it = procs_.find(id);
  if (it == procs_.end()) {
    return;
  }
  Proc& proc = *it->second;
  proc.host().processes().deregister(proc.pid());
  procs_.erase(it);
  fibers_.erase(id);  // drops the handle; the fiber finishes on its own
  const auto trig = exit_triggers_.find(id);
  if (trig != exit_triggers_.end()) {
    trig->second->fire();
  }
}

void MpiSystem::inject(RankId id, MpiMessage message) {
  if (Proc* proc = find(id)) {
    proc->deliver(std::move(message));
  }
}

sim::Task<> MpiSystem::wait_for_exit(RankId id) {
  if (!alive(id)) {
    co_return;
  }
  const auto it = exit_triggers_.find(id);
  if (it != exit_triggers_.end()) {
    co_await it->second->wait();
  }
}

sim::Task<> MpiSystem::route(RankId from, RankId to, double size_bytes) {
  const Proc* sender = find(from);
  const std::string src_host =
      sender != nullptr ? sender->host().name() : std::string{};
  Proc* receiver = find(to);
  if (receiver == nullptr) {
    throw std::runtime_error("mpi: send to dead process " +
                             std::to_string(to));
  }
  const double wire = size_bytes + kMessageOverheadBytes;
  std::string at = receiver->host().name();
  (void)co_await network_->transfer(src_host, at, wire);
  // Forwarding: if the destination migrated while the bytes were in flight,
  // hop again from the addressed host to the current one (HPCM's
  // communication-state transfer).
  while (true) {
    receiver = find(to);
    if (receiver == nullptr) {
      throw std::runtime_error("mpi: receiver died mid-flight " +
                               std::to_string(to));
    }
    const std::string current = receiver->host().name();
    if (current == at) {
      co_return;
    }
    ARS_LOG_DEBUG("mpi", "forwarding message for proc " << to << " from "
                                                        << at << " to "
                                                        << current);
    (void)co_await network_->transfer(at, current, wire);
    at = current;
  }
}

}  // namespace ars::mpi
