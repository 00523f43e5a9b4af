// MPI-2 dynamic process management: Comm_spawn, named ports with
// connect/accept, and Intercomm_merge.  These are exactly the operations the
// paper's migration path uses: "we need to dynamically create a process with
// a communicator and join the communicators together, so that the migrating
// process and initialized process can communicate in one communicator."

#include <algorithm>
#include <stdexcept>

#include "ars/mpi/mpi.hpp"

namespace ars::mpi {

sim::Task<SpawnResult> Proc::spawn(const std::string& host_name, AppMain app,
                                   std::string name, int count) {
  if (count < 1) {
    throw std::invalid_argument("mpi spawn: count must be >= 1");
  }
  // LAM's DPM operations are slow (§5.2): model the runtime handshake as a
  // fixed startup cost plus a control round-trip to the target host.
  co_await sim::delay(system_->engine(), system_->options().spawn_overhead);
  (void)co_await system_->network().transfer(host_->name(), host_name, 512.0);

  SpawnResult result;
  std::vector<Proc*> children;
  for (int i = 0; i < count; ++i) {
    Proc& child = system_->create_proc(
        host_name, name + "." + std::to_string(i), false, "");
    result.children.push_back(child.id());
    children.push_back(&child);
  }
  const Comm child_world = system_->make_comm(result.children);
  // Two mirrored views of one intercommunicator: the parent's, and the
  // children's "parent comm" (MPI_Comm_get_parent).
  auto [parent_view, child_view] =
      system_->make_intercomm_pair({id_}, result.children);
  result.intercomm = parent_view;
  for (Proc* child : children) {
    child->world_ = child_world;
    child->parent_comm_ = child_view;
    system_->start_app(*child, app);
  }
  co_return result;
}

const char* spawn_strategy_name(SpawnStrategy strategy) {
  return strategy == SpawnStrategy::kTree ? "tree" : "sequential";
}

std::optional<SpawnStrategy> spawn_strategy_from(std::string_view name) {
  if (name == "sequential") {
    return SpawnStrategy::kSequential;
  }
  if (name == "tree") {
    return SpawnStrategy::kTree;
  }
  return std::nullopt;
}

namespace {

/// connect/accept handshake latency.
constexpr double kConnectOverhead = 0.05;

/// Smallest power of two strictly greater than `node` — the stride of the
/// node's first spawn round in the binomial tree.  Node c is created by
/// node c - msb(c), so every child has exactly one spawner.
int tree_first_stride(int node) {
  int stride = 1;
  while (stride <= node) {
    stride *= 2;
  }
  return stride;
}

}  // namespace

struct MpiSystem::MultiSpawnState {
  explicit MultiSpawnState(sim::Engine& engine) : done(engine) {}

  std::string parent_host;
  std::vector<std::string> hosts;  // child j (1-based) lands on hosts[j-1]
  std::string name;
  std::vector<RankId> ids;  // per child, 0 until created
  int remaining = 0;
  int active_nodes = 0;  // node fibers still running (cancellation drain)
  int max_depth = 0;
  sim::Trigger done;
  std::vector<sim::Fiber> fibers;
  std::vector<RankId>* progress = nullptr;
  std::shared_ptr<const SpawnCancel> cancel;

  [[nodiscard]] bool cancelled() const {
    return cancel && cancel->cancelled;
  }
};

sim::Task<> MpiSystem::tree_spawn_node(std::shared_ptr<MultiSpawnState> state,
                                       int node, int depth) {
  const int total = static_cast<int>(state->hosts.size());
  const std::string from =
      node == 0 ? state->parent_host : state->hosts[node - 1];
  for (int stride = tree_first_stride(node); node + stride <= total;
       stride *= 2) {
    if (state->cancelled()) {
      break;
    }
    const int child = node + stride;
    // Every handshake pays the full DPM cost, charged to the spawning
    // node's host; rounds overlap because each created child immediately
    // starts spawning its own subtree.
    co_await sim::delay(*engine_, options_.spawn_overhead);
    (void)co_await network_->transfer(from, state->hosts[child - 1], 512.0);
    if (state->cancelled()) {
      break;
    }
    Proc& proc =
        create_proc(state->hosts[child - 1],
                    state->name + "." + std::to_string(child - 1), false, "");
    state->ids[child - 1] = proc.id();
    if (state->progress != nullptr) {
      state->progress->push_back(proc.id());
    }
    state->max_depth = std::max(state->max_depth, depth + 1);
    if (--state->remaining == 0) {
      state->done.fire();
      break;
    }
    if (child + tree_first_stride(child) <= total) {
      state->fibers.push_back(
          sim::Fiber::spawn(*engine_, tree_spawn_node(state, child, depth + 1),
                            "mpi-tree-spawn"));
      ++state->active_nodes;
    }
  }
  // A cancelled fan-out never exhausts `remaining`; the last node fiber to
  // drain releases the waiting parent instead.
  if (--state->active_nodes == 0 && state->cancelled()) {
    state->done.fire();
  }
}

sim::Task<MultiSpawnResult> Proc::spawn_many(
    std::vector<std::string> hosts, AppMain app, std::string name,
    SpawnStrategy strategy, std::vector<RankId>* progress,
    std::shared_ptr<const SpawnCancel> cancel) {
  MultiSpawnResult result;
  if (hosts.empty()) {
    co_return result;
  }
  auto state =
      std::make_shared<MpiSystem::MultiSpawnState>(system_->engine());
  state->parent_host = host_->name();
  state->hosts = std::move(hosts);
  state->name = std::move(name);
  state->ids.resize(state->hosts.size(), 0);
  state->remaining = static_cast<int>(state->hosts.size());
  state->progress = progress;
  state->cancel = std::move(cancel);

  if (strategy == SpawnStrategy::kSequential) {
    for (std::size_t i = 0; i < state->hosts.size(); ++i) {
      if (state->cancelled()) {
        break;
      }
      co_await sim::delay(system_->engine(),
                          system_->options().spawn_overhead);
      (void)co_await system_->network().transfer(state->parent_host,
                                                 state->hosts[i], 512.0);
      if (state->cancelled()) {
        break;
      }
      Proc& child = system_->create_proc(
          state->hosts[i], state->name + "." + std::to_string(i), false, "");
      state->ids[i] = child.id();
      if (progress != nullptr) {
        progress->push_back(child.id());
      }
      --state->remaining;
      ++result.rounds;
    }
  } else {
    state->active_nodes = 1;
    state->fibers.push_back(sim::Fiber::spawn(
        system_->engine(), system_->tree_spawn_node(state, 0, 0),
        "mpi-tree-spawn"));
    co_await state->done.wait();
    result.rounds = state->max_depth;
  }
  // Either way the fan-out is quiescent here (complete, or cancelled with
  // every node fiber drained), so the handle vector holds only finished
  // fibers.
  state->fibers.clear();

  if (state->remaining > 0) {
    // Cancelled mid-flight: hand back the partial group without starting
    // any application — the caller reaps the orphans.
    for (const RankId id : state->ids) {
      if (id != 0) {
        result.children.push_back(id);
      }
    }
    co_return result;
  }
  result.children = state->ids;
  // The whole group exists: wire up the children's world and the mirrored
  // parent/children intercommunicator, then start every child.  Starting
  // together makes membership and app behaviour strategy-independent.
  const Comm child_world = system_->make_comm(result.children);
  auto [parent_view, child_view] =
      system_->make_intercomm_pair({id_}, result.children);
  result.intercomm = parent_view;
  for (const RankId id : result.children) {
    Proc* child = system_->find(id);
    child->world_ = child_world;
    child->parent_comm_ = child_view;
    system_->start_app(*child, app);
  }
  co_return result;
}

std::string Proc::open_port() {
  const std::string port =
      host_->name() + ":" + std::to_string(40000 + system_->next_port_++);
  system_->ports_.emplace(
      port, std::make_unique<MpiSystem::PortState>(system_->engine(), id_));
  return port;
}

void Proc::close_port(const std::string& port) {
  system_->ports_.erase(port);
}

sim::Task<Comm> Proc::accept(const std::string& port) {
  const auto it = system_->ports_.find(port);
  if (it == system_->ports_.end()) {
    throw std::invalid_argument("mpi accept: unknown port " + port);
  }
  MpiSystem::PortState& state = *it->second;
  if (state.owner != id_) {
    throw std::invalid_argument("mpi accept: port owned by another process");
  }
  const RankId connector = co_await state.pending.recv();
  co_await sim::delay(system_->engine(), kConnectOverhead);
  auto [connector_view, acceptor_view] =
      system_->make_intercomm_pair({connector}, {id_});
  state.connector_comm = connector_view;
  state.accepted->fire();
  co_return acceptor_view;
}

sim::Task<Comm> Proc::connect(const std::string& port) {
  const auto it = system_->ports_.find(port);
  if (it == system_->ports_.end()) {
    throw std::invalid_argument("mpi connect: unknown port " + port);
  }
  MpiSystem::PortState& state = *it->second;
  state.accepted = std::make_unique<sim::Trigger>(system_->engine());
  state.pending.send(id_);
  co_await state.accepted->wait();
  co_return state.connector_comm;
}

sim::Task<Comm> Proc::merge(Comm intercomm, bool high) {
  if (!intercomm.valid() || !intercomm.is_inter()) {
    throw std::invalid_argument("mpi merge: not an intercommunicator");
  }
  // Both sides call merge; the low side's leader creates the merged context
  // and the others adopt it.  We model the required synchronization as one
  // handshake latency; membership math is deterministic on both sides.
  co_await sim::delay(system_->engine(), kConnectOverhead);
  std::vector<RankId> merged;
  const auto& local = intercomm.state_->members;
  const auto& remote = intercomm.state_->remote;
  if (high) {
    merged.insert(merged.end(), remote.begin(), remote.end());
    merged.insert(merged.end(), local.begin(), local.end());
  } else {
    merged.insert(merged.end(), local.begin(), local.end());
    merged.insert(merged.end(), remote.begin(), remote.end());
  }
  co_return system_->merge_comm(intercomm.context(), std::move(merged));
}

sim::Task<Comm> Proc::comm_dup(Comm comm) {
  // Dup is split with everyone in one color, keyed by current rank.
  co_return co_await comm_split(comm, 0, comm.rank_of(id_));
}

sim::Task<Comm> Proc::comm_split(Comm comm, int color, int key) {
  if (!comm.valid() || comm.is_inter()) {
    throw std::invalid_argument("mpi comm_split: needs an intracommunicator");
  }
  MpiSystem& system = *system_;
  const int context = comm.context();
  const int rank = comm.rank_of(id_);
  const int epoch = system.comm_op_epoch_[context];
  const auto op_key = std::make_pair(context, epoch);
  auto op_it = system.comm_ops_.find(op_key);
  if (op_it == system.comm_ops_.end()) {
    op_it = system.comm_ops_
                .emplace(op_key, std::make_unique<MpiSystem::CommOpState>(
                                     system.engine()))
                .first;
  }
  MpiSystem::CommOpState& op = *op_it->second;
  op.contributions[rank] = {color, key};
  ++op.arrived;

  if (op.arrived == comm.size()) {
    // Last arriver computes and publishes every subgroup.
    std::map<int, std::vector<std::pair<std::pair<int, int>, RankId>>> groups;
    for (const auto& [member_rank, contribution] : op.contributions) {
      const auto [member_color, member_key] = contribution;
      if (member_color < 0) {
        continue;  // kUndefined: not part of any subgroup
      }
      groups[member_color].push_back(
          {{member_key, member_rank}, comm.member(member_rank)});
    }
    for (auto& [group_color, entries] : groups) {
      std::sort(entries.begin(), entries.end());
      std::vector<RankId> members;
      members.reserve(entries.size());
      for (const auto& [order, member_id] : entries) {
        members.push_back(member_id);
      }
      op.results_by_color.emplace(group_color,
                                  system.make_comm(std::move(members)));
    }
    op.published = true;
    ++system.comm_op_epoch_[context];  // next dup/split gets a fresh state
    op.done.fire();
  } else {
    co_await op.done.wait();
  }
  if (color < 0) {
    co_return Comm{};
  }
  co_return op.results_by_color.at(color);
}

Comm MpiSystem::merge_comm(int inter_context, std::vector<RankId> members) {
  // Both sides of the merge must agree on one context id; key it off the
  // intercommunicator's context so the second caller reuses the first's.
  const auto it = merged_comms_.find(inter_context);
  if (it != merged_comms_.end()) {
    return it->second;
  }
  Comm merged = make_comm(std::move(members));
  merged_comms_.emplace(inter_context, merged);
  return merged;
}

}  // namespace ars::mpi
