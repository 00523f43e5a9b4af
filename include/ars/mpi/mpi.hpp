#pragma once
// Miniature MPI-2-style message-passing runtime over the simulated network.
//
// This is the substrate the paper assumes (LAM/MPI 6.5.9): communicators
// with isolated contexts, tagged point-to-point with ANY_SOURCE/ANY_TAG
// matching, the common collectives, and — crucially for migration — the
// MPI-2 dynamic process management subset: Comm_spawn, Open_port /
// Comm_connect / Comm_accept, and Intercomm_merge.  The paper specifically
// chose LAM because "MPICH-2 and Sun MPI do not support the dynamic process
// management"; the spawn path here carries a configurable startup cost to
// model LAM's slow DPM operations (§5.2 measures ~0.3 s).
//
// A logical MPI process (`Proc`) is location-independent: it has a stable
// global id and a *current* host.  HPCM migration relocates the Proc; any
// message launched toward the old host is forwarded, modeling HPCM's
// communication-state transfer.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ars/host/host.hpp"
#include "ars/net/network.hpp"
#include "ars/sim/channel.hpp"
#include "ars/sim/task.hpp"
#include "ars/sim/wait.hpp"

namespace ars::mpi {

class Proc;
class MpiSystem;

/// Stable global process id (survives migration).
using RankId = int;

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// User tags must be non-negative; the library reserves negative tags for
/// collective traffic.
inline constexpr int kTagBarrier = -2;
inline constexpr int kTagBcast = -3;
inline constexpr int kTagReduce = -4;
inline constexpr int kTagGather = -5;
inline constexpr int kTagScatter = -6;
inline constexpr int kTagAllgather = -7;

/// MPI_UNDEFINED for comm_split.
inline constexpr int kUndefined = -1;

/// Reduction operations (MPI_SUM, MPI_MIN, MPI_MAX, MPI_PROD).
enum class ReduceOp { kSum, kMin, kMax, kProd };

using Bytes = std::vector<std::byte>;

struct MpiMessage {
  int context = 0;
  int src_rank = 0;  // rank within the communicator it was sent on
  int tag = 0;
  double size_bytes = 0.0;                // simulated wire size
  std::shared_ptr<const Bytes> data;      // optional real content
  std::vector<double> values;             // optional numeric content
};

/// Immutable communicator: a context id plus an ordered member list.  For an
/// intercommunicator, `remote` holds the other group and point-to-point
/// addresses remote ranks (MPI semantics).
class Comm {
 public:
  Comm() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] int context() const noexcept { return state_->context; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(state_->members.size());
  }
  [[nodiscard]] bool is_inter() const noexcept { return state_->inter; }
  [[nodiscard]] int remote_size() const noexcept {
    return static_cast<int>(state_->remote.size());
  }

  /// Local rank of a member id, or -1.
  [[nodiscard]] int rank_of(RankId id) const noexcept;
  [[nodiscard]] RankId member(int rank) const { return state_->members.at(rank); }
  [[nodiscard]] RankId remote_member(int rank) const {
    return state_->remote.at(rank);
  }

 private:
  friend class MpiSystem;
  friend class Proc;
  struct State {
    int context = 0;
    std::vector<RankId> members;
    bool inter = false;
    std::vector<RankId> remote;
  };
  explicit Comm(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<const State> state_;
};

/// Application entry point: a coroutine over its Proc.
using AppMain = std::function<sim::Task<>(Proc&)>;

/// Thrown by the migration machinery to unwind a Proc's *fiber* on the
/// source host without terminating the logical process.
class ProcMoved : public sim::FiberExit {
 public:
  ProcMoved() : sim::FiberExit("proc migrated away") {}
};

/// A pending non-blocking operation.
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool done() const noexcept { return !state_ || state_->fired(); }
  [[nodiscard]] sim::Task<> wait() {
    if (state_) {
      co_await state_->wait();
    }
  }

 private:
  friend class Proc;
  explicit Request(std::shared_ptr<sim::Trigger> state)
      : state_(std::move(state)) {}
  std::shared_ptr<sim::Trigger> state_;
};

struct SpawnResult {
  Comm intercomm;   // local group: {parent}; remote group: {children}
  std::vector<RankId> children;
};

/// How a multi-host spawn fans out (Martín-Álvarez et al.: the spawn step
/// is a first-order cost of malleability, worth engineering).
///  * kSequential — the parent creates every child itself, one after the
///    other: k spawn handshakes in series, O(k) latency.
///  * kTree — binomial tree: every already-created process spawns further
///    children in successive rounds, so all k children exist after
///    ceil(log2(k+1)) rounds, O(log k) latency.
enum class SpawnStrategy { kSequential, kTree };

[[nodiscard]] const char* spawn_strategy_name(SpawnStrategy strategy);
[[nodiscard]] std::optional<SpawnStrategy> spawn_strategy_from(
    std::string_view name);

/// Cooperative cancellation token for spawn_many: once `cancelled` flips
/// true, in-flight handshakes finish their current step and no further
/// children are created — spawn_many returns the partial group (via its
/// `progress` list) for the caller to reap.  The caller owns the token and
/// must keep it alive until spawn_many returns.
struct SpawnCancel {
  bool cancelled = false;
};

struct MultiSpawnResult {
  /// Child ids in `hosts` order (child i is named `name + "." + i`),
  /// regardless of strategy — the membership is strategy-independent,
  /// only the latency differs.
  std::vector<RankId> children;
  Comm intercomm;   // local group: {parent}; remote group: {children}
  /// Spawn handshakes on the critical path (sequential: k; tree: depth).
  int rounds = 0;
};

/// One logical MPI process.
class Proc {
 public:
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;
  ~Proc();

  [[nodiscard]] RankId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] host::Host& host() const noexcept { return *host_; }
  [[nodiscard]] host::Pid pid() const noexcept { return pid_; }
  [[nodiscard]] const Comm& world() const noexcept { return world_; }
  [[nodiscard]] int world_rank() const { return world_.rank_of(id_); }

  /// For spawned processes: the intercommunicator back to the parent
  /// (MPI_Comm_get_parent); invalid for directly launched processes.
  [[nodiscard]] const Comm& parent_comm() const noexcept {
    return parent_comm_;
  }
  [[nodiscard]] MpiSystem& system() const noexcept { return *system_; }

  /// Burn CPU on the current host for `work` reference-seconds.
  [[nodiscard]] host::CpuModel::ComputeAwaiter compute(double work) {
    return host_->cpu().compute(work);
  }

  // -- point to point -------------------------------------------------------

  /// Blocking send: completes when the message is delivered (buffered-send
  /// timing: the full wire transfer is paid by the sender).
  [[nodiscard]] sim::Task<> send(Comm comm, int dest, int tag,
                                 double size_bytes, MpiMessage payload = {});

  /// Non-blocking send.
  Request isend(Comm comm, int dest, int tag, double size_bytes,
                MpiMessage payload = {});

  /// Blocking receive with MPI matching (source/tag wildcards, FIFO per
  /// (source, tag) pair).
  [[nodiscard]] sim::Task<MpiMessage> recv(Comm comm, int src = kAnySource,
                                           int tag = kAnyTag);

  /// Non-blocking probe: is a matching message already queued?
  [[nodiscard]] bool iprobe(const Comm& comm, int src = kAnySource,
                            int tag = kAnyTag) const;

  // -- collectives (intracommunicators) -------------------------------------

  [[nodiscard]] sim::Task<> barrier(Comm comm);

  /// Broadcast `size_bytes` (+values for the payload) from root; returns the
  /// broadcast values on every rank.
  [[nodiscard]] sim::Task<std::vector<double>> bcast(
      Comm comm, int root, double size_bytes, std::vector<double> values = {});

  /// Element-wise reduce to root (empty result on non-roots).
  [[nodiscard]] sim::Task<std::vector<double>> reduce(
      Comm comm, int root, std::vector<double> values, ReduceOp op,
      double size_bytes = 0);

  [[nodiscard]] sim::Task<std::vector<double>> reduce_sum(
      Comm comm, int root, std::vector<double> values, double size_bytes = 0);

  [[nodiscard]] sim::Task<std::vector<double>> allreduce(
      Comm comm, std::vector<double> values, ReduceOp op,
      double size_bytes = 0);

  [[nodiscard]] sim::Task<std::vector<double>> allreduce_sum(
      Comm comm, std::vector<double> values, double size_bytes = 0);

  /// Gather each rank's vector to root (concatenated in rank order).
  [[nodiscard]] sim::Task<std::vector<double>> gather(
      Comm comm, int root, std::vector<double> values, double size_bytes = 0);

  /// Scatter equal chunks from root; returns this rank's chunk.
  [[nodiscard]] sim::Task<std::vector<double>> scatter(
      Comm comm, int root, std::vector<double> values, int chunk,
      double size_bytes = 0);

  /// Gather everyone's vector to everyone (concatenated in rank order).
  [[nodiscard]] sim::Task<std::vector<double>> allgather(
      Comm comm, std::vector<double> values, double size_bytes = 0);

  /// Duplicate a communicator: same members, fresh context (collective —
  /// every member must call it; messages on the two contexts never mix).
  [[nodiscard]] sim::Task<Comm> comm_dup(Comm comm);

  /// Split a communicator by color (collective).  Members with the same
  /// color end up in one new communicator, ordered by (key, old rank);
  /// color < 0 (MPI_UNDEFINED) yields an invalid Comm for that caller.
  [[nodiscard]] sim::Task<Comm> comm_split(Comm comm, int color, int key);

  // -- MPI-2 dynamic process management --------------------------------------

  /// Spawn `count` children running `app` on `host_name`; pays the DPM
  /// startup cost.  Returns the parent/children intercommunicator.
  [[nodiscard]] sim::Task<SpawnResult> spawn(const std::string& host_name,
                                             AppMain app, std::string name,
                                             int count = 1);

  /// Spawn one child per entry of `hosts` (child i named `name + "." + i`),
  /// fanning out sequentially or over the binomial tree.  Every spawn
  /// handshake pays the full DPM cost (startup overhead + control
  /// round-trip) charged to the host performing it; with kTree those
  /// handshakes overlap across the already-created children.  Children are
  /// created suspended and started together once the whole group exists, so
  /// the resulting membership and application behaviour are byte-identical
  /// across strategies — only the completion time differs.  `progress`
  /// (optional, not owned) receives each child id as it is created, so a
  /// caller that abandons the operation mid-flight (resize spawn timeout)
  /// can reap the partial group.
  [[nodiscard]] sim::Task<MultiSpawnResult> spawn_many(
      std::vector<std::string> hosts, AppMain app, std::string name,
      SpawnStrategy strategy = SpawnStrategy::kSequential,
      std::vector<RankId>* progress = nullptr,
      std::shared_ptr<const struct SpawnCancel> cancel = nullptr);

  /// Open a named port (server side).
  [[nodiscard]] std::string open_port();
  void close_port(const std::string& port);

  /// Accept one connection on a port opened by this process.
  [[nodiscard]] sim::Task<Comm> accept(const std::string& port);

  /// Connect to a port anywhere in the system.
  [[nodiscard]] sim::Task<Comm> connect(const std::string& port);

  /// Merge an intercommunicator into an intracommunicator; the `high` group
  /// is ordered after the low one.  Must be called by both sides.
  [[nodiscard]] sim::Task<Comm> merge(Comm intercomm, bool high);

 private:
  friend class MpiSystem;

  Proc(MpiSystem& system, RankId id, host::Host& h, std::string name);

  /// One pending receive; lives on the suspended recv() coroutine frame and
  /// is linked intrusively into its mailbox bucket (O(1) unpost when the
  /// fiber is killed or migrated mid-receive).
  struct PostedRecv {
    int src = kAnySource;
    int tag = kAnyTag;
    bool matched = false;
    std::uint64_t seq = 0;  // post order, for wildcard-overlap tie-breaks
    MpiMessage message;
    std::unique_ptr<sim::Trigger> arrived;
    PostedRecv* prev = nullptr;
    PostedRecv* next = nullptr;
  };

  /// Per-context matching state.  Both directions are bucketed by the
  /// (source, tag) pair — wildcards are buckets of their own, keyed with -1 —
  /// so the hot concrete-source/concrete-tag path is O(1) instead of a
  /// linear scan over every queued message or pending receive:
  ///   * posted receives: intrusive FIFO per bucket; an arriving message
  ///     checks at most its 4 candidate buckets (src/ANY x tag/ANY) and takes
  ///     the oldest post among them;
  ///   * unexpected messages: pooled nodes chained into per-bucket FIFOs; a
  ///     wildcard receive takes the oldest arrival among matching bucket
  ///     fronts, identical to the order a front-to-back scan would find.
  struct Mailbox {
    static constexpr std::uint32_t kNil = 0xffffffffU;

    struct MsgNode {
      MpiMessage message;
      std::uint64_t seq = 0;
      std::uint32_t next = kNil;
    };
    struct MsgList {
      std::uint32_t head = kNil;
      std::uint32_t tail = kNil;
    };
    struct PostedList {
      PostedRecv* head = nullptr;
      PostedRecv* tail = nullptr;
    };

    void post(PostedRecv& recv);
    void unpost(PostedRecv& recv) noexcept;
    /// Unlink and return the oldest posted receive matching `message`, if any.
    PostedRecv* match_posted(const MpiMessage& message) noexcept;

    void stash(MpiMessage message);
    /// Pop the oldest unexpected message matching (src, tag), if any.
    std::optional<MpiMessage> claim(int src, int tag);
    [[nodiscard]] bool peek(int src, int tag) const noexcept;

    std::unordered_map<std::uint64_t, PostedList> posted;
    std::unordered_map<std::uint64_t, MsgList> unexpected;
    std::vector<MsgNode> pool;  // recycled through `free_node`
    std::uint32_t free_node = kNil;
    std::uint64_t next_seq = 0;
  };

  void deliver(MpiMessage message);

  MpiSystem* system_;
  RankId id_;
  host::Host* host_;
  std::vector<sim::Fiber> isend_fibers_;  // in-flight non-blocking sends
  host::Pid pid_ = 0;
  std::string name_;
  Comm world_;
  Comm parent_comm_;
  std::map<int, Mailbox> mailboxes_;
};

class MpiSystem {
 public:
  struct Options {
    /// LAM-style DPM startup latency per spawn (paper §5.2: ~0.3 s).
    double spawn_overhead = 0.3;
  };

  MpiSystem(sim::Engine& engine, net::Network& network);
  MpiSystem(sim::Engine& engine, net::Network& network, Options options);
  MpiSystem(const MpiSystem&) = delete;
  MpiSystem& operator=(const MpiSystem&) = delete;
  ~MpiSystem();

  /// Launch an n-process world, one AppMain instance per (host) entry.
  /// Returns the member ids in rank order.
  std::vector<RankId> launch_world(const std::vector<std::string>& hosts,
                                   AppMain app, const std::string& name,
                                   bool migration_enabled = false,
                                   const std::string& schema_name = {});

  /// Launch a standalone single-process job (world of size 1).
  RankId launch(const std::string& host_name, AppMain app,
                const std::string& name, bool migration_enabled = false,
                const std::string& schema_name = {});

  /// Like launch(), but the process keeps `name` verbatim (no ".0" rank
  /// suffix) — used when relaunching a crashed process under its old name.
  RankId launch_exact(const std::string& host_name, AppMain app,
                      const std::string& name, bool migration_enabled = false,
                      const std::string& schema_name = {});

  /// Forcefully kill a process: the fiber dies where it is suspended and
  /// the logical process disappears (crash injection).  False if unknown.
  bool kill(RankId id);

  [[nodiscard]] Proc* find(RankId id) const;
  [[nodiscard]] Proc* find_by_pid(const std::string& host_name,
                                  host::Pid pid) const;

  /// Relocate a proc to another host (HPCM migration).  Re-registers it in
  /// the destination's process table; in-flight messages get forwarded.
  void relocate(Proc& proc, host::Host& destination);

  /// Terminate and destroy a logical process (normal exit).
  void terminate(RankId id);

  /// True while the logical process exists.
  [[nodiscard]] bool alive(RankId id) const { return find(id) != nullptr; }

  /// Await the end of a process (resolves immediately if already gone).
  [[nodiscard]] sim::Task<> wait_for_exit(RankId id);

  /// Deliver a message directly into a process's matching queues, bypassing
  /// the network (used by the migration middleware after it has accounted
  /// the wire cost itself).  No-op when the process is gone.
  void inject(RankId id, MpiMessage message);

  /// Start (or restart, after a migration) an application fiber for an
  /// existing logical process.
  void start_app(Proc& proc, AppMain app);

  [[nodiscard]] sim::Engine& engine() const noexcept { return *engine_; }
  [[nodiscard]] net::Network& network() const noexcept { return *network_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t live_procs() const noexcept {
    return procs_.size();
  }

  /// Create a fresh communicator over the given members.
  Comm make_comm(std::vector<RankId> members);

  /// The two mirrored views of one intercommunicator (same context id):
  /// first = {local <-> remote}, second = {remote <-> local}.
  std::pair<Comm, Comm> make_intercomm_pair(std::vector<RankId> local,
                                            std::vector<RankId> remote);

 private:
  friend class Proc;

  struct PortState {
    PortState(sim::Engine& engine, RankId owner_id)
        : owner(owner_id), pending(engine) {}
    RankId owner;
    sim::Channel<RankId> pending;  // connecting procs
    std::unique_ptr<sim::Trigger> accepted;
    Comm connector_comm;  // filled by accept for the connector to pick up
  };

  /// Shared merged-communicator registry so both sides of an
  /// Intercomm_merge agree on the resulting context id.
  Comm merge_comm(int inter_context, std::vector<RankId> members);

  /// Rendezvous state for collective communicator operations (dup/split):
  /// all members of the parent communicator must arrive before results are
  /// published.
  struct CommOpState {
    explicit CommOpState(sim::Engine& engine) : done(engine) {}
    std::map<int, std::pair<int, int>> contributions;  // rank -> color,key
    int arrived = 0;
    bool published = false;
    std::map<int, Comm> results_by_color;
    Comm dup_result;
    sim::Trigger done;
  };

  Proc& create_proc(const std::string& host_name, std::string name,
                    bool migration_enabled, const std::string& schema_name);

  /// Shared bookkeeping of one in-flight spawn_many fan-out; node fibers
  /// hold references until they finish or notice cancellation.
  struct MultiSpawnState;
  /// One binomial-tree node's spawn loop (node 0 is the parent itself).
  [[nodiscard]] sim::Task<> tree_spawn_node(
      std::shared_ptr<MultiSpawnState> state, int node, int depth);

  /// Route `size_bytes` from the current host of `from` to the current host
  /// of `to`, following relocations (forwarding hops).
  [[nodiscard]] sim::Task<> route(RankId from, RankId to, double size_bytes);

  sim::Engine* engine_;
  net::Network* network_;
  Options options_;
  std::map<RankId, std::unique_ptr<Proc>> procs_;
  std::map<RankId, sim::Fiber> fibers_;  // live app fibers, killed on teardown
  std::map<RankId, std::unique_ptr<sim::Trigger>> exit_triggers_;
  std::map<std::string, std::unique_ptr<PortState>> ports_;
  std::map<int, Comm> merged_comms_;
  // Keyed by (parent context, operation epoch) so repeated dups/splits on
  // the same communicator stay separate.
  std::map<std::pair<int, int>, std::unique_ptr<CommOpState>> comm_ops_;
  std::map<int, int> comm_op_epoch_;
  RankId next_rank_ = 1;
  int next_context_ = 1;
  int next_port_ = 1;
};

}  // namespace ars::mpi
