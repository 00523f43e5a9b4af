#include "ars/malleable/malleable.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "ars/net/network.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/sim/engine.hpp"
#include "ars/sim/task.hpp"
#include "ars/sim/wait.hpp"
#include "ars/support/log.hpp"

namespace ars::malleable {

namespace {

/// Charged at commit for the intercommunicator merge, per DPM round.
constexpr double kMergeOverheadPerRound = 0.05;

/// Worker -> root per-iteration check-in payload (result shard header).
constexpr int kResultTag = 7;
constexpr double kResultBytes = 8.0;

/// The root lingers this long after its last iteration so in-flight worker
/// check-in messages drain before the root's proc is torn down.
constexpr double kDrainDelay = 0.05;

const std::vector<double>& spawn_ms_bounds() {
  static const std::vector<double> bounds{250, 500, 1000, 2000,
                                          4000, 8000, 16000};
  return bounds;
}

const std::vector<double>& redistribute_ms_bounds() {
  static const std::vector<double> bounds{10, 50, 100, 500, 1000, 5000, 10000};
  return bounds;
}

}  // namespace

const char* verb_name(ResizeVerb verb) {
  return verb == ResizeVerb::kExpand ? "expand" : "shrink";
}

std::optional<ResizeVerb> verb_from(std::string_view name) {
  if (name == "expand") {
    return ResizeVerb::kExpand;
  }
  if (name == "shrink") {
    return ResizeVerb::kShrink;
  }
  return std::nullopt;
}

std::vector<int> partition_blocks(int blocks, int ranks) {
  if (ranks <= 0) {
    return {};
  }
  std::vector<int> counts(static_cast<std::size_t>(ranks));
  const long long b = blocks;
  for (int r = 0; r < ranks; ++r) {
    counts[static_cast<std::size_t>(r)] =
        static_cast<int>(b * (r + 1) / ranks - b * r / ranks);
  }
  return counts;
}

/// A queued resize waiting for the job's next poll-point.
struct MalleableEngine::PendingResize {
  ResizeVerb verb = ResizeVerb::kExpand;
  int delta = 0;
  std::vector<std::string> hosts;
  mpi::SpawnStrategy strategy = mpi::SpawnStrategy::kSequential;
  obs::TraceCtx trace;
};

/// One in-flight resize transaction (the malleable analogue of hpcm's
/// PendingTx): the phase runner and everything the rollback paths need to
/// reap partial work.
struct MalleableEngine::ResizeTx {
  ResizeTx(sim::Engine& engine, txn::PhaseEvent identity,
           const txn::PhaseListener* listener)
      : runner(engine, std::move(identity), listener) {}

  ResizeVerb verb = ResizeVerb::kExpand;
  int delta = 0;
  std::vector<std::string> hosts;
  mpi::SpawnStrategy strategy = mpi::SpawnStrategy::kSequential;
  obs::TraceCtx trace;
  double started_at = 0.0;
  int ranks_before = 0;

  /// Children created so far, live during the spawn phase (progress list
  /// passed to spawn_many so aborts can reap a partial group).
  std::vector<mpi::RankId> spawned;
  std::shared_ptr<mpi::SpawnCancel> cancel =
      std::make_shared<mpi::SpawnCancel>();
  mpi::MultiSpawnResult spawn_result;

  std::vector<mpi::RankId> new_members;  // planned post-commit membership
  std::vector<mpi::RankId> victims;      // shrink: ranks that retire
  std::vector<int> new_blocks;

  double redistributed_bytes = 0.0;
  double spawn_seconds = 0.0;
  double redistribute_seconds = 0.0;
  std::uint64_t span = 0;

  /// Declared last so a phase body still in flight dies first.
  txn::Runner runner;
};

/// One running malleable job: membership, block assignment, named state,
/// and the two rendezvous queues of the iteration protocol.
struct MalleableEngine::Job {
  explicit Job(sim::Engine& engine) : gate(engine), root_wake(engine) {}

  JobSpec spec;
  std::vector<mpi::RankId> members;  // rank order; [0] is the root
  std::map<mpi::RankId, std::string> host_of;
  mpi::Comm world;
  std::vector<int> blocks_of;  // per member, contiguous partition
  hpcm::StateRegistry state;
  std::set<std::string> shard_keys;  // state entries we own (for cleanup)

  int open_iter = -1;  // iteration workers may enter; -1 = none yet
  int done_count = 0;  // worker check-ins for open_iter
  int generation = 0;  // spawn-name generation counter
  long long processed = 0;

  std::set<mpi::RankId> retiring;  // exit at their next poll-point
  std::optional<PendingResize> pending;
  std::unique_ptr<ResizeTx> tx;

  bool finished = false;
  bool failed = false;
  double finished_time = -1.0;

  sim::WaitQueue gate;       // workers wait for open_iter / retirement
  sim::WaitQueue root_wake;  // root waits for worker check-ins
};

MalleableEngine::MalleableEngine(mpi::MpiSystem& mpi, net::Network& network)
    : MalleableEngine(mpi, network, Options{}) {}

MalleableEngine::MalleableEngine(mpi::MpiSystem& mpi, net::Network& network,
                                 Options options)
    : mpi_(&mpi), network_(&network), options_(options) {
  if (obs::MetricsRegistry* m = metrics()) {
    // Pre-register every malleable.* series so exports are stable at zero,
    // matching the migration.* convention: a run with no resizes still
    // carries the full schema.
    for (const char* verb : {"expand", "shrink"}) {
      for (const char* outcome : {kCommitted, kAborted, kPartialRollback}) {
        m->counter("malleable.resizes", {{"verb", verb}, {"outcome", outcome}});
      }
    }
    for (const char* reason : {"spawn-timeout", "no-capacity",
                               "redistribution-failed", "job-finished",
                               "job-failed"}) {
      m->counter("malleable.resize_failures", {{"reason", reason}});
    }
    for (const char* strategy : {"sequential", "tree"}) {
      m->histogram("malleable.spawn_ms", {{"strategy", strategy}},
                   spawn_ms_bounds());
    }
    m->histogram("malleable.redistribute_ms", {}, redistribute_ms_bounds());
    m->counter("malleable.redistributed_bytes");
    m->counter("malleable.ranks_spawned");
    m->counter("malleable.ranks_retired");
    m->counter("malleable.ranks_lost");
    m->counter("malleable.ghost_ranks");
    m->counter("malleable.jobs_completed");
    m->counter("malleable.jobs_failed");
  }
}

MalleableEngine::~MalleableEngine() {
  // Kill member fibers (and any in-flight transaction machinery) before the
  // per-job wait queues die: a killed fiber's awaitable destructor
  // deregisters it, so the queues are empty when ~Job runs.
  for (auto& [name, job] : jobs_) {
    if (job->tx) {
      job->tx->runner.stop();
      job->tx->cancel->cancelled = true;
      for (const mpi::RankId id : job->tx->spawned) {
        (void)mpi_->kill(id);
      }
    }
    for (const mpi::RankId id : job->members) {
      (void)mpi_->kill(id);
    }
  }
  jobs_.clear();
}

std::vector<mpi::RankId> MalleableEngine::launch(
    const JobSpec& spec, const std::vector<std::string>& hosts) {
  if (hosts.empty()) {
    throw std::invalid_argument("malleable: job needs at least one host");
  }
  if (jobs_.count(spec.name) != 0) {
    throw std::invalid_argument("malleable: duplicate job " + spec.name);
  }
  auto job = std::make_shared<Job>(engine());
  job->spec = spec;
  job->spec.workload.blocks = std::max(1, job->spec.workload.blocks);
  job->spec.min_ranks = std::max(1, job->spec.min_ranks);
  MalleableEngine* self = this;
  auto anchor = job;
  mpi::AppMain app = [self, anchor](mpi::Proc& proc) -> sim::Task<> {
    return self->member_main(anchor, proc);
  };
  job->members = mpi_->launch_world(hosts, std::move(app), spec.name);
  job->world = mpi_->make_comm(job->members);
  job->blocks_of = partition_blocks(job->spec.workload.blocks,
                                    static_cast<int>(job->members.size()));
  for (std::size_t i = 0; i < job->members.size(); ++i) {
    job->host_of[job->members[i]] = hosts[i];
  }
  apply_assignment(*job);
  jobs_.emplace(spec.name, job);
  if (obs::Tracer* t = tracer(); t != nullptr && obs::active(t)) {
    t->instant("malleable.job_launched", "malleable", spec.name,
               {{"ranks", static_cast<double>(job->members.size())},
                {"blocks", static_cast<double>(job->spec.workload.blocks)}});
  }
  ARS_LOG_INFO("malleable", "job " << spec.name << " launched with "
                                   << job->members.size() << " ranks");
  return job->members;
}

bool MalleableEngine::request_resize(const std::string& job_name,
                                     ResizeVerb verb, int delta,
                                     std::vector<std::string> hosts,
                                     std::optional<mpi::SpawnStrategy> strategy,
                                     obs::TraceCtx trace) {
  Job* job = find_job(job_name);
  if (job == nullptr || job->finished || job->failed) {
    return false;
  }
  if (job->pending.has_value() || job->tx != nullptr) {
    return false;  // one resize at a time; the caller retries later
  }
  if (delta <= 0) {
    return false;
  }
  PendingResize req;
  req.verb = verb;
  req.delta = delta;
  req.hosts = std::move(hosts);
  req.strategy = strategy.value_or(job->spec.strategy);
  req.trace = trace;
  job->pending = std::move(req);
  if (obs::Tracer* t = tracer(); t != nullptr && obs::active(t)) {
    obs::Attrs attrs{{"verb", std::string(verb_name(verb))},
                     {"delta", static_cast<double>(delta)}};
    obs::stamp(attrs, trace);
    t->instant("malleable.resize_requested", "malleable", job_name,
               std::move(attrs));
  }
  return true;
}

// -- introspection ----------------------------------------------------------

const MalleableEngine::Job* MalleableEngine::find_job(
    const std::string& name) const {
  const auto it = jobs_.find(name);
  return it == jobs_.end() ? nullptr : it->second.get();
}

MalleableEngine::Job* MalleableEngine::find_job(const std::string& name) {
  const auto it = jobs_.find(name);
  return it == jobs_.end() ? nullptr : it->second.get();
}

bool MalleableEngine::known(const std::string& job) const {
  return find_job(job) != nullptr;
}

int MalleableEngine::ranks(const std::string& job) const {
  const Job* j = find_job(job);
  return j == nullptr ? 0 : static_cast<int>(j->members.size());
}

std::vector<std::string> MalleableEngine::rank_hosts(
    const std::string& job) const {
  std::vector<std::string> hosts;
  if (const Job* j = find_job(job)) {
    hosts.reserve(j->members.size());
    for (const mpi::RankId id : j->members) {
      const auto it = j->host_of.find(id);
      hosts.push_back(it == j->host_of.end() ? std::string{} : it->second);
    }
  }
  return hosts;
}

bool MalleableEngine::finished(const std::string& job) const {
  const Job* j = find_job(job);
  return j != nullptr && j->finished;
}

bool MalleableEngine::failed(const std::string& job) const {
  const Job* j = find_job(job);
  return j != nullptr && j->failed;
}

double MalleableEngine::finished_at(const std::string& job) const {
  const Job* j = find_job(job);
  return j == nullptr ? -1.0 : j->finished_time;
}

bool MalleableEngine::resizing(const std::string& job) const {
  const Job* j = find_job(job);
  return j != nullptr && (j->pending.has_value() || j->tx != nullptr);
}

bool MalleableEngine::all_finished() const {
  for (const auto& [name, job] : jobs_) {
    if (!job->finished) {
      return false;
    }
  }
  return true;
}

long long MalleableEngine::processed_blocks(const std::string& job) const {
  const Job* j = find_job(job);
  return j == nullptr ? 0 : j->processed;
}

double MalleableEngine::state_bytes(const std::string& job) const {
  const Job* j = find_job(job);
  return j == nullptr ? 0.0
                      : static_cast<double>(j->state.total_transfer_bytes());
}

std::vector<std::string> MalleableEngine::job_names() const {
  std::vector<std::string> names;
  names.reserve(jobs_.size());
  for (const auto& [name, job] : jobs_) {
    names.push_back(name);
  }
  return names;
}

// -- chaos hooks ------------------------------------------------------------

bool MalleableEngine::fail_resize_target(const std::string& job_name,
                                         const std::string& host) {
  Job* job = find_job(job_name);
  if (job == nullptr || job->tx == nullptr) {
    return false;
  }
  ResizeTx& tx = *job->tx;
  if (tx.runner.phase() != "spawn") {
    return false;
  }
  if (std::find(tx.hosts.begin(), tx.hosts.end(), host) == tx.hosts.end()) {
    return false;
  }
  // Stop the fan-out, reap anything already placed on the dead target, and
  // fail the phase; the abort path reaps the rest of the partial group.
  tx.cancel->cancelled = true;
  for (const mpi::RankId id : tx.spawned) {
    if (mpi::Proc* p = mpi_->find(id);
        p != nullptr && p->host().name() == host) {
      (void)mpi_->kill(id);
    }
  }
  tx.runner.fail("no-capacity");
  return true;
}

int MalleableEngine::on_host_failed(const std::string& host) {
  int lost = 0;
  for (auto& [name, job] : jobs_) {
    if (job->finished || job->failed) {
      continue;
    }
    // Malleable ranks are not HPCM processes, so nobody else reaps them:
    // the crash kills our members (and any half-spawned children) here.
    bool hit = false;
    for (const mpi::RankId id : job->members) {
      const auto it = job->host_of.find(id);
      if (it != job->host_of.end() && it->second == host) {
        if (mpi_->kill(id)) {
          ++lost;
        }
        hit = true;
      }
    }
    if (job->tx != nullptr) {
      for (const mpi::RankId id : job->tx->spawned) {
        if (mpi::Proc* p = mpi_->find(id);
            p != nullptr && p->host().name() == host) {
          (void)mpi_->kill(id);
        }
      }
    }
    if (!mpi_->alive(job->members.front())) {
      // A dead root kills the whole job: no coordinator, no poll-points.
      teardown_job(*job, "job-failed");
      continue;
    }
    if (job->tx != nullptr && job->tx->runner.phase() == "spawn") {
      (void)fail_resize_target(name, host);  // no-op unless host is a target
    }
    if (hit) {
      if (obs::MetricsRegistry* m = metrics()) {
        m->counter("malleable.ranks_lost").inc();
      }
      // Wake both rendezvous points so the root re-counts live workers and
      // gate-waiters re-check; the membership repair happens at the
      // root's next boundary.
      job->root_wake.notify_all();
      job->gate.notify_all();
    }
  }
  return lost;
}

// -- iteration protocol -----------------------------------------------------

sim::Task<> MalleableEngine::member_main(std::shared_ptr<Job> job,
                                         mpi::Proc& proc) {
  if (!job->members.empty() && job->members.front() == proc.id()) {
    co_await root_main(job, proc);
  } else {
    co_await worker_main(job, 0, proc);
  }
}

sim::Task<> MalleableEngine::root_main(std::shared_ptr<Job> job,
                                       mpi::Proc& proc) {
  const Workload& wl = job->spec.workload;
  for (int iter = 0; iter < wl.iterations; ++iter) {
    // The iteration boundary is the poll-point: all workers are parked at
    // the gate, so the membership is ours to change.
    repair_membership(*job);
    if (job->pending.has_value()) {
      co_await execute_resize(job, proc);
      repair_membership(*job);  // a target may have died mid-transaction
    }
    job->open_iter = iter;
    job->done_count = 0;
    job->gate.notify_all();
    const mpi::Comm world = job->world;
    std::vector<double> sync_values(1, static_cast<double>(iter));
    (void)co_await proc.bcast(world, 0, wl.sync_bytes,
                              std::move(sync_values));
    co_await proc.compute(static_cast<double>(job->blocks_of.front()) *
                          wl.work_per_block);
    job->processed += job->blocks_of.front();
    while (job->done_count < live_workers(*job)) {
      co_await job->root_wake.wait();
    }
  }
  co_await sim::delay(engine(), kDrainDelay);
  finish_job(*job);
}

sim::Task<> MalleableEngine::worker_main(std::shared_ptr<Job> job,
                                         int join_iter, mpi::Proc& proc) {
  const Workload& wl = job->spec.workload;
  int my_iter = join_iter;
  while (true) {
    while (!job->finished && job->open_iter < my_iter &&
           job->retiring.count(proc.id()) == 0) {
      co_await job->gate.wait();
    }
    if (job->finished) {
      break;
    }
    if (job->retiring.erase(proc.id()) != 0) {
      break;  // shrink: retire at the poll-point, state already handed off
    }
    const mpi::Comm world = job->world;
    const int rank = world.rank_of(proc.id());
    if (rank < 0) {
      // Membership changed under us without a retirement marker (repair
      // after a lost-rank race); park until the next boundary resolves it.
      co_await job->gate.wait();
      continue;
    }
    (void)co_await proc.bcast(world, 0, wl.sync_bytes);
    co_await proc.compute(
        static_cast<double>(job->blocks_of[static_cast<std::size_t>(rank)]) *
        wl.work_per_block);
    (void)proc.isend(world, 0, kResultTag, kResultBytes);
    job->processed += job->blocks_of[static_cast<std::size_t>(rank)];
    ++job->done_count;
    job->root_wake.notify_all();
    ++my_iter;
  }
}

int MalleableEngine::live_workers(const Job& job) const {
  int count = 0;
  for (std::size_t i = 1; i < job.members.size(); ++i) {
    if (mpi_->alive(job.members[i])) {
      ++count;
    }
  }
  return count;
}

void MalleableEngine::repair_membership(Job& job) {
  std::vector<mpi::RankId> survivors;
  survivors.reserve(job.members.size());
  for (const mpi::RankId id : job.members) {
    if (mpi_->alive(id)) {
      survivors.push_back(id);
    } else {
      job.retiring.erase(id);
    }
  }
  if (survivors.size() == job.members.size()) {
    return;
  }
  const int lost = static_cast<int>(job.members.size() - survivors.size());
  job.members = std::move(survivors);
  job.world = mpi_->make_comm(job.members);
  job.blocks_of = partition_blocks(job.spec.workload.blocks,
                                   static_cast<int>(job.members.size()));
  apply_assignment(job);
  if (obs::Tracer* t = tracer(); t != nullptr && obs::active(t)) {
    t->instant("malleable.membership_repaired", "malleable", job.spec.name,
               {{"lost", static_cast<double>(lost)},
                {"ranks", static_cast<double>(job.members.size())}});
  }
  ARS_LOG_INFO("malleable", "job " << job.spec.name << " repaired: " << lost
                                   << " rank(s) lost, "
                                   << job.members.size() << " remain");
}

void MalleableEngine::apply_assignment(Job& job) {
  const Workload& wl = job.spec.workload;
  std::vector<std::int64_t> owners;
  owners.reserve(static_cast<std::size_t>(wl.blocks));
  std::set<std::string> keys;
  for (std::size_t r = 0; r < job.members.size(); ++r) {
    const mpi::RankId id = job.members[r];
    for (int k = 0; k < job.blocks_of[r]; ++k) {
      owners.push_back(static_cast<std::int64_t>(id));
    }
    const std::string key = "shard.r" + std::to_string(id);
    job.state.set_opaque(key, static_cast<std::uint64_t>(
                                  job.blocks_of[r] * wl.bytes_per_block));
    keys.insert(key);
  }
  job.state.set_ints("block_owner", std::move(owners));
  for (const std::string& stale : job.shard_keys) {
    if (keys.count(stale) == 0) {
      job.state.erase(stale);
    }
  }
  job.shard_keys = std::move(keys);
}

void MalleableEngine::finish_job(Job& job) {
  job.finished = true;
  job.finished_time = engine().now();
  job.gate.notify_all();
  if (job.pending.has_value()) {
    // A resize the job never reached its next poll-point for: emit an abort
    // so the registry credits the placement debits it took out.
    job.tx = open_tx(job);
    finish_resize(job, kAborted, "job-finished", "plan");
  }
  if (obs::MetricsRegistry* m = metrics()) {
    m->counter("malleable.jobs_completed").inc();
  }
  if (obs::Tracer* t = tracer(); t != nullptr && obs::active(t)) {
    t->instant("malleable.job_finished", "malleable", job.spec.name,
               {{"ranks", static_cast<double>(job.members.size())},
                {"processed", static_cast<double>(job.processed)}});
  }
}

void MalleableEngine::teardown_job(Job& job, const std::string& reason) {
  if (job.tx) {
    job.tx->runner.stop();
    job.tx->cancel->cancelled = true;
    for (const mpi::RankId id : job.tx->spawned) {
      (void)mpi_->kill(id);
    }
  }
  // Kill member fibers BEFORE finishing the transaction: the root may be
  // suspended on the runner's wait queue, and the queue asserts it has no
  // waiters when the ResizeTx is destroyed.
  for (const mpi::RankId id : job.members) {
    (void)mpi_->kill(id);
  }
  if (job.tx) {
    finish_resize(job, kAborted, reason, job.tx->runner.phase());
  } else if (job.pending.has_value()) {
    job.tx = open_tx(job);
    finish_resize(job, kAborted, reason, "plan");
  }
  job.pending.reset();
  job.retiring.clear();
  job.failed = true;
  job.finished = true;
  job.finished_time = engine().now();
  if (obs::MetricsRegistry* m = metrics()) {
    m->counter("malleable.jobs_failed").inc();
  }
  if (obs::Tracer* t = tracer(); t != nullptr && obs::active(t)) {
    t->instant("malleable.job_failed", "malleable", job.spec.name,
               {{"reason", reason}});
  }
  ARS_LOG_WARN("malleable",
               "job " << job.spec.name << " torn down: " << reason);
}

// -- resize transaction -----------------------------------------------------

std::string MalleableEngine::validate_resize(const Job& job,
                                             const ResizeTx& tx) const {
  if (tx.delta <= 0) {
    return "bad-delta";
  }
  if (tx.verb == ResizeVerb::kExpand) {
    if (static_cast<int>(job.members.size()) + tx.delta >
        job.spec.max_ranks) {
      return "above-max-ranks";
    }
    if (static_cast<int>(tx.hosts.size()) != tx.delta) {
      return "target-count-mismatch";
    }
    for (const std::string& host : tx.hosts) {
      if (network_->find_host(host) == nullptr) {
        return "unknown-host";
      }
    }
  } else {
    if (static_cast<int>(job.members.size()) - tx.delta < job.spec.min_ranks) {
      return "below-min-ranks";
    }
  }
  return {};
}

std::unique_ptr<MalleableEngine::ResizeTx> MalleableEngine::open_tx(
    Job& job) {
  PendingResize& req = *job.pending;
  auto tx = std::make_unique<ResizeTx>(
      engine(),
      txn::PhaseEvent{verb_name(req.verb), job.spec.name, "", "", req.hosts},
      &phase_listener_);
  tx->verb = req.verb;
  tx->delta = req.delta;
  tx->hosts = std::move(req.hosts);
  tx->strategy = req.strategy;
  tx->trace = req.trace;
  tx->started_at = engine().now();
  tx->ranks_before = static_cast<int>(job.members.size());
  job.pending.reset();
  return tx;
}

void MalleableEngine::enter_phase(Job& job, const char* phase) {
  if (obs::Tracer* t = tracer(); t != nullptr && obs::active(t)) {
    obs::Attrs attrs{{"phase", phase},
                     {"verb", std::string(verb_name(job.tx->verb))}};
    obs::stamp(attrs, job.tx->trace);
    t->instant("resize.phase", "malleable", job.spec.name, std::move(attrs));
  }
  job.tx->runner.enter(phase);
}

sim::Task<> MalleableEngine::spawn_phase(std::shared_ptr<Job> job,
                                         mpi::Proc* proc) {
  ResizeTx& tx = *job->tx;
  const int join_iter = job->open_iter + 1;
  const std::string name =
      job->spec.name + ".g" + std::to_string(++job->generation);
  MalleableEngine* self = this;
  auto anchor = job;
  mpi::AppMain app = [self, anchor, join_iter](mpi::Proc& p) -> sim::Task<> {
    return self->worker_main(anchor, join_iter, p);
  };
  tx.spawn_result = co_await proc->spawn_many(
      tx.hosts, std::move(app), name, tx.strategy, &tx.spawned, tx.cancel);
}

sim::Task<> MalleableEngine::redistribute_phase(std::shared_ptr<Job> job) {
  ResizeTx& tx = *job->tx;
  const Workload& wl = job->spec.workload;
  tx.new_blocks = partition_blocks(
      wl.blocks, static_cast<int>(tx.new_members.size()));
  const auto owners_of = [](const std::vector<mpi::RankId>& members,
                            const std::vector<int>& counts) {
    std::vector<mpi::RankId> owners;
    for (std::size_t r = 0; r < members.size(); ++r) {
      for (int k = 0; k < counts[r]; ++k) {
        owners.push_back(members[r]);
      }
    }
    return owners;
  };
  const std::vector<mpi::RankId> old_owners =
      owners_of(job->members, job->blocks_of);
  const std::vector<mpi::RankId> new_owners =
      owners_of(tx.new_members, tx.new_blocks);
  assert(old_owners.size() == new_owners.size());
  // Move coalesced runs of blocks whose owner changed; each run is one
  // state transfer between the owning hosts.
  std::size_t b = 0;
  while (b < old_owners.size()) {
    if (old_owners[b] == new_owners[b]) {
      ++b;
      continue;
    }
    const mpi::RankId src = old_owners[b];
    const mpi::RankId dst = new_owners[b];
    std::size_t e = b;
    while (e < old_owners.size() && old_owners[e] == src &&
           new_owners[e] == dst) {
      ++e;
    }
    const double bytes = static_cast<double>(e - b) * wl.bytes_per_block;
    mpi::Proc* sp = mpi_->find(src);
    mpi::Proc* dp = mpi_->find(dst);
    if (sp == nullptr || dp == nullptr) {
      throw std::runtime_error("redistribution-failed: block owner gone");
    }
    (void)co_await network_->transfer(sp->host().name(), dp->host().name(),
                                      bytes);
    tx.redistributed_bytes += bytes;
    b = e;
  }
}

sim::Task<> MalleableEngine::execute_resize(std::shared_ptr<Job> job,
                                            mpi::Proc& proc) {
  job->tx = open_tx(*job);
  ResizeTx& tx = *job->tx;
  if (obs::Tracer* t = tracer(); t != nullptr && obs::active(t)) {
    obs::Attrs attrs{
        {"verb", std::string(verb_name(tx.verb))},
        {"delta", static_cast<double>(tx.delta)},
        {"strategy", std::string(mpi::spawn_strategy_name(tx.strategy))}};
    obs::stamp(attrs, tx.trace);
    tx.span = t->begin_span("resize", "malleable", job->spec.name,
                            std::move(attrs));
  }
  enter_phase(*job, "plan");
  const std::string plan_error = validate_resize(*job, tx);
  if (!plan_error.empty()) {
    ARS_LOG_INFO("malleable", "resize of " << job->spec.name
                                           << " rejected: " << plan_error);
    finish_resize(*job, kAborted, "no-capacity", "plan");
    co_return;
  }

  if (tx.verb == ResizeVerb::kExpand) {
    enter_phase(*job, "spawn");
    const double spawn_start = engine().now();
    if (co_await tx.runner.run(spawn_phase(job, &proc),
                               options_.spawn_timeout) !=
        txn::Status::kFinished) {
      // Drain the fan-out: once the token flips no further children are
      // created and the spawn machinery fires its completion, after which
      // the partial group is ours to reap.
      tx.cancel->cancelled = true;
      co_await tx.runner.settle();
      for (const mpi::RankId id : tx.spawned) {
        (void)mpi_->kill(id);
      }
      // A target lost at any point of the spawn is the reason; otherwise
      // the fan-out ran out of time.
      finish_resize(*job, kAborted,
                    tx.runner.failure().empty() ? "spawn-timeout"
                                                : tx.runner.failure(),
                    "spawn");
      co_return;
    }
    tx.spawn_seconds = engine().now() - spawn_start;
    tx.new_members = job->members;
    tx.new_members.insert(tx.new_members.end(),
                          tx.spawn_result.children.begin(),
                          tx.spawn_result.children.end());

    enter_phase(*job, "redistribute");
    const double redistribute_start = engine().now();
    if (co_await tx.runner.run(redistribute_phase(job),
                               options_.redistribute_timeout) !=
        txn::Status::kFinished) {
      tx.runner.stop();
      if (!options_.sabotage_skip_resize_rollback) {
        for (const mpi::RankId id : tx.spawn_result.children) {
          (void)mpi_->kill(id);
        }
      }
      // The spawn succeeded but the state never moved: the job stays at its
      // original size — a partial rollback, not a clean abort.
      finish_resize(*job, kPartialRollback, "redistribution-failed",
                    "redistribute");
      co_return;
    }
    tx.redistribute_seconds = engine().now() - redistribute_start;

    enter_phase(*job, "commit");
    co_await sim::delay(
        engine(), kMergeOverheadPerRound * std::max(1, tx.spawn_result.rounds));
    job->members = tx.new_members;
    job->world = mpi_->make_comm(job->members);
    job->blocks_of = tx.new_blocks;
    for (std::size_t i = 0; i < tx.spawn_result.children.size(); ++i) {
      job->host_of[tx.spawn_result.children[i]] = tx.hosts[i];
    }
    apply_assignment(*job);
    finish_resize(*job, kCommitted, "", "");
  } else {
    // Shrink: pick the victims (still the plan phase).
    std::vector<mpi::RankId> victims;
    if (!tx.hosts.empty()) {
      for (const std::string& host : tx.hosts) {
        bool found = false;
        for (std::size_t i = job->members.size(); i-- > 1;) {
          const mpi::RankId id = job->members[i];
          const auto it = job->host_of.find(id);
          if (it != job->host_of.end() && it->second == host &&
              std::find(victims.begin(), victims.end(), id) ==
                  victims.end()) {
            victims.push_back(id);
            found = true;
            break;
          }
        }
        if (!found) {
          finish_resize(*job, kAborted, "no-capacity", "plan");
          co_return;
        }
      }
    } else {
      for (std::size_t i = job->members.size();
           i-- > 1 && static_cast<int>(victims.size()) < tx.delta;) {
        victims.push_back(job->members[i]);
      }
    }
    if (static_cast<int>(victims.size()) != tx.delta) {
      finish_resize(*job, kAborted, "no-capacity", "plan");
      co_return;
    }
    tx.victims = victims;
    tx.new_members.clear();
    for (const mpi::RankId id : job->members) {
      if (std::find(victims.begin(), victims.end(), id) == victims.end()) {
        tx.new_members.push_back(id);
      }
    }

    enter_phase(*job, "redistribute");
    const double redistribute_start = engine().now();
    if (co_await tx.runner.run(redistribute_phase(job),
                               options_.redistribute_timeout) !=
        txn::Status::kFinished) {
      tx.runner.stop();
      // Nothing was spawned; the victims keep their blocks — clean abort.
      finish_resize(*job, kAborted, "redistribution-failed", "redistribute");
      co_return;
    }
    tx.redistribute_seconds = engine().now() - redistribute_start;

    enter_phase(*job, "commit");
    job->members = tx.new_members;
    job->world = mpi_->make_comm(job->members);
    job->blocks_of = tx.new_blocks;
    for (const mpi::RankId id : tx.victims) {
      job->retiring.insert(id);
    }
    apply_assignment(*job);
    job->gate.notify_all();  // release the victims to retire
    finish_resize(*job, kCommitted, "", "");
  }
}

void MalleableEngine::finish_resize(Job& job, const std::string& outcome,
                                    const std::string& reason,
                                    const std::string& phase) {
  ResizeTx& tx = *job.tx;
  ResizeOutcome record;
  record.job = job.spec.name;
  record.verb = tx.verb;
  record.delta = tx.delta;
  record.hosts = tx.hosts;
  record.outcome = outcome;
  record.reason = reason;
  record.phase = phase;
  record.ranks_before = tx.ranks_before;
  record.ranks_after = static_cast<int>(job.members.size());
  record.started_at = tx.started_at;
  record.finished_at = engine().now();
  record.spawn_seconds = tx.spawn_seconds;
  record.redistribute_seconds = tx.redistribute_seconds;
  record.redistributed_bytes = tx.redistributed_bytes;
  record.spawn_rounds = tx.spawn_result.rounds;
  record.trace = tx.trace;
  if (obs::MetricsRegistry* m = metrics()) {
    m->counter("malleable.resizes",
               {{"verb", verb_name(tx.verb)}, {"outcome", outcome}})
        .inc();
    if (outcome != kCommitted) {
      m->counter("malleable.resize_failures",
                 {{"reason", reason.empty() ? "unknown" : reason}})
          .inc();
    }
    if (tx.spawn_seconds > 0.0) {
      m->histogram("malleable.spawn_ms",
                   {{"strategy", mpi::spawn_strategy_name(tx.strategy)}},
                   spawn_ms_bounds())
          .observe(tx.spawn_seconds * 1e3);
    }
    if (tx.redistribute_seconds > 0.0) {
      m->histogram("malleable.redistribute_ms", {}, redistribute_ms_bounds())
          .observe(tx.redistribute_seconds * 1e3);
    }
    if (tx.redistributed_bytes > 0.0) {
      m->counter("malleable.redistributed_bytes").inc(tx.redistributed_bytes);
    }
    if (outcome == kCommitted) {
      if (tx.verb == ResizeVerb::kExpand) {
        m->counter("malleable.ranks_spawned").inc(tx.delta);
      } else {
        m->counter("malleable.ranks_retired").inc(tx.delta);
      }
    }
  }
  if (obs::Tracer* t = tracer(); t != nullptr && obs::active(t)) {
    t->end_span(tx.span,
                {{"outcome", outcome},
                 {"reason", reason},
                 {"ranks_after", static_cast<double>(record.ranks_after)}});
  }
  ARS_LOG_INFO("malleable",
               "resize " << verb_name(tx.verb) << "(" << job.spec.name << ", "
                         << tx.delta << ") " << outcome
                         << (reason.empty() ? "" : " [" + reason + "]")
                         << ", ranks " << record.ranks_before << " -> "
                         << record.ranks_after);
  // Ground truth for the no-lost-rank invariant: at the instant a terminal
  // outcome is reported, every spawned child must be a member or dead.  A
  // live non-member is a leaked rank (the sabotage knob, or a protocol
  // bug).
  for (const mpi::RankId id : tx.spawned) {
    if (mpi_->alive(id) &&
        std::find(job.members.begin(), job.members.end(), id) ==
            job.members.end()) {
      ++ghost_ranks_;
      if (obs::MetricsRegistry* m = metrics()) {
        m->counter("malleable.ghost_ranks").inc();
      }
    }
  }
  history_.push_back(std::move(record));
  job.tx.reset();
  if (outcome_listener_) {
    outcome_listener_(history_.back());
  }
}

}  // namespace ars::malleable
