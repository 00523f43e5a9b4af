#include "ars/hpcm/migration.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <stdexcept>
#include <utility>

#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/support/log.hpp"

namespace ars::hpcm {

namespace {

/// Background transfer chunk size.
constexpr double kChunkBytes = 256.0 * 1024;
/// Destination-side decode/restore latency of a full snapshot before the
/// app can resume (a pre-copy delta pays its share of it).
constexpr double kRestoreDelay = 1.0;
/// Floor for the Young/Daly interval (tiny states would otherwise
/// checkpoint every poll-point).
constexpr double kCkptMinInterval = 5.0;
/// Memory-speed snapshot bandwidth: the only part of a checkpoint that
/// blocks the application (the write streams in the background).
constexpr double kCkptSnapshotBps = 400.0e6;
/// Cooperative mode: how long to wait for an admission grant before falling
/// back to local admission (the registry may be down — the process must
/// keep covering itself).
constexpr double kCkptGrantTimeout = 15.0;
/// Pre-copy: freeze once the next delta would be at most this fraction of
/// round 0's bytes.
constexpr double kPrecopyConvergence = 0.05;

/// Tags on the merged communicator used by the migration protocol.
constexpr int kTagEagerState = 100;
constexpr int kTagReady = 101;
constexpr int kTagResumeAck = 102;

std::string migrate_key(host::Pid pid) {
  return "hpcm.migrate." + std::to_string(pid);
}

/// Protocol phases that get a migration.phase_ms{phase} duration series.
constexpr const char* kPhaseNames[] = {"init",     "precopy",  "collect",
                                       "eager",    "ack",      "transfer",
                                       "restore"};

/// Millisecond buckets for phase durations: sub-ms collect snapshots up to
/// multi-second background transfers.
std::vector<double> phase_ms_bounds() {
  return {0.01, 0.03, 0.1, 0.3, 1.0,   3.0,   10.0,  30.0,
          100.0, 300.0, 1e3, 3e3, 1e4, 3e4,   1e5};
}

/// Second buckets for per-event failure waste (lost work, checkpoint
/// overhead, restart cost): sub-second snapshots up to hour-scale losses.
std::vector<double> waste_s_bounds() {
  return {0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 3e3};
}

/// Trim and validate the commander-written destination ("host" or
/// "host:port"); returns the bare host name, or nullopt when malformed
/// (empty, whitespace, control characters, or a non-numeric port).
std::optional<std::string> parse_destination(const std::string& raw) {
  std::size_t begin = 0;
  std::size_t end = raw.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(raw[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(raw[end - 1])) != 0) {
    --end;
  }
  std::string value = raw.substr(begin, end - begin);
  if (value.empty()) {
    return std::nullopt;
  }
  if (const auto colon = value.find(':'); colon != std::string::npos) {
    const std::string port = value.substr(colon + 1);
    if (port.empty() ||
        !std::all_of(port.begin(), port.end(), [](unsigned char c) {
          return std::isdigit(c) != 0;
        })) {
      return std::nullopt;
    }
    value.resize(colon);
  }
  if (value.empty()) {
    return std::nullopt;
  }
  for (const char c : value) {
    const auto uc = static_cast<unsigned char>(c);
    if (std::iscntrl(uc) != 0 || std::isspace(uc) != 0 || c == ':') {
      return std::nullopt;
    }
  }
  return value;
}

/// Open a span of the transaction `timeline` records, on its process's
/// track and stamped with its context (0 when no tracer is attached).
std::uint64_t open_span(obs::Tracer* t, const MigrationTimeline& timeline,
                        const char* name, obs::Attrs attrs) {
  if (!obs::active(t)) {
    return 0;
  }
  obs::stamp(attrs, timeline.trace);
  return t->begin_span(name, "hpcm", timeline.process, std::move(attrs));
}

/// End the span `id` (if any) and zero it.
void close_span(obs::Tracer* t, std::uint64_t& id, obs::Attrs attrs = {}) {
  if (id != 0 && obs::active(t)) {
    t->end_span(id, std::move(attrs));
  }
  id = 0;
}

}  // namespace

MigrationEngine::MigrationEngine(mpi::MpiSystem& mpi)
    : MigrationEngine(mpi, Options{}) {}

MigrationEngine::MigrationEngine(mpi::MpiSystem& mpi, Options options)
    : mpi_(&mpi), options_(options) {
  ckpt::IoOptions io_options;
  io_options.per_host_bps = options_.checkpoint_store_bps;
  io_options.aggregate_bps = options_.ckpt_aggregate_bps;
  shared_store_ =
      std::make_unique<ckpt::SharedStore>(mpi_->engine(), io_options);
  if (obs::MetricsRegistry* m = metrics()) {
    // Checkpoint-scheduling + waste series, pre-registered so exports are
    // stable at zero (SharedStore registers the write/bytes series).
    m->counter("ars_ckpt.deferred");
    m->counter("ars_ckpt.preempted");
    m->counter("ars_ckpt.torn_restores");
    m->histogram("ars_ckpt.waste_s", {}, waste_s_bounds());
  }
  if (obs::MetricsRegistry* m = metrics()) {
    // Pre-register the transaction-outcome series so metric exports
    // (benches, CI) always carry them, even on runs without an abort.
    m->counter("migration.rollbacks");
    for (const char* reason :
         {"init-timeout", "precopy-timeout", "eager-timeout", "ack-timeout",
          "dest-failed", "source-crashed", "source-exited", "phase-error"}) {
      m->counter("migration.aborts", {{"reason", reason}});
    }
    // Same for the per-phase duration histograms: a zero-migration run
    // still exports every phase series (with zero observations).
    for (const char* phase : kPhaseNames) {
      m->histogram("migration.phase_ms", {{"phase", phase}},
                   phase_ms_bounds());
    }
  }
}

void MigrationEngine::observe_phase_ms(const char* phase, double seconds) {
  if (obs::MetricsRegistry* m = metrics(); m != nullptr && seconds >= 0.0) {
    m->histogram("migration.phase_ms", {{"phase", phase}}, phase_ms_bounds())
        .observe(seconds * 1e3);
  }
}

MigrationEngine::~MigrationEngine() {
  // In-flight transactions hold fibers suspended on per-transaction wait
  // queues; tear them down in dependency order (phase fiber, then the
  // migrating fiber, then the destination helper) before the queues die.
  for (auto& [index, tx] : pending_) {
    tx->runner.stop();
    if (!tx->committed) {
      mpi_->kill(tx->proc_id);
    }
    if (tx->port.empty() && tx->helper_id != 0) {
      mpi_->kill(tx->helper_id);
    }
    tx->collector.kill();
  }
  pending_.clear();
}

ApplicationSchema* MigrationEngine::schema(const std::string& name) {
  const auto it = schemas_.find(name);
  return it == schemas_.end() ? nullptr : &it->second;
}

std::vector<std::string> MigrationEngine::parked_for_relaunch() const {
  std::vector<std::string> names;
  for (const auto& [name, rec] : ledger_) {
    if (rec.state == ProcRecord::State::kParked) {
      names.push_back(name);
    }
  }
  return names;
}

bool MigrationEngine::exited_normally(const std::string& process_name) const {
  const auto it = ledger_.find(process_name);
  return it != ledger_.end() && it->second.state == ProcRecord::State::kExited;
}

const Checkpoint* MigrationEngine::latest_checkpoint(
    const std::string& process_name) const {
  const auto it = ledger_.find(process_name);
  if (it == ledger_.end() || !it->second.latest) {
    return nullptr;
  }
  return &*it->second.latest;
}

ckpt::Waste MigrationEngine::waste(const std::string& process_name) const {
  const auto it = ledger_.find(process_name);
  return it == ledger_.end() ? ckpt::Waste{} : it->second.waste;
}

ckpt::Waste MigrationEngine::cluster_waste() const {
  ckpt::Waste total;
  for (const auto& [name, rec] : ledger_) {
    total.overhead_s += rec.waste.overhead_s;
    total.lost_work_s += rec.waste.lost_work_s;
    total.restart_s += rec.waste.restart_s;
  }
  return total;
}

MigrationEngine::ProcRecord* MigrationEngine::running(mpi::RankId id) {
  const mpi::Proc* proc = mpi_->find(id);
  if (proc == nullptr) {
    return nullptr;
  }
  const auto it = ledger_.find(proc->name());
  if (it == ledger_.end() || it->second.rank != id) {
    return nullptr;  // rank is 0 unless the record is running
  }
  return &it->second;
}

mpi::RankId MigrationEngine::launch(const std::string& host_name,
                                    MigratableApp app,
                                    const std::string& name,
                                    ApplicationSchema schema) {
  return launch_world({host_name}, std::move(app), name, std::move(schema))
      .front();
}

std::vector<mpi::RankId> MigrationEngine::launch_world(
    const std::vector<std::string>& hosts, MigratableApp app,
    const std::string& name, ApplicationSchema schema) {
  // The names mpi gives the ranks: "<name>.<rank>".
  std::vector<std::string> names;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    names.push_back(name + "." + std::to_string(i));
    if (const auto it = ledger_.find(names.back());
        it != ledger_.end() &&
        it->second.state == ProcRecord::State::kRunning) {
      throw std::invalid_argument("hpcm: " + names.back() +
                                  " is already running");
    }
  }
  schemas_.emplace(schema.name(), schema);
  const std::string schema_name = schema.name();
  // run_app resolves its record lazily: fibers start through a scheduled
  // event, strictly after the ledger below is updated.
  const std::vector<mpi::RankId> ids = mpi_->launch_world(
      hosts, [this](mpi::Proc& proc) { return run_app(proc, 0.0); }, name,
      /*migration_enabled=*/true, schema_name);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ProcRecord& rec = ledger_[names[i]];
    // A new run under a used name starts over.  The old run's in-flight
    // write is aborted through the store, so its overhead and cooperative
    // abort are still booked; its checkpoint, plan and parked incarnation
    // go.  Its waste stays in the totals.
    shared_store_->abort_write(names[i]);
    ProcRecord fresh;
    fresh.waste = rec.waste;
    fresh.app = app;
    fresh.context.engine_ = this;
    fresh.context.schema_name_ = schema_name;
    fresh.context.launched_at = mpi_->engine().now();
    fresh.run_on(*mpi_->find(ids[i]));
    rec = std::move(fresh);
  }
  return ids;
}

sim::Task<> MigrationEngine::run_app(mpi::Proc& proc, double delay) {
  if (delay > 0.0) {
    co_await sim::delay(mpi_->engine(), delay);
  }
  ProcRecord& rec = ledger_.at(proc.name());
  co_await rec.app(proc, rec.context);
  finish_normal_exit(rec);
}

void MigrationEngine::close_signal_span(ProcRecord& rec,
                                        const char* closed_by) {
  if (rec.signal_span == 0) {
    return;
  }
  if (obs::Tracer* t = tracer(); obs::active(t)) {
    t->end_span(rec.signal_span, {{"closed_by", closed_by}});
  }
  rec.signal_span = 0;
}

void MigrationEngine::finish_normal_exit(ProcRecord& rec) {
  // A signal span still open here means the process exited before reaching
  // another poll-point; close it or it leaks as an open span forever.
  close_signal_span(rec, "exit");
  // An uncommitted pre-copy transaction can outlive its source: the app may
  // run to completion between rounds.  Abort it — the result is already
  // computed, there is nothing left to move.
  if (rec.tx != nullptr && !rec.tx->committed) {
    end_transaction(*rec.tx, "source-exited");
  }
  MigrationContext& ctx = rec.context;
  if (ApplicationSchema* s = schema(ctx.schema_name_)) {
    s->record_execution(mpi_->engine().now() - ctx.launched_at);
  }
  const mpi::Proc& proc = *ctx.proc_;
  if (obs::Tracer* t = tracer(); obs::active(t)) {
    t->instant("process.exit", "hpcm", proc.name(),
               {{"host", proc.host().name()},
                {"migrations", ctx.migration_count_}});
  }
  if (obs::MetricsRegistry* m = metrics()) {
    m->counter("process.exits").inc();
  }
  rec.stop(ProcRecord::State::kExited);
}

bool MigrationEngine::request_migration(const std::string& host_name,
                                        host::Pid pid,
                                        const std::string& dest_host,
                                        obs::TraceCtx ctx) {
  mpi::Proc* proc = mpi_->find_by_pid(host_name, pid);
  if (proc == nullptr) {
    return false;
  }
  return request_migration(proc->id(), dest_host, ctx);
}

bool MigrationEngine::request_migration(mpi::RankId id,
                                        const std::string& dest_host,
                                        obs::TraceCtx ctx) {
  ProcRecord* rec = running(id);
  if (rec == nullptr) {
    return false;
  }
  // The commander's mechanism (§3.3): destination to a temp file, then the
  // user-defined signal.
  mpi::Proc* proc = rec->context.proc_;
  proc->host().tmpfiles().write(migrate_key(proc->pid()), dest_host);
  rec->context.requested_at = mpi_->engine().now();
  rec->context.pending_trace_ = ctx;
  const bool ok =
      proc->host().processes().raise(proc->pid(), host::kSigMigrate);
  if (obs::MetricsRegistry* m = metrics()) {
    m->counter("migration.requests").inc();
  }
  if (obs::Tracer* t = tracer(); obs::active(t) && ok) {
    // The signal span covers delivery -> the process reaching a poll-point.
    close_signal_span(*rec, "superseded");
    obs::Attrs attrs{{"source", proc->host().name()},
                     {"dest", dest_host},
                     {"pid", static_cast<int>(proc->pid())}};
    obs::stamp(attrs, ctx);
    rec->signal_span = t->begin_span("migration.signal", "hpcm",
                                     proc->name(), std::move(attrs));
  }
  return ok;
}

sim::Task<> MigrationContext::poll_point() {
  return engine_->poll_point(*this);
}

sim::Task<> MigrationEngine::poll_point(MigrationContext& ctx) {
  mpi::Proc& p = *ctx.proc_;
  const bool signaled =
      p.host().processes().consume_signal(p.pid(), host::kSigMigrate);
  ProcRecord& rec = ledger_.at(p.name());
  if (rec.tx != nullptr) {
    // An open transaction: a pre-copy in flight, or a committed one still
    // restoring in the background.
    const bool restoring = rec.tx->committed;
    if (signaled) {
      // A second request while a transaction is open: the process can only
      // migrate once at a time.  Drop the request; the commander learns the
      // outcome of the current transaction anyway.
      close_signal_span(rec, restoring ? "superseded-by-restore"
                                       : "superseded-by-precopy");
      p.host().tmpfiles().erase(migrate_key(p.pid()));
      ARS_LOG_WARN("hpcm", "ignoring migration request for "
                               << p.name() << ": transaction already open");
      ctx.pending_trace_ = {};
    }
    if (!restoring) {
      co_await continue_precopy(rec);
    }
    co_return;
  }
  if (!signaled) {
    co_return;
  }
  // Close the signal-delivery span: the process reached its poll-point.
  close_signal_span(rec, "poll-point");
  obs::Tracer* t = tracer();
  const std::string key = migrate_key(p.pid());
  if (!p.host().tmpfiles().contains(key)) {
    ARS_LOG_WARN("hpcm", "migration signal without destination file for "
                             << p.name());
    co_return;
  }
  std::uint64_t poll_span = 0;
  if (obs::active(t)) {
    obs::Attrs attrs;
    obs::stamp(attrs, ctx.pending_trace_);
    poll_span = t->begin_span("migration.poll_point", "hpcm", p.name(),
                              std::move(attrs));
  }
  const std::string raw = p.host().tmpfiles().read(key);
  p.host().tmpfiles().erase(key);
  // Validate the commander-written destination up front: a malformed temp
  // file or an unknown host must not start (or crash) the protocol — the
  // process keeps computing on the source.
  const std::optional<std::string> dest = parse_destination(raw);
  const bool known =
      dest.has_value() && mpi_->network().find_host(*dest) != nullptr;
  if (!known) {
    if (obs::active(t)) {
      t->end_span(poll_span, {{"bad_destination", true}});
      t->instant("migration.bad_destination", "hpcm", p.name(),
                 {{"host", p.host().name()}});
    }
    ARS_LOG_WARN("hpcm", "ignoring malformed or unknown migration "
                             << "destination for " << p.name());
    if (obs::MetricsRegistry* m = metrics()) {
      m->counter("migration.bad_destination").inc();
    }
    ctx.pending_trace_ = {};  // the transaction never starts
    co_return;
  }
  if (obs::active(t)) {
    t->end_span(poll_span, {{"dest", *dest}});
  }
  try {
    co_await migrate(rec, *dest);
  } catch (const mpi::ProcMoved&) {
    throw;  // normal migration unwind
  } catch (const std::exception& e) {
    // A failed migration must not kill the application; log and keep
    // computing on the source.
    ARS_LOG_ERROR("hpcm", "migration of " << p.name() << " to " << *dest
                                          << " failed: " << e.what());
    if (obs::active(t)) {
      t->instant("migration.failed", "hpcm", p.name(),
                 {{"dest", *dest}, {"error", std::string(e.what())}});
    }
    if (obs::MetricsRegistry* m = metrics()) {
      m->counter("migration.failures").inc();
    }
  }
}

sim::Task<> MigrationContext::checkpoint() {
  co_await engine_->write_checkpoint(*this);
}

sim::Task<> MigrationContext::maybe_checkpoint() {
  if (engine_ == nullptr || proc_ == nullptr) {
    co_return;
  }
  co_await engine_->ckpt_poll(*this);
}

sim::Task<> MigrationEngine::write_checkpoint(MigrationContext& ctx) {
  mpi::Proc& proc = *ctx.proc_;
  const std::string name = proc.name();
  if (shared_store_->writing(name)) {
    co_return;  // one write per process; the in-flight one covers us
  }
  if (ctx.save_) {
    ctx.save_();
  }
  ProcRecord& rec = ledger_.at(name);
  auto& sim_engine = mpi_->engine();
  // Shadow-commit: the write is invisible to relaunches until it lands; a
  // crash mid-write keeps the previous complete checkpoint restorable.
  Checkpoint& cp = rec.shadow.emplace();
  cp.state = ctx.state_.encode(proc.host().spec().byte_order);
  cp.bytes = cp.state.size() + ctx.state_.opaque_bytes();
  cp.taken_at = sim_engine.now();
  rec.plan.last_mark = sim_engine.now();
  const std::uint64_t bytes = cp.bytes;
  // The only part that blocks the application: the memory-speed snapshot.
  const double snapshot_time = static_cast<double>(bytes) / kCkptSnapshotBps;
  shared_store_->begin_write(
      name, proc.host().name(), bytes,
      [this, name](const ckpt::WriteOutcome& o) { on_ckpt_commit(name, o); },
      [this, name](const ckpt::WriteOutcome& o) { on_ckpt_abort(name, o); });
  co_await sim::delay(sim_engine, snapshot_time);
}

double MigrationEngine::ckpt_write_cost(const ProcRecord& rec) const {
  const std::uint64_t bytes =
      rec.latest ? rec.latest->bytes : rec.context.state_.opaque_bytes();
  return static_cast<double>(bytes) / options_.checkpoint_store_bps;
}

sim::Task<> MigrationEngine::ckpt_poll(MigrationContext& ctx) {
  if (options_.ckpt_strategy == "none" || options_.ckpt_strategy.empty()) {
    co_return;
  }
  mpi::Proc& proc = *ctx.proc_;
  const std::string name = proc.name();
  if (shared_store_->writing(name)) {
    co_return;
  }
  const double now = mpi_->engine().now();
  ProcRecord& rec = ledger_.at(name);
  CkptPlan& plan = rec.plan;
  if (plan.last_mark < 0.0) {
    // First poll of this incarnation: baseline progress here.  (A relaunch
    // resets the mark, so rework does not count as covered progress.)
    plan.last_mark = now;
    co_return;
  }
  if (options_.ckpt_mtbf <= 0.0) {
    co_return;  // no failure model: checkpoints never become due
  }
  // Young/Daly wants the write cost; before the first write lands the
  // estimate can be zero (nothing encoded yet), where W -> 0 — clamp to
  // the floor instead of "never" (cheap checkpoints happen MORE often).
  const double cost = ckpt_write_cost(rec);
  const double interval =
      cost > 0.0 ? std::max(kCkptMinInterval,
                            ckpt::young_daly_interval(options_.ckpt_mtbf,
                                                      cost))
                 : kCkptMinInterval;
  const double elapsed = now - plan.last_mark;
  if (elapsed < interval && !plan.granted) {
    co_return;
  }
  if (options_.ckpt_strategy == "periodic" || !ckpt_request_sender_) {
    co_await write_checkpoint(ctx);
    co_return;
  }
  // Cooperative: the central I/O scheduler decides who writes when.
  if (plan.granted) {
    plan.granted = false;
    co_await write_checkpoint(ctx);
    co_return;
  }
  if (plan.awaiting_grant) {
    if (now - plan.requested_at >= kCkptGrantTimeout) {
      // No grant (registry down, message lost): fall back to local
      // admission — the process must keep covering itself while the
      // control plane is unreachable.
      plan.awaiting_grant = false;
      co_await write_checkpoint(ctx);
    }
    co_return;
  }
  if (now < plan.retry_at) {
    co_return;
  }
  plan.awaiting_grant = true;
  plan.requested_at = now;
  send_ckpt_io(name, proc.host().name(), "request",
               static_cast<std::uint64_t>(
                   ckpt_write_cost(rec) * options_.checkpoint_store_bps),
               elapsed / interval);
}

void MigrationEngine::send_ckpt_io(const std::string& process,
                                   const std::string& host, const char* verb,
                                   std::uint64_t bytes, double risk) {
  if (!ckpt_request_sender_) {
    return;
  }
  CkptIoRequest request;
  request.host = host;
  request.process = process;
  request.verb = verb;
  request.bytes = bytes;
  request.risk = risk;
  ckpt_request_sender_(request);
}

void MigrationEngine::deliver_ckpt_grant(const std::string& process,
                                         const std::string& verb,
                                         double retry_after) {
  const auto it = ledger_.find(process);
  if (it == ledger_.end()) {
    return;  // stale grant for a process this engine never ran
  }
  CkptPlan& plan = it->second.plan;
  const double now = mpi_->engine().now();
  if (verb == "admit") {
    if (plan.awaiting_grant) {
      plan.awaiting_grant = false;
      plan.granted = true;
    }
    return;
  }
  if (verb == "defer") {
    plan.awaiting_grant = false;
    plan.granted = false;
    plan.retry_at = now + std::max(retry_after, 1.0);
    ++ckpt_deferred_;
    if (obs::MetricsRegistry* m = metrics()) {
      m->counter("ars_ckpt.deferred").inc();
    }
    if (obs::Tracer* t = tracer(); obs::active(t)) {
      t->instant("ckpt.deferred", "ckpt", process,
                 {{"retry_after", retry_after}});
    }
    return;
  }
  if (verb == "preempt") {
    plan.awaiting_grant = false;
    plan.granted = false;
    plan.retry_at = now + std::max(retry_after, 1.0);
    ++ckpt_preempted_;
    if (obs::MetricsRegistry* m = metrics()) {
      m->counter("ars_ckpt.preempted").inc();
    }
    if (obs::Tracer* t = tracer(); obs::active(t)) {
      t->instant("ckpt.preempted", "ckpt", process, {});
    }
    shared_store_->abort_write(process);  // fires on_ckpt_abort
    return;
  }
  ARS_LOG_WARN("hpcm", "unknown ckpt grant verb \"" << verb << "\" for "
                                                    << process);
}

void MigrationEngine::charge(double& component, double seconds) {
  if (seconds <= 0.0) {
    return;
  }
  component += seconds;
  if (obs::MetricsRegistry* m = metrics()) {
    m->histogram("ars_ckpt.waste_s", {}, waste_s_bounds()).observe(seconds);
  }
}

void MigrationEngine::on_ckpt_commit(const std::string& process,
                                     const ckpt::WriteOutcome& outcome) {
  ProcRecord& rec = ledger_.at(process);
  // The rename: the shadow becomes the restorable checkpoint.
  rec.latest = std::exchange(rec.shadow, std::nullopt);
  // Overhead waste: the write's wall time plus the blocking snapshot.
  const double overhead = outcome.duration() +
                          static_cast<double>(outcome.bytes) / kCkptSnapshotBps;
  charge(rec.waste.overhead_s, overhead);
  if (obs::Tracer* t = tracer(); obs::active(t)) {
    t->instant("ckpt.commit", "ckpt", process,
               {{"bytes", static_cast<std::size_t>(outcome.bytes)},
                {"write_s", outcome.duration()}});
  }
  send_ckpt_io(process, outcome.host, "done", outcome.bytes, 0.0);
}

void MigrationEngine::on_ckpt_abort(const std::string& process,
                                    const ckpt::WriteOutcome& outcome) {
  ProcRecord& rec = ledger_.at(process);
  std::optional<Checkpoint> partial = std::exchange(rec.shadow, std::nullopt);
  if (options_.sabotage_torn_commit && partial) {
    // The broken-store model: the partial write replaced the previous
    // checkpoint in place (no shadow/rename).  Restoring it is the bug.
    partial->complete = false;
    rec.latest = std::move(partial);
  }
  // The aborted write still burned store bandwidth: count it as overhead.
  charge(rec.waste.overhead_s, outcome.duration());
  send_ckpt_io(process, outcome.host, "abort", outcome.bytes, 0.0);
}

bool MigrationEngine::crash(mpi::RankId id) {
  ProcRecord* rec = running(id);
  if (rec == nullptr) {
    return false;
  }
  const mpi::Proc& proc = *rec->context.proc_;
  const std::string name = proc.name();
  ARS_LOG_WARN("hpcm", "crash injected: " << name << " on "
                                          << proc.host().name());
  if (obs::Tracer* t = tracer(); obs::active(t)) {
    t->instant("process.crash", "hpcm", name,
               {{"host", proc.host().name()}});
  }
  if (obs::MetricsRegistry* m = metrics()) {
    m->counter("process.crashes").inc();
  }
  // A signal delivered but never polled would leak its span.
  close_signal_span(*rec, "crash");
  // Failure waste: everything since the last committed checkpoint snapshot
  // (or launch) is lost work.  Measured BEFORE the in-flight write abort
  // below — an uncommitted write never covers progress.
  const double covered_until =
      rec->latest ? rec->latest->taken_at : rec->context.launched_at;
  charge(rec->waste.lost_work_s, mpi_->engine().now() - covered_until);
  // Atomic shadow-commit: a crash racing an in-flight checkpoint write
  // drops the shadow; the previous complete checkpoint stays the latest.
  shared_store_->abort_write(name);
  // An open transaction's phase fiber references the Proc; stop it before
  // the kill below frees the process.  The parked record keeps no link.
  PendingTx* tx = rec->tx;
  if (tx != nullptr) {
    tx->runner.stop();
  }
  rec->stop(ProcRecord::State::kParked);
  const bool killed = mpi_->kill(id);
  if (tx != nullptr) {
    // Committed: the freshly relocated instance died during background
    // restoration.
    end_transaction(*tx, tx->committed ? "restore-interrupted"
                                       : "source-crashed");
  }
  return killed;
}

int MigrationEngine::crash_host(const std::string& host_name) {
  // Destination-side failure handling for in-flight transactions: fail
  // pre-commit transactions so their migrating fiber aborts and rolls back
  // to source execution; roll post-commit ones back to checkpoint-restart.
  std::vector<PendingTx*> rolling;
  for (auto& [index, tx] : pending_) {
    if (history_[index].destination != host_name) {
      continue;
    }
    if (tx->committed) {
      rolling.push_back(tx.get());
    } else {
      tx->runner.fail("dest-failed");
    }
  }
  for (PendingTx* tx : rolling) {
    end_transaction(*tx, "restore-interrupted");
  }
  // A pre-initialized receiver daemon dies with its host.
  drop_daemon(host_name);
  // Stray checkpoint writes sourced from this host (their process migrated
  // away mid-write) lose their data path too.
  shared_store_->abort_host_writes(host_name);

  // The victims crash in rank order: the order of their process.crash
  // instants, the store aborts and the datagrams those send.
  std::vector<mpi::RankId> victims;
  for (const auto& [name, rec] : ledger_) {
    // No process has rank 0, the rank of a record that is not running.
    const mpi::Proc* proc = mpi_->find(rec.rank);
    if (proc != nullptr && proc->host().name() == host_name) {
      victims.push_back(rec.rank);
    }
  }
  std::sort(victims.begin(), victims.end());
  int crashed = 0;
  for (const mpi::RankId id : victims) {
    crashed += crash(id) ? 1 : 0;
  }
  return crashed;
}

mpi::RankId MigrationEngine::relaunch(const std::string& process_name,
                                      const std::string& host_name,
                                      obs::TraceCtx trace) {
  const auto it = ledger_.find(process_name);
  if (it == ledger_.end() || it->second.state != ProcRecord::State::kParked) {
    return 0;
  }
  ProcRecord& rec = it->second;
  MigrationContext& ctx = rec.context;

  double read_time = 0.0;
  if (const std::optional<Checkpoint>& cp = rec.latest) {
    if (!cp->complete) {
      // A torn checkpoint reached the store (only possible through the
      // sabotage path) and is about to be restored — the exact bug the
      // chaos no-torn-checkpoint invariant exists to catch.
      ++torn_restores_;
      ARS_LOG_ERROR("hpcm", "restoring TORN checkpoint of " << process_name);
      if (obs::Tracer* t = tracer(); obs::active(t)) {
        t->instant("ckpt.torn_restore", "ckpt", process_name,
                   {{"host", host_name}});
      }
      if (obs::MetricsRegistry* m = metrics()) {
        m->counter("ars_ckpt.torn_restores").inc();
      }
    }
    auto decoded = StateRegistry::decode(cp->state);
    if (decoded.has_value()) {
      ctx.state_ = std::move(*decoded);
      ctx.restored_ = true;
      ctx.restarted_from_checkpoint_ = true;
      read_time =
          static_cast<double>(cp->bytes) / options_.checkpoint_store_bps;
      charge(rec.waste.restart_s, read_time);
      ARS_LOG_INFO("hpcm", "relaunching " << process_name << " on "
                                          << host_name
                                          << " from checkpoint at t="
                                          << cp->taken_at);
    }
  } else {
    // No checkpoint: restart from scratch — "the loss of all partial
    // results" the paper's introduction warns about.
    ctx.state_.clear();
    ctx.restored_ = false;
    ctx.restarted_from_checkpoint_ = false;
    ARS_LOG_WARN("hpcm", "relaunching " << process_name << " on "
                                        << host_name << " from scratch");
  }

  const mpi::RankId id = mpi_->launch_exact(
      host_name,
      [this, read_time](mpi::Proc& proc) { return run_app(proc, read_time); },
      process_name, /*migration_enabled=*/true, ctx.schema_name_);
  rec.run_on(*mpi_->find(id));
  const bool from_checkpoint = ctx.restarted_from_checkpoint_;
  if (obs::Tracer* t = tracer(); obs::active(t)) {
    obs::Attrs attrs{{"host", host_name},
                     {"from_checkpoint", from_checkpoint}};
    obs::stamp(attrs, trace);
    t->instant("process.relaunch", "hpcm", process_name, std::move(attrs));
  }
  if (obs::MetricsRegistry* m = metrics()) {
    m->counter("process.relaunches",
               {{"from_checkpoint", from_checkpoint ? "yes" : "no"}})
        .inc();
  }
  return id;
}

/// Shared destination-side protocol, used by both spawned initialized
/// processes and pre-initialized daemons.  Every eager frame's `values`
/// carry [migrating rank id, timeline index, round, final-flag]: round 0 is
/// a full snapshot (stop-and-copy ships only that one, final), later rounds
/// are pre-copy dirty deltas applied onto the staged registry, and the
/// final-flagged frame closes the stream.
sim::Task<> MigrationEngine::receiver_main(mpi::Proc& helper,
                                           mpi::Comm merged) {
  StateRegistry staged;
  bool have_staged = false;
  mpi::RankId id = 0;
  std::size_t timeline_index = 0;
  double round0_wire = 1.0;
  for (;;) {
    const mpi::MpiMessage eager =
        co_await helper.recv(merged, mpi::kAnySource, kTagEagerState);
    if (eager.values.size() != 4 || !eager.data) {
      throw std::runtime_error("hpcm: malformed eager state message");
    }
    id = static_cast<mpi::RankId>(eager.values[0]);
    timeline_index = static_cast<std::size_t>(eager.values[1]);
    const int round = static_cast<int>(eager.values[2]);
    const bool final_frame = eager.values[3] != 0.0;
    if (round == 0) {
      auto decoded = StateRegistry::decode(*eager.data);
      if (!decoded.has_value()) {
        throw std::runtime_error("hpcm: state decode failed: " +
                                 decoded.error().to_string());
      }
      staged = std::move(*decoded);
      have_staged = true;
      round0_wire = std::max(1.0, eager.size_bytes);
      // The full restoration cost lands here: before the application can
      // resume (stop-and-copy), or OVERLAPPED with source-side execution —
      // the whole point of pre-copy.
      co_await sim::delay(helper.system().engine(), kRestoreDelay);
    } else {
      if (!have_staged) {
        throw std::runtime_error("hpcm: pre-copy delta before snapshot");
      }
      const auto status = staged.apply_delta(*eager.data);
      if (!status.is_ok()) {
        throw std::runtime_error("hpcm: delta apply failed: " +
                                 status.error().to_string());
      }
      // Delta restore cost scales with its share of the full state; the
      // final (frozen) delta is small, so the freeze stays small.
      co_await sim::delay(
          helper.system().engine(),
          kRestoreDelay * std::min(1.0, eager.size_bytes / round0_wire));
    }
    if (final_frame) {
      break;
    }
  }
  const auto tx_it = pending_.find(timeline_index);
  if (tx_it == pending_.end()) {
    co_return;  // transaction aborted while we were restoring
  }
  tx_it->second->restored_state = std::move(staged);
  tx_it->second->state_ready = true;
  // The resume handshake: the source relocates the process (the commit
  // point) only once this acknowledgement lands.
  co_await helper.send(merged, merged.rank_of(id), kTagResumeAck, 16.0);
  // Background restoration completes in parallel with the resumed app.
  (void)co_await helper.recv(merged, mpi::kAnySource, kTagReady);
  if (const auto done = pending_.find(timeline_index); done != pending_.end()) {
    end_transaction(*done->second, {});
  }
}

sim::Task<> MigrationEngine::phase_init(PendingTx& tx, mpi::Proc& proc) {
  if (!tx.port.empty()) {
    // Pre-initialized daemon: connect/accept instead of the slow spawn.
    const mpi::Comm conn = co_await proc.connect(tx.port);
    tx.helper_id = conn.remote_member(0);
    tx.merged = co_await proc.merge(conn, false);
  } else {
    MigrationEngine* self = this;
    auto receiver = [self](mpi::Proc& helper) -> sim::Task<> {
      const mpi::Comm m = co_await helper.merge(helper.parent_comm(), true);
      co_await self->receiver_main(helper, m);
    };
    // A copy: another migration may grow history_ while the spawn waits.
    const std::string dest = history_[tx.timeline_index].destination;
    const mpi::SpawnResult spawned =
        co_await proc.spawn(dest, receiver, proc.name() + ".init");
    tx.helper_id = spawned.children.front();
    tx.merged = co_await proc.merge(spawned.intercomm, false);
  }
}

sim::Task<> MigrationEngine::phase_eager(PendingTx& tx, mpi::Proc& proc) {
  mpi::MpiMessage eager_payload;
  eager_payload.data =
      std::make_shared<const mpi::Bytes>(std::move(tx.encoded));
  // The final frame: stop-and-copy's round 0, or the delta after a
  // pre-copy's last round.
  eager_payload.values = {static_cast<double>(proc.id()),
                          static_cast<double>(tx.timeline_index),
                          static_cast<double>(tx.rounds_sent), 1.0};
  co_await proc.send(tx.merged, tx.merged.rank_of(tx.helper_id),
                     kTagEagerState, tx.eager_wire, std::move(eager_payload));
}

sim::Task<> MigrationEngine::phase_ack(PendingTx& tx, mpi::Proc& proc) {
  (void)co_await proc.recv(tx.merged, mpi::kAnySource, kTagResumeAck);
}

void MigrationEngine::fail_phase(PendingTx& tx, mpi::Proc& proc,
                                 txn::Status status) {
  const std::string phase = tx.runner.phase();
  std::string reason;
  switch (status) {
    case txn::Status::kTimedOut:
      reason = phase + "-timeout";
      break;
    case txn::Status::kFailed:
      reason = "dest-failed";
      break;
    default:
      ARS_LOG_ERROR("hpcm", "migration phase " << phase << " of "
                                               << proc.name() << " failed: "
                                               << tx.runner.error());
      reason = "phase-error";
      break;
  }
  end_transaction(tx, std::move(reason));  // destroys tx
  if (options_.sabotage_skip_rollback) {
    // Sabotaged build (chaos checker validation): unwind the source fiber
    // as if the transaction had committed even though it did not — the
    // logical process is lost, which no-lost-process must catch.
    mpi_->terminate(proc.id());
    throw mpi::ProcMoved{};
  }
}

void MigrationEngine::end_transaction(PendingTx& tx, std::string reason) {
  MigrationTimeline& t = history_[tx.timeline_index];
  obs::Tracer* tr = tracer();
  obs::MetricsRegistry* m = metrics();
  tx.runner.stop();
  if (const auto it = ledger_.find(t.process);
      it != ledger_.end() && it->second.tx == &tx) {
    it->second.tx = nullptr;
  }
  if (tx.committed && reason.empty()) {
    // The background restore landed: committed.
    t.completed_at = mpi_->engine().now();
    close_span(tr, tx.transfer_span);
    close_span(tr, tx.restore_span);
    close_span(tr, tx.migration_span,
               {{"outcome", "committed"},
                {"succeeded", t.succeeded},
                {"state_bytes", t.state_bytes}});
    observe_phase_ms("transfer", t.completed_at - t.resumed_at);
    observe_phase_ms("restore", t.completed_at - t.eager_done_at);
    if (m != nullptr) {
      m->counter("migration.completed").inc();
      m->histogram("migration.total_time").observe(t.total());
      m->histogram("migration.resume_latency").observe(t.resume_latency());
      m->histogram("migration.data_bytes",
                   {}, {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9})
          .observe(t.state_bytes);
    }
  } else {
    // Aborted before the commit point, or rolled back after it: nothing
    // reaches the destination any more.  A pre-initialized daemon is wedged
    // mid-protocol (or lost with its host): drop it so later migrations to
    // the host fall back to MPI_Comm_spawn.
    tx.collector.kill();
    if (!tx.port.empty()) {
      drop_daemon(t.destination);
    } else if (tx.helper_id != 0) {
      mpi_->kill(tx.helper_id);
    }
    t.outcome = tx.committed ? "rolled-back" : "aborted";
    t.abort_reason = reason;
    t.abort_phase = tx.runner.phase();
    ARS_LOG_WARN("hpcm", "migration of " << t.process << " to "
                                         << t.destination << " " << t.outcome
                                         << " in phase " << t.abort_phase
                                         << " (" << reason << ")");
    // A source killed mid-phase leaves that phase's span open.
    close_span(tr, tx.phase_span, {{"completed", false}});
    if (obs::active(tr)) {
      obs::Attrs attrs{{"dest", t.destination}};
      if (!tx.committed) {
        attrs.emplace_back("phase", t.abort_phase);
      }
      attrs.emplace_back("reason", reason);
      obs::stamp(attrs, t.trace);
      tr->instant(tx.committed ? "migration.rolled_back" : "migration.aborted",
                  "hpcm", t.process, std::move(attrs));
    }
    for (std::uint64_t* span :
         {&tx.transfer_span, &tx.restore_span, &tx.precopy_span}) {
      close_span(tr, *span, {{"outcome", t.outcome}});
    }
    close_span(tr, tx.migration_span,
               {{"outcome", t.outcome}, {"reason", reason}});
    if (m != nullptr) {
      if (!tx.committed) {
        m->counter("migration.aborts", {{"reason", reason}}).inc();
      }
      if (tx.committed || !options_.sabotage_skip_rollback) {
        m->counter("migration.rollbacks").inc();
      }
    }
  }
  if (outcome_listener_) {
    outcome_listener_(t);
  }
  pending_.erase(tx.timeline_index);
}

void MigrationEngine::drop_daemon(const std::string& host_name) {
  if (const auto it = daemons_.find(host_name); it != daemons_.end()) {
    mpi_->kill(it->second.rank);
    daemons_.erase(it);
  }
}

sim::Task<> MigrationEngine::migrate(ProcRecord& rec, std::string dest_host) {
  MigrationContext& ctx = rec.context;
  mpi::Proc& proc = *ctx.proc_;
  auto& engine = mpi_->engine();
  net::Network& network = mpi_->network();
  const std::string source_host = proc.host().name();
  if (dest_host == source_host) {
    ARS_LOG_WARN("hpcm", "ignoring self-migration of " << proc.name());
    co_return;
  }
  if (network.find_host(dest_host) == nullptr) {
    throw std::out_of_range("hpcm: unknown destination host " + dest_host);
  }

  const std::size_t timeline_index = history_.size();
  // Valid until the first co_await only: other migrations grow history_.
  MigrationTimeline& timeline = history_.emplace_back();
  timeline.process = proc.name();
  timeline.source = source_host;
  timeline.destination = dest_host;
  timeline.requested_at = ctx.requested_at;
  timeline.poll_point_at = engine.now();
  // The request's causal context (from the MigrateCmd, via the commander);
  // consumed here so a later unrelated request starts fresh.
  timeline.trace = std::exchange(ctx.pending_trace_, {});
  ARS_LOG_INFO("hpcm", "migrating " << proc.name() << ": " << source_host
                                    << " -> " << dest_host);
  auto owner = std::make_unique<PendingTx>(
      engine,
      txn::PhaseEvent{"migration", proc.name(), "", source_host, {dest_host}},
      &phase_listener_);
  PendingTx& tx = *owner;
  tx.timeline_index = timeline_index;
  tx.proc_id = proc.id();
  tx.migration_span = open_span(tracer(), timeline, "migration",
                                {{"source", source_host}, {"dest", dest_host}});
  // Everything inside the transaction hangs off the migration span.
  timeline.trace = timeline.trace.child_of(tx.migration_span);
  if (const auto daemon = daemons_.find(dest_host); daemon != daemons_.end()) {
    tx.port = daemon->second.port;
  }
  pending_.emplace(timeline_index, std::move(owner));
  rec.tx = &tx;

  if (options_.precopy) {
    // Iterative pre-copy: the process keeps computing while round 0 (DPM
    // init + full state) ships from a background fiber.  Later poll-points
    // drive the loop (continue_precopy) until the dirty delta converges,
    // then freeze_and_commit runs the stop-the-world tail.
    tx.precopy_span = open_span(tracer(), timeline, "migration.precopy",
                                {{"dest", dest_host}});
    start_precopy_round(ctx, tx);
    co_return;  // the app keeps computing on the source
  }
  // Stop-and-copy freezes from the poll-point on.
  timeline.freeze_begin_at = timeline.poll_point_at;

  // ---- phase 1: initialized process (MPI-2 DPM) ---------------------------
  tx.phase_span = open_span(
      tracer(), timeline, "migration.spawn",
      {{"dest", dest_host},
       {"mechanism", tx.port.empty() ? "MPI_Comm_spawn"
                                     : "connect (pre-initialized daemon)"}});
  tx.runner.enter("init");
  const txn::Status init =
      co_await tx.runner.run(phase_init(tx, proc), options_.init_timeout);
  close_span(tracer(), tx.phase_span,
             {{"completed", init == txn::Status::kFinished}});
  if (init != txn::Status::kFinished) {
    fail_phase(tx, proc, init);
    co_return;
  }
  history_[timeline_index].init_done_at = engine.now();
  observe_phase_ms("init",
                   history_[timeline_index].init_done_at -
                       history_[timeline_index].poll_point_at);

  // ---- phase 2: data collection: snapshot live variables -------------------
  tx.phase_span = open_span(tracer(), history_[timeline_index],
                            "migration.collect", {});
  const double collect_begin = engine.now();
  if (ctx.save_) {
    ctx.save_();
  }
  tx.encoded = ctx.state_.encode(proc.host().spec().byte_order);
  const double opaque = static_cast<double>(ctx.state_.opaque_bytes());
  const double eager_opaque = std::min(opaque, options_.eager_bytes);
  tx.eager_wire = static_cast<double>(tx.encoded.size()) + eager_opaque;
  const double state_bytes = static_cast<double>(tx.encoded.size()) + opaque;
  history_[timeline_index].state_bytes = state_bytes;
  // Collection is the snapshot alone; the wire phases get their own spans
  // so the critical-path analyzer can attribute the freeze window.
  close_span(tracer(), tx.phase_span,
             {{"state_bytes", state_bytes}, {"eager_bytes", tx.eager_wire}});
  observe_phase_ms("collect", engine.now() - collect_begin);

  co_await freeze_tail(rec, tx, opaque - eager_opaque);
}

/// The frozen epilogue shared by stop-and-copy and a converged pre-copy:
/// the eager send (full snapshot / final dirty delta), the resume
/// handshake at the commit point, and the commit itself.
sim::Task<> MigrationEngine::freeze_tail(ProcRecord& rec, PendingTx& tx,
                                         double remaining) {
  mpi::Proc& proc = *rec.context.proc_;
  auto& engine = mpi_->engine();
  const std::size_t timeline_index = tx.timeline_index;

  // ---- execution state + eager data over the merged communicator ----------
  tx.phase_span = open_span(tracer(), history_[timeline_index],
                            "migration.eager",
                            {{"eager_bytes", tx.eager_wire}});
  const double eager_begin = engine.now();
  tx.runner.enter("eager");
  const txn::Status eager =
      co_await tx.runner.run(phase_eager(tx, proc), options_.eager_timeout);
  close_span(tracer(), tx.phase_span,
             {{"completed", eager == txn::Status::kFinished}});
  if (eager != txn::Status::kFinished) {
    fail_phase(tx, proc, eager);
    co_return;
  }
  history_[timeline_index].eager_done_at = engine.now();
  observe_phase_ms("eager", engine.now() - eager_begin);
  // The restoration overlap: the destination decodes and resumes while the
  // source keeps shipping the bulk of the memory state.
  tx.restore_span =
      open_span(tracer(), history_[timeline_index], "migration.restore",
                {{"remaining_bytes", remaining}});

  // ---- resume handshake — the transaction's commit point -------------------
  tx.phase_span =
      open_span(tracer(), history_[timeline_index], "migration.ack", {});
  const double ack_begin = engine.now();
  tx.runner.enter("ack");
  const txn::Status ack =
      co_await tx.runner.run(phase_ack(tx, proc), options_.ack_timeout);
  close_span(tracer(), tx.phase_span,
             {{"completed", ack == txn::Status::kFinished}});
  if (ack != txn::Status::kFinished) {
    fail_phase(tx, proc, ack);
    co_return;
  }
  observe_phase_ms("ack", engine.now() - ack_begin);
  mpi::Proc* helper = mpi_->find(tx.helper_id);
  if (helper == nullptr || !tx.state_ready) {
    // The ACK raced a destination failure; treat it as a failed handshake.
    fail_phase(tx, proc, txn::Status::kFailed);
    co_return;
  }

  // ---- commit: the destination owns the process from here on ---------------
  tx.runner.enter("restore");
  const MigrationTimeline& timeline = history_[timeline_index];
  tx.transfer_span = open_span(tracer(), timeline, "migration.transfer",
                               {{"remaining_bytes", remaining}});
  tx.collector = sim::Fiber::spawn(
      engine,
      run_collector(timeline.source, timeline.destination, remaining,
                    tx.helper_id, tx.merged),
      proc.name() + ".collector");
  tx.committed = true;
  takeover(rec, helper->host(), std::move(tx.restored_state), timeline_index);

  // ---- the source-side fiber is done ---------------------------------------
  throw mpi::ProcMoved{};
}

// ---- iterative pre-copy (source side) --------------------------------------

void MigrationEngine::start_precopy_round(MigrationContext& ctx,
                                          PendingTx& tx) {
  mpi::Proc& proc = *ctx.proc_;
  const int round = tx.rounds_sent;
  tx.runner.enter("precopy");
  // Snapshot the payload NOW, in the app fiber: the frame is consistent
  // with this poll-point even though the send overlaps further computation.
  const auto origin = proc.host().spec().byte_order;
  double charge = 0.0;
  if (round == 0) {
    if (ctx.save_) {
      ctx.save_();
    }
    ctx.state_.encode_into(tx.encoded, origin);
    charge = static_cast<double>(tx.encoded.size()) +
             static_cast<double>(ctx.state_.opaque_bytes());
    tx.round0_bytes = std::max(1.0, charge);
    tx.shipped_gen = ctx.state_.snapshot_generation();
  } else {
    // save_ already ran in continue_precopy's convergence check.
    StateRegistry::Delta delta =
        ctx.state_.collect_delta(tx.shipped_gen, origin);
    charge = static_cast<double>(delta.wire.size()) +
             static_cast<double>(delta.dirty_opaque_bytes);
    tx.encoded = std::move(delta.wire);
    tx.shipped_gen = delta.to_generation;
  }
  MigrationTimeline& tl = history_[tx.timeline_index];
  tl.precopy_bytes += charge;
  tl.precopy_rounds = round + 1;
  if (obs::Tracer* t = tracer(); obs::active(t)) {
    obs::Attrs attrs{{"round", round}, {"bytes", charge}};
    obs::stamp(attrs, tl.trace);
    t->instant("migration.precopy_round", "hpcm", tl.process,
               std::move(attrs));
  }
  // Round 0 pays DPM init + the full-state transfer; later rounds only the
  // delta.  A round that blows this budget (or fails) is seen by the next
  // poll-point, which aborts the transaction from the app fiber.
  const double timeout = round == 0
                             ? options_.init_timeout + options_.eager_timeout
                             : options_.eager_timeout;
  tx.runner.start(precopy_round(&tx, round, charge), timeout);
}

sim::Task<> MigrationEngine::precopy_round(PendingTx* tx, int round,
                                           double charge_bytes) {
  mpi::Proc* proc = mpi_->find(tx->proc_id);
  if (proc == nullptr) {
    // crash() and exit both end the transaction before the proc goes.
    throw std::logic_error("hpcm: pre-copy round without a source process");
  }
  if (round == 0) {
    co_await phase_init(*tx, *proc);
    history_[tx->timeline_index].init_done_at = mpi_->engine().now();
    observe_phase_ms("init",
                     history_[tx->timeline_index].init_done_at -
                         history_[tx->timeline_index].poll_point_at);
  }
  mpi::MpiMessage frame;
  frame.data = std::make_shared<const mpi::Bytes>(std::move(tx->encoded));
  frame.values = {static_cast<double>(proc->id()),
                  static_cast<double>(tx->timeline_index),
                  static_cast<double>(round), 0.0};
  co_await proc->send(tx->merged, tx->merged.rank_of(tx->helper_id),
                      kTagEagerState, charge_bytes, std::move(frame));
  tx->rounds_sent = round + 1;
}

sim::Task<> MigrationEngine::continue_precopy(ProcRecord& rec) {
  PendingTx& tx = *rec.tx;
  MigrationContext& ctx = rec.context;
  mpi::Proc& proc = *ctx.proc_;
  const txn::Status round = tx.runner.poll();
  if (round == txn::Status::kRunning) {
    co_return;  // the round is still shipping; keep computing
  }
  if (round != txn::Status::kFinished) {
    fail_phase(tx, proc, round);  // aborts; the app keeps computing
    co_return;
  }
  // Between rounds: re-collect and test convergence against round 0.
  if (ctx.save_) {
    ctx.save_();
  }
  const double delta_bytes =
      static_cast<double>(ctx.state_.delta_bytes_since(tx.shipped_gen));
  const bool converged =
      delta_bytes <= kPrecopyConvergence * tx.round0_bytes;
  if (!converged && tx.rounds_sent < options_.precopy_max_rounds) {
    start_precopy_round(ctx, tx);
    co_return;
  }
  co_await freeze_and_commit(rec, tx);
}

sim::Task<> MigrationEngine::freeze_and_commit(ProcRecord& rec, PendingTx& tx) {
  MigrationContext& ctx = rec.context;
  mpi::Proc& proc = *ctx.proc_;
  auto& engine = mpi_->engine();
  MigrationTimeline& tl = history_[tx.timeline_index];
  tl.freeze_begin_at = engine.now();
  observe_phase_ms("precopy", tl.freeze_begin_at - tl.poll_point_at);
  close_span(tracer(), tx.precopy_span, {{"rounds", tx.rounds_sent},
                               {"precopy_bytes", tl.precopy_bytes}});
  ARS_LOG_INFO("hpcm", "pre-copy of " << tl.process << " converged after "
                                      << tx.rounds_sent
                                      << " rounds; freezing for the final "
                                      << "delta");

  // ---- freeze: final dirty delta + tombstones ------------------------------
  tx.phase_span = open_span(tracer(), tl, "migration.collect", {});
  const double collect_begin = engine.now();
  // save_ ran in continue_precopy's convergence check at this poll-point.
  StateRegistry::Delta delta =
      ctx.state_.collect_delta(tx.shipped_gen, proc.host().spec().byte_order);
  tx.encoded = std::move(delta.wire);
  tx.shipped_gen = delta.to_generation;
  const double final_bytes = static_cast<double>(tx.encoded.size()) +
                             static_cast<double>(delta.dirty_opaque_bytes);
  tx.eager_wire = final_bytes;
  tl.state_bytes = tl.precopy_bytes + final_bytes;
  close_span(tracer(), tx.phase_span, {{"state_bytes", tl.state_bytes},
                             {"final_delta_bytes", final_bytes}});
  observe_phase_ms("collect", engine.now() - collect_begin);

  // Everything already shipped in the rounds; the background collector
  // only sends the completion marker.
  co_await freeze_tail(rec, tx, /*remaining=*/0.0);
}

sim::Task<> MigrationEngine::run_collector(std::string source_host,
                                           std::string dest_host,
                                           double remaining,
                                           mpi::RankId helper_id,
                                           mpi::Comm merged) {
  net::Network& net = mpi_->network();
  const net::HostId src = net.id_of(source_host);
  const net::HostId dst = net.id_of(dest_host);
  while (remaining > 0.0) {
    const double this_chunk = std::min(kChunkBytes, remaining);
    (void)co_await net.transfer(src, dst, this_chunk);
    remaining -= this_chunk;
  }
  (void)co_await net.transfer(src, dst, 16.0);
  mpi::MpiMessage done;
  done.context = merged.context();
  done.src_rank = 0;
  done.tag = kTagReady;
  done.size_bytes = 16.0;
  mpi_->inject(helper_id, std::move(done));
}

void MigrationEngine::takeover(ProcRecord& rec, host::Host& destination,
                               StateRegistry restored_state,
                               std::size_t timeline_index) {
  // A second signal raised mid-transaction can never be polled on the
  // source again; close its span instead of leaking it.
  close_signal_span(rec, "relocated");
  MigrationContext& ctx = rec.context;
  mpi::Proc& proc = *ctx.proc_;
  mpi_->relocate(proc, destination);
  ctx.state_ = std::move(restored_state);
  ctx.restored_ = true;
  ++ctx.migration_count_;
  ctx.requested_at = -1.0;
  MigrationTimeline& timeline = history_[timeline_index];
  timeline.resumed_at = mpi_->engine().now();
  timeline.succeeded = true;
  timeline.outcome = "committed";
  if (obs::Tracer* t = tracer(); obs::active(t)) {
    obs::Attrs attrs{{"dest", destination.name()},
                     {"migrations", ctx.migration_count_}};
    obs::stamp(attrs, timeline.trace);
    t->instant("migration.resumed", "hpcm", proc.name(), std::move(attrs));
  }
  mpi_->start_app(proc, [this](mpi::Proc& p) { return run_app(p, 0.0); });
}

void MigrationEngine::pre_initialize_on(const std::string& host_name) {
  if (daemons_.contains(host_name)) {
    return;
  }
  MigrationEngine* self = this;
  auto daemon = [self, host_name](mpi::Proc& helper) -> sim::Task<> {
    const std::string port = helper.open_port();
    self->daemons_[host_name].port = port;
    while (true) {
      const mpi::Comm conn = co_await helper.accept(port);
      const mpi::Comm merged = co_await helper.merge(conn, true);
      co_await self->receiver_main(helper, merged);
    }
  };
  daemons_[host_name].rank =
      mpi_->launch(host_name, daemon, "hpcm.daemon." + host_name);
}

bool MigrationEngine::has_pre_initialized(const std::string& host_name) const {
  const auto it = daemons_.find(host_name);
  return it != daemons_.end() && !it->second.port.empty();
}

}  // namespace ars::hpcm
