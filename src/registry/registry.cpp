#include "ars/registry/registry.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <ranges>
#include <utility>

#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/support/log.hpp"

namespace ars::registry {

using rules::SystemState;
using xmlproto::ProtocolMessage;

namespace {

constexpr double kSweepPeriod = 5.0;
constexpr double kHealthReportPeriod = 30.0;
/// The paper measures ~0.002 s to make a migration decision.
constexpr double kDecisionDelay = 0.002;
/// Minimum spacing between migrations of the same process.
constexpr double kPerProcessCooldown = 30.0;
/// Processes with schema data-locality at or above this are not selected
/// for migration (paper §5.3: "if a process involves a lot in a local data
/// access, the process is not to be migrated").
constexpr double kLocalityThreshold = 0.5;
/// A commanded relaunch is fire-and-forget on the wire; if no monitor
/// re-reports the process within this long, the registry parks it as
/// stranded and retries (the middleware's single-consumer checkpoint park
/// makes a duplicate command a harmless no-op).
constexpr double kRelaunchConfirmTtl = 15.0;
/// Re-admission backoff after an outcome report names a failed destination:
/// the host is filtered from eligibility for this long.
constexpr double kSuspectBackoff = 30.0;
/// A migration or resize claim whose outcome never arrives (lost command
/// or report, dead commander) is dropped by the sweeper after this long.
constexpr double kPlacementDebitTtl = 120.0;

/// Sort key of the park and relaunch-command orders.
constexpr auto kByOrder = [](const auto& record) { return record.order; };

/// The records of `ledger` that `pick` selects, sorted by `key`.
template <typename Ledger, typename Pick, typename Key>
auto sorted_records(Ledger& ledger, Pick pick, Key key) {
  std::vector<decltype(&ledger.begin()->second)> records;
  for (auto& [name, record] : ledger) {
    if (pick(record)) {
      records.push_back(&record);
    }
  }
  std::ranges::stable_sort(records, {},
                           [&](auto* record) { return key(*record); });
  return records;
}

/// The why-not counts' trace keys.  Each fits libstdc++'s 15-character
/// inline string buffer, so a traced decision allocates no key.
constexpr std::pair<const char*, int WhyNot::*> kWhyNotKeys[] = {
    {"no.busy", &WhyNot::busy},
    {"no.overloaded", &WhyNot::overloaded},
    {"no.unavailable", &WhyNot::unavailable},
    {"no.source", &WhyNot::source},
    {"no.draining", &WhyNot::draining},
    {"no.suspect", &WhyNot::suspect},
    {"no.unregistered", &WhyNot::unregistered},
    {"no.policy", &WhyNot::policy},
    {"no.resources", &WhyNot::resources},
    {"no.inflight", &WhyNot::inflight},
    {"no.recovery", &WhyNot::recovery_round},
};

}  // namespace

Registry::Registry(host::Host& h, net::Network& network, Config config)
    : host_(&h), network_(&network), config_(std::move(config)),
      rng_(config_.random_seed) {
  if (config_.port == 0) {
    config_.port = network_->allocate_port(host_->name());
  }
  if (metrics() != nullptr) {
    // Pre-register the resize-planner series so exports are stable at zero
    // (the malleable.* convention).
    for (const char* verb : {"expand", "shrink"}) {
      metrics()->counter("registry.resizes_commanded", {{"verb", verb}});
    }
    for (const char* outcome : {"committed", "aborted", "partial-rollback"}) {
      metrics()->counter("registry.resize_outcomes", {{"outcome", outcome}});
    }
    if (config_.enable_ckpt_io) {
      // Same stable-at-zero convention for the I/O-scheduler verdicts.
      for (const char* verb : {"admit", "defer", "preempt"}) {
        metrics()->counter("registry.ckpt_grants", {{"verb", verb}});
      }
      metrics()->counter("registry.ckpt_slots_expired");
    }
  }
}

Registry::~Registry() { stop(); }

void Registry::start() {
  if (running_) {
    return;
  }
  running_ = true;
  endpoint_ = &network_->bind(host_->name(), config_.port);
  fibers_.push_back(sim::Fiber::spawn(host_->engine(), serve(),
                                      "registry.serve"));
  fibers_.push_back(sim::Fiber::spawn(host_->engine(), sweep(),
                                      "registry.sweep"));
  if (!config_.parent_host.empty()) {
    fibers_.push_back(sim::Fiber::spawn(host_->engine(), report_health(),
                                        "registry.health"));
  }
}

void Registry::stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  for (auto& fiber : fibers_) {
    fiber.kill();
  }
  fibers_.clear();
  network_->unbind(host_->name(), config_.port);
  endpoint_ = nullptr;
}

void Registry::restart_cold() {
  hosts_.clear();
  for (StateList& list : index_) {
    list = StateList{};
  }
  ledger_.clear();
  for (auto& [name, job] : malleable_jobs_) {
    job.resizing = false;
    job.pending_targets.clear();
  }
  children_.clear();
  next_registration_order_ = 0;
  start();
  if (obs::active(tracer())) {
    tracer()->instant("registry.cold_restart", "scheduler", host_->name(), {});
  }
}

void Registry::register_schema(const hpcm::ApplicationSchema& schema) {
  schemas_.insert_or_assign(schema.name(), schema);
}

std::optional<SystemState> Registry::host_state(
    const std::string& name) const {
  const auto it = hosts_.find(name);
  if (it == hosts_.end()) {
    return std::nullopt;
  }
  return it->second.state;
}

// -- state index ------------------------------------------------------------

HostEntry& Registry::ensure_entry(const std::string& name) {
  const auto [it, inserted] = hosts_.try_emplace(name);
  if (inserted) {
    it->second.info.host = name;
    index_insert(it->second);  // default state: unavailable
  }
  return it->second;
}

void Registry::index_insert(HostEntry& entry) {
  StateList& list = index_[state_slot(entry.state)];
  entry.index_prev = nullptr;
  entry.index_next = nullptr;
  if (entry.state == SystemState::kFree) {
    // The free list stays ordered by registration_order so first-fit is a
    // front-of-list walk.  Scan from the tail: a host re-entering `free`
    // usually belongs near the end (recent registrations churn most).
    HostEntry* after = list.tail;
    while (after != nullptr &&
           after->registration_order > entry.registration_order) {
      after = after->index_prev;
    }
    if (after == nullptr) {
      entry.index_next = list.head;
      if (list.head != nullptr) {
        list.head->index_prev = &entry;
      }
      list.head = &entry;
      if (list.tail == nullptr) {
        list.tail = &entry;
      }
    } else {
      entry.index_prev = after;
      entry.index_next = after->index_next;
      if (after->index_next != nullptr) {
        after->index_next->index_prev = &entry;
      }
      after->index_next = &entry;
      if (list.tail == after) {
        list.tail = &entry;
      }
    }
  } else {
    // Non-free lists are never scanned for destinations: O(1) append.
    entry.index_prev = list.tail;
    if (list.tail != nullptr) {
      list.tail->index_next = &entry;
    }
    list.tail = &entry;
    if (list.head == nullptr) {
      list.head = &entry;
    }
  }
  ++list.size;
}

void Registry::index_remove(HostEntry& entry) {
  StateList& list = index_[state_slot(entry.state)];
  if (entry.index_prev != nullptr) {
    entry.index_prev->index_next = entry.index_next;
  } else {
    list.head = entry.index_next;
  }
  if (entry.index_next != nullptr) {
    entry.index_next->index_prev = entry.index_prev;
  } else {
    list.tail = entry.index_prev;
  }
  entry.index_prev = nullptr;
  entry.index_next = nullptr;
  --list.size;
}

void Registry::set_state(HostEntry& entry, SystemState next) {
  if (entry.state == next) {
    return;
  }
  index_remove(entry);
  entry.state = next;
  index_insert(entry);
}

void Registry::reposition(HostEntry& entry) {
  index_remove(entry);
  index_insert(entry);
}

std::vector<std::string> Registry::indexed_hosts(SystemState state) const {
  const StateList& list = index_[state_slot(state)];
  std::vector<std::string> names;
  names.reserve(list.size);
  for (const HostEntry* entry = list.head; entry != nullptr;
       entry = entry->index_next) {
    names.push_back(entry->info.host);
  }
  return names;
}

std::size_t Registry::indexed_count(SystemState state) const {
  return index_[state_slot(state)].size;
}

bool Registry::index_consistent() const {
  std::size_t total = 0;
  for (std::size_t slot = 0; slot < 4; ++slot) {
    const StateList& list = index_[slot];
    std::size_t count = 0;
    const HostEntry* prev = nullptr;
    for (const HostEntry* entry = list.head; entry != nullptr;
         entry = entry->index_next) {
      if (entry->index_prev != prev || state_slot(entry->state) != slot) {
        return false;
      }
      if (slot == state_slot(SystemState::kFree) && prev != nullptr &&
          prev->registration_order > entry->registration_order) {
        return false;
      }
      prev = entry;
      if (++count > hosts_.size()) {
        return false;  // cycle
      }
    }
    if (list.tail != prev || count != list.size) {
      return false;
    }
    total += count;
  }
  return total == hosts_.size();
}

// -- wire protocol ----------------------------------------------------------

void Registry::send_to(const std::string& dst_host, int dst_port,
                       const ProtocolMessage& message, obs::TraceCtx ctx) {
  net::Message wire;
  wire.src_host = host_->name();
  wire.dst_host = dst_host;
  wire.dst_port = dst_port;
  wire.payload = xmlproto::encode(message, ctx);
  wire.trace = ctx;
  network_->post(std::move(wire));
}

sim::Task<> Registry::serve() {
  while (true) {
    const net::Message wire = co_await endpoint_->inbox.recv();
    auto envelope = xmlproto::decode_envelope(wire.payload);
    if (!envelope.has_value()) {
      ARS_LOG_WARN("registry", "undecodable message from "
                                   << wire.src_host << ": "
                                   << envelope.error().to_string());
      continue;
    }
    handle(envelope->message, wire.src_host, envelope->trace);
  }
}

void Registry::deliver(const ProtocolMessage& message,
                       const std::string& from_host, obs::TraceCtx ctx) {
  handle(message, from_host, ctx);
}

void Registry::handle(const ProtocolMessage& message,
                      const std::string& from_host, obs::TraceCtx ctx) {
  const double now = host_->engine().now();
  if (const auto* reg = std::get_if<xmlproto::RegisterMsg>(&message)) {
    HostEntry& entry = ensure_entry(reg->info.host);
    entry.info = reg->info;
    // A re-registration may omit ports (they have not changed); never
    // forget a known command path.
    if (reg->monitor_port != 0) {
      entry.monitor_port = reg->monitor_port;
    }
    if (reg->commander_port != 0) {
      entry.commander_port = reg->commander_port;
    }
    entry.last_update = now;
    // Assign the registration order BEFORE admission: set_state inserts
    // into the free list ordered by registration_order, and an order-0
    // entry would walk the whole list from the tail — an O(hosts) step
    // that turns a cold registration storm quadratic.
    if (entry.registration_order == 0) {
      entry.registration_order = ++next_registration_order_;
      reposition(entry);
    }
    if (entry.state == SystemState::kUnavailable) {
      if (!entry.status_seen) {
        // Brand-new host: admit optimistically, there is no status yet.
        set_state(entry, SystemState::kFree);
      }
      // Re-admission after a lease expiry keeps the host `unavailable`
      // until a fresh UpdateMsg arrives: `entry.status` still holds
      // pre-crash metrics and must not feed destination conditions.
    }
    ARS_LOG_INFO("registry", "registered host " << reg->info.host);
    return;
  }
  if (const auto* update = std::get_if<xmlproto::UpdateMsg>(&message)) {
    HostEntry& entry = ensure_entry(update->status.host);
    entry.status = update->status;
    entry.last_update = now;
    entry.status_seen = true;
    if (entry.registration_order == 0) {
      entry.registration_order = ++next_registration_order_;
      reposition(entry);
    }
    const auto state = rules::state_from_string(update->status.state);
    set_state(entry, state.has_value() ? *state : SystemState::kBusy);
    return;
  }
  if (const auto* batch = std::get_if<xmlproto::UpdateBatchMsg>(&message)) {
    for (const xmlproto::LeaseRenewal& renewal : batch->renewals) {
      const auto it = hosts_.find(renewal.host);
      // A compact renewal cannot (re)admit a host: admission needs a full
      // UpdateMsg so the table never holds made-up or stale status data.
      if (it == hosts_.end() || !it->second.status_seen ||
          it->second.state == SystemState::kUnavailable) {
        if (metrics() != nullptr) {
          metrics()->counter("registry.renewals_rejected").inc();
        }
        continue;
      }
      HostEntry& entry = it->second;
      entry.last_update = now;
      entry.status.timestamp = renewal.timestamp;
      const auto state = rules::state_from_string(renewal.state);
      if (state.has_value() && *state != SystemState::kUnavailable) {
        entry.status.state = renewal.state;
        set_state(entry, *state);
      }
      if (metrics() != nullptr) {
        metrics()->counter("registry.renewals_applied").inc();
      }
    }
    return;
  }
  if (const auto* consult = std::get_if<xmlproto::ConsultMsg>(&message)) {
    std::erase_if(fibers_, [](const sim::Fiber& f) { return f.done(); });
    fibers_.push_back(sim::Fiber::spawn(host_->engine(),
                                        decide(*consult, ctx),
                                        "registry.decide"));
    return;
  }
  if (const auto* preg = std::get_if<xmlproto::ProcessRegisterMsg>(&message)) {
    if (!preg->migration_enabled) {
      return;
    }
    ProcessRecord& record = record_of(preg->name);
    if (record.retired == std::pair(preg->host, preg->pid)) {
      return;  // from the instance a committed migration retired: stale
    }
    // Names are cluster-unique, so this is where the process runs now: it
    // supersedes a placeholder or a booking whose deregister got lost, and
    // confirms a pending relaunch (event-driven, so a fast process that
    // exits before the TTL check still counts as confirmed).
    book(record, {.host = preg->host,
                  .pid = preg->pid,
                  .name = preg->name,
                  .start_time = preg->start_time,
                  .schema_name = preg->schema_name});
    return;
  }
  if (const auto* dereg =
          std::get_if<xmlproto::ProcessDeregisterMsg>(&message)) {
    // A deregister means the process left its host cleanly (finished or
    // migrated away): off the books, and no relaunch is owed any more.
    for (ProcessRecord* record : booked_on(dereg->host)) {
      if (record->process.pid == dereg->pid) {
        abandon_relaunch(*record, "deregistered");
        unbook(*record);
      }
    }
    return;
  }
  if (const auto* evac = std::get_if<xmlproto::EvacuateMsg>(&message)) {
    request_evacuation(evac->host, evac->reason);
    return;
  }
  if (const auto* ack = std::get_if<xmlproto::AckMsg>(&message)) {
    // Commander acknowledgements are informational except one: a relaunch
    // rejected because the process already exited normally.  Retrying that
    // forever would leave finished work stranded until the horizon —
    // abandon it instead.
    if (ack->of == "relaunch" && !ack->ok &&
        ack->detail.rfind("exited:", 0) == 0) {
      if (const auto it = ledger_.find(ack->detail.substr(7));
          it != ledger_.end()) {
        abandon_relaunch(it->second, "exited");
      }
    }
    return;
  }
  if (const auto* outcome =
          std::get_if<xmlproto::MigrationOutcomeMsg>(&message)) {
    on_migration_outcome(*outcome, ctx);
    return;
  }
  if (const auto* resize =
          std::get_if<xmlproto::ResizeOutcomeMsg>(&message)) {
    on_resize_outcome(*resize, ctx);
    return;
  }
  if (const auto* io = std::get_if<xmlproto::CkptIoRequestMsg>(&message)) {
    on_ckpt_io_request(*io, ctx);
    return;
  }
  if (const auto* health = std::get_if<xmlproto::HealthReportMsg>(&message)) {
    // Child-domain capacity, used to balance escalated consults.
    ChildDomain& child = children_[health->registry_host];
    if (health->registry_port != 0) {
      child.port = health->registry_port;
    }
    child.free_hosts = health->free_hosts;
    child.busy_hosts = health->busy_hosts;
    child.overloaded_hosts = health->overloaded_hosts;
    child.last_report = now;
    child.routed_consults = 0;  // fresh report supersedes the debits
    return;
  }
  ARS_LOG_WARN("registry", "unhandled " << xmlproto::message_type(message)
                                        << " from " << from_host);
}

sim::Task<> Registry::sweep() {
  while (true) {
    co_await sim::delay(host_->engine(), kSweepPeriod);
    const double now = host_->engine().now();
    // Retry stranded restarts first: capacity freed since the last sweep
    // (and this tick's expiries have not been processed yet).
    drain_stranded();
    expire_claims(now);
    // A relaunch command lost on the wire (partition, dead commander)
    // must not strand the process: unconfirmed relaunches re-park.
    confirm_relaunches(now);
    if (config_.enable_ckpt_io) {
      // Admitted checkpoint-write slots whose done/abort never arrived
      // (crashed host, lost report) must not starve waiting writers.
      const auto reaped = ckpt_io_.expire(now);
      if (!reaped.empty() && metrics() != nullptr) {
        metrics()->counter("registry.ckpt_slots_expired")
            .inc(static_cast<double>(reaped.size()));
      }
    }
    for (auto& [name, entry] : hosts_) {
      if (entry.state != SystemState::kUnavailable &&
          now - entry.last_update > config_.lease_ttl) {
        ARS_LOG_WARN("registry", "lease expired for host " << name);
        set_state(entry, SystemState::kUnavailable);
        if (metrics() != nullptr) {
          metrics()->counter("registry.lease_expirations").inc();
        }
        if (obs::active(tracer())) {
          tracer()->instant(
              "registry.lease_expired", "scheduler", host_->name(),
              {{"host", name},
               {"silent_for", now - entry.last_update}});
        }
        if (config_.auto_restart) {
          // Failure recovery: relaunch everything booked on the silent
          // host from its latest checkpoint, spread by the round's debits.
          RecoveryRound round;
          for (ProcessRecord* record : booked_on(name)) {
            restart_process(*record, round, /*record_stranded=*/true);
          }
        }
      }
    }
    plan_resizes(now);
  }
}

void Registry::register_malleable_job(const std::string& name,
                                      const std::string& root_host,
                                      int ranks, int min_ranks, int max_ranks,
                                      const std::string& strategy) {
  MalleableJobEntry entry;
  entry.name = name;
  entry.root_host = root_host;
  entry.ranks = ranks;
  entry.min_ranks = min_ranks;
  entry.max_ranks = max_ranks;
  entry.strategy = strategy;
  malleable_jobs_.insert_or_assign(name, std::move(entry));
}

void Registry::plan_resizes(const double now) {
  if (!config_.enable_resize) {
    return;
  }
  // Membership census.  Load averages lag a fresh worker by tens of
  // seconds, so a host can sit on the free index while it is in fact
  // saturated; the planner therefore reasons from rank placement directly:
  // `occupied` hosts are never expand targets, and hosts shared by two
  // jobs shed the larger one without waiting for loadavg to confirm the
  // crowding.
  std::set<std::string> occupied;
  std::map<std::string, std::vector<std::string>> residents;  // host -> jobs
  std::map<std::string, std::vector<std::string>> members_of;
  if (config_.job_hosts) {
    for (const auto& [jname, jentry] : malleable_jobs_) {
      (void)jentry;
      std::vector<std::string> hosts = config_.job_hosts(jname);
      for (const std::string& h : hosts) {
        occupied.insert(h);
        residents[h].push_back(jname);
      }
      members_of.emplace(jname, std::move(hosts));
    }
  }
  std::set<std::string> victims_taken;  // at most one shed per host per sweep
  for (auto& [name, job] : malleable_jobs_) {
    if (job.resizing || now - job.last_resize_at < config_.resize_cooldown) {
      continue;
    }
    const auto root = hosts_.find(job.root_host);
    if (root == hosts_.end() || root->second.commander_port == 0 ||
        root->second.state == SystemState::kUnavailable) {
      continue;  // no command path to the job's root
    }
    const std::vector<std::string>& my_hosts = members_of[name];
    const std::set<std::string> member_hosts(my_hosts.begin(), my_hosts.end());
    std::vector<std::string> victims;
    const int shrinkable = job.ranks - job.min_ranks;
    // Crowding: a host carrying ranks of two jobs sheds the strictly
    // largest one (ties break on name), immediately — barrier-synchronized
    // SPMD jobs straggle on the slowest member, so one shared host halves
    // both jobs until it is repaired.
    for (const std::string& h : my_hosts) {
      if (static_cast<int>(victims.size()) >= shrinkable) {
        break;
      }
      if (h == job.root_host || victims_taken.count(h) != 0) {
        continue;
      }
      const std::vector<std::string>& who = residents[h];
      if (who.size() < 2) {
        continue;
      }
      bool shed = true;
      for (const std::string& other : who) {
        if (other == name) {
          continue;
        }
        const MalleableJobEntry& peer = malleable_jobs_.at(other);
        if (peer.ranks > job.ranks ||
            (peer.ranks == job.ranks && other > name)) {
          shed = false;  // the bigger resident sheds instead
          break;
        }
      }
      if (shed) {
        victims.push_back(h);
        victims_taken.insert(h);
      }
    }
    // Pressure: member hosts sitting on the overloaded index shed their
    // rank (the malleable analogue of a migration consult).
    for (const HostEntry* entry =
             index_[state_slot(SystemState::kOverloaded)].head;
         entry != nullptr && static_cast<int>(victims.size()) < shrinkable;
         entry = entry->index_next) {
      if (entry->info.host != job.root_host &&
          victims_taken.count(entry->info.host) == 0 &&
          member_hosts.count(entry->info.host) != 0) {
        victims.push_back(entry->info.host);
        victims_taken.insert(entry->info.host);
      }
    }
    if (!victims.empty()) {
      command_resize(job, "shrink", std::move(victims), now);
      continue;
    }
    // Slack: free hosts not already carrying a rank of this job (and not
    // already claimed by another in-flight placement) take one new rank
    // each, up to the per-command step.
    if (job.ranks >= job.max_ranks) {
      continue;
    }
    const int step = std::min(config_.max_expand_step,
                              job.max_ranks - job.ranks);
    std::vector<std::string> targets;
    for (const HostEntry* entry = index_[state_slot(SystemState::kFree)].head;
         entry != nullptr && static_cast<int>(targets.size()) < step;
         entry = entry->index_next) {
      const std::string& candidate = entry->info.host;
      if (candidate == job.root_host || occupied.count(candidate) != 0 ||
          entry->draining || !entry->status_seen ||
          entry->suspect_until > now ||
          inflight_debit(candidate).placements != 0) {
        continue;
      }
      targets.push_back(candidate);
    }
    if (!targets.empty()) {
      command_resize(job, "expand", std::move(targets), now);
    }
  }
}

void Registry::command_resize(MalleableJobEntry& job, const std::string& verb,
                              std::vector<std::string> hosts,
                              const double now) {
  const auto root = hosts_.find(job.root_host);
  if (root == hosts_.end() || root->second.commander_port == 0) {
    return;
  }
  obs::TraceCtx ctx;
  if (obs::active(tracer())) {
    ctx.txn = tracer()->new_txn();
  }
  xmlproto::ResizeCmd cmd;
  cmd.job = job.name;
  cmd.verb = verb;
  cmd.delta = static_cast<int>(hosts.size());
  cmd.strategy = job.strategy;
  cmd.hosts = hosts;
  // The job's claim: each expand target counts as an in-flight placement
  // until the outcome (or the claim's expiry) closes it, so parallel
  // planning rounds spread instead of piling onto the same slack host.
  job.pending_targets = verb == "expand" ? hosts : std::vector<std::string>{};
  job.resizing = true;
  job.last_resize_at = now;
  ++resizes_commanded_;
  if (metrics() != nullptr) {
    metrics()->counter("registry.resizes_commanded", {{"verb", verb}})
        .inc();
    if (verb == "expand") {
      metrics()->gauge("registry.placements_inflight")
          .set(static_cast<double>(inflight_placements()));
    }
  }
  if (obs::active(tracer())) {
    obs::Attrs attrs{{"job", job.name},
                     {"verb", verb},
                     {"delta", static_cast<double>(cmd.delta)},
                     {"root", job.root_host}};
    obs::stamp(attrs, ctx);
    tracer()->instant("registry.resize_commanded", "scheduler", host_->name(),
                      std::move(attrs));
  }
  ARS_LOG_INFO("registry", "commanding " << verb << "(" << job.name << ", "
                                         << cmd.delta << ") via "
                                         << job.root_host);
  send_to(job.root_host, root->second.commander_port, cmd, ctx);
}

void Registry::on_resize_outcome(const xmlproto::ResizeOutcomeMsg& outcome,
                                 obs::TraceCtx ctx) {
  const double now = host_->engine().now();
  if (metrics() != nullptr) {
    metrics()
        ->counter("registry.resize_outcomes", {{"outcome", outcome.outcome}})
        .inc();
  }
  if (obs::active(tracer())) {
    obs::Attrs attrs{{"job", outcome.job},
                     {"verb", outcome.verb},
                     {"outcome", outcome.outcome},
                     {"reason", outcome.reason},
                     {"ranks_after", static_cast<double>(outcome.ranks_after)}};
    obs::stamp(attrs, ctx);
    tracer()->instant("registry.resize_outcome", "scheduler", host_->name(),
                      std::move(attrs));
  }
  const auto it = malleable_jobs_.find(outcome.job);
  if (it == malleable_jobs_.end()) {
    return;
  }
  // Close the job's claim: its expand targets are credited back.
  MalleableJobEntry& job = it->second;
  job.resizing = false;
  if (outcome.ranks_after > 0) {
    job.ranks = outcome.ranks_after;
  }
  if (outcome.outcome != "committed" && outcome.phase != "plan") {
    // Failed expand targets back off as spawn destinations, exactly like a
    // failed migration destination.  Plan-phase rejections never touched
    // the targets, so they stay in good standing.
    for (const std::string& target : job.pending_targets) {
      suspect(target, now);
    }
  }
  const std::size_t credited = std::exchange(job.pending_targets, {}).size();
  if (credited != 0 && metrics() != nullptr) {
    metrics()->counter("registry.placements_credited")
        .inc(static_cast<double>(credited));
    metrics()->gauge("registry.placements_inflight")
        .set(static_cast<double>(inflight_placements()));
  }
  if (outcome.reason == "job-finished" || outcome.reason == "job-failed") {
    malleable_jobs_.erase(it);  // terminal: stop planning resizes for it
  }
}

void Registry::on_ckpt_io_request(const xmlproto::CkptIoRequestMsg& request,
                                  obs::TraceCtx ctx) {
  if (!config_.enable_ckpt_io) {
    // Not scheduling checkpoint I/O: admit everything so a misconfigured
    // cooperative cluster degrades to periodic behaviour, not deadlock.
    if (request.verb == "request") {
      send_ckpt_grant(request.host,
                      {request.process, "admit", /*retry_after=*/0.0}, ctx);
    }
    return;
  }
  const double now = host_->engine().now();
  if (request.verb == "done" || request.verb == "abort") {
    ckpt_io_.release(request.process);  // idempotent under stale reports
    return;
  }
  if (request.verb != "request") {
    ARS_LOG_WARN("registry", "unknown ckpt_io verb '" << request.verb
                                                      << "' from "
                                                      << request.host);
    return;
  }
  const ckpt::Admission verdict =
      ckpt_io_.request(request.process, request.host, request.risk, now);
  const char* verb = verdict.verb == ckpt::Admission::Verb::kDefer
                         ? "defer"
                         : verdict.verb == ckpt::Admission::Verb::kPreempt
                               ? "preempt"
                               : "admit";
  if (metrics() != nullptr) {
    metrics()->counter("registry.ckpt_grants", {{"verb", verb}}).inc();
  }
  if (obs::active(tracer())) {
    obs::Attrs attrs{{"process", request.process},
                     {"verb", std::string(verb)},
                     {"risk", request.risk},
                     {"active", static_cast<double>(ckpt_io_.active())}};
    obs::stamp(attrs, ctx);
    tracer()->instant("registry.ckpt_grant", "scheduler", host_->name(),
                      std::move(attrs));
  }
  if (verdict.verb == ckpt::Admission::Verb::kPreempt) {
    // Evict the victim first, then admit the requester: the victim's
    // commander aborts the in-flight write and backs off.
    send_ckpt_grant(verdict.victim_host,
                    {verdict.preempt_victim, "preempt", verdict.retry_after},
                    ctx);
    send_ckpt_grant(request.host, {request.process, "admit", 0.0}, ctx);
    return;
  }
  if (verdict.verb == ckpt::Admission::Verb::kDefer) {
    send_ckpt_grant(request.host,
                    {request.process, "defer", verdict.retry_after}, ctx);
    return;
  }
  send_ckpt_grant(request.host, {request.process, "admit", 0.0}, ctx);
}

void Registry::send_ckpt_grant(const std::string& host,
                               const xmlproto::CkptIoGrantMsg& grant,
                               obs::TraceCtx ctx) {
  const auto it = hosts_.find(host);
  if (it == hosts_.end() || it->second.commander_port == 0) {
    ARS_LOG_WARN("registry", "no commander path to " << host
                                                     << " for ckpt grant");
    return;
  }
  send_to(host, it->second.commander_port, grant, ctx);
}

// -- process ledger ---------------------------------------------------------

Registry::ProcessRecord& Registry::record_of(const std::string& name) {
  ProcessRecord& record = ledger_[name];
  record.process.name = name;
  return record;
}

void Registry::book(ProcessRecord& record, ProcessEntry process) {
  record.recovery_unreported = record.parked();
  record.state = ProcessState::kRunning;
  record.process = std::move(process);
}

void Registry::unbook(ProcessRecord& record) {
  if (record.claim.has_value()) {
    record.state = ProcessState::kClaimOnly;
  } else {
    ledger_.erase(ledger_.find(record.process.name));
  }
}

std::vector<Registry::ProcessRecord*> Registry::booked_on(
    const std::string& host) {
  return sorted_records(
      ledger_,
      [&](const ProcessRecord& r) {
        return r.state == ProcessState::kRunning && r.process.host == host;
      },
      [](const ProcessRecord& r) { return std::to_string(r.process.pid); });
}

std::size_t Registry::process_count() const {
  return static_cast<std::size_t>(std::ranges::count(
      ledger_ | std::views::values, ProcessState::kRunning,
      &ProcessRecord::state));
}

std::vector<ProcessEntry> Registry::stranded() const {
  std::vector<ProcessEntry> parked;
  for (const ProcessRecord* record : sorted_records(
           ledger_, std::mem_fn(&ProcessRecord::parked), kByOrder)) {
    parked.push_back(record->process);
  }
  return parked;
}

std::size_t Registry::inflight_placements() const {
  auto claims = static_cast<std::size_t>(std::ranges::count_if(
      ledger_ | std::views::values,
      [](const ProcessRecord& record) { return record.claim.has_value(); }));
  for (const auto& [name, job] : malleable_jobs_) {
    claims += job.pending_targets.size();
  }
  return claims;
}

Registry::Debit Registry::inflight_debit(const std::string& host_name) const {
  Debit debit;
  for (const auto& [name, record] : ledger_) {
    if (record.claim.has_value() && record.claim->dest == host_name) {
      ++debit.placements;
      debit.memory_bytes += record.claim->memory_bytes;
      debit.disk_bytes += record.claim->disk_bytes;
    }
  }
  for (const auto& [name, job] : malleable_jobs_) {
    debit.placements += static_cast<int>(std::count(
        job.pending_targets.begin(), job.pending_targets.end(), host_name));
  }
  return debit;
}

bool Registry::restart_process(ProcessRecord& record, RecoveryRound& round,
                               bool record_stranded, obs::TraceCtx cause) {
  const ProcessEntry& process = record.process;
  // A restart opens a fresh transaction: the registry is the originator
  // (no consult precedes it), so the decision event is the DAG root.
  obs::TraceCtx ctx;
  if (obs::active(tracer())) {
    ctx.txn = tracer()->new_txn();
  }
  Decision decision;
  decision.at = host_->engine().now();
  decision.source = process.host;
  decision.pid = process.pid;
  decision.process_name = process.name;
  decision.restart = true;
  const HostEntry* chosen =
      place(process.host, process.schema_name, &decision.why_not, &round);
  record.recovery_unreported = false;
  if (chosen == nullptr) {
    if (record_stranded) {
      ARS_LOG_ERROR("registry", "no host to restart " << process.name
                                                      << " (lost with "
                                                      << process.host << ")");
      decisions_.push_back(decision);
      trace_decision(decision, "restart-stranded", ctx, cause.txn);
      if (metrics() != nullptr) {
        metrics()->counter("registry.restarts_stranded").inc();
      }
    }
    // Parked for the sweeper, which retries once capacity frees up.
    if (record.state != ProcessState::kStranded) {
      record.state = ProcessState::kStranded;
      record.order = ++ledger_clock_;
    }
    return false;
  }
  decision.destination = chosen->info.host;
  decisions_.push_back(decision);
  trace_decision(decision, "restart", ctx, cause.txn);
  if (metrics() != nullptr) {
    metrics()->counter("registry.restarts_commanded").inc();
  }
  // Restarts commanded earlier in this round occupy resources the
  // destination's next heartbeat cannot yet reflect.
  Debit& debit = round[chosen->info.host];
  ++debit.placements;
  if (const auto it = schemas_.find(process.schema_name);
      it != schemas_.end()) {
    debit.memory_bytes += it->second.requirements().min_memory_bytes;
    debit.disk_bytes += it->second.requirements().min_disk_bytes;
  }
  xmlproto::RelaunchCmd command;
  command.process_name = process.name;
  command.lost_host = process.host;
  command.schema_name = process.schema_name;
  ARS_LOG_WARN("registry", "restarting " << process.name << " on "
                                         << chosen->info.host);
  send_to(chosen->info.host, chosen->commander_port, command, ctx);
  // Relaunching until a monitor re-reports the process: the wire is lossy
  // and a vanished RelaunchCmd must not lose the process for good.
  record.state = ProcessState::kRelaunching;
  record.relaunch_dest = chosen->info.host;
  record.relaunched_at = host_->engine().now();
  record.order = ++ledger_clock_;
  return true;
}

void Registry::abandon_relaunch(ProcessRecord& record,
                                const std::string& reason) {
  if (record.state != ProcessState::kRelaunching && !record.parked()) {
    return;
  }
  ARS_LOG_INFO("registry", "abandoning relaunch of "
                               << record.process.name << " (" << reason << ")");
  if (metrics() != nullptr) {
    metrics()->counter("registry.relaunches_abandoned").inc();
  }
  if (obs::active(tracer())) {
    tracer()->instant("registry.relaunch_abandoned", "scheduler", host_->name(),
                      {{"process", record.process.name}, {"reason", reason}});
  }
  if (record.state == ProcessState::kRunning) {
    record.recovery_unreported = false;
  } else {
    unbook(record);
  }
}

void Registry::drain_stranded() {
  RecoveryRound round;
  int recovered = 0;
  for (ProcessRecord* record : sorted_records(
           ledger_, std::mem_fn(&ProcessRecord::parked), kByOrder)) {
    if (record->state == ProcessState::kRunning) {
      // A monitor re-reported it since it was parked (an earlier relaunch
      // landed, or the lease expiry was spurious): its retry is done.
      record->recovery_unreported = false;
      ++recovered;
    } else if (restart_process(*record, round, /*record_stranded=*/false)) {
      ++recovered;
    }
  }
  if (recovered != 0 && metrics() != nullptr) {
    metrics()->counter("registry.stranded_recovered").inc(recovered);
  }
}

void Registry::confirm_relaunches(double now) {
  for (ProcessRecord* record : sorted_records(
           ledger_,
           [now](const ProcessRecord& r) {
             return r.state == ProcessState::kRelaunching &&
                    now - r.relaunched_at > kRelaunchConfirmTtl;
           },
           kByOrder)) {
    ARS_LOG_WARN("registry", "relaunch of " << record->process.name << " on "
                                            << record->relaunch_dest
                                            << " unconfirmed; retrying");
    if (metrics() != nullptr) {
      metrics()->counter("registry.relaunches_retried").inc();
    }
    if (obs::active(tracer())) {
      tracer()->instant("registry.relaunch_retry", "scheduler", host_->name(),
                        {{"process", record->process.name},
                         {"dest", record->relaunch_dest}});
    }
    record->state = ProcessState::kStranded;
    record->order = ++ledger_clock_;
  }
}

void Registry::expire_claims(double now) {
  std::size_t expired = 0;
  for (auto& [name, job] : malleable_jobs_) {
    if (job.resizing && now - job.last_resize_at > kPlacementDebitTtl) {
      // The command or its outcome was lost: planning resumes.
      expired += std::exchange(job.pending_targets, {}).size();
      job.resizing = false;
    }
  }
  // Every expired claim closes before the orphans are placed: none of
  // them may debit a destination any more.
  std::vector<ProcessRecord*> orphans;
  for (ProcessRecord* record : sorted_records(
           ledger_,
           [now](const ProcessRecord& r) {
             return r.claim && now - r.claim->at > kPlacementDebitTtl;
           },
           [](const ProcessRecord& r) { return r.claim->order; })) {
    const MigrationClaim claim = *std::exchange(record->claim, std::nullopt);
    ++expired;
    if (record->state == ProcessState::kRunning) {
      continue;
    }
    if (!config_.auto_restart) {
      if (record->state == ProcessState::kClaimOnly) {
        unbook(*record);
      }
      continue;
    }
    record->process = {.host = claim.dest,
                       .pid = next_placeholder_pid_--,
                       .name = record->process.name,
                       .start_time = now,
                       .schema_name = claim.schema_name};
    orphans.push_back(record);
  }
  if (expired != 0 && metrics() != nullptr) {
    metrics()->counter("registry.placements_expired")
        .inc(static_cast<double>(expired));
    metrics()->gauge("registry.placements_inflight")
        .set(static_cast<double>(inflight_placements()));
  }
  for (ProcessRecord* record : orphans) {
    // The outcome report AND the destination's registration both vanished
    // (lossy wire, destination crash).  If the transfer committed, no lease
    // expiry will ever speak for the process — relaunch from checkpoint.
    // Exactly-once is safe: a commander refuses to relaunch a process that
    // exited normally and the registry abandons the command.
    ARS_LOG_WARN("registry", "placement debit for "
                                 << record->process.name
                                 << " expired with no book entry; "
                                    "relaunching from checkpoint");
    if (metrics() != nullptr) {
      metrics()->counter("registry.debit_orphan_restarts").inc();
    }
    RecoveryRound round;
    restart_process(*record, round, /*record_stranded=*/true);
  }
}

const HostEntry* Registry::suspect(const std::string& host, double now) {
  const auto it = hosts_.find(host);
  if (it == hosts_.end()) {
    return nullptr;
  }
  it->second.suspect_until = now + kSuspectBackoff;
  if (metrics() != nullptr) {
    metrics()->counter("registry.hosts_suspected").inc();
  }
  return &it->second;
}

void Registry::on_migration_outcome(
    const xmlproto::MigrationOutcomeMsg& outcome, obs::TraceCtx ctx) {
  const double now = host_->engine().now();
  if (metrics() != nullptr) {
    metrics()
        ->counter("registry.migration_outcomes",
                  {{"outcome", outcome.outcome}})
        .inc();
  }
  if (obs::active(tracer())) {
    obs::Attrs attrs{{"process", outcome.process},
                     {"dest", outcome.destination},
                     {"outcome", outcome.outcome},
                     {"reason", outcome.reason}};
    obs::stamp(attrs, ctx);
    tracer()->instant("registry.migration_outcome", "scheduler", host_->name(),
                      std::move(attrs));
  }
  // Close the process's claim (it has at most one: a newer command
  // supersedes the old).
  ProcessRecord& record = record_of(outcome.process);
  const std::optional<MigrationClaim> claim =
      std::exchange(record.claim, std::nullopt);
  if (claim.has_value() && metrics() != nullptr) {
    metrics()->counter("registry.placements_credited").inc();
    metrics()->gauge("registry.placements_inflight")
        .set(static_cast<double>(inflight_placements()));
  }
  if (outcome.outcome == "committed") {
    // The destination's own registration can be lost or arrive after the
    // destination dies, and until then a crash there would relaunch
    // nothing.  Book the process there now under a placeholder pid
    // (rebuilt from the claim if it is on nobody's books).
    if (record.state != ProcessState::kRunning) {
      book(record, {.host = outcome.destination,
                    .pid = next_placeholder_pid_--,
                    .name = outcome.process,
                    .start_time = now,
                    .schema_name = claim ? claim->schema_name : ""});
    } else if (record.process.host != outcome.destination) {
      // The source instance is gone for good: a registration it sent before
      // the commit must not book the process back there.
      record.retired = {record.process.host, record.process.pid};
      record.process.host = outcome.destination;
      record.process.pid = next_placeholder_pid_--;
    }
    return;
  }
  // The destination failed mid-transaction: back it off as a destination
  // until it proves itself again.
  if (const HostEntry* dest = suspect(outcome.destination, now)) {
    ARS_LOG_WARN("registry", "marking " << outcome.destination
                                        << " suspect until t="
                                        << dest->suspect_until << " ("
                                        << outcome.outcome << ": "
                                        << outcome.reason << ")");
  }
  if (outcome.outcome == "rolled-back") {
    // Post-commit destination loss: the process committed to the dead
    // destination, so the source lease never lapses for it — command the
    // checkpoint-restart directly instead of waiting for a lease that is
    // not coming.
    if (record.state != ProcessState::kRunning) {
      // The destination died before its monitor ever reported the arrival;
      // reconstruct what the relaunch needs from the outcome itself.
      record.process = {.host = outcome.destination,
                        .name = outcome.process,
                        .schema_name = {}};
    }
    if (metrics() != nullptr) {
      metrics()->counter("registry.rollback_restarts").inc();
    }
    RecoveryRound round;
    restart_process(record, round, /*record_stranded=*/true, ctx);
    return;
  }
  if (record.state == ProcessState::kClaimOnly) {
    unbook(record);  // the closed claim was all there was
  } else if (outcome.outcome == "aborted" &&
             record.state == ProcessState::kRunning &&
             record.process.host == outcome.source) {
    // Aborted: the process still runs on the source.  Clear its cooldown
    // (this migration never happened); the re-plan below runs right away
    // instead of waiting for the monitor's next overload report.
    record.process.last_migrated_at = -1.0e9;
  }
  if (outcome.outcome != "aborted") {
    return;
  }
  xmlproto::ConsultMsg consult;
  consult.host = outcome.source;
  consult.reason = "migration aborted (" + outcome.reason + ")";
  // The re-plan is a NEW transaction (one migration attempt per DAG); the
  // replan event links it back to the aborted one via cause_txn.
  obs::TraceCtx replan_ctx;
  if (obs::active(tracer())) {
    replan_ctx.txn = tracer()->new_txn();
    obs::Attrs attrs{{"process", outcome.process}, {"source", outcome.source}};
    obs::stamp(attrs, replan_ctx);
    if (ctx.set()) {
      attrs.emplace_back("cause_txn", static_cast<std::size_t>(ctx.txn));
    }
    tracer()->instant("registry.replan", "scheduler", host_->name(),
                      std::move(attrs));
  }
  std::erase_if(fibers_, [](const sim::Fiber& f) { return f.done(); });
  fibers_.push_back(sim::Fiber::spawn(
      host_->engine(), decide(consult, replan_ctx), "registry.decide"));
}

sim::Task<> Registry::report_health() {
  while (true) {
    co_await sim::delay(host_->engine(), kHealthReportPeriod);
    xmlproto::HealthReportMsg report;
    report.registry_host = host_->name();
    report.registry_port = config_.port;
    report.timestamp = host_->engine().now();
    // O(1) from the index list sizes.
    report.free_hosts =
        static_cast<int>(index_[state_slot(SystemState::kFree)].size);
    report.busy_hosts =
        static_cast<int>(index_[state_slot(SystemState::kBusy)].size);
    report.overloaded_hosts =
        static_cast<int>(index_[state_slot(SystemState::kOverloaded)].size);
    send_to(config_.parent_host, config_.parent_port, report);
  }
}

const ProcessEntry* Registry::select_process(const std::string& source_host) {
  // "The registry/scheduler tends to migrate a process that has the latest
  // completing time to reduce the possibility of migrating multiple
  // processes."  Estimated completion = start time + schema estimate.
  const double now = host_->engine().now();
  const ProcessEntry* best = nullptr;
  double best_completion = -1.0;
  for (const ProcessRecord* record : booked_on(source_host)) {
    const ProcessEntry& entry = record->process;
    if (now - entry.last_migrated_at < kPerProcessCooldown) {
      continue;
    }
    double est_exec = 0.0;
    const auto schema_it = schemas_.find(entry.schema_name);
    if (schema_it != schemas_.end()) {
      // Data-locality consideration (paper 5.3): a process that depends
      // heavily on host-local data is not migrated.
      if (schema_it->second.data_locality() >= kLocalityThreshold) {
        continue;
      }
      est_exec = schema_it->second.est_exec_time();
    }
    const double completion = entry.start_time + est_exec;
    if (best == nullptr || completion > best_completion) {
      best = &entry;
      best_completion = completion;
    }
  }
  return best;
}

void Registry::trace_decision(const Decision& decision, const char* kind,
                              obs::TraceCtx ctx,
                              std::uint64_t cause_txn) const {
  if (!obs::active(tracer())) {
    return;
  }
  obs::Attrs attrs{{"kind", kind},
                   {"source", decision.source},
                   {"process", decision.process_name},
                   {"destination", decision.destination.empty()
                                       ? std::string("none")
                                       : decision.destination},
                   {"escalated", decision.escalated}};
  obs::stamp(attrs, ctx);
  if (cause_txn != 0) {
    attrs.push_back({"cause_txn", static_cast<std::size_t>(cause_txn)});
  }
  if (config_.audit == AuditMode::kAuto) {
    attrs.push_back({"eligible", decision.why_not.eligible});
    for (const auto& [key, count] : kWhyNotKeys) {
      if (decision.why_not.*count != 0) {
        attrs.push_back({key, decision.why_not.*count});
      }
    }
  }
  tracer()->instant_at(decision.at, "scheduler.decision", "scheduler",
                       host_->name(), std::move(attrs));
}

std::vector<const HostEntry*> Registry::eligible_destinations(
    const std::string& source_host, const std::string& schema_name,
    WhyNot* why_not) const {
  return walk(source_host, schema_name, why_not, nullptr);
}

std::vector<const HostEntry*> Registry::walk(
    const std::string& source_host, const std::string& schema_name,
    WhyNot* why_not, const RecoveryRound* round) const {
  const double now = host_->engine().now();
  const hpcm::ApplicationSchema* schema = nullptr;
  if (const auto it = schemas_.find(schema_name); it != schemas_.end()) {
    schema = &it->second;
  }
  const auto listed = [this](SystemState state) {
    return static_cast<int>(index_[state_slot(state)].size);
  };
  WhyNot counts{.busy = listed(SystemState::kBusy),
                .overloaded = listed(SystemState::kOverloaded),
                .unavailable = listed(SystemState::kUnavailable)};
  const StateList& free_list = index_[state_slot(SystemState::kFree)];
  std::vector<const HostEntry*> eligible;
  eligible.reserve(free_list.size);
  for (const HostEntry* entry = free_list.head; entry != nullptr;
       entry = entry->index_next) {
    const Tally verdict =
        destination_verdict(*entry, source_host, schema, round, now);
    ++(counts.*verdict);
    if (verdict == &WhyNot::eligible) {
      eligible.push_back(entry);
    }
  }
  assert(counts.total() == static_cast<int>(hosts_.size()));
  if (why_not != nullptr) {
    *why_not = counts;
  }
  return eligible;
}

const HostEntry* Registry::place(const std::string& source_host,
                                 const std::string& schema_name,
                                 WhyNot* why_not,
                                 const RecoveryRound* round) {
  std::vector<const HostEntry*> eligible =
      walk(source_host, schema_name, why_not, round);
  if (eligible.empty()) {
    return nullptr;
  }
  if (round != nullptr) {
    // Spread the round: only destinations with the fewest placements so
    // far stay in play.
    const auto placements = [round](const HostEntry* entry) {
      const auto it = round->find(entry->info.host);
      return it == round->end() ? 0 : it->second.placements;
    };
    int fewest = std::numeric_limits<int>::max();
    for (const HostEntry* entry : eligible) {
      fewest = std::min(fewest, placements(entry));
    }
    std::erase_if(eligible, [&](const HostEntry* entry) {
      return placements(entry) != fewest;
    });
  }
  const HostEntry* chosen = eligible.front();
  switch (config_.strategy) {
    case DestinationStrategy::kFirstFit:
      break;
    case DestinationStrategy::kBestFit:
      // Least loaded (then least 5-min load as a tiebreak).
      for (const HostEntry* entry : eligible) {
        if (entry->status.load1 < chosen->status.load1 ||
            (entry->status.load1 == chosen->status.load1 &&
             entry->status.load5 < chosen->status.load5)) {
          chosen = entry;
        }
      }
      break;
    case DestinationStrategy::kRandomFit:
      chosen = eligible[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(eligible.size()) - 1))];
      break;
  }
  return chosen;
}

Registry::Tally Registry::destination_verdict(
    const HostEntry& entry, const std::string& source_host,
    const hpcm::ApplicationSchema* schema, const RecoveryRound* round,
    double now) const {
  if (entry.info.host == source_host) {
    return &WhyNot::source;
  }
  if (entry.draining) {
    return &WhyNot::draining;
  }
  if (entry.suspect_until > now) {
    return &WhyNot::suspect;
  }
  if (entry.commander_port == 0) {
    // Update-before-Register ghost: no RegisterMsg has supplied ports yet,
    // so any command would be posted to port 0 and silently lost.
    return &WhyNot::unregistered;
  }
  if (!config_.policy.accepts_destination(entry.status)) {
    return &WhyNot::policy;
  }
  if (schema != nullptr) {
    const auto& req = schema->requirements();
    if (entry.info.memory_bytes < req.min_memory_bytes ||
        entry.info.disk_bytes < req.min_disk_bytes ||
        entry.info.cpu_speed < req.min_cpu_speed) {
      return &WhyNot::resources;
    }
    const auto exhausts = [&](const Debit& debit) {
      return entry.info.memory_bytes <
                 req.min_memory_bytes + debit.memory_bytes ||
             entry.info.disk_bytes < req.min_disk_bytes + debit.disk_bytes;
    };
    const Debit inflight = inflight_debit(entry.info.host);
    if ((inflight.memory_bytes != 0 || inflight.disk_bytes != 0) &&
        exhausts(inflight)) {
      return &WhyNot::inflight;
    }
    if (round != nullptr) {
      const auto it = round->find(entry.info.host);
      if (it != round->end() && exhausts(it->second)) {
        return &WhyNot::recovery_round;
      }
    }
  }
  return &WhyNot::eligible;
}

std::optional<std::string> Registry::first_fit_destination(
    const std::string& source_host, const std::string& schema_name) {
  const auto eligible = eligible_destinations(source_host, schema_name);
  if (eligible.empty()) {
    return std::nullopt;
  }
  return eligible.front()->info.host;
}

std::optional<std::string> Registry::choose_destination(
    const std::string& source_host, const std::string& schema_name,
    WhyNot* why_not) {
  const HostEntry* chosen = place(source_host, schema_name, why_not, nullptr);
  if (chosen == nullptr) {
    return std::nullopt;
  }
  return chosen->info.host;
}

void Registry::request_evacuation(const std::string& host,
                                  const std::string& reason) {
  std::erase_if(fibers_, [](const sim::Fiber& f) { return f.done(); });
  fibers_.push_back(sim::Fiber::spawn(host_->engine(),
                                      evacuate(host, reason),
                                      "registry.evacuate"));
}

sim::Task<> Registry::evacuate(std::string drained_host, std::string reason) {
  co_await sim::delay(host_->engine(), kDecisionDelay);
  ARS_LOG_WARN("registry",
               "evacuating " << drained_host << " (" << reason << ")");
  if (metrics() != nullptr) {
    metrics()->counter("registry.evacuations").inc();
  }
  if (obs::active(tracer())) {
    tracer()->instant("registry.evacuation", "scheduler", host_->name(),
                      {{"host", drained_host}, {"reason", reason}});
  }
  // The host stops being a destination immediately and permanently
  // (heartbeats keep refreshing its state but not its draining mark).
  const auto host_it = hosts_.find(drained_host);
  if (host_it != hosts_.end()) {
    host_it->second.draining = true;
  }
  // Command every migration-enabled process off, each to its own first-fit
  // destination; placements interleave with the transfers, so re-evaluate
  // the candidate list per process.
  std::vector<ProcessEntry> targets;
  for (const ProcessRecord* record : booked_on(drained_host)) {
    targets.push_back(record->process);
  }
  for (const ProcessEntry& process : targets) {
    // Each evacuated process gets its own transaction (one migration per
    // DAG), rooted at its decision event.
    obs::TraceCtx ctx;
    if (obs::active(tracer())) {
      ctx.txn = tracer()->new_txn();
    }
    Decision decision;
    const HostEntry* dest =
        place(drained_host, process.schema_name, &decision.why_not, nullptr);
    decision.at = host_->engine().now();
    decision.source = drained_host;
    decision.pid = process.pid;
    decision.process_name = process.name;
    decision.decision_latency = kDecisionDelay;
    if (dest == nullptr) {
      ARS_LOG_ERROR("registry", "evacuation: no destination for "
                                    << process.name << " - process stays");
      decisions_.push_back(decision);
      trace_decision(decision, "evacuate-stranded", ctx);
      continue;
    }
    decision.destination = dest->info.host;
    decisions_.push_back(decision);
    trace_decision(decision, "evacuate", ctx);
    const auto source_it = hosts_.find(drained_host);
    if (source_it == hosts_.end()) {
      continue;
    }
    command_migration(process, source_it->second.commander_port, *dest, ctx);
    ++evacuations_commanded_;
    // Give each migration a beat so the destinations' heartbeats can
    // reflect the newly placed work before the next placement.
    co_await sim::delay(host_->engine(), 1.0);
  }
}

xmlproto::ConsultMsg Registry::forward_consult(
    const xmlproto::ConsultMsg& consult, const ProcessEntry& process) const {
  xmlproto::ConsultMsg forwarded = consult;
  if (forwarded.origin_registry.empty()) {
    forwarded.origin_registry = host_->name();
  }
  forwarded.pid = process.pid;
  forwarded.process_name = process.name;
  forwarded.schema_name = process.schema_name;
  if (forwarded.commander_port == 0) {
    if (const auto it = hosts_.find(consult.host); it != hosts_.end()) {
      forwarded.commander_port = it->second.commander_port;
    }
  }
  return forwarded;
}

bool Registry::route_to_child(const xmlproto::ConsultMsg& consult,
                              obs::TraceCtx ctx) {
  // A routed consult must carry the child's process selection and a
  // command return-path; without them the receiving domain could decide
  // nothing.
  if (consult.pid == 0 || consult.commander_port == 0) {
    return false;
  }
  ChildDomain* best = nullptr;
  const std::string* best_name = nullptr;
  int best_available = 0;
  for (auto& [name, child] : children_) {
    if (name == consult.origin_registry || child.port == 0) {
      continue;
    }
    // Conservative capacity estimate: reported free hosts minus consults
    // already routed there since that report.
    const int available = child.free_hosts - child.routed_consults;
    if (available <= 0) {
      continue;
    }
    if (best == nullptr || available > best_available) {
      best = &child;
      best_name = &name;
      best_available = available;
    }
  }
  if (best == nullptr) {
    return false;
  }
  ++best->routed_consults;
  send_to(*best_name, best->port, consult, ctx);
  if (metrics() != nullptr) {
    metrics()->counter("registry.consults_routed").inc();
  }
  if (obs::active(tracer())) {
    obs::Attrs attrs{{"child", *best_name}, {"source", consult.host}};
    obs::stamp(attrs, ctx);
    tracer()->instant("registry.consult_routed", "scheduler", host_->name(),
                      std::move(attrs));
  }
  return true;
}

sim::Task<> Registry::decide(xmlproto::ConsultMsg consult, obs::TraceCtx ctx) {
  obs::Tracer* tracer = this->tracer();
  std::uint64_t decide_span = 0;
  if (obs::active(tracer)) {
    obs::Attrs attrs{{"source", consult.host}, {"reason", consult.reason}};
    obs::stamp(attrs, ctx);
    decide_span = tracer->begin_span("scheduler.decide", "scheduler",
                                     host_->name(), std::move(attrs));
  }
  // Everything this decision sends descends from the decide span.
  const obs::TraceCtx out_ctx = ctx.child_of(decide_span);
  if (metrics() != nullptr) {
    metrics()->counter("scheduler.consults").inc();
  }
  const auto record = [this, tracer, decide_span,
                       out_ctx](const Decision& decision,
                                const char* outcome) {
    decisions_.push_back(decision);
    if (metrics() != nullptr) {
      metrics()
          ->histogram("scheduler.decision_latency", {},
                      {1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1.0})
          .observe(decision.decision_latency);
      metrics()
          ->counter("scheduler.decisions", {{"outcome", outcome}})
          .inc();
    }
    if (obs::active(tracer)) {
      trace_decision(decision, outcome, out_ctx);
      tracer->end_span(decide_span, {{"outcome", outcome}});
    }
  };
  // The measured decision latency (~0.002 s in §5.2).
  co_await sim::delay(host_->engine(), kDecisionDelay);
  const double now = host_->engine().now();

  Decision decision;
  decision.at = now;
  decision.source = consult.host;
  decision.decision_latency = kDecisionDelay;

  const ProcessEntry* process = select_process(consult.host);
  // An escalated consult carries the child's selection; adopt it when the
  // process is unknown locally.
  const ProcessEntry carried{.host = consult.host,
                             .pid = consult.pid,
                             .name = consult.process_name,
                             .schema_name = consult.schema_name};
  if (process == nullptr && consult.pid != 0) {
    process = &carried;
  }
  if (process == nullptr) {
    ARS_LOG_INFO("registry", "consult from " << consult.host << " ("
                                             << consult.reason
                                             << "): no migratable process");
    record(decision, "no-process");
    co_return;
  }
  decision.pid = process->pid;
  decision.process_name = process->name;

  const HostEntry* dest =
      place(consult.host, process->schema_name, &decision.why_not, nullptr);
  if (dest == nullptr && !config_.parent_host.empty()) {
    // Hierarchical escalation: ask the parent registry.
    decision.escalated = true;
    xmlproto::ConsultMsg escalate = forward_consult(consult, *process);
    escalate.reason =
        consult.reason + " (escalated by " + host_->name() + ")";
    send_to(config_.parent_host, config_.parent_port, escalate, out_ctx);
    record(decision, "escalated");
    co_return;
  }
  if (dest == nullptr) {
    // Top of the hierarchy with no local candidate: balance across child
    // domains using their health-report capacity counts.
    if (route_to_child(forward_consult(consult, *process), out_ctx)) {
      decision.escalated = true;
      record(decision, "routed");
      co_return;
    }
    ARS_LOG_INFO("registry", "no destination for " << process->name
                                                   << " off "
                                                   << consult.host);
    record(decision, "no-destination");
    co_return;
  }
  decision.destination = dest->info.host;

  const auto source_it = hosts_.find(consult.host);
  int source_port =
      source_it != hosts_.end() ? source_it->second.commander_port : 0;
  if (source_port == 0) {
    source_port = consult.commander_port;
  }
  if (source_port == 0) {
    // Update-before-Register ghost source: no command path is known, and
    // a port-0 post would be dropped on the floor by the network.
    if (metrics() != nullptr) {
      metrics()->counter("registry.commands_unroutable").inc();
    }
    record(decision, "source-unreachable");
    co_return;
  }
  record(decision, "migrate");

  // Note the migration so the selector does not immediately re-choose it.
  for (ProcessRecord* booked : booked_on(process->host)) {
    if (booked->process.pid == process->pid) {
      booked->process.last_migrated_at = now;
    }
  }
  ARS_LOG_INFO("registry", "decision: migrate " << process->name << " from "
                                                << consult.host << " to "
                                                << dest->info.host);
  command_migration(*process, source_port, *dest, out_ctx);
}

void Registry::command_migration(const ProcessEntry& process, int source_port,
                                 const HostEntry& dest, obs::TraceCtx ctx) {
  xmlproto::MigrateCmd command;
  command.pid = process.pid;
  command.process_name = process.name;
  command.dest_host = dest.info.host;
  command.dest_ip = dest.info.ip;
  command.dest_port = dest.commander_port;
  command.schema_name = process.schema_name;
  send_to(process.host, source_port, command, ctx);
  // The claim debits `dest` until the source commander reports the outcome.
  MigrationClaim& claim = record_of(process.name).claim.emplace();
  claim.dest = dest.info.host;
  claim.schema_name = process.schema_name;
  claim.at = host_->engine().now();
  claim.order = ++ledger_clock_;
  if (const auto it = schemas_.find(process.schema_name);
      it != schemas_.end()) {
    claim.memory_bytes = it->second.requirements().min_memory_bytes;
    claim.disk_bytes = it->second.requirements().min_disk_bytes;
  }
  if (metrics() != nullptr) {
    metrics()->gauge("registry.placements_inflight")
        .set(static_cast<double>(inflight_placements()));
  }
}

std::string Registry::decision_log() const {
  std::string out;
  out.reserve(decisions_.size() * 64);
  char stamp[32];
  for (const Decision& decision : decisions_) {
    std::snprintf(stamp, sizeof stamp, "%.6f", decision.at);
    out += stamp;
    out += ' ';
    out += decision.source;
    out += " -> ";
    out += decision.destination.empty() ? "-" : decision.destination;
    out += " pid=";
    out += std::to_string(decision.pid);
    out += " name=";
    out += decision.process_name;
    if (decision.escalated) {
      out += " escalated";
    }
    if (decision.restart) {
      out += " restart";
    }
    out += '\n';
  }
  return out;
}

}  // namespace ars::registry
