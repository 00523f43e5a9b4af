#include "ars/chaos/invariants.hpp"

#include <map>
#include <set>

#include "ars/obs/tracer.hpp"

namespace ars::chaos {

std::string InvariantReport::summary() const {
  if (ok()) {
    return "ok";
  }
  std::string text;
  for (const Violation& violation : violations) {
    if (!text.empty()) {
      text += "\n";
    }
    text += violation.invariant + " [" + violation.subject + "]: " +
            violation.detail;
  }
  return text;
}

void InvariantChecker::expect_app(std::string process_name) {
  expected_apps_.push_back(std::move(process_name));
}

void InvariantChecker::expect_alive(std::string host_name) {
  expected_alive_.push_back(std::move(host_name));
}

InvariantReport InvariantChecker::check() const {
  InvariantReport report;
  report.apps_checked = expected_apps_.size();
  report.hosts_checked = expected_alive_.size();
  const auto violate = [&report](std::string invariant, std::string subject,
                                 std::string detail) {
    report.violations.push_back(Violation{
        std::move(invariant), std::move(subject), std::move(detail)});
  };

  // Trace completeness: the invariants below count trace events, so a ring
  // that evicted some cannot prove them.
  const obs::Tracer& tracer = runtime_->tracer();
  if (tracer.dropped() > 0) {
    violate("trace-complete", "tracer",
            std::to_string(tracer.dropped()) +
                " events evicted by the trace ring's capacity bound");
  }

  // Scan the trace once: exits per process, resumes, relaunches.
  std::map<std::string, int> exits;       // process name -> exit count
  std::size_t resumed_events = 0;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.kind != obs::EventKind::kInstant) {
      continue;
    }
    if (event.name == "process.exit") {
      ++exits[event.track];
      ++report.exits_seen;
    } else if (event.name == "migration.resumed") {
      ++resumed_events;
    } else if (event.name == "process.relaunch") {
      ++report.relaunches_seen;
    } else if (event.name == "ckpt.torn_restore") {
      ++report.torn_restores;
      violate("no-torn-checkpoint", event.track,
              "relaunch restored an incomplete checkpoint");
    }
  }

  // Exactly-once completion.
  const bool quiesced = runtime_->engine().pending_events() == 0;
  for (const std::string& app : expected_apps_) {
    const auto it = exits.find(app);
    const int count = it == exits.end() ? 0 : it->second;
    if (count == 1) {
      continue;
    }
    if (count > 1) {
      violate("exactly-once-finish", app,
              "finished " + std::to_string(count) + " times");
    } else if (quiesced) {
      violate("deadlock-watchdog", app,
              "sim time quiesced with the application unfinished");
    } else {
      violate("exactly-once-finish", app, "did not finish by the horizon");
    }
  }

  // No double-live instance: a process name on more than one host at once.
  std::map<std::string, std::set<std::string>> live_on;
  for (const std::string& host_name : runtime_->host_names()) {
    for (const host::ProcessInfo& info :
         runtime_->host(host_name).processes().snapshot()) {
      if (info.migration_enabled) {
        live_on[info.name].insert(host_name);
      }
    }
  }
  for (const auto& [name, hosts] : live_on) {
    if (hosts.size() > 1) {
      std::string where;
      for (const std::string& host_name : hosts) {
        where += (where.empty() ? "" : ", ") + host_name;
      }
      violate("single-live-instance", name, "live on " + where);
    }
  }

  // Exactly-once migration: the middleware's succeeded timelines and the
  // trace's resume events must agree one-to-one.
  for (const hpcm::MigrationTimeline& timeline :
       runtime_->middleware().history()) {
    if (timeline.succeeded) {
      ++report.migrations_succeeded;
    }
    if (timeline.outcome == "aborted") {
      ++report.migrations_aborted;
    } else if (timeline.outcome == "rolled-back") {
      ++report.migrations_rolled_back;
    }
  }
  if (resumed_events != report.migrations_succeeded) {
    violate("exactly-once-migration", "middleware",
            std::to_string(report.migrations_succeeded) +
                " migrations succeeded but " +
                std::to_string(resumed_events) + " resume events recorded");
  }

  // No stranded work: a restart parked on the retry list means a lost
  // process was never placed — every park must drain by the horizon, once
  // the faults heal and capacity returns (pairs with exactly-once-finish:
  // parked work may finish late, but never zero times and never silently).
  for (const registry::ProcessEntry& process :
       runtime_->scheduler().stranded()) {
    violate("no-stranded-work", process.name,
            "restart still parked on the retry list at the horizon");
  }

  // No lost process: an aborted (pre-commit) or rolled-back (post-commit)
  // migration must leave exactly one live or restartable instance — the
  // process finished, is live on some host, is parked for relaunch in the
  // middleware, or is on the registry's retry list.  Anything else means
  // the transaction destroyed the application.
  std::set<std::string> restartable;
  for (const std::string& name : runtime_->middleware().parked_for_relaunch()) {
    restartable.insert(name);
  }
  for (const registry::ProcessEntry& process :
       runtime_->scheduler().stranded()) {
    restartable.insert(process.name);
  }
  for (const hpcm::MigrationTimeline& timeline :
       runtime_->middleware().history()) {
    if (timeline.outcome != "aborted" && timeline.outcome != "rolled-back") {
      continue;
    }
    const auto exited = exits.find(timeline.process);
    const bool finished = exited != exits.end() && exited->second > 0;
    const bool live = live_on.count(timeline.process) > 0;
    if (!finished && !live && restartable.count(timeline.process) == 0) {
      violate("no-lost-process", timeline.process,
              "migration " + timeline.outcome + " (" +
                  timeline.abort_reason + " in " + timeline.abort_phase +
                  ") left no live or restartable instance");
    }
  }

  // No lost rank: at every terminal resize outcome the malleable engine
  // counted spawned children still alive outside membership (ground truth
  // against the mpi process table); any ghost means a grow/shrink
  // transaction leaked a rank.  Aborts must also restore the original
  // world size, and a job whose root survived must finish.
  malleable::MalleableEngine& malleable = runtime_->malleable();
  report.ghost_ranks = malleable.ghost_ranks();
  if (report.ghost_ranks > 0) {
    violate("no-lost-rank", "malleable",
            std::to_string(report.ghost_ranks) +
                " rank(s) alive outside membership at outcome time");
  }
  for (const malleable::ResizeOutcome& outcome : malleable.history()) {
    ++report.resizes_checked;
    if (outcome.outcome == malleable::kAborted &&
        outcome.ranks_after != outcome.ranks_before) {
      violate("no-lost-rank", outcome.job,
              "aborted " + std::string(malleable::verb_name(outcome.verb)) +
                  " moved the world from " +
                  std::to_string(outcome.ranks_before) + " to " +
                  std::to_string(outcome.ranks_after) + " ranks");
    }
  }
  for (const std::string& job : malleable.job_names()) {
    if (malleable.failed(job)) {
      continue;  // a dead root legitimately tears the job down
    }
    if (!malleable.finished(job)) {
      violate(quiesced ? "deadlock-watchdog" : "malleable-job-finish", job,
              "malleable job unfinished at the horizon");
    }
  }

  // Lease convergence: every host expected alive must have re-registered
  // (entry present) and escaped `unavailable` once the faults healed.
  for (const std::string& host_name : expected_alive_) {
    const auto state = runtime_->scheduler().host_state(host_name);
    if (!state.has_value()) {
      violate("lease-convergence", host_name,
              "not in the registry's host table at the horizon");
    } else if (*state == rules::SystemState::kUnavailable) {
      violate("lease-convergence", host_name,
              "still marked unavailable at the horizon");
    }
  }

  return report;
}

}  // namespace ars::chaos
