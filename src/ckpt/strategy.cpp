#include "ars/ckpt/strategy.hpp"

#include <algorithm>

namespace ars::ckpt {

namespace {

/// Concurrent writes admitted before the store is declared saturated.
constexpr int kMaxConcurrent = 2;
/// Base defer backoff; scaled by how crowded the store is.
constexpr double kDeferRetry = 5.0;
/// A requester this many times riskier than the least-risky active write
/// preempts it (risk = elapsed / Young-Daly interval).
constexpr double kPreemptRiskRatio = 2.0;
/// Admitted writes are reaped after this long without a done/abort (lost
/// message, crashed host) so slots cannot leak.
constexpr double kSlotTtl = 120.0;

}  // namespace

Admission IoScheduler::request(const std::string& process,
                               const std::string& host, double risk,
                               double now) {
  // A requester that already holds a slot keeps it (a retry after a lost
  // grant must not double-book).
  if (const auto it = active_.find(process); it != active_.end()) {
    it->second.risk = risk;
    it->second.admitted_at = now;
    Admission admission;
    admission.verb = Admission::Verb::kAdmit;
    return admission;
  }
  if (static_cast<int>(active_.size()) < kMaxConcurrent) {
    active_.emplace(process, Slot{host, risk, now});
    ++admitted_;
    Admission admission;
    admission.verb = Admission::Verb::kAdmit;
    return admission;
  }
  // Saturated: preempt the least-risky active write if the requester is
  // disproportionately overdue, otherwise defer with a backoff scaled by
  // how crowded the store is.
  auto victim = active_.end();
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (victim == active_.end() || it->second.risk < victim->second.risk) {
      victim = it;
    }
  }
  if (victim != active_.end() &&
      risk >= victim->second.risk * kPreemptRiskRatio &&
      risk > 1.0) {
    Admission admission;
    admission.verb = Admission::Verb::kPreempt;
    admission.preempt_victim = victim->first;
    admission.victim_host = victim->second.host;
    admission.retry_after = kDeferRetry;
    active_.erase(victim);
    active_.emplace(process, Slot{host, risk, now});
    ++preemptions_;
    ++admitted_;
    return admission;
  }
  ++deferred_;
  Admission admission;
  admission.verb = Admission::Verb::kDefer;
  const double crowding =
      static_cast<double>(active_.size()) / static_cast<double>(kMaxConcurrent);
  admission.retry_after = kDeferRetry * std::max(1.0, crowding);
  return admission;
}

void IoScheduler::release(const std::string& process) {
  active_.erase(process);
}

std::vector<std::string> IoScheduler::expire(double now) {
  std::vector<std::string> reaped;
  for (auto it = active_.begin(); it != active_.end();) {
    if (now - it->second.admitted_at >= kSlotTtl) {
      reaped.push_back(it->first);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  return reaped;
}

}  // namespace ars::ckpt
