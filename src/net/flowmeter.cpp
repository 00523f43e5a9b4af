#include "ars/net/flowmeter.hpp"

#include <algorithm>
#include <cassert>

namespace ars::net {

namespace {
// Segments that ended more than this long before the newest one are
// dropped; every sensor window is far shorter.
constexpr double kRetentionSeconds = 3600.0;
}  // namespace

void FlowMeter::add(double t0, double t1, double bytes) {
  if (bytes <= 0.0) {
    return;
  }
  if (t1 < t0) {
    std::swap(t0, t1);
  }
  assert((segments_.empty() || segments_.back().end <= t1) &&
         "FlowMeter segments must be added in non-decreasing end order");
  segments_.push_back(Segment{t0, t1, bytes});
  total_ += bytes;
  prune(t1);
}

void FlowMeter::prune(double now) {
  const double horizon = now - kRetentionSeconds;
  while (!segments_.empty() && segments_.front().end < horizon) {
    segments_.pop_front();
  }
}

double FlowMeter::bytes_between(double t0, double t1) const noexcept {
  // A segment that ended before t0 adds nothing (a burst is counted only
  // at or after t0, a span only for positive overlap), and ends are
  // non-decreasing, so the sum starts at the first segment ending at or
  // after t0.  Skipping only terms the sum never adds keeps it exact.
  const auto first = std::partition_point(
      segments_.begin(), segments_.end(),
      [t0](const Segment& segment) { return segment.end < t0; });
  double bytes = 0.0;
  for (auto it = first; it != segments_.end(); ++it) {
    const Segment& segment = *it;
    if (segment.end <= segment.begin) {
      // Instantaneous burst: counted if inside the window.
      if (segment.begin >= t0 && segment.begin <= t1) {
        bytes += segment.bytes;
      }
      continue;
    }
    const double overlap = std::min(segment.end, t1) -
                           std::max(segment.begin, t0);
    if (overlap > 0.0) {
      bytes += segment.bytes * overlap / (segment.end - segment.begin);
    }
  }
  return bytes;
}

double FlowMeter::rate_bps(double window, double now) const noexcept {
  if (window <= 0.0) {
    return 0.0;
  }
  return bytes_between(now - window, now) / window;
}

}  // namespace ars::net
