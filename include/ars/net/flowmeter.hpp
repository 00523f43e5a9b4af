#pragma once
// Per-host, per-direction traffic meter.  Transfers accrue byte segments
// with uniform rate over their active intervals; sensors then ask for the
// bytes (or average rate) inside an arbitrary trailing window — exactly what
// the paper's communication-flow rules (Policy 3) and Figures 6/8 plot.
//
// Segments are kept in the order they were added, which is non-decreasing
// `end` order, for a fixed retention behind the newest one.  A window read
// binary-searches for the first segment that can overlap the window and
// sums forward from there: O(log n + k) for the k segments ending inside
// or after the window, however long the run.

#include "ars/support/ringbuffer.hpp"

namespace ars::net {

class FlowMeter {
 public:
  /// Accrue `bytes` spread uniformly over [t0, t1] (t1 > t0), or as an
  /// instantaneous burst when t1 == t0.  The segment's end, max(t0, t1),
  /// must not precede the end of any segment added before it (the network
  /// adds each accounting interval as time advances).
  void add(double t0, double t1, double bytes);

  /// Bytes that fell inside [t0, t1], counting proportional overlap.
  [[nodiscard]] double bytes_between(double t0, double t1) const noexcept;

  /// Average rate in bytes/second over the trailing `window` ending at `now`.
  [[nodiscard]] double rate_bps(double window, double now) const noexcept;

  [[nodiscard]] double total_bytes() const noexcept { return total_; }

 private:
  struct Segment {
    double begin = 0.0;
    double end = 0.0;
    double bytes = 0.0;
  };

  void prune(double now);

  support::RingBuffer<Segment> segments_;
  double total_ = 0.0;
};

}  // namespace ars::net
