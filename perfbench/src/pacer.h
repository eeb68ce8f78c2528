// Open-loop pacing: when each request is due, and how late the
// generator actually sent it.
//
// An open-loop client models independent users: requests arrive on a
// schedule fixed before the run, whatever the server is doing (here,
// congestion waves at a fixed period). Two rules keep a stalled
// generator or server from hiding latency ("coordinated omission"):
//   * a request's latency is measured from the moment it was DUE, not
//     from when the generator got round to sending it, so a stall
//     charges every request that queued up behind it;
//   * the generator records its own lateness (send time minus due
//     time) per request, reported as load.gen_late_ms.p99, so a run
//     whose generator could not keep the schedule is visible as such.
// The pacer is pure bookkeeping over an injected clock, which is what
// lets the unit tests inject a stall.

#ifndef PERFBENCH_PACER_H_
#define PERFBENCH_PACER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Releases scheduled requests as the clock passes their due times.
class OpenLoopPacer {
 public:
  /// `due_ns` ascending, relative to `start_ns`.
  OpenLoopPacer(std::vector<int64_t> due_ns, int64_t start_ns)
      : due_(std::move(due_ns)), start_ns_(start_ns) {}

  /// Calls send(index, due_ns) for every unreleased request whose due
  /// time is <= now_ns, in schedule order, and records each one's
  /// lateness. Returns how many were released.
  template <typename Send>
  size_t Release(int64_t now_ns, Send&& send) {
    size_t released = 0;
    while (next_ < due_.size() && DueAt(next_) <= now_ns) {
      lateness_ms_.push_back(static_cast<double>(now_ns - DueAt(next_)) /
                             1e6);
      send(next_, DueAt(next_));
      ++next_;
      ++released;
    }
    return released;
  }

  bool done() const { return next_ == due_.size(); }
  size_t size() const { return due_.size(); }
  /// Absolute due time of the next unreleased request (requires !done()).
  int64_t NextDue() const { return DueAt(next_); }
  int64_t DueAt(size_t i) const { return start_ns_ + due_[i]; }
  /// Per released request: send time minus due time, in ms.
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }

 private:
  std::vector<int64_t> due_;
  int64_t start_ns_;
  size_t next_ = 0;
  std::vector<double> lateness_ms_;
};

/// A request's latency: from when it was due until its answer arrived.
inline double LatencyFromDueMs(int64_t due_ns, int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) / 1e6;
}

}  // namespace perfbench

#endif  // PERFBENCH_PACER_H_
