// In-memory span log for the traced run.
//
// The benchmark records a span around each call it makes into a layer
// (a request on the wire, an in-process solve, an SSSP, an update
// apply, a set-up step). Spans carry a name, start and end on the
// steady clock, the id of the span that caused them, and a request id
// shared by every span of one request. Nothing is written while the
// run measures; Write() dumps the log as JSON once the run is over.
// Disabled (the untimed default), every call is a branch and a return.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  static constexpr uint32_t kNoParent = 0;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled). `name`
  /// must be a string literal (stored by pointer).
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint32_t parent = kNoParent, uint64_t request = 0) {
    if (!enabled_) return 0;
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<uint32_t>(spans_.size());
  }

  /// Opens a span that ends at End(id); returns its id (0 when
  /// disabled). Children may name it as parent before it ends.
  uint32_t Begin(const char* name, uint32_t parent = kNoParent,
                 uint64_t request = 0) {
    return Add(name, NowNs(), 0, parent, request);
  }
  void End(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = NowNs();
  }

  size_t size() const { return spans_.size(); }

  /// Writes {"spans": [{id, name, start_us, end_us, parent, request}]},
  /// times relative to the first span's start. False on I/O failure.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    std::fprintf(f, "{\"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %u, \"request\": %llu}",
                   i ? "," : "", i + 1, s.name,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - origin) / 1e3, s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t parent;
    uint64_t request;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Scoped span: open from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name,
             uint32_t parent = SpanLog::kNoParent)
      : log_(log), id_(log.Begin(name, parent)) {}
  ~ScopedSpan() { log_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
