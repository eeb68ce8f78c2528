// A lock-cheap metrics registry for the query engine.
//
// Production batch execution needs to answer "what did the pool, the
// cache, and the solvers actually do" without perturbing the hot path.
// The registry therefore separates the write side from the read side:
//
//   * Metrics are registered up front (by name, returning a typed
//     handle). Registration takes a mutex and is meant for construction
//     time, not the hot path.
//   * Counter/histogram updates go to a per-shard slot — callers pass
//     their worker id as the shard — so concurrent workers touch
//     distinct cache lines and never contend. Updates are relaxed
//     atomics: wait-free, no fences on the query path.
//   * Reads merge the shards into a MetricsSnapshot. Totals are exact
//     once the writers have quiesced (e.g. after ParallelFor's barrier),
//     which is the only time the engine reads them.
//
// Histograms use fixed bucket upper bounds chosen at registration.
// Percentile extraction is exact in rank (the rank is located in the
// merged bucket counts, never sampled) and bucket-resolution in value:
// the reported value interpolates linearly inside the located bucket and
// is clamped to the exact observed [min, max], so single-sample and
// boundary cases come out exact. See HistogramSnapshot::Percentile.

#ifndef FANNR_OBS_METRICS_H_
#define FANNR_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fannr::obs {

/// Typed handles into a MetricsRegistry. Cheap to copy; only valid for
/// the registry that issued them.
struct CounterId {
  size_t index = 0;
};
struct GaugeId {
  size_t index = 0;
};
struct HistogramId {
  size_t index = 0;
};

/// The 1-based nearest rank of percentile `p` (clamped to [0, 100])
/// among `n` samples: the smallest rank r >= 1 with r/n >= p/100. The
/// one percentile definition of the repository — histograms locate this
/// rank in their bucket counts, and exact-sample percentiles (the
/// serving benches) index their sorted samples with it.
uint64_t NearestRank(uint64_t n, double p);

/// Merged view of one histogram: bucket counts plus exact count/sum and
/// observed extrema.
struct HistogramSnapshot {
  /// Inclusive upper bounds per bucket, ascending; an implicit overflow
  /// bucket (counts.back()) catches values above bounds.back().
  std::vector<double> bounds;
  /// bounds.size() + 1 entries (last = overflow bucket).
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Value at percentile `p` in [0, 100]. Exact-rank selection over the
  /// merged bucket counts with linear interpolation inside the bucket,
  /// clamped to the observed [min, max]. Returns 0 when empty.
  double Percentile(double p) const;

  /// Adds one observation to this (single-threaded) snapshot. Used to
  /// build standalone histograms — e.g. the per-batch solve-latency
  /// histogram — outside a registry. `bounds`/`counts` must be
  /// initialized (counts.size() == bounds.size() + 1).
  void Accumulate(double value);
};

/// Point-in-time merged view of every metric in a registry.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Lookup by name; 0 / empty snapshot when absent.
  uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;
};

/// Default latency bucket bounds (milliseconds): a 1-2-5 geometric ladder
/// from 10 microseconds to 10 seconds, 19 buckets. Suits per-query solve
/// times from the TEST preset up to continental road networks.
std::vector<double> DefaultLatencyBucketsMs();

/// The registry. One instance per BatchQueryEngine (or any other
/// component that wants isolated metrics). Thread-safety contract:
/// Register* calls are serialized internally but must not race with
/// Add/Record/Snapshot; Add/Record are wait-free and may race freely
/// with each other; Snapshot totals are exact once writers quiesce.
class MetricsRegistry {
 public:
  /// `num_shards` is the number of independent writer lanes (use the
  /// worker count; minimum 1 enforced). Shard ids passed to Add/Record
  /// must be < num_shards().
  explicit MetricsRegistry(size_t num_shards = 1);

  size_t num_shards() const { return num_shards_; }

  CounterId RegisterCounter(std::string name);
  GaugeId RegisterGauge(std::string name);
  /// `bucket_bounds` must be ascending and non-empty.
  HistogramId RegisterHistogram(std::string name,
                                std::vector<double> bucket_bounds);

  /// Adds `delta` to the counter's shard slot. Wait-free.
  void Add(CounterId id, uint64_t delta, size_t shard = 0);

  /// Sets the gauge (gauges are last-writer-wins, unsharded).
  void Set(GaugeId id, double value);

  /// Records one observation into the histogram's shard slot. Wait-free
  /// except for the sum/min/max scalars, which use relaxed atomic
  /// read-modify-write per shard (uncontended: one writer per shard).
  void Record(HistogramId id, double value, size_t shard = 0);

  /// Merges all shards. Exact once writers have quiesced.
  MetricsSnapshot Snapshot() const;

 private:
  // One cache line per (metric, shard) slot so workers never false-share.
  struct alignas(64) CounterSlot {
    std::atomic<uint64_t> value{0};
  };
  struct alignas(64) HistogramShard {
    std::vector<std::atomic<uint64_t>> counts;  // bounds.size() + 1
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
    std::atomic<bool> has_value{false};
  };
  struct CounterMetric {
    std::string name;
    std::vector<CounterSlot> shards;
  };
  struct GaugeMetric {
    std::string name;
    // Same one-line-per-writer rule as the sharded slots: gauges are
    // unsharded, so keep the atomic off the neighboring metric's line.
    alignas(64) std::atomic<double> value{0.0};
  };
  struct HistogramMetric {
    std::string name;
    std::vector<double> bounds;
    std::vector<HistogramShard> shards;
  };

  size_t num_shards_;
  mutable std::mutex register_mu_;
  // unique_ptr indirection keeps metric storage at a stable address;
  // handle access on the hot path is a plain index, no lock (the
  // contract forbids racing registration against Add/Record).
  std::vector<std::unique_ptr<CounterMetric>> counters_;
  std::vector<std::unique_ptr<GaugeMetric>> gauges_;
  std::vector<std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace fannr::obs

#endif  // FANNR_OBS_METRICS_H_
