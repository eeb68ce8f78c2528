#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace fannr::obs {

uint64_t NearestRank(uint64_t n, double p) {
  p = std::clamp(p, 0.0, 100.0);
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  const uint64_t rank = NearestRank(count, p);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (cumulative < rank) continue;
    // The ranked sample lies in bucket b: interpolate between the
    // bucket's bounds by the rank's position within the bucket, then
    // clamp to the exact observed extrema (which makes single-sample
    // and all-in-one-bucket histograms exact at the extremes).
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper = b < bounds.size() ? bounds[b] : max;
    const uint64_t in_bucket = counts[b];
    const uint64_t before = cumulative - in_bucket;
    const double fraction =
        in_bucket == 0
            ? 1.0
            : static_cast<double>(rank - before) /
                  static_cast<double>(in_bucket);
    const double value = lower + (upper - lower) * fraction;
    return std::clamp(value, min, max);
  }
  return max;
}

void HistogramSnapshot::Accumulate(double value) {
  FANNR_DCHECK(counts.size() == bounds.size() + 1);
  const size_t bucket =
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin();
  ++counts[bucket];
  sum += value;
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
}

uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

std::vector<double> DefaultLatencyBucketsMs() {
  return {0.01, 0.02, 0.05, 0.1,  0.2,  0.5,    1.0,    2.0,     5.0, 10.0,
          20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0};
}

MetricsRegistry::MetricsRegistry(size_t num_shards)
    : num_shards_(std::max<size_t>(1, num_shards)) {}

CounterId MetricsRegistry::RegisterCounter(std::string name) {
  std::lock_guard<std::mutex> lock(register_mu_);
  auto metric = std::make_unique<CounterMetric>();
  metric->name = std::move(name);
  metric->shards = std::vector<CounterSlot>(num_shards_);
  counters_.push_back(std::move(metric));
  return CounterId{counters_.size() - 1};
}

GaugeId MetricsRegistry::RegisterGauge(std::string name) {
  std::lock_guard<std::mutex> lock(register_mu_);
  auto metric = std::make_unique<GaugeMetric>();
  metric->name = std::move(name);
  gauges_.push_back(std::move(metric));
  return GaugeId{gauges_.size() - 1};
}

HistogramId MetricsRegistry::RegisterHistogram(
    std::string name, std::vector<double> bucket_bounds) {
  FANNR_CHECK(!bucket_bounds.empty());
  FANNR_CHECK(std::is_sorted(bucket_bounds.begin(), bucket_bounds.end()));
  std::lock_guard<std::mutex> lock(register_mu_);
  auto metric = std::make_unique<HistogramMetric>();
  metric->name = std::move(name);
  metric->bounds = std::move(bucket_bounds);
  metric->shards = std::vector<HistogramShard>(num_shards_);
  for (HistogramShard& shard : metric->shards) {
    shard.counts = std::vector<std::atomic<uint64_t>>(
        metric->bounds.size() + 1);
  }
  histograms_.push_back(std::move(metric));
  return HistogramId{histograms_.size() - 1};
}

void MetricsRegistry::Add(CounterId id, uint64_t delta, size_t shard) {
  FANNR_DCHECK(id.index < counters_.size() && shard < num_shards_);
  counters_[id.index]->shards[shard].value.fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::Set(GaugeId id, double value) {
  FANNR_DCHECK(id.index < gauges_.size());
  gauges_[id.index]->value.store(value, std::memory_order_relaxed);
}

void MetricsRegistry::Record(HistogramId id, double value, size_t shard) {
  FANNR_DCHECK(id.index < histograms_.size() && shard < num_shards_);
  HistogramMetric& metric = *histograms_[id.index];
  HistogramShard& s = metric.shards[shard];
  // Bucket index: first bound >= value, else the overflow bucket.
  const size_t bucket =
      std::lower_bound(metric.bounds.begin(), metric.bounds.end(), value) -
      metric.bounds.begin();
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  // One writer per shard by convention, so plain RMW via load+store is
  // race-free within the shard; atomics keep cross-shard reads defined.
  s.sum.store(s.sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  if (!s.has_value.load(std::memory_order_relaxed)) {
    s.min.store(value, std::memory_order_relaxed);
    s.max.store(value, std::memory_order_relaxed);
    s.has_value.store(true, std::memory_order_relaxed);
  } else {
    if (value < s.min.load(std::memory_order_relaxed)) {
      s.min.store(value, std::memory_order_relaxed);
    }
    if (value > s.max.load(std::memory_order_relaxed)) {
      s.max.store(value, std::memory_order_relaxed);
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(register_mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& metric : counters_) {
    uint64_t total = 0;
    for (const CounterSlot& slot : metric->shards) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    snapshot.counters.emplace_back(metric->name, total);
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& metric : gauges_) {
    snapshot.gauges.emplace_back(
        metric->name, metric->value.load(std::memory_order_relaxed));
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& metric : histograms_) {
    HistogramSnapshot h;
    h.bounds = metric->bounds;
    h.counts.assign(metric->bounds.size() + 1, 0);
    bool any = false;
    for (const HistogramShard& shard : metric->shards) {
      for (size_t b = 0; b < h.counts.size(); ++b) {
        h.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
      }
      h.count += shard.count.load(std::memory_order_relaxed);
      h.sum += shard.sum.load(std::memory_order_relaxed);
      if (shard.has_value.load(std::memory_order_relaxed)) {
        const double shard_min = shard.min.load(std::memory_order_relaxed);
        const double shard_max = shard.max.load(std::memory_order_relaxed);
        if (!any) {
          h.min = shard_min;
          h.max = shard_max;
          any = true;
        } else {
          h.min = std::min(h.min, shard_min);
          h.max = std::max(h.max, shard_max);
        }
      }
    }
    snapshot.histograms.emplace_back(metric->name, std::move(h));
  }
  return snapshot;
}

}  // namespace fannr::obs
