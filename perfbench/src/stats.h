// Sample statistics shared by every perfbench metric.
//
// One percentile definition for the whole benchmark: nearest-rank, the
// definition the obs histograms use (src/obs/metrics.h locates the rank
// ceil(p * n) in the merged bucket counts). For q in (0, 1] the
// q-quantile of n sorted samples is the sample at 1-based rank
// ceil(q * n). A tail percentile is reported only when at least
// kMinSamplesBeyond samples lie beyond it; below that, one outlier more
// or less moves the number, and the run is refused instead.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile `q` in (0, 1] among `n` samples.
inline size_t NearestRank(size_t n, double q) {
  const double scaled = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(scaled, 1.0)), 1,
                            n);
}

/// Samples strictly beyond the q-quantile's rank.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

/// True when the q-quantile of `n` samples has enough samples beyond it
/// to be reported.
inline bool TailValid(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// Nearest-rank q-quantile of `samples` (copied and partially sorted);
/// 0 when empty.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t k = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

/// A value observed at a time: a latency at its completion, or a count
/// of results at the moment they arrived.
struct Sample {
  int64_t t_ns = 0;
  double value = 0.0;
};

// The bounded end-to-end statistics are medians over time windows of a
// phase. Each window is at least 1 s long and, for a q-quantile, holds
// on average at least kMinSamplesBeyond / (1 - q) samples, so the
// window's tail has ten samples beyond it. On the reference host (a
// 4-vCPU microVM) the hypervisor leaves the process seconds-long
// stretches at a fraction of its usual speed. A whole-phase p50 moves
// with how much of the run such a stretch covers; the median window
// does not move until the stretch covers half the run.

/// Windows for `samples` over `span_ns`: one per whole second, fewer
/// when there are not `min_per_window` samples per window; at least 1.
inline size_t WindowCount(int64_t span_ns, size_t samples,
                          size_t min_per_window) {
  const size_t by_time = static_cast<size_t>(span_ns / 1'000'000'000);
  return std::max<size_t>(1, std::min(by_time, samples / min_per_window));
}

/// Bins samples into `windows` equal slices of [start_ns, end_ns); a
/// sample outside the span goes to the nearest end slice.
inline std::vector<std::vector<double>> Bin(const std::vector<Sample>& samples,
                                            int64_t start_ns, int64_t end_ns,
                                            size_t windows) {
  const int64_t span = std::max<int64_t>(end_ns - start_ns, 1);
  std::vector<std::vector<double>> bins(windows);
  for (const Sample& s : samples) {
    const int64_t offset = std::clamp<int64_t>(s.t_ns - start_ns, 0, span - 1);
    bins[static_cast<size_t>(offset * static_cast<int64_t>(windows) / span)]
        .push_back(s.value);
  }
  return bins;
}

/// Median over the windows of [start_ns, end_ns) of each window's
/// nearest-rank q-quantile.
inline double WindowedQuantile(const std::vector<Sample>& samples,
                               int64_t start_ns, int64_t end_ns, double q) {
  const auto per_window = static_cast<size_t>(std::ceil(
      static_cast<double>(kMinSamplesBeyond) / (1.0 - std::min(q, 0.99))));
  const size_t windows =
      WindowCount(end_ns - start_ns, samples.size(), per_window);
  std::vector<double> per_bin;
  for (std::vector<double>& bin : Bin(samples, start_ns, end_ns, windows)) {
    if (!bin.empty()) per_bin.push_back(Quantile(std::move(bin), q));
  }
  return Quantile(std::move(per_bin), 0.5);
}

/// Median over the windows of [start_ns, end_ns) of each window's sum
/// of values per second. Windows hold at least 100 samples on average,
/// so one sample more or less moves a window by about 1%; fewer samples
/// make one window, the mean rate.
inline double WindowedRate(const std::vector<Sample>& events,
                           int64_t start_ns, int64_t end_ns) {
  const size_t windows = WindowCount(end_ns - start_ns, events.size(), 100);
  const double window_s = static_cast<double>(end_ns - start_ns) / 1e9 /
                          static_cast<double>(windows);
  std::vector<double> rates;
  for (const std::vector<double>& bin :
       Bin(events, start_ns, end_ns, windows)) {
    double sum = 0.0;
    for (double v : bin) sum += v;
    rates.push_back(sum / window_s);
  }
  return Quantile(std::move(rates), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
