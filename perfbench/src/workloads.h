// The perfbench workloads and what one run of them reports.
//
//   cold-batch  DE, closed loop, 1 BATCH in flight; every BATCH is 8
//               jobs (GD-sum, R-List-max, IER-max, Exact-max, APX-sum
//               in turn) over one freshly drawn P. Every source misses
//               the cache, so engine, fann and sp do the work.
//   waves-subs  TEST, GD-sum BATCHes beside periodic congestion waves and
//               standing GD / R-List subscriptions, so dynamic, cont and
//               executor ordering do the work.
//   routed-gd   cold GD-sum BATCHes through a FannRouter in front of two
//               shard servers, so the router's path adds its share.
// README.md beside this file gives the full rationale and metric map.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span dump of the traced run ("" = none).
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  /// False when the run could not measure (set-up failure, transport
  /// failure, too few samples for a tail); `error` says why.
  bool valid = false;
  std::string error;
  /// Every answer checked equal to the in-process reference.
  bool correct = false;
  size_t mismatches = 0;
  size_t attempted = 0;
  size_t failed = 0;
  /// The load shape, for the provenance block.
  size_t connections = 0;
  size_t servers = 0;
  size_t engine_threads = 0;
  /// The metrics the benchmark contract names: end-to-end ones in the
  /// timed run, per-layer ones in the traced run.
  std::vector<Metric> metrics;
  /// Everything else the run measured for this workload: the
  /// workload-specific latencies by their operation names, layer metrics
  /// of layers only this workload exercises, and sample counts.
  std::vector<Metric> details;
};

bool IsWorkloadName(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Runs one workload end to end: synthesis, set-up (repeated, median
/// reported), the timed phases, answer checks, and in the traced run the
/// registry deltas and in-process layer probes.
RunResult RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
