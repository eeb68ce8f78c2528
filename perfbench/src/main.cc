// perfbench: runs one fannr benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The lines before it list the run's provenance and every
// workload-specific measurement. --out-dir also receives the same as a
// result file and, in the traced run, the span dump.
//
// Exit status: 0 after a valid run whose answers all checked; 1 when an
// answer mismatched (the result line is still printed, "correct":
// false); 2 when the run could not measure (usage, set-up or transport
// failure, too few samples) — no result line then.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-sha <sha>] [--source-digest <hex>]\nworkloads:",
               why);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !perfbench::IsWorkloadName(options.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!(options.seconds >= 1.0 && options.seconds <= 120.0)) {
    return Usage("--seconds must lie in [1, 120]");
  }

  const perfbench::RunResult run = perfbench::RunWorkload(options);
  if (!run.valid) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 run.error.c_str());
    return 2;
  }

  const std::string provenance =
      "{\"host\": {\"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      "}, \"build\": {\"compiler\": " + JsonString(Compiler()) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"git_sha\": " + JsonString(git_sha) +
      ", \"source_digest\": " + JsonString(source_digest) +
      "}, \"run\": {\"workload\": " + JsonString(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + JsonNumber(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"generator_threads\": 1, \"connections\": " +
      std::to_string(run.connections) +
      ", \"servers\": " + std::to_string(run.servers) +
      ", \"io_threads_per_server\": 1, \"engine_workers_per_server\": " +
      std::to_string(run.engine_threads) + "}}";
  const std::string result_line =
      std::string("{\"correct\": ") + (run.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(run.attempted) +
      ", \"failed\": " + std::to_string(run.failed) +
      ", \"metrics\": " + MetricsJson(run.metrics) + "}";

  std::printf("perfbench %s seed=%llu trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const perfbench::Metric& metric : run.details) {
    std::printf("  %-40s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (!run.correct) std::printf("  %s\n", run.error.c_str());
  std::printf("provenance %s\n", provenance.c_str());
  std::printf("details %s\n", MetricsJson(run.details).c_str());

  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/result-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             "-trace" + (options.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\"provenance\": " << provenance
        << ",\n \"details\": " << MetricsJson(run.details)
        << ",\n \"result\": " << result_line << "}\n";
  }
  std::printf("%s\n", result_line.c_str());
  std::fflush(stdout);
  return run.correct ? 0 : 1;
}
