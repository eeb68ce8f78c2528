// Cross-commit answer pin: one FNV-1a digest over every field of every
// FannResult of a fixed, seeded batch shaped like perfbench's cold-batch
// (a fresh P per 8-job batch, one Q per job, the five algorithm /
// aggregate pairs in turn) on the TEST preset.
//
// The determinism tests compare thread counts and schedules within one
// build, so a change that moves an answer bit the same way everywhere
// passes them. This test compares against a constant recorded before the
// shortest-path kernels were last rewritten: a kernel change that keeps
// the digest keeps every answer bit, work counter and status. A change
// that moves answers on purpose must say why and record a new constant.

#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/batch_engine.h"
#include "fann/fannr.h"
#include "graph/presets.h"
#include "workload/workload.h"

namespace fannr {
namespace {

class Fnv1a {
 public:
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

void AddResult(const FannResult& r, Fnv1a& digest) {
  digest.Add(r.best);
  digest.Add(std::bit_cast<uint64_t>(r.distance));
  digest.Add(r.subset.size());
  for (VertexId q : r.subset) digest.Add(q);
  digest.Add(r.gphi_evaluations);
  digest.Add(static_cast<uint64_t>(r.status));
}

struct ColdBatches {
  std::deque<IndexedVertexSet> sets;
  std::vector<FannrQuery> jobs;
};

// 6 batches x 8 jobs: each batch draws a fresh P (~25 vertices), each job
// its own Q (|Q| = 16 within 10% of the network radius, phi = 0.5), and
// the jobs cycle GD-sum, R-List-max, IER-max, Exact-max, APX-sum.
ColdBatches MakeColdBatches(const Graph& graph) {
  struct Pair {
    FannAlgorithm algorithm;
    Aggregate aggregate;
  };
  constexpr Pair kPairs[] = {
      {FannAlgorithm::kGd, Aggregate::kSum},
      {FannAlgorithm::kRList, Aggregate::kMax},
      {FannAlgorithm::kIer, Aggregate::kMax},
      {FannAlgorithm::kExactMax, Aggregate::kMax},
      {FannAlgorithm::kApxSum, Aggregate::kSum},
  };
  ColdBatches out;
  Rng rng(0xC01DBA7Cu);
  size_t job = 0;
  for (int batch = 0; batch < 6; ++batch) {
    const auto& p = out.sets.emplace_back(
        graph.NumVertices(), GenerateDataPoints(graph, 0.01, rng));
    for (int j = 0; j < 8; ++j, ++job) {
      const auto& q = out.sets.emplace_back(
          graph.NumVertices(),
          GenerateUniformQueryPoints(graph, 0.10, 16, rng));
      const Pair& pair = kPairs[job % std::size(kPairs)];
      FannrQuery query;
      query.query = FannQuery{&graph, &p, &q, 0.5, pair.aggregate};
      query.algorithm = pair.algorithm;
      out.jobs.push_back(query);
    }
  }
  return out;
}

uint64_t RunDigest(const Graph& graph, const ColdBatches& batches,
                   std::optional<GphiKind> oracle, size_t threads) {
  GphiResources resources;
  resources.graph = &graph;
  BatchOptions options;
  options.num_threads = threads;
  options.gphi_kind = oracle;
  BatchQueryEngine engine(resources, options);
  Fnv1a digest;
  // The batches run one at a time, as a server would receive them.
  for (size_t begin = 0; begin < batches.jobs.size(); begin += 8) {
    const std::vector<FannrQuery> batch(
        batches.jobs.begin() + static_cast<std::ptrdiff_t>(begin),
        batches.jobs.begin() + static_cast<std::ptrdiff_t>(begin + 8));
    for (const FannResult& r : engine.Run(batch)) {
      EXPECT_EQ(r.status, QueryStatus::kOk) << r.error;
      AddResult(r, digest);
    }
  }
  return digest.value();
}

// Recorded with the lazy-deletion SsspInto and the unordered_map INE
// distance state. Both oracles give the same answers and work counters,
// so they share one digest.
constexpr uint64_t kGoldenDigest = 0x6f230274dfe5079a;

TEST(GoldenDigestTest, ColdBatchAnswersMatchRecordedDigest) {
  const Graph graph = BuildPreset("TEST");
  const ColdBatches batches = MakeColdBatches(graph);
  for (const size_t threads : {size_t{1}, size_t{2}}) {
    EXPECT_EQ(RunDigest(graph, batches, std::nullopt, threads),
              kGoldenDigest)
        << "Cached-SSSP oracle, threads " << threads;
    EXPECT_EQ(RunDigest(graph, batches, GphiKind::kIne, threads),
              kGoldenDigest)
        << "INE oracle, threads " << threads;
  }
}

}  // namespace
}  // namespace fannr
