#include "sp/incremental_nn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/flat_heap.h"
#include "graph/builder.h"
#include "sp/dijkstra.h"
#include "testing/scenario.h"
#include "test_util.h"

namespace fannr {
namespace {

TEST(IncrementalNnTest, ReportsTargetsInDistanceOrder) {
  Graph g = testing::MakeRandomNetwork(400, 41);
  Rng rng(42);
  std::vector<VertexId> targets = testing::SampleVertices(g, 30, rng);
  IndexedVertexSet target_set(g.NumVertices(), targets);
  IncrementalNnSearch search(g, 7, target_set);
  Weight prev = -1.0;
  size_t count = 0;
  while (auto hit = search.Next()) {
    EXPECT_GE(hit->distance, prev);
    EXPECT_TRUE(target_set.Contains(hit->vertex));
    prev = hit->distance;
    ++count;
  }
  EXPECT_EQ(count, targets.size());
}

TEST(IncrementalNnTest, DistancesAreExact) {
  Graph g = testing::MakeRandomNetwork(300, 43);
  Rng rng(44);
  std::vector<VertexId> targets = testing::SampleVertices(g, 20, rng);
  IndexedVertexSet target_set(g.NumVertices(), targets);
  VertexId source = 11;
  auto truth = DijkstraSssp(g, source);
  IncrementalNnSearch search(g, source, target_set);
  size_t reported = 0;
  while (auto hit = search.Next()) {
    EXPECT_EQ(std::bit_cast<uint64_t>(hit->distance),
              std::bit_cast<uint64_t>(truth[hit->vertex]))
        << "vertex " << hit->vertex;
    ++reported;
  }
  EXPECT_EQ(reported, targets.size());
}

TEST(IncrementalNnTest, SourceInTargetsReportedFirstAtZero) {
  Graph g = testing::MakeLineGraph(5);
  IndexedVertexSet target_set(g.NumVertices(), {2, 4});
  IncrementalNnSearch search(g, 2, target_set);
  auto hit = search.Next();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->vertex, 2u);
  EXPECT_DOUBLE_EQ(hit->distance, 0.0);
  hit = search.Next();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->vertex, 4u);
  EXPECT_DOUBLE_EQ(hit->distance, 2.0);
  EXPECT_FALSE(search.Next().has_value());
}

TEST(IncrementalNnTest, PeekDoesNotConsume) {
  Graph g = testing::MakeLineGraph(6);
  IndexedVertexSet target_set(g.NumVertices(), {3, 5});
  IncrementalNnSearch search(g, 0, target_set);
  const auto* peek1 = search.Peek();
  ASSERT_NE(peek1, nullptr);
  EXPECT_EQ(peek1->vertex, 3u);
  const auto* peek2 = search.Peek();
  ASSERT_NE(peek2, nullptr);
  EXPECT_EQ(peek2->vertex, 3u);
  auto next = search.Next();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->vertex, 3u);
  const auto* peek3 = search.Peek();
  ASSERT_NE(peek3, nullptr);
  EXPECT_EQ(peek3->vertex, 5u);
}

TEST(IncrementalNnTest, PeekReturnsNullWhenExhausted) {
  Graph g = testing::MakeLineGraph(3);
  IndexedVertexSet target_set(g.NumVertices(), {1});
  IncrementalNnSearch search(g, 0, target_set);
  EXPECT_TRUE(search.Next().has_value());
  EXPECT_EQ(search.Peek(), nullptr);
  EXPECT_FALSE(search.Next().has_value());
}

TEST(IncrementalNnTest, UnreachableTargetsNeverReported) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(3, 4, 1.0);
  Graph g = builder.Build();
  IndexedVertexSet target_set(g.NumVertices(), {1, 4});
  IncrementalNnSearch search(g, 0, target_set);
  auto hit = search.Next();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->vertex, 1u);
  EXPECT_FALSE(search.Next().has_value());
}

TEST(IncrementalNnTest, EmptyTargetSetExhaustsImmediately) {
  Graph g = testing::MakeLineGraph(4);
  IndexedVertexSet target_set(g.NumVertices(), {});
  IncrementalNnSearch search(g, 0, target_set);
  EXPECT_FALSE(search.Next().has_value());
}

TEST(IncrementalNnTest, ManyConcurrentSearchesStayIndependent) {
  Graph g = testing::MakeRandomNetwork(400, 51);
  Rng rng(52);
  std::vector<VertexId> targets = testing::SampleVertices(g, 40, rng);
  IndexedVertexSet target_set(g.NumVertices(), targets);
  std::vector<VertexId> sources = testing::SampleVertices(g, 8, rng);

  std::vector<IncrementalNnSearch> searches;
  searches.reserve(sources.size());
  for (VertexId s : sources) searches.emplace_back(g, s, target_set);

  // Interleave: advance round-robin, then verify each got the correct
  // first three nearest targets despite the interleaving ("switchable"
  // execution from the paper).
  std::vector<std::vector<IncrementalNnSearch::Hit>> got(sources.size());
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < searches.size(); ++i) {
      auto hit = searches[i].Next();
      ASSERT_TRUE(hit.has_value());
      got[i].push_back(*hit);
    }
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    auto truth = DijkstraSssp(g, sources[i]);
    std::vector<Weight> target_dists;
    for (VertexId t : targets) target_dists.push_back(truth[t]);
    std::sort(target_dists.begin(), target_dists.end());
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(got[i][j].distance, target_dists[j])
          << "source " << sources[i] << " rank " << j;
    }
  }
}

TEST(IncrementalNnTest, TieGridHitsEqualDijkstraBitwiseInOrder) {
  // Every vertex is a target, so the search settles the whole 40x40 grid:
  // the distance map grows from its initial 64 slots to 4096, and the
  // equal-weight lattice makes long runs of bitwise-equal distances.
  const Graph g = testing::MakeTieGrid(40, 40);
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  const IndexedVertexSet target_set(g.NumVertices(), all);
  for (const VertexId source : {VertexId{0}, VertexId{820}, VertexId{1599}}) {
    const std::vector<Weight> truth = DijkstraSssp(g, source);
    const uint64_t grows_before = FlatHeapAllocStats().grows;
    IncrementalNnSearch search(g, source, target_set);
    std::vector<bool> seen(g.NumVertices(), false);
    Weight prev = 0.0;
    size_t reported = 0;
    while (auto hit = search.Next()) {
      ASSERT_FALSE(seen[hit->vertex]) << "reported twice: " << hit->vertex;
      seen[hit->vertex] = true;
      EXPECT_EQ(std::bit_cast<uint64_t>(hit->distance),
                std::bit_cast<uint64_t>(truth[hit->vertex]))
          << "source " << source << " vertex " << hit->vertex;
      EXPECT_GE(hit->distance, prev) << "source " << source;
      prev = hit->distance;
      ++reported;
    }
    EXPECT_EQ(reported, g.NumVertices());
    EXPECT_EQ(search.settled_count(), g.NumVertices());
    // 64 -> 4096 slots is 7 map allocations, each counted.
    EXPECT_GE(FlatHeapAllocStats().grows - grows_before, 7u)
        << "distance-map growths must be counted";
  }
}

}  // namespace
}  // namespace fannr
