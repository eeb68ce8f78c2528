#include "sp/dijkstra.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/flat_heap.h"
#include "dynamic/update.h"
#include "graph/builder.h"
#include "graph/presets.h"
#include "testing/scenario.h"
#include "test_util.h"

namespace fannr {
namespace {

TEST(DijkstraTest, LineGraphDistances) {
  Graph g = testing::MakeLineGraph(5, 2.0);
  auto dist = DijkstraSssp(g, 0);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(dist[i], 2.0 * static_cast<double>(i));
  }
}

TEST(DijkstraTest, PicksShorterOfTwoRoutes) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 3, 1.0);
  builder.AddEdge(0, 2, 1.5);
  builder.AddEdge(2, 3, 1.0);
  Graph g = builder.Build();
  auto dist = DijkstraSssp(g, 0);
  EXPECT_DOUBLE_EQ(dist[3], 2.0);
}

TEST(DijkstraTest, UnreachableIsInfinite) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  Graph g = builder.Build();
  auto dist = DijkstraSssp(g, 0);
  EXPECT_EQ(dist[2], kInfWeight);
}

TEST(DijkstraTest, MatchesBellmanFordOnRandomNetworks) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Graph g = testing::MakeRandomNetwork(300, seed);
    Rng rng(seed * 1000);
    for (int trial = 0; trial < 3; ++trial) {
      VertexId s = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
      auto fast = DijkstraSssp(g, s);
      auto slow = testing::BellmanFordSssp(g, s);
      for (size_t v = 0; v < g.NumVertices(); ++v) {
        EXPECT_NEAR(fast[v], slow[v], 1e-9) << "seed " << seed << " v " << v;
      }
    }
  }
}

TEST(DijkstraTest, SsspTreeParentsFormShortestPaths) {
  Graph g = testing::MakeRandomNetwork(200, 77);
  SsspTree tree = DijkstraSsspTree(g, 0);
  EXPECT_EQ(tree.parent[0], kInvalidVertex);
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    if (tree.dist[v] == kInfWeight) continue;
    VertexId p = tree.parent[v];
    ASSERT_NE(p, kInvalidVertex);
    // parent edge weight must close the distance gap exactly.
    bool found = false;
    for (const Arc& a : g.Neighbors(p)) {
      if (a.to == v &&
          std::abs(tree.dist[p] + a.weight - tree.dist[v]) < 1e-9) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "vertex " << v;
  }
}

TEST(DijkstraSearchTest, PointToPointMatchesSssp) {
  Graph g = testing::MakeRandomNetwork(300, 5);
  DijkstraSearch search(g);
  auto dist = DijkstraSssp(g, 10);
  Rng rng(55);
  for (int i = 0; i < 20; ++i) {
    VertexId t = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    EXPECT_NEAR(search.Distance(10, t), dist[t], 1e-9);
  }
}

TEST(DijkstraSearchTest, SelfDistanceIsZero) {
  Graph g = testing::MakeLineGraph(3);
  DijkstraSearch search(g);
  EXPECT_DOUBLE_EQ(search.Distance(1, 1), 0.0);
}

TEST(DijkstraSearchTest, ReusableAcrossQueries) {
  Graph g = testing::MakeRandomNetwork(200, 9);
  DijkstraSearch search(g);
  Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    VertexId s = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    VertexId t = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    auto truth = DijkstraSssp(g, s);
    EXPECT_NEAR(search.Distance(s, t), truth[t], 1e-9);
  }
}

TEST(DijkstraSearchTest, MultiTargetDistances) {
  Graph g = testing::MakeRandomNetwork(300, 13);
  DijkstraSearch search(g);
  Rng rng(131);
  VertexId s = 17;
  auto truth = DijkstraSssp(g, s);
  std::vector<VertexId> targets = testing::SampleVertices(g, 25, rng);
  auto got = search.Distances(s, targets);
  ASSERT_EQ(got.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_NEAR(got[i], truth[targets[i]], 1e-9);
  }
}

TEST(DijkstraSearchTest, MultiTargetHandlesDuplicatesAndSource) {
  Graph g = testing::MakeLineGraph(4, 1.0);
  DijkstraSearch search(g);
  std::vector<VertexId> targets{2, 2, 0, 3};
  auto got = search.Distances(0, targets);
  EXPECT_DOUBLE_EQ(got[0], 2.0);
  EXPECT_DOUBLE_EQ(got[1], 2.0);
  EXPECT_DOUBLE_EQ(got[2], 0.0);
  EXPECT_DOUBLE_EQ(got[3], 3.0);
}

TEST(DijkstraSearchTest, MultiTargetUnreachable) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  Graph g = builder.Build();
  DijkstraSearch search(g);
  auto got = search.Distances(0, {1, 2});
  EXPECT_DOUBLE_EQ(got[0], 1.0);
  EXPECT_EQ(got[1], kInfWeight);
}

// --- SsspInto against the lazy reference, byte for byte -----------------
// SsspInto runs on an indexed decrease-key heap whose tie order differs
// from the lazy FlatHeap of DijkstraSssp; label-setting order cannot show
// in the distances, so the two must agree in every bit. One search object
// serves every source, so stale frontier positions from earlier searches
// would show here too.

void ExpectSsspIntoBitwise(const Graph& g,
                           const std::vector<VertexId>& sources,
                           DijkstraSearch& search, const std::string& label) {
  std::vector<Weight> got;
  for (VertexId s : sources) {
    search.SsspInto(s, got);
    const std::vector<Weight> want = DijkstraSssp(g, s);
    ASSERT_EQ(got.size(), want.size()) << label;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(Weight)),
              0)
        << label << " source " << s;
  }
}

void ExpectSsspIntoBitwise(const Graph& g,
                           const std::vector<VertexId>& sources,
                           const std::string& label) {
  DijkstraSearch search(g);
  ExpectSsspIntoBitwise(g, sources, search, label);
}

std::vector<VertexId> AllVertices(const Graph& g) {
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  return all;
}

TEST(SsspIntoTest, BitwiseEqualsReferenceOnPresets) {
  for (const char* name : {"TEST", "DE"}) {
    const Graph g = BuildPreset(name);
    Rng rng(0x55u);
    ExpectSsspIntoBitwise(g, testing::SampleVertices(g, 6, rng), name);
  }
}

TEST(SsspIntoTest, BitwiseEqualsReferenceOnRandomNetworks) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const Graph g = testing::MakeRandomNetwork(400, seed);
    Rng rng(seed * 31);
    ExpectSsspIntoBitwise(g, testing::SampleVertices(g, 12, rng),
                          "seed " + std::to_string(seed));
  }
}

TEST(SsspIntoTest, BitwiseEqualsReferenceOnTieGrids) {
  // Every source of the fuzzer's equal-weight grids (connected and
  // disconnected), plus a larger grid where equal-key plateaus are wide.
  size_t grids = 0;
  for (uint64_t seed = 1; seed <= 300 && grids < 6; ++seed) {
    const testing::Scenario scenario = testing::GenerateScenario(seed);
    if (scenario.note.find("tie-grid") == std::string::npos) continue;
    ++grids;
    ExpectSsspIntoBitwise(*scenario.graph, AllVertices(*scenario.graph),
                          scenario.note + " seed " + std::to_string(seed));
  }
  EXPECT_EQ(grids, 6u) << "the fuzzer stopped generating tie grids";
  const Graph g = testing::MakeTieGrid(30, 30);
  ExpectSsspIntoBitwise(g, {0, 17, 435, 899}, "30x30 tie grid");
}

TEST(SsspIntoTest, BitwiseEqualsReferenceOnDisconnectedGraph) {
  GraphBuilder builder(9);
  builder.AddEdge(0, 1, 1.5);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(0, 2, 3.5);  // ties with 0-1-2
  builder.AddEdge(4, 5, 1.0);
  builder.AddEdge(5, 6, 1.0);
  builder.AddEdge(4, 6, 2.0);  // ties with 4-5-6
  // 3, 7 and 8 are isolated.
  const Graph g = builder.Build();
  ExpectSsspIntoBitwise(g, AllVertices(g), "disconnected");
  DijkstraSearch search(g);
  std::vector<Weight> dist;
  search.SsspInto(3, dist);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(dist[v], v == 3 ? 0.0 : kInfWeight) << "vertex " << v;
  }
}

TEST(SsspIntoTest, BitwiseEqualsReferenceAcrossCongestionWaves) {
  Graph g = testing::MakeRandomNetwork(600, 9);
  DijkstraSearch search(g);  // outlives every wave, like a batch worker
  Rng rng(0xC0FFEEu);
  for (int wave = 0; wave < 4; ++wave) {
    ExpectSsspIntoBitwise(g, testing::SampleVertices(g, 6, rng), search,
                          "wave " + std::to_string(wave));
    const dynamic::ApplyResult applied =
        dynamic::MakeCongestionWave(g, 0.2, 0.5, 3.0, rng).Apply(g);
    ASSERT_GT(applied.applied, 0u);
  }
}

TEST(SsspIntoTest, FrontierAllocatesOnceAndIsCounted) {
  const Graph g = testing::MakeRandomNetwork(400, 21);
  std::vector<Weight> dist;

  DijkstraSearch reserved(g);
  const uint64_t before = FlatHeapAllocStats().grows;
  reserved.ReserveFullSearch();
  EXPECT_EQ(FlatHeapAllocStats().grows, before + 1);
  reserved.ReserveFullSearch();  // already sized: no-op
  for (VertexId s : {VertexId{0}, VertexId{100}, VertexId{399}}) {
    reserved.SsspInto(s, dist);
  }
  EXPECT_EQ(FlatHeapAllocStats().grows, before + 1)
      << "SsspInto after ReserveFullSearch must not grow its frontier";

  DijkstraSearch lazy(g);
  const uint64_t lazy_before = FlatHeapAllocStats().grows;
  lazy.SsspInto(5, dist);
  lazy.SsspInto(6, dist);
  EXPECT_EQ(FlatHeapAllocStats().grows, lazy_before + 1)
      << "the first SsspInto allocates the frontier once";
}

}  // namespace
}  // namespace fannr
