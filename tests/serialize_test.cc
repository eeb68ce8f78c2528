// Round-trip and rejection tests for each persisted structure on its own
// (SaveV3/LoadMmap, graph/index_io.h): what comes back answers like what
// was saved, and a file for another graph or not of ours is refused.
// The corruption family over every kind is corrupt_index_test.cc's.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "index_kinds.h"
#include "sp/ch/contraction_hierarchy.h"
#include "sp/dijkstra.h"
#include "sp/gtree/gtree.h"
#include "sp/label/hub_labels.h"
#include "test_util.h"

namespace fannr {
namespace {

using testing::ReadFileBytes;
using testing::TempPath;
using testing::WriteFileBytes;

constexpr char kGarbage[] = "dimacs? never heard of it";

TEST(SerializeTest, GraphRoundTrip) {
  Graph original = testing::MakeSmallGrid(8, 9);
  const std::string path = TempPath("graph.v3");
  ASSERT_TRUE(original.SaveV3(path));
  auto loaded = Graph::LoadMmap(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), original.NumVertices());
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
  ASSERT_TRUE(loaded->HasCoordinates());
  EXPECT_TRUE(loaded->EuclideanConsistent());
  // Distances identical.
  auto a = DijkstraSssp(original, 0);
  auto b = DijkstraSssp(*loaded, 0);
  for (size_t v = 0; v < a.size(); ++v) EXPECT_DOUBLE_EQ(a[v], b[v]);
}

TEST(SerializeTest, GraphLoadRejectsCorruptStreams) {
  Graph g = testing::MakeSmallGrid(5, 5);
  const std::string path = TempPath("graph.v3");
  ASSERT_TRUE(g.SaveV3(path));
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 3));
  EXPECT_FALSE(Graph::LoadMmap(path).has_value());
  WriteFileBytes(path, kGarbage);
  EXPECT_FALSE(Graph::LoadMmap(path).has_value());
}

TEST(SerializeTest, HubLabelsRoundTrip) {
  Graph g = testing::MakeRandomNetwork(300, 91);
  auto labels = HubLabels::Build(g);
  ASSERT_TRUE(labels.has_value());

  const std::string path = TempPath("phl.v3");
  ASSERT_TRUE(labels->SaveV3(path));
  auto loaded = HubLabels::LoadMmap(g, path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->TotalLabelEntries(), labels->TotalLabelEntries());

  Rng rng(92);
  for (int i = 0; i < 20; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    EXPECT_DOUBLE_EQ(loaded->Distance(u, v), labels->Distance(u, v));
  }
}

TEST(SerializeTest, HubLabelsRejectsGarbage) {
  Graph g = testing::MakeSmallGrid(9, 99);
  const std::string path = TempPath("phl.v3");
  WriteFileBytes(path, "not a hub label file at all");
  EXPECT_FALSE(HubLabels::LoadMmap(g, path).has_value());
}

TEST(SerializeTest, HubLabelsRejectsWrongGraph) {
  Graph g = testing::MakeRandomNetwork(300, 91);
  Graph other = testing::MakeRandomNetwork(200, 96);
  auto labels = HubLabels::Build(g);
  ASSERT_TRUE(labels.has_value());
  const std::string path = TempPath("phl.v3");
  ASSERT_TRUE(labels->SaveV3(path));
  EXPECT_FALSE(HubLabels::LoadMmap(other, path).has_value());
}

TEST(SerializeTest, GTreeRoundTrip) {
  Graph g = testing::MakeRandomNetwork(400, 93);
  GTree::Options options;
  options.leaf_capacity = 16;
  GTree tree = GTree::Build(g, options);

  const std::string path = TempPath("gtree.v3");
  ASSERT_TRUE(tree.SaveV3(path));
  auto loaded = GTree::LoadMmap(g, path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumTreeNodes(), tree.NumTreeNodes());
  EXPECT_EQ(loaded->NumLeaves(), tree.NumLeaves());

  DijkstraSearch dijkstra(g);
  Rng rng(94);
  for (int i = 0; i < 25; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    EXPECT_NEAR(loaded->Distance(u, v), dijkstra.Distance(u, v), 1e-6);
  }
}

TEST(SerializeTest, GTreeRejectsWrongGraph) {
  Graph g = testing::MakeRandomNetwork(400, 95);
  Graph other = testing::MakeRandomNetwork(200, 96);
  GTree::Options options;
  options.leaf_capacity = 16;
  GTree tree = GTree::Build(g, options);
  const std::string path = TempPath("gtree.v3");
  ASSERT_TRUE(tree.SaveV3(path));
  EXPECT_FALSE(GTree::LoadMmap(other, path).has_value());
}

TEST(SerializeTest, ChRoundTrip) {
  Graph g = testing::MakeRandomNetwork(300, 97);
  ContractionHierarchy ch = ContractionHierarchy::Build(g);

  const std::string path = TempPath("ch.v3");
  ASSERT_TRUE(ch.SaveV3(path));
  auto loaded = ContractionHierarchy::LoadMmap(g, path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumShortcuts(), ch.NumShortcuts());

  DijkstraSearch dijkstra(g);
  Rng rng(98);
  for (int i = 0; i < 20; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.NextIndex(g.NumVertices()));
    EXPECT_NEAR(loaded->Distance(u, v), dijkstra.Distance(u, v), 1e-6);
  }
}

TEST(SerializeRobustnessTest, GTreeLoadRejectsTruncatedStream) {
  Graph g = testing::MakeRandomNetwork(200, 811);
  GTree::Options options;
  options.leaf_capacity = 16;
  const std::string path = TempPath("gtree.v3");
  ASSERT_TRUE(GTree::Build(g, options).SaveV3(path));
  const std::string bytes = ReadFileBytes(path);
  for (size_t cut : {size_t{4}, bytes.size() / 2, bytes.size() - 3}) {
    WriteFileBytes(path, bytes.substr(0, cut));
    EXPECT_FALSE(GTree::LoadMmap(g, path).has_value()) << "cut " << cut;
  }
}

TEST(SerializeRobustnessTest, ChLoadRejectsTruncatedStream) {
  Graph g = testing::MakeRandomNetwork(150, 812);
  const std::string path = TempPath("ch.v3");
  ASSERT_TRUE(ContractionHierarchy::Build(g).SaveV3(path));
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(ContractionHierarchy::LoadMmap(g, path).has_value());
}

}  // namespace
}  // namespace fannr
