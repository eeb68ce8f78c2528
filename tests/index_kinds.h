// The persisted structures of the on-disk format (graph/index_io.h),
// type-erased so every format test runs against the graph cache and all
// three distance indexes, plus the file helpers those tests share.

#ifndef FANNR_TESTS_INDEX_KINDS_H_
#define FANNR_TESTS_INDEX_KINDS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/index_io.h"
#include "sp/ch/contraction_hierarchy.h"
#include "sp/dijkstra.h"
#include "sp/gtree/gtree.h"
#include "sp/label/hub_labels.h"

namespace fannr::testing {

// Header layout (graph/index_io.h): magic u64 at 0, version u32 at 8,
// graph fingerprint (3 x u64) at 12, 64 header bytes, then the section
// table of {u64 offset, u64 bytes} pairs.
inline constexpr size_t kVersionOffset = 8;
inline constexpr size_t kFingerprintOffset = 12;
inline constexpr size_t kHeaderBytes = 64;

/// A file name unique to the running test.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "fannr_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Point-to-point distances through one built or loaded structure; empty
/// when the load was rejected.
using DistanceOracle = std::function<Weight(VertexId, VertexId)>;

/// One persisted structure: build it for a graph, save it, and open a
/// saved file as the structure serving that graph.
struct IndexKind {
  std::string name;
  std::function<DistanceOracle(const Graph&)> build;
  std::function<bool(const Graph&, const std::string& path)> save;
  std::function<DistanceOracle(const Graph&, const std::string& path,
                               ArenaValidation)>
      open;
  bool loads(const Graph& graph, const std::string& path,
             ArenaValidation validation = ArenaValidation::kHeaderOnly) const {
    return static_cast<bool>(open(graph, path, validation));
  }
};

template <typename Index>
DistanceOracle HoldIndex(std::optional<Index> index) {
  if (!index.has_value()) return nullptr;
  auto held = std::make_shared<Index>(std::move(*index));
  return [held](VertexId u, VertexId v) { return held->Distance(u, v); };
}

template <typename Index, typename BuildFn>
IndexKind MakeIndexKind(std::string name, BuildFn build) {
  return {std::move(name),
          [build](const Graph& g) { return HoldIndex<Index>(build(g)); },
          [build](const Graph& g, const std::string& path) {
            const std::optional<Index> index = build(g);
            return index.has_value() && index->SaveV3(path);
          },
          [](const Graph& g, const std::string& path, ArenaValidation v) {
            return HoldIndex<Index>(Index::LoadMmap(g, path, v));
          }};
}

/// The graph cache, hub labels, G-tree and CH. The graph's file opens as
/// "the structure serving `g`" only when its stored fingerprint is g's;
/// its distances are Dijkstra's over the graph.
inline std::vector<IndexKind> AllIndexKinds() {
  std::vector<IndexKind> kinds;
  kinds.push_back(
      {"Graph",
       [](const Graph& g) -> DistanceOracle {
         return [&g](VertexId u, VertexId v) {
           return DijkstraSearch(g).Distance(u, v);
         };
       },
       [](const Graph& g, const std::string& path) { return g.SaveV3(path); },
       [](const Graph& g, const std::string& path,
          ArenaValidation v) -> DistanceOracle {
         std::optional<Graph> loaded = Graph::LoadMmap(path, v);
         if (!loaded.has_value() || loaded->Fingerprint() != g.Fingerprint()) {
           return nullptr;
         }
         auto held = std::make_shared<const Graph>(std::move(*loaded));
         return [held](VertexId u, VertexId v) {
           return DijkstraSearch(*held).Distance(u, v);
         };
       }});
  kinds.push_back(MakeIndexKind<HubLabels>(
      "HubLabels", [](const Graph& g) { return HubLabels::Build(g); }));
  kinds.push_back(MakeIndexKind<GTree>("GTree", [](const Graph& g) {
    GTree::Options options;
    options.leaf_capacity = 16;
    return std::optional<GTree>(GTree::Build(g, options));
  }));
  kinds.push_back(MakeIndexKind<ContractionHierarchy>(
      "ContractionHierarchy", [](const Graph& g) {
        return std::optional<ContractionHierarchy>(
            ContractionHierarchy::Build(g));
      }));
  return kinds;
}

}  // namespace fannr::testing

#endif  // FANNR_TESTS_INDEX_KINDS_H_
