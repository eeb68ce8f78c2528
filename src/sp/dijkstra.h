// Dijkstra's algorithm: single-source shortest paths, point-to-point
// queries, and SSSP with per-vertex parents. The reusable DijkstraSearch
// object amortizes scratch-array allocation across queries (important when
// an FANN_R algorithm evaluates g_phi for thousands of candidate points).

#ifndef FANNR_SP_DIJKSTRA_H_
#define FANNR_SP_DIJKSTRA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_heap.h"
#include "common/timestamped.h"
#include "graph/graph.h"

namespace fannr {

/// Full single-source shortest path distances (kInfWeight = unreachable).
std::vector<Weight> DijkstraSssp(const Graph& graph, VertexId source);

/// SSSP result with shortest-path-tree parents (kInvalidVertex for the
/// source and unreachable vertices).
struct SsspTree {
  std::vector<Weight> dist;
  std::vector<VertexId> parent;
};

/// Full SSSP with parents.
SsspTree DijkstraSsspTree(const Graph& graph, VertexId source);

/// Shortest path as a vertex sequence [source, ..., target] (empty when
/// target is unreachable; [source] when source == target). Runs a
/// point-to-point Dijkstra with parent tracking and early termination.
std::vector<VertexId> ShortestPath(const Graph& graph, VertexId source,
                                   VertexId target);

/// Reusable Dijkstra engine bound to one graph. Not thread-safe; create
/// one per thread.
class DijkstraSearch {
 public:
  explicit DijkstraSearch(const Graph& graph);

  /// Network distance from `source` to `target` (kInfWeight if
  /// unreachable). Terminates as soon as `target` is settled.
  Weight Distance(VertexId source, VertexId target);

  /// Network distances from `source` to every vertex in `targets`
  /// (aligned with `targets`). Terminates once all reachable targets are
  /// settled.
  std::vector<Weight> Distances(VertexId source,
                                const std::vector<VertexId>& targets);

  /// Full SSSP from `source` written into `out` (resized to |V|;
  /// kInfWeight = unreachable). Equal byte for byte to DijkstraSssp, but
  /// reuses this object's scratch, so a worker thread running many
  /// sources only allocates the output.
  ///
  /// Runs on an indexed 4-ary heap with decrease-key instead of the lazy
  /// FlatHeap: the heap holds vertex ids (4 bytes, each at most once)
  /// and reads their keys from `out` itself, and a position array says
  /// where each vertex sits. A vertex is in the frontier exactly when its
  /// distance is finite and it is not yet settled, and a strict
  /// improvement can only reach such a vertex (weights are positive), so
  /// nothing needs resetting between searches. The tie order of the heap
  /// cannot show in the result: the final d(v) is the minimum of
  /// fl(d(u) + w(u, v)) over the neighbours u with d(u) < d(v), and all
  /// of those settle before v in any label-setting order.
  void SsspInto(VertexId source, std::vector<Weight>& out);

  /// Allocates the SsspInto frontier up front: |V| heap slots plus |V|
  /// positions (8 bytes per vertex), after which no SsspInto on this
  /// object allocates scratch. Called by batch workers at construction
  /// so the solve phase is allocation-free from the first query (see
  /// BatchOptions::prewarm_scratch). Counted in FlatHeapAllocStats().
  void ReserveFullSearch();

  const Graph& graph() const { return graph_; }

 private:
  const Graph& graph_;
  TimestampedArray<Weight> dist_;
  TimestampedArray<uint8_t> settled_;
  // Persistent lazy frontier of Distance/Distances: clear() keeps
  // capacity, so steady-state queries run with zero heap allocations.
  FlatHeap<std::pair<Weight, VertexId>> heap_;
  // SsspInto's indexed frontier, sized |V| by ReserveFullSearch: heap
  // slots (vertex ids) and each heap vertex's slot index.
  std::vector<VertexId> frontier_;
  std::vector<uint32_t> frontier_pos_;
};

}  // namespace fannr

#endif  // FANNR_SP_DIJKSTRA_H_
