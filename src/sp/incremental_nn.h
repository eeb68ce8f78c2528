// Incremental network expansion (INE): a resumable Dijkstra expansion that
// reports members of a target set from-near-to-far.
//
// This single primitive powers four of the paper's components:
//   * the INE implementation of g_phi (kNN from a candidate p over Q),
//   * the per-query-point lists of the R-List algorithm (Section III-B),
//   * the multi-source switchable expansion of Exact-max (Algorithm 2),
//   * the 1-NN lookups of APX-sum (Algorithm 3).
//
// The paper's "switchable" implementation detail — all search state is
// preserved when a queue is switched away from and resumed later — is
// exactly what this class provides: each instance owns its frontier and
// distance map and can be advanced one reported target at a time.
//
// Distance state is kept in a hash map rather than an O(|V|) array so that
// |Q| concurrent instances stay within the paper's O(|Q||V|) worst-case
// bound but use memory proportional to the region actually explored. The
// map is a flat open-addressing table (linear probing, power-of-two
// capacity kept at most half full, kInvalidVertex marking an empty slot):
// one contiguous array instead of one node allocation per entry, so a
// probe usually costs one cache line. Its growths are counted in
// FlatHeapAllocStats(), like the frontier's.

#ifndef FANNR_SP_INCREMENTAL_NN_H_
#define FANNR_SP_INCREMENTAL_NN_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_heap.h"
#include "graph/graph.h"
#include "graph/vertex_set.h"

namespace fannr {

/// Resumable from-near-to-far enumeration of a target set.
class IncrementalNnSearch {
 public:
  /// A reported target: `vertex` is in the target set and `distance` is
  /// its exact network distance from the source. Successive hits have
  /// nondecreasing distances.
  struct Hit {
    VertexId vertex;
    Weight distance;
  };

  /// Starts an expansion from `source`. `targets` must outlive the search.
  IncrementalNnSearch(const Graph& graph, VertexId source,
                      const IndexedVertexSet& targets);

  /// Returns the next nearest unreported target, or nullopt when all
  /// reachable targets have been reported.
  std::optional<Hit> Next();

  /// Returns the next hit without consuming it (nullptr when exhausted).
  /// This is the "head of the queue" of the paper's R-List / Exact-max:
  /// peeking advances the underlying expansion until the next target is
  /// settled, and the result is buffered for the following Next().
  const Hit* Peek();

  /// Number of vertices settled so far (exposition / benchmarking aid).
  size_t settled_count() const { return settled_count_; }

  VertexId source() const { return source_; }

 private:
  // Advances the Dijkstra expansion until one more target is settled.
  std::optional<Hit> FindNextTarget();

  struct HeapEntry {
    Weight dist;
    VertexId vertex;
  };
  struct DistLess {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.dist < b.dist;
    }
  };

  // Open-addressing vertex -> distance map (see the file comment).
  class DistanceMap {
   public:
    /// The stored distance of `v`, or nullptr when `v` is absent.
    Weight* Find(VertexId v);
    /// Inserts (v, dist) when `v` is absent. Returns the stored distance
    /// of `v` and whether it was inserted.
    std::pair<Weight*, bool> TryEmplace(VertexId v, Weight dist);

   private:
    struct Slot {
      VertexId vertex = kInvalidVertex;
      Weight dist = 0.0;
    };
    size_t Home(VertexId v) const;
    void Grow();

    std::vector<Slot> slots_;
    size_t size_ = 0;
    int shift_ = 64;  // 64 - log2(capacity)
  };

  const Graph& graph_;
  const IndexedVertexSet& targets_;
  VertexId source_;
  FlatHeap<HeapEntry, DistLess> frontier_;
  DistanceMap dist_;
  std::optional<Hit> buffered_;
  size_t settled_count_ = 0;
  bool exhausted_ = false;
};

}  // namespace fannr

#endif  // FANNR_SP_INCREMENTAL_NN_H_
