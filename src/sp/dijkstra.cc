#include "sp/dijkstra.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/flat_heap.h"

namespace fannr {

namespace {

// Min-heap entry: (distance, vertex), ordered by distance with vertex id
// as the tiebreaker (lexicographic pair comparison).
using HeapEntry = std::pair<Weight, VertexId>;
using MinHeap = FlatHeap<HeapEntry>;

// The indexed 4-ary heap of SsspInto: `heap` holds vertex ids, `dist`
// their keys, and pos[heap[i]] == i for every occupied slot i. Both
// sifts move a hole instead of swapping and place `v` at the end.
constexpr size_t kArity = 4;

inline void SiftUp(VertexId* heap, uint32_t* pos, const Weight* dist,
                   size_t i, VertexId v) {
  const Weight key = dist[v];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    const VertexId p = heap[parent];
    if (!(key < dist[p])) break;
    heap[i] = p;
    pos[p] = static_cast<uint32_t>(i);
    i = parent;
  }
  heap[i] = v;
  pos[v] = static_cast<uint32_t>(i);
}

inline void SiftDown(VertexId* heap, uint32_t* pos, const Weight* dist,
                     size_t size, size_t i, VertexId v) {
  const Weight key = dist[v];
  while (true) {
    const size_t first = i * kArity + 1;
    if (first >= size) break;
    const size_t last = std::min(first + kArity, size);
    size_t best = first;
    Weight best_key = dist[heap[first]];
    for (size_t c = first + 1; c < last; ++c) {
      const Weight k = dist[heap[c]];
      if (k < best_key) {
        best = c;
        best_key = k;
      }
    }
    if (!(best_key < key)) break;
    heap[i] = heap[best];
    pos[heap[i]] = static_cast<uint32_t>(i);
    i = best;
  }
  heap[i] = v;
  pos[v] = static_cast<uint32_t>(i);
}

}  // namespace

std::vector<Weight> DijkstraSssp(const Graph& graph, VertexId source) {
  FANNR_CHECK(source < graph.NumVertices());
  std::vector<Weight> dist(graph.NumVertices(), kInfWeight);
  MinHeap heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const Arc& a : graph.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        heap.push({nd, a.to});
      }
    }
  }
  return dist;
}

SsspTree DijkstraSsspTree(const Graph& graph, VertexId source) {
  FANNR_CHECK(source < graph.NumVertices());
  SsspTree result;
  result.dist.assign(graph.NumVertices(), kInfWeight);
  result.parent.assign(graph.NumVertices(), kInvalidVertex);
  MinHeap heap;
  result.dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > result.dist[u]) continue;
    for (const Arc& a : graph.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < result.dist[a.to]) {
        result.dist[a.to] = nd;
        result.parent[a.to] = u;
        heap.push({nd, a.to});
      }
    }
  }
  return result;
}

std::vector<VertexId> ShortestPath(const Graph& graph, VertexId source,
                                   VertexId target) {
  FANNR_CHECK(source < graph.NumVertices() &&
              target < graph.NumVertices());
  if (source == target) return {source};
  std::unordered_map<VertexId, Weight> dist;
  std::unordered_map<VertexId, VertexId> parent;
  MinHeap heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    auto it = dist.find(u);
    if (it == dist.end() || d > it->second) continue;
    if (u == target) {
      std::vector<VertexId> path;
      for (VertexId v = target;; v = parent.at(v)) {
        path.push_back(v);
        if (v == source) break;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (const Arc& a : graph.Neighbors(u)) {
      const Weight nd = d + a.weight;
      auto [nit, inserted] = dist.try_emplace(a.to, nd);
      if (inserted || nd < nit->second) {
        nit->second = nd;
        parent[a.to] = u;
        heap.push({nd, a.to});
      }
    }
  }
  return {};
}

DijkstraSearch::DijkstraSearch(const Graph& graph)
    : graph_(graph),
      dist_(graph.NumVertices(), kInfWeight),
      settled_(graph.NumVertices(), 0) {}

void DijkstraSearch::ReserveFullSearch() {
  const size_t n = graph_.NumVertices();
  if (frontier_.size() < n) {
    CountSearchScratchGrowth();
    frontier_.resize(n);
    frontier_pos_.resize(n);
  }
}

Weight DijkstraSearch::Distance(VertexId source, VertexId target) {
  FANNR_CHECK(source < graph_.NumVertices() &&
              target < graph_.NumVertices());
  if (source == target) return 0.0;
  dist_.NewEpoch();
  heap_.clear();
  dist_.Set(source, 0.0);
  heap_.push({0.0, source});
  while (!heap_.empty()) {
    auto [d, u] = heap_.top();
    heap_.pop();
    if (d > dist_.Get(u)) continue;
    if (u == target) return d;
    for (const Arc& a : graph_.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < dist_.Get(a.to)) {
        dist_.Set(a.to, nd);
        heap_.push({nd, a.to});
      }
    }
  }
  return kInfWeight;
}

void DijkstraSearch::SsspInto(VertexId source, std::vector<Weight>& out) {
  FANNR_CHECK(source < graph_.NumVertices());
  ReserveFullSearch();
  // A full SSSP writes every vertex, so `out` itself serves as the
  // distance array and the heap's key array — no TimestampedArray
  // indirection and no copy-out pass. assign() on an already-|V|-sized
  // vector reuses its storage.
  out.assign(graph_.NumVertices(), kInfWeight);
  Weight* const dist = out.data();
  VertexId* const heap = frontier_.data();
  uint32_t* const pos = frontier_pos_.data();
  size_t size = 0;
  dist[source] = 0.0;
  SiftUp(heap, pos, dist, size++, source);
  while (size > 0) {
    const VertexId u = heap[0];
    const Weight d = dist[u];
    if (--size > 0) SiftDown(heap, pos, dist, size, 0, heap[size]);
    for (const Arc& a : graph_.Neighbors(u)) {
      const Weight nd = d + a.weight;
      const Weight old = dist[a.to];
      if (nd < old) {
        dist[a.to] = nd;
        // Unreached vertices enter at the bottom; a finite `old` means
        // a.to is in the frontier (settled vertices are never improved).
        SiftUp(heap, pos, dist, old == kInfWeight ? size++ : pos[a.to], a.to);
      }
    }
  }
}

std::vector<Weight> DijkstraSearch::Distances(
    VertexId source, const std::vector<VertexId>& targets) {
  dist_.NewEpoch();
  settled_.NewEpoch();
  // Count how many distinct target vertices remain unsettled; a vertex
  // listed twice only needs settling once.
  size_t remaining = 0;
  for (VertexId t : targets) {
    FANNR_CHECK(t < graph_.NumVertices());
    if (settled_.Get(t) == 0) {
      settled_.Set(t, 1);  // 1 = "is an unsettled target"
      ++remaining;
    }
  }
  heap_.clear();
  dist_.Set(source, 0.0);
  heap_.push({0.0, source});
  while (!heap_.empty() && remaining > 0) {
    auto [d, u] = heap_.top();
    heap_.pop();
    if (d > dist_.Get(u)) continue;
    if (settled_.Get(u) == 1) {
      settled_.Set(u, 2);  // 2 = "settled target"
      --remaining;
    }
    for (const Arc& a : graph_.Neighbors(u)) {
      const Weight nd = d + a.weight;
      if (nd < dist_.Get(a.to)) {
        dist_.Set(a.to, nd);
        heap_.push({nd, a.to});
      }
    }
  }
  std::vector<Weight> result;
  result.reserve(targets.size());
  for (VertexId t : targets) {
    result.push_back(settled_.Get(t) == 2 ? dist_.Get(t) : kInfWeight);
  }
  return result;
}

}  // namespace fannr
