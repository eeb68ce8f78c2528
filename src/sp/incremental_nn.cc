#include "sp/incremental_nn.h"

#include <bit>
#include <cstdint>
#include <utility>

namespace fannr {

namespace {
constexpr size_t kInitialMapCapacity = 64;
}  // namespace

size_t IncrementalNnSearch::DistanceMap::Home(VertexId v) const {
  // Fibonacci hashing: the top bits of v * 2^64/phi. Ids of an explored
  // region are clustered, and the multiply spreads them over the table.
  return static_cast<size_t>((uint64_t{v} * 0x9E3779B97F4A7C15ull) >> shift_);
}

Weight* IncrementalNnSearch::DistanceMap::Find(VertexId v) {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(v);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.vertex == v) return &slot.dist;
    if (slot.vertex == kInvalidVertex) return nullptr;
  }
}

std::pair<Weight*, bool> IncrementalNnSearch::DistanceMap::TryEmplace(
    VertexId v, Weight dist) {
  FANNR_DCHECK(v != kInvalidVertex);
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(v);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.vertex == v) return {&slot.dist, false};
    if (slot.vertex == kInvalidVertex) {
      slot = {v, dist};
      ++size_;
      return {&slot.dist, true};
    }
  }
}

void IncrementalNnSearch::DistanceMap::Grow() {
  CountSearchScratchGrowth();
  std::vector<Slot> old = std::move(slots_);
  const size_t capacity =
      old.empty() ? kInitialMapCapacity : 2 * old.size();
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.vertex == kInvalidVertex) continue;
    size_t i = Home(slot.vertex);
    while (slots_[i].vertex != kInvalidVertex) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

IncrementalNnSearch::IncrementalNnSearch(const Graph& graph,
                                         VertexId source,
                                         const IndexedVertexSet& targets)
    : graph_(graph), targets_(targets), source_(source) {
  FANNR_CHECK(source < graph.NumVertices());
  dist_.TryEmplace(source, 0.0);
  frontier_.push({0.0, source});
}

std::optional<IncrementalNnSearch::Hit>
IncrementalNnSearch::FindNextTarget() {
  while (!frontier_.empty()) {
    const HeapEntry top = frontier_.top();
    frontier_.pop();
    Weight* const stored = dist_.Find(top.vertex);
    // Stale entry: a shorter path was found after this was pushed. A
    // negative stored distance marks an already-settled vertex.
    if (stored == nullptr || top.dist > *stored || *stored < 0.0) {
      continue;
    }
    // Settle.
    *stored = -top.dist - 1.0;  // mark settled, preserve value
    ++settled_count_;
    for (const Arc& a : graph_.Neighbors(top.vertex)) {
      const Weight nd = top.dist + a.weight;
      // TryEmplace may grow the table, so `stored` is dead from here on.
      auto [neighbor, inserted] = dist_.TryEmplace(a.to, nd);
      if (inserted || (*neighbor >= 0.0 && nd < *neighbor)) {
        *neighbor = nd;
        frontier_.push({nd, a.to});
      }
    }
    if (targets_.Contains(top.vertex)) {
      return Hit{top.vertex, top.dist};
    }
  }
  exhausted_ = true;
  return std::nullopt;
}

std::optional<IncrementalNnSearch::Hit> IncrementalNnSearch::Next() {
  if (buffered_.has_value()) {
    std::optional<Hit> hit = buffered_;
    buffered_.reset();
    return hit;
  }
  if (exhausted_) return std::nullopt;
  return FindNextTarget();
}

const IncrementalNnSearch::Hit* IncrementalNnSearch::Peek() {
  if (!buffered_.has_value()) {
    if (exhausted_) return nullptr;
    buffered_ = FindNextTarget();
    if (!buffered_.has_value()) return nullptr;
  }
  return &*buffered_;
}

}  // namespace fannr
