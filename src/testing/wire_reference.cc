#include "testing/wire_reference.h"

#include <memory>

namespace fannr::testing {

std::vector<net::WireResult> SolveWire(BatchQueryEngine& engine,
                                       const Graph& graph,
                                       std::span<const net::WireQuery> jobs) {
  std::vector<std::unique_ptr<IndexedVertexSet>> sets;
  std::vector<FannrQuery> batch;
  for (const net::WireQuery& wire : jobs) {
    auto p = std::make_unique<IndexedVertexSet>(
        graph.NumVertices(),
        std::vector<VertexId>(wire.p.begin(), wire.p.end()));
    auto q = std::make_unique<IndexedVertexSet>(
        graph.NumVertices(),
        std::vector<VertexId>(wire.q.begin(), wire.q.end()));
    FannrQuery job;
    job.query.graph = &graph;
    job.query.data_points = p.get();
    job.query.query_points = q.get();
    job.query.phi = wire.phi;
    job.query.aggregate = static_cast<Aggregate>(wire.aggregate);
    if (!wire.weights.empty()) job.query.weights = &wire.weights;
    job.algorithm = static_cast<FannAlgorithm>(wire.algorithm);
    sets.push_back(std::move(p));
    sets.push_back(std::move(q));
    batch.push_back(job);
  }
  const std::vector<FannResult> results = engine.Run(batch);
  std::vector<net::WireResult> wire_results;
  wire_results.reserve(results.size());
  for (const FannResult& r : results) wire_results.push_back(net::ToWire(r));
  return wire_results;
}

}  // namespace fannr::testing
