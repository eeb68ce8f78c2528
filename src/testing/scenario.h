// Seeded scenario generation for differential testing of the FANN_R
// solvers (see src/testing/differential.h).
//
// A scenario is one fully materialized FANN_R instance: a road network
// plus the query ingredients (P, Q, phi, k_results). GenerateScenario
// derives everything deterministically from a single 64-bit seed and is
// biased toward the shapes that historically break aggregate-NN code:
// tie-heavy uniform grids, graphs with several connected components, Q
// overlapping P, phi at the rounding boundaries (1/|Q| and 1), and
// k_results larger than |P|.
//
// Scenarios serialize to a self-contained text format so that every
// fuzzer-found violation becomes a committed reproducer in tests/corpus/
// that replays without the generating seed or code version.

#ifndef FANNR_TESTING_SCENARIO_H_
#define FANNR_TESTING_SCENARIO_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fann/aggregate.h"
#include "graph/graph.h"

namespace fannr::testing {

/// Which aggregates a differential run should exercise.
enum class AggregateMode {
  kBoth,
  kMaxOnly,
  kSumOnly,
};

/// One differential-testing instance. Copyable (the graph is shared) so
/// the minimizer can cheaply explore shrunken variants.
struct Scenario {
  std::shared_ptr<const Graph> graph;
  std::vector<VertexId> p;  // data points, distinct
  std::vector<VertexId> q;  // query points, distinct (may overlap p)
  /// Optional per-query-point weights aligned with q (empty =
  /// unweighted): solvers select and fold w_i * d(p, q_i) instead of
  /// raw distances (the weighted FANN generalization).
  std::vector<double> weights;
  double phi = 0.5;
  size_t k_results = 1;
  AggregateMode aggregates = AggregateMode::kBoth;
  uint64_t seed = 0;  // provenance; 0 for handcrafted/loaded scenarios
  std::string note;   // human-readable description of the shape
};

/// A rows x cols lattice whose every edge weighs exactly 1000, so
/// aggregate distances are small exact multiples of it and equal-length
/// paths tie bitwise — the shape that exposes tie-breaking bugs.
Graph MakeTieGrid(size_t rows, size_t cols);

/// Deterministically generates the scenario for `seed`.
Scenario GenerateScenario(uint64_t seed);

/// Serializes `scenario` in the self-contained text format (bitwise
/// round-trips weights and phi). Returns false on I/O failure.
bool WriteScenario(const Scenario& scenario, std::ostream& out);
bool WriteScenarioFile(const Scenario& scenario, const std::string& path);

/// Parses a scenario written by WriteScenario. Returns nullopt (with a
/// message in `error` when non-null) on malformed input.
std::optional<Scenario> ReadScenario(std::istream& in,
                                     std::string* error = nullptr);
std::optional<Scenario> ReadScenarioFile(const std::string& path,
                                         std::string* error = nullptr);

}  // namespace fannr::testing

#endif  // FANNR_TESTING_SCENARIO_H_
