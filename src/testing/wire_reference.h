// The in-process reference for wire answers.
//
// A served answer is held to the in-process engine bit for bit: the
// server, the router and a subscription push must each return exactly
// what BatchQueryEngine::Run returns for the same query on the same
// graph, mapped through the lossless ToWire. The network differential
// tests and the serving benches all compute that expectation here.

#ifndef FANNR_TESTING_WIRE_REFERENCE_H_
#define FANNR_TESTING_WIRE_REFERENCE_H_

#include <span>
#include <vector>

#include "engine/batch_engine.h"
#include "net/protocol.h"

namespace fannr::testing {

/// Answers wire jobs in-process as ONE engine Run over `graph` (which
/// must be the graph `engine` was built on), mirroring a server's merged
/// query burst, and maps each result through net::ToWire. Per-job
/// answers do not depend on batch composition, so the result is the
/// expectation for any split of `jobs` into requests.
std::vector<net::WireResult> SolveWire(BatchQueryEngine& engine,
                                       const Graph& graph,
                                       std::span<const net::WireQuery> jobs);

}  // namespace fannr::testing

#endif  // FANNR_TESTING_WIRE_REFERENCE_H_
