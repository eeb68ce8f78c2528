// The load generator: one thread, at most four connections.
//
// Every workload drives the server (or the router) through this one
// generator. It owns nonblocking sockets multiplexed by ppoll(2), keeps
// many request frames in flight per connection (the protocol's
// request_id correlation), and mixes two disciplines in one phase:
//   * open loop: operations released at pre-drawn due times (see
//     pacer.h), latency measured from the due time;
//   * closed loop: `window` operations in flight on each of the chosen
//     connections; each answer immediately frees its slot for the next
//     operation, so throughput is what the server sustains.
// Payloads are encoded before the phase starts, so the phase spends its
// time on the wire, not on workload synthesis.
//
// Failure accounting: a BATCH rejected because its admission
// epoch went stale is re-sent once, keeping its due time, so the retry
// counts toward its latency. An operation that is overloaded, times
// out, is still rejected after the retry, or gets any other error frame
// counts as failed. A transport or framing failure ends the phase with
// an error — the run is then invalid, not slow.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "spans.h"

namespace perfbench {

enum class OpKind : uint8_t { kBatch, kUpdate };

/// One logical operation: a BATCH of queries or a weight update. A
/// stale-epoch retry stays the same operation.
struct Op {
  OpKind kind = OpKind::kBatch;
  uint32_t conn = 0;  ///< Connection index.
  uint32_t item = 0;  ///< Index into the Payloads table of `kind`.
  int64_t due_ns = 0;   ///< Absolute due time (steady clock).
  int64_t sent_ns = 0;  ///< First transmission.
  int64_t done_ns = 0;  ///< Final answer received.
  uint32_t span = 0;    ///< Root span id in the traced run (0 = untraced).
  bool retried = false;
  bool finished = false;
  bool ok = false;
  uint64_t epoch = 0;  ///< Graph epoch of the final answer.
  /// BATCH: how many results, and AnswerDigest of all of them.
  uint16_t answers = 0;
  uint64_t digest = 0;
};

/// 64-bit FNV-1a digest over every field of every result — status,
/// best, the distance's bits, g_phi evaluations, subset, error — so two
/// answers compare bitwise without the generator keeping each one.
uint64_t AnswerDigest(const std::vector<fannr::net::WireResult>& results);

/// One PUSH_ANSWER frame as received.
struct Push {
  uint64_t subscription_id = 0;
  int64_t recv_ns = 0;
  fannr::net::PushAnswer answer;
};

/// Pre-encoded request payloads, indexed by Op::item per kind.
struct Payloads {
  std::vector<std::vector<uint8_t>> batch;
  std::vector<std::vector<uint8_t>> update;
};

/// One phase of load. Open-loop operations carry due times relative to
/// the phase start (ascending); closed-loop connections draw operations
/// from `next` until `duration_ns` has passed.
struct Phase {
  int64_t duration_ns = 0;
  std::vector<Op> scheduled;             ///< Open loop; due_ns relative.
  std::vector<uint32_t> closed_conns;    ///< Closed loop connections.
  size_t window = 0;                     ///< In flight per closed conn.
  /// Returns the next closed-loop operation for a connection (kind and
  /// item; the generator fills the rest), or nullopt to stop that slot.
  std::function<std::optional<Op>(uint32_t conn)> next;
};

/// Identifies one answer for the correctness check: what was asked
/// (kind and payload item) and the graph epoch it was answered under.
struct AnswerKey {
  OpKind kind = OpKind::kBatch;
  uint32_t item = 0;
  uint64_t epoch = 0;
  auto operator<=>(const AnswerKey&) const = default;
};

/// One finished closed-loop operation: when it finished, its latency
/// from the moment its slot freed, and its ok results (0 if it failed).
struct ClosedSample {
  int64_t done_ns = 0;
  float latency_ms = 0;
  uint16_t ok_answers = 0;
  OpKind kind = OpKind::kBatch;
  bool traced = false;
};

/// What a phase did. Open-loop operations are kept whole, in schedule
/// order. Closed-loop operations reuse a fixed set of in-flight slots
/// and are folded into the aggregates as they finish, so the
/// generator's memory does not grow with the server's throughput (it
/// is part of peak_rss_mb).
struct PhaseResult {
  std::vector<Op> ops;  ///< Open-loop operations.
  std::vector<ClosedSample> closed;
  /// Every answered operation's AnswerDigest by what it asked and when.
  std::map<AnswerKey, uint64_t> digests;
  /// Answers whose digest differed from an earlier answer to the same
  /// key — a mismatch whatever the reference says.
  size_t inconsistent = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t retried = 0;        ///< Stale-epoch re-submissions.
  size_t ok_answers = 0;     ///< Results of ok BATCH operations.
  std::vector<float> lateness_ms;
  /// The first kSampledFrames BATCH_RESULT payloads, for
  /// timing the codec on the run's own frames.
  std::vector<std::vector<uint8_t>> sampled_frames;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool transport_ok = true;
  std::string error;
};

class LoadGen {
 public:
  static constexpr size_t kMaxConnections = 4;
  static constexpr size_t kSampledFrames = 2000;

  LoadGen(const Payloads& payloads, SpanLog& spans);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens `count` (<= kMaxConnections) connections to 127.0.0.1:port.
  bool Connect(uint16_t port, size_t count, std::string* error);

  /// Runs one phase to completion: until every scheduled operation and
  /// every closed-loop operation sent before the phase end has its
  /// final answer (bounded by a hard stop well past the phase end).
  PhaseResult Run(Phase phase);

  /// Pushes received so far on any connection, in arrival order.
  const std::vector<Push>& pushes() const { return pushes_; }

  /// Sends raw request frames synchronously on `conn` and waits for
  /// their answers (set-up helpers: subscribe, warm-up). Returns the
  /// response frames in request order; false on transport failure.
  bool RoundTrip(uint32_t conn, fannr::net::Opcode opcode,
                 const std::vector<std::vector<uint8_t>>& payloads,
                 std::vector<std::pair<fannr::net::FrameHeader,
                                       std::vector<uint8_t>>>& responses,
                 std::string* error);

 private:
  struct Conn;

  /// Writes one request frame for ops[op_index]; false on send failure.
  bool Send(Conn& conn, uint64_t op_index, const Op& op);
  /// Flushes what the socket accepts now; false on send failure.
  bool Pump(Conn& conn);

  const Payloads& payloads_;
  SpanLog& spans_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Push> pushes_;
  uint64_t next_request_id_ = 1;
  uint64_t traced_seq_ = 0;  ///< Alternates traced / untraced ops.
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
