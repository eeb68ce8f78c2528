#include "loadgen.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <unordered_map>

#include "fann/query.h"
#include "net/iobuf.h"
#include "net/socket.h"
#include "pacer.h"

namespace perfbench {

namespace net = fannr::net;

namespace {

/// Past the phase end, outstanding answers get this long to arrive
/// before the phase is declared broken.
constexpr int64_t kDrainGraceNs = 30'000'000'000;

net::Opcode RequestOpcode(OpKind kind) {
  return kind == OpKind::kBatch ? net::Opcode::kBatch
                                : net::Opcode::kUpdateWeights;
}

constexpr uint8_t kOkStatus = static_cast<uint8_t>(fannr::QueryStatus::kOk);

bool IsStaleReject(const net::WireResult& result) {
  return result.status ==
         static_cast<uint8_t>(fannr::QueryStatus::kRejected);
}

timespec ToTimespec(int64_t ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  return ts;
}

}  // namespace

uint64_t AnswerDigest(const std::vector<net::WireResult>& results) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const net::WireResult& r : results) {
    const uint64_t subset_size = r.subset.size();
    const uint64_t error_size = r.error.size();
    mix(&r.status, sizeof(r.status));
    mix(&r.best, sizeof(r.best));
    mix(&r.distance, sizeof(r.distance));
    mix(&r.gphi_evaluations, sizeof(r.gphi_evaluations));
    mix(&subset_size, sizeof(subset_size));
    mix(r.subset.data(), r.subset.size() * sizeof(uint32_t));
    mix(&error_size, sizeof(error_size));
    mix(r.error.data(), r.error.size());
  }
  return h;
}

struct LoadGen::Conn {
  net::Socket sock;
  net::ByteQueue in;
  net::ByteQueue out;
  /// Request id on the wire -> index into PhaseResult::ops.
  std::unordered_map<uint64_t, uint64_t> inflight;
};

LoadGen::LoadGen(const Payloads& payloads, SpanLog& spans)
    : payloads_(payloads), spans_(spans) {}

LoadGen::~LoadGen() = default;

bool LoadGen::Connect(uint16_t port, size_t count, std::string* error) {
  if (count > kMaxConnections) {
    *error = "too many connections";
    return false;
  }
  for (size_t i = 0; i < count; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->sock = net::TcpConnect("127.0.0.1", port, error);
    if (!conn->sock.valid() || !conn->sock.SetNonBlocking()) return false;
    conns_.push_back(std::move(conn));
  }
  return true;
}

bool LoadGen::Pump(Conn& conn) {
  while (!conn.out.empty()) {
    const ssize_t sent = conn.sock.SendSome(conn.out.data(), conn.out.size());
    if (sent > 0) {
      conn.out.Consume(static_cast<size_t>(sent));
      continue;
    }
    return sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

bool LoadGen::Send(Conn& conn, uint64_t op_index, const Op& op) {
  const std::vector<std::vector<uint8_t>>& table =
      op.kind == OpKind::kBatch ? payloads_.batch : payloads_.update;
  const uint64_t id = next_request_id_++;
  const std::vector<uint8_t> frame = net::EncodeFrame(
      static_cast<uint16_t>(RequestOpcode(op.kind)), id, table[op.item]);
  conn.out.Append(frame.data(), frame.size());
  conn.inflight.emplace(id, op_index);
  return Pump(conn);
}

PhaseResult LoadGen::Run(Phase phase) {
  PhaseResult result;
  result.start_ns = NowNs();
  const int64_t phase_end_ns = result.start_ns + phase.duration_ns;
  const int64_t hard_stop_ns = phase_end_ns + kDrainGraceNs;

  result.ops = std::move(phase.scheduled);
  const size_t num_scheduled = result.ops.size();
  std::vector<int64_t> due;
  due.reserve(num_scheduled);
  for (const Op& op : result.ops) due.push_back(op.due_ns);
  OpenLoopPacer pacer(std::move(due), result.start_ns);
  // Closed-loop slots follow the scheduled operations in `ops`.
  result.ops.resize(num_scheduled + phase.closed_conns.size() * phase.window);
  size_t outstanding = 0;

  auto fail = [&](std::string why) {
    result.transport_ok = false;
    result.error = std::move(why);
  };
  // Sends one operation: stamps it, opens its root span in the traced
  // run (every other operation, so the untraced half measures the
  // tracing overhead), and writes its frame.
  auto send_op = [&](uint64_t index, int64_t due_ns) {
    const int64_t send_start = NowNs();
    Op& op = result.ops[index];
    op.due_ns = due_ns;
    op.sent_ns = send_start;
    if (spans_.enabled() && traced_seq_++ % 2 == 0) {
      op.span = spans_.Add("request", due_ns, 0);
    }
    ++outstanding;
    ++result.attempted;
    if (!Send(*conns_[op.conn], index, op)) {
      fail("send failed");
      return;
    }
    if (op.span != 0) {
      spans_.Add("net.client_send", send_start, NowNs(), op.span, op.span);
    }
  };
  // Closed loop: refills slot `index` with the connection's next
  // operation (due now) while the phase runs.
  auto refill = [&](uint64_t index, uint32_t conn, int64_t due_ns) {
    if (NowNs() >= phase_end_ns || !phase.next) return;
    std::optional<Op> next = phase.next(conn);
    if (!next) return;
    next->conn = conn;
    result.ops[index] = std::move(*next);
    result.lateness_ms.push_back(
        static_cast<float>(static_cast<double>(NowNs() - due_ns) / 1e6));
    send_op(index, due_ns);
  };
  // Folds a finished operation into the phase aggregates.
  auto account = [&](const Op& op, bool closed) {
    if (!op.ok) ++result.failed;
    if (op.retried) ++result.retried;
    const uint16_t ok_answers =
        op.ok && op.kind != OpKind::kUpdate ? op.answers : 0;
    result.ok_answers += ok_answers;
    if (op.ok && op.answers > 0) {
      const auto [it, inserted] = result.digests.emplace(
          AnswerKey{op.kind, op.item, op.epoch}, op.digest);
      if (!inserted && it->second != op.digest) ++result.inconsistent;
    }
    if (closed) {
      result.closed.push_back(
          {op.done_ns,
           static_cast<float>(LatencyFromDueMs(op.due_ns, op.done_ns)),
           ok_answers, op.kind, op.span != 0});
    }
  };

  size_t slot = num_scheduled;
  for (uint32_t c : phase.closed_conns) {
    for (size_t w = 0; w < phase.window; ++w) {
      refill(slot++, c, result.start_ns);
    }
  }

  std::vector<pollfd> fds(conns_.size());
  uint8_t scratch[64 * 1024];
  while (result.transport_ok) {
    const int64_t now = NowNs();
    pacer.Release(now, [&](size_t i, int64_t due_ns) { send_op(i, due_ns); });
    if (pacer.done() && now >= phase_end_ns && outstanding == 0) break;
    if (now > hard_stop_ns) {
      fail("answers still outstanding long after the phase end");
      break;
    }
    // Wake at least this often to notice the phase end.
    int64_t wait_ns = 10'000'000;
    if (!pacer.done()) wait_ns = std::min(wait_ns, pacer.NextDue() - now);
    if (now < phase_end_ns) wait_ns = std::min(wait_ns, phase_end_ns - now);
    wait_ns = std::max<int64_t>(wait_ns, 0);

    for (size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c]->sock.fd();
      fds[c].events = static_cast<short>(
          POLLIN | (conns_[c]->out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    const timespec timeout = ToTimespec(wait_ns);
    const int rc = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail("ppoll failed");
      break;
    }
    for (size_t c = 0; c < conns_.size() && result.transport_ok; ++c) {
      if (fds[c].revents == 0) continue;
      Conn& conn = *conns_[c];
      if ((fds[c].revents & POLLOUT) != 0 && !Pump(conn)) {
        fail("send failed");
        break;
      }
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      while (true) {
        const ssize_t got = conn.sock.RecvSome(scratch, sizeof(scratch));
        if (got > 0) {
          conn.in.Append(scratch, static_cast<size_t>(got));
          if (static_cast<size_t>(got) < sizeof(scratch)) break;
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail("connection closed by the server");
        break;
      }
      while (result.transport_ok) {
        net::FrameCut cut = net::CutFrame(conn.in);
        if (cut.kind == net::FrameCut::Kind::kNeedMore) break;
        if (cut.kind == net::FrameCut::Kind::kPoisoned) {
          fail("unframeable response stream: " + cut.envelope_error);
          break;
        }
        const int64_t cut_ns = NowNs();
        if (cut.header.opcode ==
            static_cast<uint16_t>(net::Opcode::kPushAnswer)) {
          Push push;
          push.subscription_id = cut.header.request_id;
          push.recv_ns = cut_ns;
          if (!net::DecodePushAnswer(cut.payload, push.answer)) {
            fail("undecodable PUSH_ANSWER");
            break;
          }
          pushes_.push_back(std::move(push));
          continue;
        }
        auto it = conn.inflight.find(cut.header.request_id);
        if (it == conn.inflight.end()) {
          fail("answer to a request never sent");
          break;
        }
        const uint64_t index = it->second;
        conn.inflight.erase(it);
        Op& op = result.ops[index];
        if (op.span != 0) {
          spans_.Add("net.await_response", op.sent_ns, cut_ns, op.span,
                     op.span);
        }
        bool resend = false;
        switch (static_cast<net::Opcode>(cut.header.opcode)) {
          case net::Opcode::kError:
            op.ok = false;  // overloaded, shutting down, malformed: failed
            break;
          case net::Opcode::kBatchResult: {
            net::BatchResponse response;
            if (!net::DecodeBatchResponse(cut.payload, response)) {
              fail("undecodable BATCH_RESULT");
              break;
            }
            op.epoch = response.graph_epoch;
            op.ok = true;
            for (const net::WireResult& r : response.results) {
              resend = resend || (IsStaleReject(r) && !op.retried);
              op.ok = op.ok && r.status == kOkStatus;
            }
            op.answers = static_cast<uint16_t>(response.results.size());
            op.digest = AnswerDigest(response.results);
            break;
          }
          case net::Opcode::kUpdateResult: {
            net::UpdateWeightsResponse response;
            if (!net::DecodeUpdateWeightsResponse(cut.payload, response)) {
              fail("undecodable UPDATE_RESULT");
              break;
            }
            op.epoch = response.new_epoch;
            op.ok = response.status == 0;
            break;
          }
          default:
            fail("unexpected response opcode");
            break;
        }
        if (!result.transport_ok) break;
        if (op.kind != OpKind::kUpdate && op.answers > 0 &&
            result.sampled_frames.size() < kSampledFrames) {
          result.sampled_frames.push_back(std::move(cut.payload));
        }
        if (op.span != 0) {
          spans_.Add("net.client_decode", cut_ns, NowNs(), op.span, op.span);
        }
        if (resend) {
          // Stale admission epoch: one re-submission under the new
          // epoch, still timed from the original due time.
          op.retried = true;
          if (!Send(conn, index, op)) fail("send failed");
          continue;
        }
        op.finished = true;
        op.done_ns = NowNs();
        spans_.End(op.span);
        --outstanding;
        const bool closed = index >= num_scheduled;
        account(op, closed);
        if (closed) refill(index, op.conn, op.done_ns);
      }
    }
  }
  for (double late : pacer.lateness_ms()) {
    result.lateness_ms.push_back(static_cast<float>(late));
  }
  result.ops.resize(num_scheduled);
  result.end_ns = NowNs();
  return result;
}

bool LoadGen::RoundTrip(
    uint32_t conn_index, net::Opcode opcode,
    const std::vector<std::vector<uint8_t>>& payloads,
    std::vector<std::pair<net::FrameHeader, std::vector<uint8_t>>>& responses,
    std::string* error) {
  Conn& conn = *conns_[conn_index];
  std::unordered_map<uint64_t, size_t> slot;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const uint64_t id = next_request_id_++;
    const std::vector<uint8_t> frame =
        net::EncodeFrame(static_cast<uint16_t>(opcode), id, payloads[i]);
    conn.out.Append(frame.data(), frame.size());
    slot.emplace(id, i);
  }
  responses.assign(payloads.size(), {});
  size_t pending = payloads.size();
  uint8_t scratch[64 * 1024];
  const int64_t deadline = NowNs() + kDrainGraceNs;
  while (pending > 0) {
    if (!Pump(conn)) {
      *error = "send failed";
      return false;
    }
    pollfd fd{conn.sock.fd(),
              static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)),
              0};
    const timespec timeout = ToTimespec(10'000'000);
    if (::ppoll(&fd, 1, &timeout, nullptr) < 0 && errno != EINTR) {
      *error = "ppoll failed";
      return false;
    }
    if (NowNs() > deadline) {
      *error = "set-up request timed out";
      return false;
    }
    while (true) {
      const ssize_t got = conn.sock.RecvSome(scratch, sizeof(scratch));
      if (got > 0) {
        conn.in.Append(scratch, static_cast<size_t>(got));
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      *error = "connection closed by the server";
      return false;
    }
    while (true) {
      net::FrameCut cut = net::CutFrame(conn.in);
      if (cut.kind == net::FrameCut::Kind::kNeedMore) break;
      if (cut.kind == net::FrameCut::Kind::kPoisoned) {
        *error = "unframeable response stream";
        return false;
      }
      if (cut.header.opcode ==
          static_cast<uint16_t>(net::Opcode::kPushAnswer)) {
        Push push;
        push.subscription_id = cut.header.request_id;
        push.recv_ns = NowNs();
        if (!net::DecodePushAnswer(cut.payload, push.answer)) {
          *error = "undecodable PUSH_ANSWER";
          return false;
        }
        pushes_.push_back(std::move(push));
        continue;
      }
      auto it = slot.find(cut.header.request_id);
      if (it == slot.end()) {
        *error = "answer to a request never sent";
        return false;
      }
      responses[it->second] = {cut.header, std::move(cut.payload)};
      slot.erase(it);
      --pending;
    }
  }
  return true;
}

}  // namespace perfbench
