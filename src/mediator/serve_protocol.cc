#include "mediator/serve_protocol.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "planner/query_parser.h"

namespace limcap::mediator {

namespace {

/// The length prefix, big-endian so the wire format is byte-order
/// independent.
void PutLength(uint32_t length, char out[4]) {
  out[0] = static_cast<char>((length >> 24) & 0xFF);
  out[1] = static_cast<char>((length >> 16) & 0xFF);
  out[2] = static_cast<char>((length >> 8) & 0xFF);
  out[3] = static_cast<char>(length & 0xFF);
}

uint32_t GetLength(const char* in) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(in[0])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3]));
}

/// write(2) until done, retrying EINTR.
Status WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// read(2) until `size` bytes, retrying EINTR. `*eof_ok` reports a clean
/// EOF before the first byte (only meaningful when the caller allows it).
Status ReadAll(int fd, char* data, std::size_t size, bool* clean_eof) {
  std::size_t got = 0;
  while (got < size) {
    ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::ProtocolError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  if (clean_eof != nullptr) *clean_eof = false;
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  char prefix[4];
  PutLength(static_cast<uint32_t>(payload.size()), prefix);
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.append(prefix, 4);
  frame.append(payload);
  return frame;
}

Result<std::string> DecodeFrame(std::string_view buffer,
                                std::size_t* consumed) {
  if (buffer.size() < 4) {
    return Status::OutOfRange("incomplete frame: no length prefix yet");
  }
  const uint32_t length = GetLength(buffer.data());
  if (length > kMaxFramePayload) {
    return Status::ProtocolError(
        "frame payload length " + std::to_string(length) +
        " exceeds the " + std::to_string(kMaxFramePayload) + " byte cap");
  }
  if (buffer.size() < 4 + static_cast<std::size_t>(length)) {
    return Status::OutOfRange("incomplete frame: partial payload");
  }
  *consumed = 4 + static_cast<std::size_t>(length);
  return std::string(buffer.substr(4, length));
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload exceeds the size cap");
  }
  // One buffer, one write path: short frames are the norm, so the copy
  // is cheaper than risking a torn prefix/payload interleave from two
  // writers on one socket.
  const std::string frame = EncodeFrame(payload);
  return WriteAll(fd, frame.data(), frame.size());
}

Result<std::string> ReadFrame(int fd) {
  char prefix[4];
  bool clean_eof = false;
  LIMCAP_RETURN_NOT_OK(ReadAll(fd, prefix, 4, &clean_eof));
  if (clean_eof) {
    return Status::NotFound("connection closed at a frame boundary");
  }
  const uint32_t length = GetLength(prefix);
  if (length > kMaxFramePayload) {
    // Do NOT read the declared payload: a hostile or corrupted prefix
    // would have us blocking on up-to-4 GiB that may never arrive. The
    // caller closes the connection on kProtocolError instead.
    return Status::ProtocolError(
        "frame payload length " + std::to_string(length) +
        " exceeds the " + std::to_string(kMaxFramePayload) + " byte cap");
  }
  std::string payload(length, '\0');
  if (length > 0) {
    LIMCAP_RETURN_NOT_OK(ReadAll(fd, payload.data(), length, nullptr));
  }
  return payload;
}

Result<WireRequest> ParseWireRequest(const Json& message) {
  if (!message.is_object()) {
    return Status::InvalidArgument("frame payload is not a JSON object");
  }
  WireRequest wire;
  LIMCAP_ASSIGN_OR_RETURN(wire.id, message.GetUnsigned("id"));
  wire.query_text = message.GetString("query");
  if (wire.query_text.empty()) {
    return Status::InvalidArgument("query message carries no \"query\" text");
  }
  LIMCAP_ASSIGN_OR_RETURN(wire.request.query,
                          planner::ParseQuery(wire.query_text));
  // Absent or 0 keeps the request's defaults.
  LIMCAP_ASSIGN_OR_RETURN(const uint64_t budget,
                          message.GetUnsigned("max_source_queries"));
  if (budget > 0) wire.request.max_source_queries = budget;
  LIMCAP_ASSIGN_OR_RETURN(const uint64_t min_answers,
                          message.GetUnsigned("min_answers"));
  if (min_answers > 0) wire.request.min_answers = min_answers;
  wire.request.deadline_ms = message.GetNumber("deadline_ms", 0);
  return wire;
}

Json RenderResponse(uint64_t id, const ServeResponse& response) {
  Json reply = Json::MakeObject();
  reply.Set("id", id);
  if (!response.report.ok()) {
    const Status& status = response.report.status();
    reply.Set("type", "error");
    reply.Set("ok", false);
    reply.Set("code", static_cast<int>(status.code()));
    reply.Set("code_name", StatusCodeToString(status.code()));
    reply.Set("message", status.message());
    reply.Set("queue_ms", response.queue_ms);
    return reply;
  }
  const exec::AnswerReport& report = *response.report;
  reply.Set("type", "answer");
  reply.Set("ok", true);
  Json columns = Json::MakeArray();
  for (const std::string& attribute :
       report.exec.answer.schema().attributes()) {
    columns.Append(attribute);
  }
  reply.Set("columns", std::move(columns));
  Json rows = Json::MakeArray();
  for (const relational::Row& row : report.exec.answer.DecodedRows()) {
    Json out_row = Json::MakeArray();
    for (const Value& value : row) out_row.Append(value.ToString());
    rows.Append(std::move(out_row));
  }
  reply.Set("rows", std::move(rows));
  reply.Set("rounds", static_cast<uint64_t>(report.exec.rounds));
  reply.Set("source_queries",
            static_cast<uint64_t>(report.exec.log.total_queries()));
  reply.Set("degraded", report.exec.fetch_report.degraded());
  reply.Set("cache_hit", report.cache.hit);
  reply.Set("queue_ms", response.queue_ms);
  reply.Set("exec_ms", response.exec_ms);
  return reply;
}

Json RenderStatus(uint64_t id, const ServeSession& session) {
  const ServeSession::Stats stats = session.stats();
  Json reply = Json::MakeObject();
  reply.Set("type", "status");
  reply.Set("id", id);
  reply.Set("accepted", stats.accepted);
  reply.Set("rejected", stats.rejected);
  reply.Set("completed", stats.completed);
  reply.Set("failed", stats.failed);
  reply.Set("in_flight", static_cast<uint64_t>(stats.in_flight));
  reply.Set("queue_depth", static_cast<uint64_t>(stats.queue_depth));
  Json governor = Json::MakeObject();
  governor.Set("acquired", stats.governor.acquired);
  governor.Set("waited", stats.governor.waited);
  governor.Set("cross_query_coalesced", stats.governor.cross_query_coalesced);
  governor.Set("peak_in_flight",
               static_cast<uint64_t>(stats.governor.peak_in_flight));
  reply.Set("governor", std::move(governor));
  const planner::PlanCache::Stats cache =
      session.mediator().plan_cache().stats();
  Json plan_cache = Json::MakeObject();
  plan_cache.Set("size", static_cast<uint64_t>(cache.size));
  plan_cache.Set("capacity", static_cast<uint64_t>(cache.capacity));
  plan_cache.Set("hits", cache.hits);
  plan_cache.Set("misses", cache.misses);
  plan_cache.Set("inserts", cache.inserts);
  plan_cache.Set("evictions", cache.evictions);
  plan_cache.Set("invalidations", cache.invalidations);
  reply.Set("plan_cache", std::move(plan_cache));
  Json counters = Json::MakeObject();
  // Bound to a local on purpose: server_metrics() returns a snapshot by
  // value, and a range-for over a member of that temporary would iterate
  // freed memory (the temporary dies before the loop body).
  const obs::MetricsRegistry metrics = session.server_metrics();
  for (const auto& [name, value] : metrics.counters()) {
    counters.Set(name, value);
  }
  reply.Set("counters", std::move(counters));
  return reply;
}

}  // namespace limcap::mediator
