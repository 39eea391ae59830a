// Wire-protocol tests for limcap_serve: framing (buffer- and fd-level),
// request parsing, and response/status rendering. Suite names contain
// "Serve" so the TSan CI job's regex picks them up alongside the session
// tests.

#include "mediator/serve_protocol.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>

#include "mediator/mediator.h"
#include "mediator/serve_session.h"
#include "paperdata/paper_examples.h"

namespace limcap::mediator {
namespace {

using paperdata::PaperExample;

TEST(ServeProtocolTest, FrameRoundTripsThroughBuffer) {
  const std::string payload = "{\"type\":\"status\",\"id\":7}";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), payload.size() + 4);
  std::size_t consumed = 0;
  auto decoded = DecodeFrame(frame, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, payload);
  EXPECT_EQ(consumed, frame.size());

  // Two concatenated frames decode one at a time.
  const std::string two = frame + EncodeFrame("x");
  auto first = DecodeFrame(two, &consumed);
  ASSERT_TRUE(first.ok());
  auto second =
      DecodeFrame(std::string_view(two).substr(consumed), &consumed);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "x");
}

TEST(ServeProtocolTest, IncompleteAndOversizedFramesAreDistinguished) {
  std::size_t consumed = 0;
  // No length prefix yet, then a partial payload: both OutOfRange
  // ("read more and retry").
  EXPECT_EQ(DecodeFrame("\x00\x00", &consumed).status().code(),
            StatusCode::kOutOfRange);
  const std::string frame = EncodeFrame("hello");
  EXPECT_EQ(
      DecodeFrame(std::string_view(frame).substr(0, 6), &consumed)
          .status()
          .code(),
      StatusCode::kOutOfRange);
  // A corrupt prefix claiming gigabytes is a protocol violation — the
  // stream cannot be resynchronized, so the caller must close it.
  const std::string oversized = {'\x7f', '\x00', '\x00', '\x00'};
  EXPECT_EQ(DecodeFrame(oversized, &consumed).status().code(),
            StatusCode::kProtocolError);
}

TEST(ServeProtocolTest, FrameCapBoundaryIsExact) {
  std::size_t consumed = 0;
  // Exactly at the cap: legal. DecodeFrame sees the full frame.
  const std::string max_payload(kMaxFramePayload, 'x');
  const std::string max_frame = EncodeFrame(max_payload);
  auto at_cap = DecodeFrame(max_frame, &consumed);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status();
  EXPECT_EQ(at_cap->size(), kMaxFramePayload);

  // One byte past the cap: kProtocolError from the prefix alone,
  // before any payload byte is examined (or, fd-side, read).
  const uint32_t over = static_cast<uint32_t>(kMaxFramePayload) + 1;
  std::string over_prefix(4, '\0');
  over_prefix[0] = static_cast<char>(over >> 24);
  over_prefix[1] = static_cast<char>(over >> 16);
  over_prefix[2] = static_cast<char>(over >> 8);
  over_prefix[3] = static_cast<char>(over);
  EXPECT_EQ(DecodeFrame(over_prefix, &consumed).status().code(),
            StatusCode::kProtocolError);

  // Fd-side: the oversized prefix alone (no payload will ever come)
  // must fail immediately instead of blocking on 16 MiB + 1 bytes —
  // the "clean close, not a hang" property.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], over_prefix.data(), 4), 4);
  EXPECT_EQ(ReadFrame(fds[0]).status().code(), StatusCode::kProtocolError);
  ::close(fds[1]);
  ::close(fds[0]);
}

TEST(ServeProtocolTest, FdFramingRoundTripsAndReportsCleanEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFrame(fds[1], "first").ok());
  ASSERT_TRUE(WriteFrame(fds[1], "").ok());  // empty payload is legal
  auto first = ReadFrame(fds[0]);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, "first");
  auto second = ReadFrame(fds[0]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "");
  // Close at a frame boundary: NotFound (clean EOF), not an error.
  ::close(fds[1]);
  EXPECT_EQ(ReadFrame(fds[0]).status().code(), StatusCode::kNotFound);
  ::close(fds[0]);

  // A connection dying mid-frame is a protocol violation, not a clean
  // EOF and not our bug (kInternal): the peer broke the framing.
  ASSERT_EQ(::pipe(fds), 0);
  const std::string frame = EncodeFrame("truncated");
  ASSERT_EQ(::write(fds[1], frame.data(), 7),
            static_cast<ssize_t>(7));
  ::close(fds[1]);
  EXPECT_EQ(ReadFrame(fds[0]).status().code(), StatusCode::kProtocolError);
  ::close(fds[0]);

  // Truncation inside the 4-byte prefix itself is the same violation.
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], frame.data(), 2), static_cast<ssize_t>(2));
  ::close(fds[1]);
  EXPECT_EQ(ReadFrame(fds[0]).status().code(), StatusCode::kProtocolError);
  ::close(fds[0]);
}

TEST(ServeProtocolTest, ParsesQueryMessagesInPaperNotation) {
  PaperExample example = paperdata::MakeExample21();
  Json message = Json::MakeObject();
  message.Set("type", "query");
  message.Set("id", static_cast<uint64_t>(42));
  message.Set("query", example.query.ToString());
  message.Set("max_source_queries", 9);
  message.Set("deadline_ms", 250.0);
  auto wire = ParseWireRequest(message);
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_EQ(wire->id, 42u);
  // The query round-trips: what travels is exactly Query::ToString.
  EXPECT_EQ(wire->request.query.ToString(), example.query.ToString());
  EXPECT_EQ(wire->request.max_source_queries, 9u);
  EXPECT_EQ(wire->request.deadline_ms, 250.0);
  EXPECT_EQ(wire->request.min_answers, 0u);

  Json no_query = Json::MakeObject();
  no_query.Set("type", "query");
  no_query.Set("id", 1);
  EXPECT_EQ(ParseWireRequest(no_query).status().code(),
            StatusCode::kInvalidArgument);

  Json bad_text = Json::MakeObject();
  bad_text.Set("type", "query");
  bad_text.Set("query", "this is not a connection query");
  EXPECT_FALSE(ParseWireRequest(bad_text).ok());
}

TEST(ServeProtocolTest, RendersLoadShedErrorsWithDistinctCode) {
  ServeResponse shed;
  shed.report = Status::LoadShed("queue full");
  shed.queue_ms = 1.5;
  const Json reply = RenderResponse(3, shed);
  EXPECT_EQ(reply.GetString("type"), "error");
  EXPECT_FALSE(reply.GetBool("ok", true));
  EXPECT_EQ(static_cast<int>(reply.GetNumber("code", 0)),
            static_cast<int>(StatusCode::kLoadShed));
  EXPECT_EQ(reply.GetString("code_name"), "Load shed");
  EXPECT_EQ(static_cast<uint64_t>(reply.GetNumber("id", 0)), 3u);
  // The rendered reply survives a wire round-trip.
  auto parsed = Json::Parse(reply.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("message"), "queue full");
}

TEST(ServeProtocolTest, RendersAnswersWithRowsAndStatusWithStats) {
  PaperExample example = paperdata::MakeExample21();
  Mediator mediator(&example.catalog, example.domains);
  ServeSession session(&mediator, {});
  ServeRequest request;
  request.query = example.query;
  ServeResponse response = session.Answer(std::move(request));
  ASSERT_TRUE(response.report.ok()) << response.report.status();

  const Json reply = RenderResponse(5, response);
  EXPECT_EQ(reply.GetString("type"), "answer");
  EXPECT_TRUE(reply.GetBool("ok", false));
  // Example 2.1's obtainable answer: {$15, $13, $10} on column Price.
  EXPECT_EQ(reply.Get("columns").array().size(), 1u);
  EXPECT_EQ(reply.Get("rows").array().size(), 3u);
  EXPECT_GT(reply.GetNumber("source_queries", 0), 0);

  // Status rendering includes the session stats, governor, plan-cache
  // snapshot, and the merged server counters (this used to dangle: the
  // counters come from a by-value registry snapshot).
  const Json status = RenderStatus(6, session);
  EXPECT_EQ(status.GetString("type"), "status");
  EXPECT_EQ(status.GetNumber("completed", 0), 1);
  EXPECT_EQ(status.Get("plan_cache").GetNumber("capacity", 0),
            static_cast<double>(planner::PlanCache::kDefaultCapacity));
  EXPECT_GT(status.Get("counters").GetNumber("exec.source_queries", 0), 0);
  session.Shutdown();
}

TEST(ServeProtocolTest, OutOfRangeNumbersGetErrorRepliesAndServingContinues) {
  PaperExample example = paperdata::MakeExample21();
  Mediator mediator(&example.catalog, example.domains);
  ServeSession session(&mediator, {});
  // One frame through the server's path: decode, parse, validate, then
  // either an error reply or the session's answer.
  auto serve_frame = [&](const std::string& payload) {
    std::size_t consumed = 0;
    Result<std::string> frame = DecodeFrame(EncodeFrame(payload), &consumed);
    EXPECT_TRUE(frame.ok());
    Result<Json> message = Json::Parse(frame.value_or(""));
    EXPECT_TRUE(message.ok()) << payload;
    Result<WireRequest> wire =
        ParseWireRequest(message.value_or(Json::MakeObject()));
    if (!wire.ok()) {
      ServeResponse refused;
      refused.report = wire.status();
      return RenderResponse(0, refused);
    }
    return RenderResponse(wire->id, session.Answer(std::move(wire->request)));
  };
  const std::string query = Json(example.query.ToString()).Dump();
  const std::string valid =
      "{\"type\":\"query\",\"id\":7,\"query\":" + query + "}";

  for (const char* field : {"id", "max_source_queries", "min_answers"}) {
    // Negative, fractional, huge, and exactly 2^64: each would be
    // undefined behaviour as a cast to an unsigned integer.
    for (const char* number :
         {"-1", "1.5", "1e300", "18446744073709551616"}) {
      const std::string payload = "{\"type\":\"query\",\"query\":" + query +
                                  ",\"" + field + "\":" + number + "}";
      const Json reply = serve_frame(payload);
      EXPECT_EQ(reply.GetString("type"), "error") << payload;
      EXPECT_EQ(reply.GetNumber("code", -1),
                static_cast<int>(StatusCode::kInvalidArgument))
          << payload;
      EXPECT_NE(reply.GetString("message").find(field), std::string::npos)
          << reply.Dump();
      // The session keeps serving.
      const Json answer = serve_frame(valid);
      EXPECT_EQ(answer.GetString("type"), "answer") << answer.Dump();
      EXPECT_EQ(answer.GetNumber("id", 0), 7);
    }
  }

  // Absent and 0 keep their meaning: no override of the defaults.
  for (const char* extra :
       {"", ",\"max_source_queries\":0,\"min_answers\":0"}) {
    const std::string payload =
        "{\"type\":\"query\",\"query\":" + query + extra + "}";
    auto wire = ParseWireRequest(*Json::Parse(payload));
    ASSERT_TRUE(wire.ok()) << wire.status();
    EXPECT_EQ(wire->id, 0u);
    EXPECT_EQ(wire->request.max_source_queries,
              ServeRequest().max_source_queries);
    EXPECT_EQ(wire->request.min_answers, ServeRequest().min_answers);
  }
  // The largest id below 2^64 that a double holds still parses.
  auto largest = ParseWireRequest(*Json::Parse(
      "{\"type\":\"query\",\"id\":18446744073709549568,\"query\":" + query +
      "}"));
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest->id, 18446744073709549568u);
  session.Shutdown();
}

}  // namespace
}  // namespace limcap::mediator
