// ServeSession and FetchGovernor tests. Every suite name contains
// "Serve" on purpose: the TSan CI job selects these suites by regex, so
// the bit-identity property and the admission/drain paths run under the
// race detector on every push.

#include "mediator/serve_session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/fingerprint.h"
#include "exec/query_answerer.h"
#include "mediator/mediator.h"
#include "paperdata/paper_examples.h"
#include "runtime/fetch_governor.h"
#include "workload/generator.h"

namespace limcap::mediator {
namespace {

using exec::ExecOptions;
using exec::OrderedFingerprint;
using exec::QueryAnswerer;
using paperdata::PaperExample;
using runtime::FetchGovernor;
using workload::GenerateMixedWorkload;
using workload::MixedWorkload;
using workload::MixedWorkloadSpec;

/// The two execution configurations the isolation contract must hold
/// under: everything serial, and concurrent source fetching.
struct Config {
  const char* name;
  ExecOptions options;
};

std::vector<Config> Configs() {
  Config serial{"serial", {}};
  Config concurrent_fetch{"concurrent_fetch", {}};
  concurrent_fetch.options.runtime.concurrent = true;
  return {serial, concurrent_fetch};
}

double CounterValue(const obs::MetricsRegistry& registry,
                    std::string_view name) {
  auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0.0 : it->second;
}

/// Answers `query` alone — fresh answerer, no governor, no shared cache —
/// and returns its fingerprint.
std::string SoloFingerprint(const MixedWorkload& workload,
                            const planner::Query& query,
                            const ExecOptions& options) {
  QueryAnswerer answerer(&workload.catalog, workload.domains);
  auto report = answerer.Answer(query, options);
  if (!report.ok()) return "error: " + report.status().ToString();
  return OrderedFingerprint(report->exec);
}

// The tentpole property: N queries answered concurrently on a shared
// ServeSession are each bit-identical (OrderedFingerprint) to the same
// query answered alone on an idle system — under every execution config
// and across seeds. Sharing the plan cache and the fetch governor must
// change throughput only, never answers.
TEST(ServeBitIdentityTest, ConcurrentAnswersMatchSoloAcrossConfigs) {
  for (const uint64_t seed : {3ull, 11ull}) {
    MixedWorkloadSpec spec;
    spec.seed = seed;
    spec.num_requests = 12;
    auto workload = GenerateMixedWorkload(spec);
    ASSERT_TRUE(workload.ok()) << workload.status();
    Mediator mediator(&workload->catalog, workload->domains);

    for (const Config& config : Configs()) {
      std::vector<std::string> expected;
      expected.reserve(workload->requests.size());
      for (const workload::MixedRequest& request : workload->requests) {
        expected.push_back(
            SoloFingerprint(*workload, request.query, config.options));
      }

      ServeOptions serve_options;
      serve_options.workers = 4;
      serve_options.exec = config.options;
      ServeSession session(&mediator, serve_options);

      std::vector<std::string> actual(workload->requests.size());
      std::mutex mutex;
      std::condition_variable all_done;
      std::size_t done = 0;
      for (std::size_t i = 0; i < workload->requests.size(); ++i) {
        ServeRequest request;
        request.query = workload->requests[i].query;
        Status admitted = session.Submit(
            std::move(request), [&, i](ServeResponse response) {
              actual[i] =
                  response.report.ok()
                      ? OrderedFingerprint(response.report->exec)
                      : "error: " + response.report.status().ToString();
              std::lock_guard<std::mutex> lock(mutex);
              ++done;
              all_done.notify_all();
            });
        ASSERT_TRUE(admitted.ok()) << admitted.ToString();
      }
      {
        std::unique_lock<std::mutex> lock(mutex);
        all_done.wait(lock,
                      [&] { return done == workload->requests.size(); });
      }
      session.Shutdown();

      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i])
            << "config " << config.name << ", seed " << seed
            << ", request " << i << " ("
            << MixedRequestClassName(workload->requests[i].query_class)
            << ")";
      }
    }
  }
}

TEST(ServeAdmissionTest, LoadShedsWithDistinctCodeWhenQueueFull) {
  PaperExample example = paperdata::MakeExample21();
  Mediator mediator(&example.catalog, example.domains);
  ServeOptions options;
  options.workers = 1;
  options.max_queue = 1;
  ServeSession session(&mediator, options);

  constexpr std::size_t kSubmissions = 32;
  std::atomic<std::size_t> answered{0};
  std::size_t shed = 0;
  for (std::size_t i = 0; i < kSubmissions; ++i) {
    ServeRequest request;
    request.query = example.query;
    Status admitted = session.Submit(
        std::move(request), [&](ServeResponse response) {
          EXPECT_TRUE(response.report.ok()) << response.report.status();
          ++answered;
        });
    if (!admitted.ok()) {
      EXPECT_EQ(admitted.code(), StatusCode::kLoadShed) << admitted;
      ++shed;
    }
  }
  session.Shutdown();

  // A 1-worker, 1-slot server cannot swallow 32 instant submissions:
  // some must shed, the rest must all be answered, and the books must
  // balance exactly.
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(answered.load() + shed, kSubmissions);
  const ServeSession::Stats stats = session.stats();
  EXPECT_EQ(stats.rejected, shed);
  EXPECT_EQ(stats.accepted, answered.load());
  EXPECT_EQ(stats.completed, answered.load());
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServeShutdownTest, GracefulDrainCompletesAcceptedThenShedsNew) {
  PaperExample example = paperdata::MakeExample21();
  Mediator mediator(&example.catalog, example.domains);
  ServeOptions options;
  options.workers = 2;
  ServeSession session(&mediator, options);

  constexpr std::size_t kSubmissions = 8;
  std::atomic<std::size_t> answered{0};
  for (std::size_t i = 0; i < kSubmissions; ++i) {
    ServeRequest request;
    request.query = example.query;
    ASSERT_TRUE(session
                    .Submit(std::move(request),
                            [&](ServeResponse response) {
                              EXPECT_TRUE(response.report.ok())
                                  << response.report.status();
                              ++answered;
                            })
                    .ok());
  }
  // Shutdown while requests are queued and in flight: the drain must
  // deliver every accepted response before returning.
  session.Shutdown();
  EXPECT_EQ(answered.load(), kSubmissions);
  EXPECT_TRUE(session.draining());

  // Admission after shutdown is refused with the load-shed code.
  ServeRequest late;
  late.query = example.query;
  Status refused = session.Submit(std::move(late), [](ServeResponse) {
    FAIL() << "a refused request must never get a callback";
  });
  EXPECT_EQ(refused.code(), StatusCode::kLoadShed) << refused;

  const ServeSession::Stats stats = session.stats();
  EXPECT_EQ(stats.accepted, kSubmissions);
  EXPECT_EQ(stats.completed, kSubmissions);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServeDeadlineTest, RequestExpiredInQueueFailsWithoutExecuting) {
  PaperExample example = paperdata::MakeExample21();
  Mediator mediator(&example.catalog, example.domains);
  ServeOptions options;
  options.workers = 1;
  ServeSession session(&mediator, options);

  // The first request occupies the single worker; the ones behind it
  // carry a deadline far below any real queue wait.
  ServeRequest first;
  first.query = example.query;
  std::atomic<bool> first_ok{false};
  ASSERT_TRUE(session
                  .Submit(std::move(first),
                          [&](ServeResponse response) {
                            first_ok = response.report.ok();
                          })
                  .ok());
  constexpr std::size_t kExpiring = 4;
  std::atomic<std::size_t> expired{0};
  for (std::size_t i = 0; i < kExpiring; ++i) {
    ServeRequest request;
    request.query = example.query;
    request.deadline_ms = 0.01;
    ASSERT_TRUE(
        session
            .Submit(std::move(request),
                    [&](ServeResponse response) {
                      EXPECT_FALSE(response.report.ok());
                      EXPECT_EQ(response.report.status().code(),
                                StatusCode::kDeadlineExceeded)
                          << response.report.status();
                      ++expired;
                    })
            .ok());
  }
  session.Shutdown();
  EXPECT_TRUE(first_ok.load());
  EXPECT_EQ(expired.load(), kExpiring);
  const ServeSession::Stats stats = session.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, kExpiring);
}

TEST(ServeMetricsTest, ServerRegistryMergesPerQueryCountersOnce) {
  PaperExample example = paperdata::MakeExample21();
  Mediator mediator(&example.catalog, example.domains);
  ServeSession session(&mediator, {});

  // One solo answer's counter values, for comparison.
  QueryAnswerer answerer(&example.catalog, example.domains);
  obs::MetricsRegistry solo;
  ExecOptions solo_options;
  solo_options.metrics = &solo;
  ASSERT_TRUE(answerer.Answer(example.query, solo_options).ok());

  constexpr std::size_t kQueries = 3;
  for (std::size_t i = 0; i < kQueries; ++i) {
    ServeRequest request;
    request.query = example.query;
    ServeResponse response = session.Answer(std::move(request));
    ASSERT_TRUE(response.report.ok()) << response.report.status();
  }
  session.Shutdown();

  const obs::MetricsRegistry merged = session.server_metrics();
  // Execution counters aggregate to exactly N times one query's worth —
  // merged once per query, no double counting. (Planning counters do not
  // scale linearly here: answers 2..N hit the shared plan cache.)
  EXPECT_EQ(CounterValue(merged, "exec.source_queries"),
            kQueries * CounterValue(solo, "exec.source_queries"));
  EXPECT_EQ(CounterValue(merged, "answer.rows"),
            kQueries * CounterValue(solo, "answer.rows"));
  // The admission metrics are server-side only.
  EXPECT_EQ(CounterValue(merged, obs::metric::kServeAccepted), kQueries);
  EXPECT_EQ(CounterValue(merged, obs::metric::kServeCompleted), kQueries);
  EXPECT_EQ(CounterValue(merged, obs::metric::kServeRejected), 0);
}

TEST(ServeTraceTest, PerRequestTracerCarriesServeRequestSpan) {
  PaperExample example = paperdata::MakeExample21();
  Mediator mediator(&example.catalog, example.domains);
  ServeOptions options;
  options.trace_requests = true;
  ServeSession session(&mediator, options);

  ServeRequest request;
  request.query = example.query;
  ServeResponse response = session.Answer(std::move(request));
  ASSERT_TRUE(response.report.ok()) << response.report.status();
  ASSERT_NE(response.trace, nullptr);
  bool saw_request_span = false;
  bool saw_nested_answer = false;
  for (const obs::Span& span : response.trace->spans()) {
    if (span.name == "serve.request") saw_request_span = true;
    if (span.name == "answer") saw_nested_answer = true;
  }
  EXPECT_TRUE(saw_request_span);
  EXPECT_TRUE(saw_nested_answer);
}

// ---------------------------------------------------------------------------
// FetchGovernor semantics (deterministic unit coverage; the concurrent
// integration runs through the bit-identity property above).

relational::Relation OneRowRelation() {
  relational::Relation relation(
      relational::Schema::MakeUnsafe({"A"}));
  relation.InsertUnsafe({Value::String("x")});
  return relation;
}

TEST(ServeGovernorTest, FollowersShareTheLeadersOutcomeInFlightOnly) {
  FetchGovernor governor;
  FetchGovernor::Ticket leader = governor.Begin("v1\x1f" "0=sx");
  EXPECT_TRUE(leader.leader);
  FetchGovernor::Ticket follower = governor.Begin("v1\x1f" "0=sx");
  EXPECT_FALSE(follower.leader);
  governor.Complete("v1\x1f" "0=sx", leader, OneRowRelation());
  auto shared = FetchGovernor::Wait(follower);
  ASSERT_TRUE(shared.ok()) << shared.status();
  EXPECT_EQ(shared->size(), 1u);
  EXPECT_EQ(governor.stats().cross_query_coalesced, 1u);

  // The key is retired at Complete — this is in-flight sharing, not a
  // result cache: the next Begin leads again.
  FetchGovernor::Ticket next = governor.Begin("v1\x1f" "0=sx");
  EXPECT_TRUE(next.leader);
  FetchGovernor::Ticket late = governor.Begin("v1\x1f" "0=sx");
  governor.Complete("v1\x1f" "0=sx", next, Status::Unavailable("down"));
  auto failed = FetchGovernor::Wait(late);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
}

TEST(ServeGovernorTest, DisabledCoalescingMakesEveryoneALeader) {
  FetchGovernor::Options options;
  options.cross_query_coalesce = false;
  FetchGovernor governor(options);
  FetchGovernor::Ticket a = governor.Begin("k");
  FetchGovernor::Ticket b = governor.Begin("k");
  EXPECT_TRUE(a.leader);
  EXPECT_TRUE(b.leader);
  EXPECT_EQ(governor.stats().cross_query_coalesced, 0u);
  governor.Complete("k", a, OneRowRelation());
  governor.Complete("k", b, OneRowRelation());
}

TEST(ServeGovernorTest, GlobalInFlightCapBlocksUntilRelease) {
  FetchGovernor::Options options;
  options.max_in_flight = 1;
  FetchGovernor governor(options);
  governor.Acquire("s1");
  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    governor.Acquire("s2");
    acquired = true;
    governor.Release("s2");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());  // the cap held the second caller
  governor.Release("s1");
  blocked.join();
  EXPECT_TRUE(acquired.load());
  const FetchGovernor::Stats stats = governor.stats();
  EXPECT_EQ(stats.acquired, 2u);
  EXPECT_GE(stats.waited, 1u);
  EXPECT_EQ(stats.peak_in_flight, 1u);
}

TEST(ServeGovernorTest, PerSourceCapLeavesOtherSourcesUnblocked) {
  FetchGovernor::Options options;
  options.max_in_flight = 8;
  options.per_source_max_in_flight = 1;
  FetchGovernor governor(options);
  governor.Acquire("s");
  // A different source is admitted immediately under the per-source cap.
  governor.Acquire("t");
  governor.Release("t");
  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    governor.Acquire("s");
    acquired = true;
    governor.Release("s");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  governor.Release("s");
  blocked.join();
  EXPECT_TRUE(acquired.load());
}

}  // namespace
}  // namespace limcap::mediator
