#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "capability/in_memory_source.h"
#include "common/json.h"
#include "exec/fingerprint.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "runtime/circuit_breaker.h"
#include "runtime/fault_injection.h"
#include "runtime/fetch_scheduler.h"
#include "runtime/runtime_config.h"
#include "workload/generator.h"

namespace limcap::runtime {
namespace {

using capability::InMemorySource;
using capability::SourceCatalog;
using capability::SourceQuery;
using capability::SourceView;
using relational::Relation;
using relational::Schema;

Value S(const char* text) { return Value::String(text); }

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, DisabledByDefault) {
  CircuitBreaker breaker;  // threshold 0: never trips
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(breaker.Allow(0));
    breaker.RecordFailure(0);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, TripsCoolsAndRecovers) {
  BreakerPolicy policy;
  policy.failure_threshold = 2;
  policy.cooldown_ms = 100;
  CircuitBreaker breaker(policy);
  EXPECT_TRUE(breaker.Allow(0));
  breaker.RecordFailure(10);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(10));
  breaker.RecordFailure(20);  // second consecutive failure: trips
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow(50));   // still cooling (until 120)
  EXPECT_TRUE(breaker.Allow(120));   // cooled: half-open, one probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.Allow(120));  // probe in flight: fail fast
  breaker.RecordFailure(170);        // probe failed: re-open
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow(200));
  EXPECT_TRUE(breaker.Allow(270));
  breaker.RecordSuccess();  // probe succeeded: closed, counters reset
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, ExponentialBackoffWithCap) {
  RetryPolicy policy;
  policy.backoff_base_ms = 25;
  policy.backoff_max_ms = 80;
  policy.jitter = 0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.BackoffBeforeAttempt(2, rng), 25);
  EXPECT_DOUBLE_EQ(policy.BackoffBeforeAttempt(3, rng), 50);
  EXPECT_DOUBLE_EQ(policy.BackoffBeforeAttempt(4, rng), 80);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffBeforeAttempt(5, rng), 80);
}

TEST(RetryPolicyTest, JitterIsSeededAndBounded) {
  RetryPolicy policy;
  policy.jitter = 0.5;
  Rng a(7);
  Rng b(7);
  const double first = policy.BackoffBeforeAttempt(2, a);
  EXPECT_DOUBLE_EQ(first, policy.BackoffBeforeAttempt(2, b));
  EXPECT_GE(first, policy.backoff_base_ms);
  EXPECT_LE(first, policy.backoff_base_ms * 1.5);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

std::unique_ptr<InMemorySource> MakePairSource(const std::string& name) {
  Relation data(Schema::MakeUnsafe({"A", "B"}));
  data.InsertUnsafe({S("a1"), S("b1")});
  data.InsertUnsafe({S("a1"), S("b2")});
  data.InsertUnsafe({S("a2"), S("b3")});
  return std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
      SourceView::MakeUnsafe(name, {"A", "B"}, "bf"), std::move(data)));
}

TEST(FaultInjectionTest, PerQueryFailFirstIsOrderIndependent) {
  FaultSpec spec;
  spec.fail_first_per_query = 1;
  FaultInjectingSource source(MakePairSource("v"), spec);
  auto dict = std::make_shared<ValueDictionary>();
  SourceQuery q1 = SourceQuery::MakeUnsafe(source.view(), dict, {{"A", S("a1")}});
  SourceQuery q2 = SourceQuery::MakeUnsafe(source.view(), dict, {{"A", S("a2")}});
  // Interleaved: each query's FIRST attempt fails, second succeeds,
  // regardless of the global call order.
  EXPECT_FALSE(source.Execute(q1).ok());
  EXPECT_FALSE(source.Execute(q2).ok());
  auto a1 = source.Execute(q1);
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1->size(), 2u);
  EXPECT_TRUE(source.Execute(q2).ok());
  EXPECT_EQ(source.stats().injected_failures, 2u);
}

TEST(FaultInjectionTest, PerQueryKeyIsDictionaryIndependent) {
  FaultSpec spec;
  spec.fail_first_per_query = 1;
  FaultInjectingSource source(MakePairSource("v"), spec);
  auto dict_a = std::make_shared<ValueDictionary>();
  auto dict_b = std::make_shared<ValueDictionary>();
  dict_b->Intern(S("padding"));  // same value, different ids across dicts
  SourceQuery qa =
      SourceQuery::MakeUnsafe(source.view(), dict_a, {{"A", S("a1")}});
  SourceQuery qb =
      SourceQuery::MakeUnsafe(source.view(), dict_b, {{"A", S("a1")}});
  EXPECT_FALSE(source.Execute(qa).ok());
  // Same bound values => same query identity: the retry (under another
  // dictionary) is attempt #2 and succeeds.
  EXPECT_TRUE(source.Execute(qb).ok());
}

TEST(FaultInjectionTest, TruncatesResults) {
  FaultSpec spec;
  spec.max_result_tuples = 1;
  FaultInjectingSource source(MakePairSource("v"), spec);
  auto dict = std::make_shared<ValueDictionary>();
  SourceQuery q = SourceQuery::MakeUnsafe(source.view(), dict, {{"A", S("a1")}});
  auto answer = source.Execute(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 1u);
  EXPECT_EQ(source.stats().truncations, 1u);
}

TEST(FaultInjectionTest, LatencySpikesAreReported) {
  FaultSpec spec;
  spec.latency_spike_rate = 1.0;
  spec.latency_spike_ms = 500;
  FaultInjectingSource source(MakePairSource("v"), spec);
  auto dict = std::make_shared<ValueDictionary>();
  SourceQuery q = SourceQuery::MakeUnsafe(source.view(), dict, {{"A", S("a1")}});
  TimedSource::Timing timing;
  ASSERT_TRUE(source.ExecuteTimed(q, &timing).ok());
  EXPECT_DOUBLE_EQ(timing.added_latency_ms, 500);
  EXPECT_EQ(source.stats().latency_spikes, 1u);
}

// ---------------------------------------------------------------------------
// Fetch scheduler
// ---------------------------------------------------------------------------

FetchRequest MakeRequest(capability::Source* source, ValueDictionaryPtr dict,
                         const char* value) {
  FetchRequest request;
  request.source = source;
  request.query =
      SourceQuery::MakeUnsafe(source->view(), std::move(dict), {{"A", S(value)}});
  return request;
}

TEST(FetchSchedulerTest, CoalescesIdenticalInFlightQueries) {
  auto source = MakePairSource("v");
  auto dict = std::make_shared<ValueDictionary>();
  RuntimeOptions options;
  FetchScheduler scheduler(options, dict);
  std::vector<FetchRequest> requests;
  requests.push_back(MakeRequest(source.get(), dict, "a1"));
  requests.push_back(MakeRequest(source.get(), dict, "a1"));
  requests.push_back(MakeRequest(source.get(), dict, "a2"));
  auto results = scheduler.ExecuteBatch(requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].coalesced);
  EXPECT_TRUE(results[1].coalesced);
  EXPECT_FALSE(results[2].coalesced);
  ASSERT_TRUE(results[1].tuples.ok());
  EXPECT_EQ(results[1].tuples->size(), 2u);
  EXPECT_EQ(scheduler.report().coalesced_hits, 1u);
  EXPECT_EQ(scheduler.report().total_attempts, 2u);  // two source calls
}

TEST(FetchSchedulerTest, RetriesUntilSuccessAndAccountsBackoff) {
  FaultSpec spec;
  spec.fail_first_per_query = 2;
  auto source = std::make_unique<FaultInjectingSource>(MakePairSource("v"), spec);
  auto dict = std::make_shared<ValueDictionary>();
  RuntimeOptions options;
  options.retry.max_attempts = 3;
  options.retry.backoff_base_ms = 10;
  options.retry.jitter = 0;
  options.latency.default_latency_ms = 50;
  FetchScheduler scheduler(options, dict);
  auto results = scheduler.ExecuteBatch({MakeRequest(source.get(), dict, "a1")});
  ASSERT_TRUE(results[0].tuples.ok());
  EXPECT_EQ(results[0].attempts, 3u);
  EXPECT_EQ(results[0].retries, 2u);
  // 3 attempts x 50 ms + backoffs 10 + 20.
  EXPECT_DOUBLE_EQ(results[0].duration_ms, 180);
  EXPECT_DOUBLE_EQ(scheduler.report().simulated_makespan_ms, 180);
}

TEST(FetchSchedulerTest, DeadlineTimesOutSlowAttempts) {
  FaultSpec spec;
  spec.latency_spike_rate = 1.0;
  spec.latency_spike_ms = 1000;
  auto source = std::make_unique<FaultInjectingSource>(MakePairSource("v"), spec);
  auto dict = std::make_shared<ValueDictionary>();
  RuntimeOptions options;
  options.retry.max_attempts = 2;
  options.retry.deadline_ms = 200;
  options.retry.backoff_base_ms = 10;
  options.retry.jitter = 0;
  FetchScheduler scheduler(options, dict);
  auto results = scheduler.ExecuteBatch({MakeRequest(source.get(), dict, "a1")});
  ASSERT_FALSE(results[0].tuples.ok());
  EXPECT_EQ(results[0].tuples.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(results[0].timeouts, 2u);
  // Each timed-out attempt costs exactly the deadline, plus one backoff.
  EXPECT_DOUBLE_EQ(results[0].duration_ms, 410);
  EXPECT_EQ(scheduler.report().total_timeouts, 2u);
  EXPECT_EQ(scheduler.report().failed_views.count("v"), 1u);
}

/// Reference start times of a concurrent batch: at every event, scan the
/// batch in order and start each waiting fetch whose source is under the
/// per-source cap while the global cap allows; then advance to the
/// earliest finish (ties by batch index).
std::vector<double> ReferenceStarts(const std::vector<std::size_t>& source_of,
                                    const std::vector<double>& latency,
                                    std::size_t global_cap,
                                    std::size_t per_source_cap) {
  const std::size_t n = source_of.size();
  std::vector<double> start(n, 0);
  std::vector<bool> started(n, false);
  std::vector<std::size_t> in_flight(latency.size(), 0);
  std::vector<std::pair<double, std::size_t>> running;  // (finish, index)
  std::size_t num_started = 0;
  double now = 0;
  while (num_started < n || !running.empty()) {
    for (std::size_t i = 0; i < n && running.size() < global_cap; ++i) {
      if (started[i] || in_flight[source_of[i]] >= per_source_cap) continue;
      started[i] = true;
      ++num_started;
      ++in_flight[source_of[i]];
      start[i] = now;
      running.emplace_back(now + latency[source_of[i]], i);
    }
    auto first = std::min_element(running.begin(), running.end());
    now = first->first;
    --in_flight[source_of[first->second]];
    running.erase(first);
  }
  return start;
}

TEST(FetchSchedulerTest, ConcurrentMakespanRespectsPerSourceCap) {
  auto s1 = MakePairSource("s1");
  auto s2 = MakePairSource("s2");
  auto dict = std::make_shared<ValueDictionary>();
  RuntimeOptions options;
  options.concurrent = true;
  options.max_in_flight = 8;
  options.per_source_max_in_flight = 1;
  options.latency.default_latency_ms = 50;
  FetchScheduler scheduler(options, dict);
  std::vector<FetchRequest> requests;
  requests.push_back(MakeRequest(s1.get(), dict, "a1"));
  requests.push_back(MakeRequest(s1.get(), dict, "a2"));
  requests.push_back(MakeRequest(s2.get(), dict, "a1"));
  requests.push_back(MakeRequest(s2.get(), dict, "a2"));
  auto results = scheduler.ExecuteBatch(requests);
  for (const auto& result : results) ASSERT_TRUE(result.tuples.ok());
  // Each source serializes its two 50 ms fetches; the sources overlap:
  // makespan 100 ms versus 200 ms issued one at a time.
  EXPECT_DOUBLE_EQ(scheduler.report().simulated_makespan_ms, 100);
  EXPECT_DOUBLE_EQ(scheduler.report().simulated_sequential_ms, 200);
  EXPECT_DOUBLE_EQ(scheduler.report().SequentialSpeedup(), 2.0);
  // The timeline places s1's fetches back to back.
  EXPECT_DOUBLE_EQ(results[0].start_ms, 0);
  EXPECT_DOUBLE_EQ(results[1].start_ms, 50);
  EXPECT_DOUBLE_EQ(results[2].start_ms, 0);
  EXPECT_DOUBLE_EQ(results[3].start_ms, 50);

  // A wide batch: 300 distinct fetches over three sources of different
  // latencies, interleaved in a seeded order, with both caps binding.
  // Every fetch starts when the in-order rescan of the batch says.
  const std::vector<double> latency = {30, 50, 70};
  std::vector<std::unique_ptr<InMemorySource>> sources;
  RuntimeOptions wide_options = options;
  wide_options.max_in_flight = 5;
  wide_options.per_source_max_in_flight = 2;
  for (std::size_t s = 0; s < latency.size(); ++s) {
    const std::string name = "t" + std::to_string(s);
    sources.push_back(MakePairSource(name));
    wide_options.latency.per_source_ms[name] = latency[s];
  }
  FetchScheduler wide_scheduler(wide_options, dict);
  std::vector<std::size_t> source_of;
  std::vector<FetchRequest> wide;
  uint64_t draw = 20261018;
  for (std::size_t i = 0; i < 300; ++i) {
    draw = draw * 6364136223846793005ULL + 1442695040888963407ULL;
    source_of.push_back((draw >> 33) % latency.size());
    const std::string value = "a" + std::to_string(i);
    wide.push_back(
        MakeRequest(sources[source_of.back()].get(), dict, value.c_str()));
  }
  auto wide_results = wide_scheduler.ExecuteBatch(wide);
  const std::vector<double> expected =
      ReferenceStarts(source_of, latency, wide_options.max_in_flight,
                      wide_options.per_source_max_in_flight);
  double makespan = 0;
  for (std::size_t i = 0; i < wide.size(); ++i) {
    ASSERT_TRUE(wide_results[i].tuples.ok()) << i;
    EXPECT_DOUBLE_EQ(wide_results[i].start_ms, expected[i]) << i;
    EXPECT_DOUBLE_EQ(wide_results[i].finish_ms,
                     expected[i] + latency[source_of[i]])
        << i;
    makespan = std::max(makespan, expected[i] + latency[source_of[i]]);
  }
  EXPECT_DOUBLE_EQ(wide_scheduler.report().simulated_makespan_ms, makespan);
}

TEST(FetchSchedulerTest, BreakerTripsSkipsAndRecovers) {
  FaultSpec spec;
  spec.fail_first_calls = 2;
  auto flaky = std::make_unique<FaultInjectingSource>(MakePairSource("v"), spec);
  auto healthy = MakePairSource("h");
  auto dict = std::make_shared<ValueDictionary>();
  RuntimeOptions options;
  options.latency.default_latency_ms = 50;
  options.retry.breaker.failure_threshold = 2;
  options.retry.breaker.cooldown_ms = 75;
  FetchScheduler scheduler(options, dict);

  // Batch 1: two failures trip the breaker (open until 100 + 75 = 175).
  auto batch1 = scheduler.ExecuteBatch({MakeRequest(flaky.get(), dict, "a1"),
                                        MakeRequest(flaky.get(), dict, "a2")});
  EXPECT_FALSE(batch1[0].tuples.ok());
  EXPECT_FALSE(batch1[1].tuples.ok());
  EXPECT_EQ(scheduler.report().per_source.at("v").breaker_state,
            BreakerState::kOpen);

  // Batches 2-3: v is skipped without a source call; the healthy fetches
  // advance the simulated clock to 200.
  auto batch2 = scheduler.ExecuteBatch({MakeRequest(healthy.get(), dict, "a1"),
                                        MakeRequest(flaky.get(), dict, "a1")});
  EXPECT_TRUE(batch2[0].tuples.ok());
  EXPECT_TRUE(batch2[1].breaker_skipped);
  EXPECT_EQ(batch2[1].tuples.status().code(), StatusCode::kUnavailable);
  auto batch3 = scheduler.ExecuteBatch({MakeRequest(healthy.get(), dict, "a2"),
                                        MakeRequest(flaky.get(), dict, "a2")});
  EXPECT_TRUE(batch3[1].breaker_skipped);
  EXPECT_DOUBLE_EQ(scheduler.simulated_now_ms(), 200);
  EXPECT_EQ(scheduler.report().per_source.at("v").breaker_skips, 2u);

  // Batch 4: cooled down; the half-open probe succeeds (the injected
  // failures are spent) and closes the breaker.
  auto batch4 = scheduler.ExecuteBatch({MakeRequest(flaky.get(), dict, "a1")});
  EXPECT_TRUE(batch4[0].tuples.ok());
  EXPECT_EQ(scheduler.report().per_source.at("v").breaker_state,
            BreakerState::kClosed);
  EXPECT_EQ(flaky->stats().calls, 3u);  // two failures + one probe
}

// ---------------------------------------------------------------------------
// Runtime config
// ---------------------------------------------------------------------------

TEST(RuntimeConfigTest, ParsesFullConfig) {
  auto options = ParseRuntimeConfig(R"(
% async runtime for the flaky-travel demo
concurrent on
max_in_flight 8
per_source_max_in_flight 2
coalesce off
seed 7
latency default 40
latency v4 200
default attempts=3 backoff_ms=10 deadline_ms=500
view v4 attempts=5 breaker_failures=3 breaker_cooldown_ms=1000
)");
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_TRUE(options->concurrent);
  EXPECT_EQ(options->max_in_flight, 8u);
  EXPECT_EQ(options->per_source_max_in_flight, 2u);
  EXPECT_FALSE(options->coalesce);
  EXPECT_EQ(options->seed, 7u);
  EXPECT_DOUBLE_EQ(options->latency.default_latency_ms, 40);
  EXPECT_DOUBLE_EQ(options->latency.LatencyOf("v4"), 200);
  EXPECT_EQ(options->retry.max_attempts, 3u);
  EXPECT_DOUBLE_EQ(options->retry.deadline_ms, 500);
  const RetryPolicy& v4 = options->PolicyFor("v4");
  EXPECT_EQ(v4.max_attempts, 5u);
  // Inherited from the default policy as configured above it.
  EXPECT_DOUBLE_EQ(v4.backoff_base_ms, 10);
  EXPECT_EQ(v4.breaker.failure_threshold, 3u);
  EXPECT_DOUBLE_EQ(v4.breaker.cooldown_ms, 1000);
  EXPECT_FALSE(options->PolicyFor("v1").breaker.enabled());
}

TEST(RuntimeConfigTest, RejectsUnknownDirectivesWithLineNumbers) {
  auto bad = ParseRuntimeConfig("concurrent on\nwarp_speed 9\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
  auto bad_key = ParseRuntimeConfig("default atempts=3\n");
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.status().message().find("atempts"), std::string::npos);
}

TEST(RuntimeConfigTest, RendersPerViewPolicies) {
  auto options = ParseRuntimeConfig(
      "latency v2 120\ndefault attempts=2\nview v2 breaker_failures=4\n");
  ASSERT_TRUE(options.ok());
  std::string text = RenderRuntimePolicies({"v1", "v2"}, *options, false);
  EXPECT_NE(text.find("v1"), std::string::npos);
  EXPECT_NE(text.find("v2"), std::string::npos);
  EXPECT_NE(text.find("120"), std::string::npos);
  // The JSON rows parse back, one object per view in order.
  auto json =
      Json::Parse(RenderRuntimePolicies({"v1", "v2"}, *options, true));
  ASSERT_TRUE(json.ok()) << json.status();
  ASSERT_TRUE(json->is_array());
  ASSERT_EQ(json->array().size(), 2u);
  const Json& v1 = json->array()[0];
  EXPECT_EQ(v1.GetString("view"), "v1");
  EXPECT_EQ(v1.GetNumber("attempts"), 2);
  EXPECT_EQ(v1.GetNumber("breaker_failures"), 0);
  EXPECT_EQ(v1.GetNumber("latency_ms"), 50);
  EXPECT_TRUE(v1.Get("deadline_ms").is_null());
  const Json& v2 = json->array()[1];
  EXPECT_EQ(v2.GetString("view"), "v2");
  EXPECT_EQ(v2.GetNumber("attempts"), 2);
  EXPECT_EQ(v2.GetNumber("breaker_failures"), 4);
  EXPECT_EQ(v2.GetNumber("latency_ms"), 120);
  // No deadline is configured: infinity renders as null.
  EXPECT_TRUE(v2.Has("deadline_ms"));
  EXPECT_TRUE(v2.Get("deadline_ms").is_null());
}

// ---------------------------------------------------------------------------
// End-to-end: concurrent execution is bit-identical to serial
// ---------------------------------------------------------------------------

/// Everything observable about an execution, id-level: answer rows in
/// order, the full access trace, every derived fact, the dictionary size.
/// (Shared with the tracing property tests — see exec/fingerprint.h.)
std::string Fingerprint(const exec::ExecResult& exec) {
  return exec::OrderedFingerprint(exec);
}

exec::ExecOptions ConcurrentOptions(std::size_t threads = 8) {
  exec::ExecOptions options;
  options.runtime.concurrent = true;
  options.runtime.max_in_flight = threads;
  options.runtime.per_source_max_in_flight = threads;
  return options;
}

void ExpectSerialConcurrentBitIdentical(const SourceCatalog& catalog,
                                        const planner::DomainMap& domains,
                                        const planner::Query& query,
                                        const exec::ExecOptions& base = {}) {
  exec::QueryAnswerer answerer(&catalog, domains);
  auto serial = answerer.Answer(query, base);
  exec::ExecOptions concurrent_options = base;
  concurrent_options.runtime = ConcurrentOptions().runtime;
  auto concurrent = answerer.Answer(query, concurrent_options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(concurrent.ok()) << concurrent.status();
  EXPECT_EQ(Fingerprint(serial->exec), Fingerprint(concurrent->exec));
  EXPECT_EQ(concurrent->exec.post_ingest_translations, 0u);
  EXPECT_GE(concurrent->exec.fetch_report.SequentialSpeedup(), 1.0);
}

TEST(ParallelAsyncRuntimeTest, Example21EightThreadsBitIdentical) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  ExpectSerialConcurrentBitIdentical(example.catalog, example.domains,
                                     example.query);
}

TEST(ParallelAsyncRuntimeTest, AllPaperExamplesBitIdentical) {
  for (auto make :
       {paperdata::MakeExample21, paperdata::MakeExample41,
        paperdata::MakeExample51, paperdata::MakeExample52}) {
    paperdata::PaperExample example = make();
    ExpectSerialConcurrentBitIdentical(example.catalog, example.domains,
                                       example.query);
  }
}

TEST(ParallelAsyncRuntimeTest, BudgetedRunBitIdentical) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  exec::ExecOptions base;
  base.max_source_queries = 5;
  ExpectSerialConcurrentBitIdentical(example.catalog, example.domains,
                                     example.query, base);
}

TEST(ParallelAsyncRuntimeTest, RandomWorkloadsBitIdentical) {
  for (auto topology :
       {workload::CatalogSpec::Topology::kChain,
        workload::CatalogSpec::Topology::kStar,
        workload::CatalogSpec::Topology::kRandom}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      workload::CatalogSpec spec;
      spec.topology = topology;
      spec.seed = seed;
      spec.num_views = 8;
      spec.tuples_per_view = 30;
      spec.domain_size = 10;
      workload::GeneratedInstance instance =
          workload::GenerateInstance(spec);
      workload::QuerySpec query_spec;
      query_spec.seed = seed + 100;
      auto query = workload::GenerateQuery(instance, query_spec);
      if (!query.ok()) continue;  // no valid query for this shape
      ExpectSerialConcurrentBitIdentical(instance.catalog, instance.domains,
                                         *query);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: faults, retries, and degraded answers
// ---------------------------------------------------------------------------

/// Rebuilds `instance`'s catalog with every source wrapped in a
/// FaultInjectingSource configured by `spec`.
SourceCatalog WrapAll(const workload::GeneratedInstance& instance,
                      const FaultSpec& spec) {
  SourceCatalog catalog;
  for (const SourceView& view : instance.views) {
    auto inner = std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
        view, instance.full_data.at(view.name())));
    catalog.RegisterUnsafe(
        std::make_unique<FaultInjectingSource>(std::move(inner), spec));
  }
  return catalog;
}

TEST(ParallelAsyncRuntimeTest, FailThenRecoverReachesMaximalAnswer) {
  workload::CatalogSpec spec;
  spec.topology = workload::CatalogSpec::Topology::kChain;
  spec.seed = 11;
  spec.num_views = 6;
  spec.tuples_per_view = 25;
  spec.domain_size = 10;
  workload::GeneratedInstance instance = workload::GenerateInstance(spec);

  // Pick the first generated query that actually exercises the sources —
  // some seeds yield queries the planner answers without any fetches.
  exec::QueryAnswerer clean(&instance.catalog, instance.domains);
  Result<planner::Query> query = Status::NotFound("no query");
  Result<exec::AnswerReport> clean_report = Status::NotFound("no run");
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    workload::QuerySpec query_spec;
    query_spec.seed = seed;
    auto candidate = workload::GenerateQuery(instance, query_spec);
    if (!candidate.ok()) continue;
    auto run = clean.Answer(*candidate);
    if (!run.ok() || run->exec.log.total_queries() == 0) continue;
    query = std::move(candidate);
    clean_report = std::move(run);
    break;
  }
  ASSERT_TRUE(query.ok()) << "no source-exercising query found";

  // Every query to every source fails twice before succeeding; with three
  // attempts per fetch the evaluation still reaches the maximal answer.
  FaultSpec faults;
  faults.fail_first_per_query = 2;
  SourceCatalog flaky = WrapAll(instance, faults);
  exec::QueryAnswerer answerer(&flaky, instance.domains);
  exec::ExecOptions options = ConcurrentOptions();
  options.continue_on_source_error = true;
  options.runtime.retry.max_attempts = 3;
  auto report = answerer.Answer(*query, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->exec.fetch_report.degraded());
  EXPECT_GT(report->exec.fetch_report.total_retries, 0u);
  EXPECT_EQ(Fingerprint(report->exec), Fingerprint(clean_report->exec));
}

TEST(ParallelAsyncRuntimeTest, DownSourceYieldsAnnotatedPartialAnswer) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  SourceCatalog catalog;
  for (const SourceView& view : example.views) {
    auto* source = dynamic_cast<InMemorySource*>(
        example.catalog.Find(view.name()).value());
    auto copy = std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, source->data()));
    if (view.name() == "v4") {
      FaultSpec faults;
      faults.fail_rate = 1.0;  // permanently down
      catalog.RegisterUnsafe(std::make_unique<FaultInjectingSource>(
          std::move(copy), faults));
    } else {
      catalog.RegisterUnsafe(std::move(copy));
    }
  }
  exec::QueryAnswerer answerer(&catalog, example.domains);
  exec::ExecOptions options = ConcurrentOptions();
  options.continue_on_source_error = true;
  options.runtime.retry.max_attempts = 2;
  auto report = answerer.Answer(example.query, options);
  ASSERT_TRUE(report.ok()) << report.status();
  // Sound partial answer: the v1-v3 path still yields $15.
  EXPECT_TRUE(report->exec.answer.Contains({S("$15")}));
  EXPECT_FALSE(report->exec.answer.Contains({S("$13")}));
  const FetchReport& fetch = report->exec.fetch_report;
  EXPECT_TRUE(fetch.degraded());
  EXPECT_EQ(fetch.failed_views.count("v4"), 1u);
  ASSERT_FALSE(fetch.degraded_connections.empty());
  for (const std::string& connection : fetch.degraded_connections) {
    EXPECT_NE(connection.find("v4"), std::string::npos) << connection;
  }
  // Failed fetches burned their retries.
  EXPECT_GT(fetch.total_retries, 0u);
  const std::string rendered = fetch.ToString();
  EXPECT_NE(rendered.find("DEGRADED"), std::string::npos);
  EXPECT_NE(rendered.find("v4"), std::string::npos);
}

}  // namespace
}  // namespace limcap::runtime
