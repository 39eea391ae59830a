// The runtime-adaptive dispatch test wall (every suite name contains
// "Adaptive" on purpose: the TSan CI job selects these suites by regex).
// AdaptiveOptions turns on dynamic relevance pruning, cost-aware
// frontier ordering with batching, and hedged requests — all of which
// change timing and fetch counts but must NEVER change answers. The
// wall pins:
//
//   * OrderedFingerprint bit-identity of adaptive execution across
//     serial / concurrent-fetch dispatch, on the four
//     paper examples, on 15 generated topologies, and under injected
//     source faults;
//   * serve-vs-solo bit-identity with adaptive dispatch on a shared
//     ServeSession (the publish-only AdaptiveState contract);
//   * machine-checkable skip certificates: issued skips re-verify
//     against the final store, tampered ones are rejected;
//   * hedge accounting: a hedge can rescue a deadline without a second
//     source attempt, and a hedged timeout still counts exactly once
//     toward the circuit breaker;
//   * the FetchGovernor hedging×coalescing fix: cross-query coalescing
//     shares outcomes only between fetches with the SAME hedge delay.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dynamic_relevance.h"
#include "capability/catalog_text.h"
#include "capability/in_memory_source.h"
#include "common/string_util.h"
#include "exec/fingerprint.h"
#include "exec/query_answerer.h"
#include "fetch_rounds.h"
#include "mediator/serve_session.h"
#include "paperdata/paper_examples.h"
#include "query_redraw.h"
#include "runtime/adaptive_dispatcher.h"
#include "runtime/fault_injection.h"
#include "runtime/fetch_governor.h"
#include "runtime/fetch_scheduler.h"
#include "workload/generator.h"

namespace limcap {
namespace {

using capability::InMemorySource;
using capability::SourceCatalog;
using capability::SourceQuery;
using capability::SourceView;
using exec::ExecOptions;
using exec::OrderedFingerprint;
using exec::QueryAnswerer;
using relational::Relation;
using relational::Row;
using relational::Schema;
using runtime::FaultInjectingSource;
using runtime::FaultSpec;
using runtime::FetchGovernor;
using runtime::FetchOutcomes;
using runtime::FetchScheduler;
using runtime::RuntimeOptions;
using workload::CatalogSpec;
using workload::GeneratedInstance;
using workload::GenerateInstance;
using workload::QuerySpec;

Value S(const char* text) { return Value::String(text); }

std::set<Row> Rows(const Relation& relation) {
  auto decoded = relation.DecodedRows();
  return std::set<Row>(decoded.begin(), decoded.end());
}

/// The two execution modes of the bit-identity contract, each with the
/// full adaptive stack switched on.
ExecOptions AdaptiveSerial() {
  ExecOptions options;
  options.runtime.adaptive.enabled = true;
  return options;
}

ExecOptions AdaptiveConcurrentFetch() {
  ExecOptions options = AdaptiveSerial();
  options.runtime.concurrent = true;
  options.runtime.max_in_flight = 8;
  options.runtime.per_source_max_in_flight = 8;
  return options;
}

/// Answers `example.query` plain and adaptively in both modes;
/// asserts the adaptive answers match the non-adaptive baseline and the
/// adaptive executions are bit-identical to each other.
void ExpectAdaptivePreservesAnswers(const paperdata::PaperExample& example,
                                    const char* label) {
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto baseline = answerer.Answer(example.query);
  ASSERT_TRUE(baseline.ok()) << label << ": " << baseline.status().message();

  auto serial = answerer.Answer(example.query, AdaptiveSerial());
  ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().message();
  EXPECT_EQ(Rows(serial->exec.answer), Rows(baseline->exec.answer)) << label;
  // Adaptive dispatch never fetches more than the plain run.
  EXPECT_LE(serial->exec.log.total_queries(),
            baseline->exec.log.total_queries())
      << label;

  auto concurrent = answerer.Answer(example.query, AdaptiveConcurrentFetch());
  ASSERT_TRUE(concurrent.ok()) << label;
  EXPECT_EQ(Rows(concurrent->exec.answer), Rows(baseline->exec.answer))
      << label;

  EXPECT_EQ(OrderedFingerprint(concurrent->exec),
            OrderedFingerprint(serial->exec))
      << label;
}

TEST(AdaptiveBitIdentityTest, PaperExamplesMatchBaselineInEveryMode) {
  ExpectAdaptivePreservesAnswers(paperdata::MakeExample21(), "example 2.1");
  ExpectAdaptivePreservesAnswers(paperdata::MakeExample41(), "example 4.1");
  ExpectAdaptivePreservesAnswers(paperdata::MakeExample51(), "example 5.1");
  ExpectAdaptivePreservesAnswers(paperdata::MakeExample52(), "example 5.2");
}

TEST(AdaptiveBitIdentityTest, EagerStrategyStaysAnswerPreserving) {
  // Eager fetching truncates each round's frontier to one query, so the
  // checker's full-frontier frozen fixpoint is unavailable — the
  // evaluator must fall back to never skipping rather than skipping
  // unsoundly.
  paperdata::PaperExample example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto baseline = answerer.Answer(example.query);
  ASSERT_TRUE(baseline.ok());

  ExecOptions options = AdaptiveSerial();
  options.strategy = exec::FetchStrategy::kEager;
  auto eager = answerer.Answer(example.query, options);
  ASSERT_TRUE(eager.ok()) << eager.status().message();
  EXPECT_EQ(Rows(eager->exec.answer), Rows(baseline->exec.answer));
  EXPECT_TRUE(eager->exec.skip_certificates.empty());
  EXPECT_EQ(eager->exec.fetch_report.skipped_dynamic, 0u);
}

// ---------------------------------------------------------------------
// Property: on random instances, adaptive dispatch stays
// answer-preserving in both modes, bit-identical across them, and
// never issues more source queries than the plain unoptimized run.

struct Scenario {
  CatalogSpec::Topology topology;
  uint64_t seed;
};

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  const char* topology =
      info.param.topology == CatalogSpec::Topology::kChain  ? "Chain"
      : info.param.topology == CatalogSpec::Topology::kStar ? "Star"
                                                            : "Random";
  return std::string(topology) + "Seed" + std::to_string(info.param.seed);
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;
  for (auto topology :
       {CatalogSpec::Topology::kChain, CatalogSpec::Topology::kStar,
        CatalogSpec::Topology::kRandom}) {
    for (uint64_t seed = 0; seed < 5; ++seed) {
      scenarios.push_back({topology, seed});
    }
  }
  return scenarios;
}

class AdaptiveProperty : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    CatalogSpec spec;
    spec.topology = GetParam().topology;
    spec.seed = GetParam().seed * 7919 + 401;
    spec.num_views = 7;
    spec.num_attributes = 6;
    spec.tuples_per_view = 20;
    spec.domain_size = 10;
    instance_ = GenerateInstance(spec);

    QuerySpec query_spec;
    query_spec.seed = GetParam().seed * 104729 + 41;
    query_spec.num_connections = 2;
    query_spec.views_per_connection = 2;
    std::optional<planner::Query> query =
        testutil::RedrawAny(instance_, query_spec);
    ASSERT_TRUE(query.has_value())
        << "no valid query in " << testutil::kMaxDraws << " draws";
    query_ = *query;
  }

  GeneratedInstance instance_;
  planner::Query query_;
};

TEST_P(AdaptiveProperty, AdaptiveIsAnswerPreservingAcrossModes) {
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);

  auto baseline = answerer.AnswerUnoptimized(query_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();

  auto serial = answerer.AnswerUnoptimized(query_, AdaptiveSerial());
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  EXPECT_EQ(Rows(serial->exec.answer), Rows(baseline->exec.answer));
  EXPECT_LE(serial->exec.log.total_queries(),
            baseline->exec.log.total_queries());
  // Every suppressed fetch left a certificate behind.
  EXPECT_EQ(serial->exec.skip_certificates.size(),
            serial->exec.fetch_report.skipped_dynamic);

  auto concurrent =
      answerer.AnswerUnoptimized(query_, AdaptiveConcurrentFetch());
  ASSERT_TRUE(concurrent.ok());
  EXPECT_EQ(OrderedFingerprint(concurrent->exec),
            OrderedFingerprint(serial->exec));
}

INSTANTIATE_TEST_SUITE_P(Workloads, AdaptiveProperty,
                         ::testing::ValuesIn(AllScenarios()), ScenarioName);

// ---------------------------------------------------------------------
// Fault injection: adaptive dispatch on a degraded catalog still
// matches the plain degraded answer and stays bit-identical across
// dispatch modes.

/// Example 2.1's catalog with fault-injected v4 (the FlakySetup shape
/// of failure_injection_test.cc).
struct FlakySetup {
  SourceCatalog catalog;
  paperdata::PaperExample example;
};
FlakySetup MakeFlaky(FaultSpec spec) {
  FlakySetup setup{SourceCatalog(), paperdata::MakeExample21()};
  for (const auto& view : setup.example.views) {
    auto* source = dynamic_cast<InMemorySource*>(
        setup.example.catalog.Find(view.name()).value());
    auto copy = std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, source->data()));
    if (view.name() == "v4") {
      setup.catalog.RegisterUnsafe(std::make_unique<FaultInjectingSource>(
          std::move(copy), spec));
    } else {
      setup.catalog.RegisterUnsafe(std::move(copy));
    }
  }
  return setup;
}

void ExpectAdaptiveMatchesDegradedBaseline(FaultSpec spec,
                                           const ExecOptions& base_options,
                                           const char* label) {
  // Every run gets a FRESH fault-injected catalog: the injector's call
  // counter feeds its error strings, so sharing one source across runs
  // would make the merged logs differ by call numbering alone.
  ExecOptions plain = base_options;
  plain.continue_on_source_error = true;
  FlakySetup base_setup = MakeFlaky(spec);
  QueryAnswerer base_answerer(&base_setup.catalog, base_setup.example.domains);
  auto baseline = base_answerer.Answer(base_setup.example.query, plain);
  ASSERT_TRUE(baseline.ok()) << label << ": " << baseline.status().message();

  std::string fingerprint;
  for (ExecOptions options : {AdaptiveSerial(), AdaptiveConcurrentFetch()}) {
    options.runtime.retry = base_options.runtime.retry;
    options.continue_on_source_error = true;
    FlakySetup setup = MakeFlaky(spec);
    QueryAnswerer answerer(&setup.catalog, setup.example.domains);
    auto adaptive = answerer.Answer(setup.example.query, options);
    ASSERT_TRUE(adaptive.ok()) << label << ": "
                               << adaptive.status().message();
    EXPECT_EQ(Rows(adaptive->exec.answer), Rows(baseline->exec.answer))
        << label;
    if (fingerprint.empty()) {
      fingerprint = OrderedFingerprint(adaptive->exec);
    } else {
      EXPECT_EQ(OrderedFingerprint(adaptive->exec), fingerprint) << label;
    }
  }
}

TEST(AdaptiveFaultTest, PermanentSourceFailureStaysBitIdentical) {
  FaultSpec spec;
  spec.fail_first_calls = 100;  // v4 is down for the whole run
  ExpectAdaptiveMatchesDegradedBaseline(spec, ExecOptions(), "v4 down");
}

TEST(AdaptiveFaultTest, FailThenRecoverStaysBitIdentical) {
  // Each distinct v4 query fails once and succeeds on retry — keyed to
  // the query, not call order, so every dispatch mode sees the same
  // faults.
  FaultSpec spec;
  spec.fail_first_per_query = 1;
  ExecOptions base;
  base.runtime.retry.max_attempts = 3;
  ExpectAdaptiveMatchesDegradedBaseline(spec, base, "v4 flaky");
}

// ---------------------------------------------------------------------
// Serve: adaptive dispatch on a shared ServeSession keeps every answer
// bit-identical to the same query answered alone, and the session's
// AdaptiveState aggregates what the queries learned (publish-only: the
// aggregation itself must not perturb any fingerprint).

std::string SoloFingerprint(const workload::MixedWorkload& workload,
                            const planner::Query& query,
                            const ExecOptions& options) {
  QueryAnswerer answerer(&workload.catalog, workload.domains);
  auto report = answerer.Answer(query, options);
  if (!report.ok()) return StrCat({"error: ", report.status().ToString()});
  return OrderedFingerprint(report->exec);
}

TEST(AdaptiveServeTest, ConcurrentAdaptiveAnswersMatchSolo) {
  workload::MixedWorkloadSpec spec;
  spec.seed = 7;
  spec.num_requests = 10;
  auto workload = workload::GenerateMixedWorkload(spec);
  ASSERT_TRUE(workload.ok()) << workload.status();
  mediator::Mediator mediator(&workload->catalog, workload->domains);

  for (const ExecOptions& exec_options :
       {AdaptiveSerial(), AdaptiveConcurrentFetch()}) {
    std::vector<std::string> expected;
    expected.reserve(workload->requests.size());
    for (const workload::MixedRequest& request : workload->requests) {
      expected.push_back(
          SoloFingerprint(*workload, request.query, exec_options));
    }

    mediator::ServeOptions serve_options;
    serve_options.workers = 4;
    serve_options.exec = exec_options;
    mediator::ServeSession session(&mediator, serve_options);

    std::vector<std::string> actual(workload->requests.size());
    std::mutex mutex;
    std::condition_variable all_done;
    std::size_t done = 0;
    for (std::size_t i = 0; i < workload->requests.size(); ++i) {
      mediator::ServeRequest request;
      request.query = workload->requests[i].query;
      Status admitted = session.Submit(
          std::move(request), [&, i](mediator::ServeResponse response) {
            std::string fingerprint =
                response.report.ok()
                    ? OrderedFingerprint(response.report->exec)
                    : StrCat({"error: ", response.report.status().ToString()});
            std::lock_guard<std::mutex> lock(mutex);
            actual[i] = std::move(fingerprint);
            ++done;
            all_done.notify_one();
          });
      ASSERT_TRUE(admitted.ok()) << admitted.message();
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      all_done.wait(lock,
                    [&] { return done == workload->requests.size(); });
    }
    session.Shutdown();

    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "request " << i;
    }
    // The queries published their learned profiles into the session.
    EXPECT_GT(session.adaptive_state().source_count(), 0u);
  }
}

// ---------------------------------------------------------------------
// Skip certificates: a catalog where a decoy view pollutes a shared
// domain with values the goal provably cannot use. The adaptive run
// must skip exactly those fetches, preserve the answer, and leave
// independently re-verifiable certificates behind.

// Two connections answer ans(Price) from Song=t1. w feeds junk c9 into
// dom_Cd (its only CD for t1); conn2 keeps w itself relevant, but:
//   * v2(c9) is useless for conn1 — v1^ is frozen without (t1, c9) —
//     and v2 does not appear in conn2;
//   * x(c1) is useless for conn2 — w^ is frozen without (t1, c1).
// Neither fetch is statically prunable (both channels matter for other
// bindings), so only the runtime check can save them.
constexpr const char* kJunkFeederCatalog = R"(
source v1(Song, Cd) [bf] { (t1, c1) }
source v2(Cd, Price) [bf] { (c1, "$5") (c9, "$9") }
source w(Song, Cd) [bf] { (t1, c9) }
source x(Cd, Price) [bf] { (c1, "$7") }
)";

planner::Query JunkFeederQuery() {
  return planner::Query({{"Song", S("t1")}}, {"Price"},
                        {planner::Connection({"v1", "v2"}),
                         planner::Connection({"w", "x"})});
}

TEST(AdaptiveSkipCertificateTest, DecoyedJoinSkipsWithCertificates) {
  auto parsed = capability::ParseCatalog(kJunkFeederCatalog);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  QueryAnswerer answerer(&parsed->catalog, planner::DomainMap());

  auto baseline = answerer.Answer(JunkFeederQuery());
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();
  EXPECT_EQ(Rows(baseline->exec.answer), std::set<Row>({{S("$5")}}));

  auto adaptive = answerer.Answer(JunkFeederQuery(), AdaptiveSerial());
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().message();
  const exec::ExecResult& exec = adaptive->exec;
  EXPECT_EQ(Rows(exec.answer), Rows(baseline->exec.answer));

  // Exactly the two dynamically-useless fetches were suppressed.
  EXPECT_EQ(exec.fetch_report.skipped_dynamic, 2u);
  EXPECT_EQ(exec.log.total_queries(),
            baseline->exec.log.total_queries() - 2);
  ASSERT_EQ(exec.skip_certificates.size(), 2u);
  std::set<std::string> skipped;
  for (const auto& certificate : exec.skip_certificates) {
    ASSERT_EQ(certificate.combo.size(), 1u);
    skipped.insert(certificate.view + "(" +
                   certificate.combo[0].ToString() + ")");
    // The evidence cites a real frozen co-atom, not a vacuous clash.
    ASSERT_FALSE(certificate.evidence.empty());
    for (const auto& evidence : certificate.evidence) {
      EXPECT_FALSE(evidence.vacuous);
      EXPECT_FALSE(evidence.blocking_predicate.empty());
    }
    EXPECT_FALSE(certificate.frozen.empty());
  }
  EXPECT_EQ(skipped, (std::set<std::string>{"v2(c9)", "x(c1)"}));

  // Independent re-verification: rebuild a checker over the executed
  // program, the channel metadata and the FINAL store (frozen-ness is
  // monotone, so an all-frozen round upholds mid-run certificates).
  ASSERT_FALSE(exec.adaptive_channels.empty());
  analysis::DynamicRelevanceChecker checker(
      &exec.adaptive_program, exec.adaptive_channels, &exec.store);
  checker.BeginRound(
      std::vector<bool>(exec.adaptive_channels.size(), false));
  for (const auto& certificate : exec.skip_certificates) {
    EXPECT_TRUE(
        analysis::VerifySkipCertificate(checker, certificate).ok())
        << certificate.ToString();
  }

  // Tampered certificates are rejected: a combo whose fetch was
  // genuinely relevant, missing evidence, and a forged frozen witness.
  analysis::SkipCertificate wrong_combo = exec.skip_certificates[0];
  wrong_combo.combo[0] =
      wrong_combo.view == "v2" ? S("c1") : S("c9");
  EXPECT_FALSE(
      analysis::VerifySkipCertificate(checker, wrong_combo).ok());

  analysis::SkipCertificate no_evidence = exec.skip_certificates[0];
  no_evidence.evidence.clear();
  EXPECT_FALSE(
      analysis::VerifySkipCertificate(checker, no_evidence).ok());

  analysis::SkipCertificate forged_witness = exec.skip_certificates[0];
  for (auto& evidence : forged_witness.evidence) {
    evidence.blocking_predicate = "v2^";  // pending during the run
  }
  EXPECT_FALSE(
      analysis::VerifySkipCertificate(checker, forged_witness).ok());
}

TEST(AdaptiveSkipCertificateTest, SkipsStayBitIdenticalAcrossModes) {
  auto parsed = capability::ParseCatalog(kJunkFeederCatalog);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  QueryAnswerer answerer(&parsed->catalog, planner::DomainMap());

  auto serial = answerer.Answer(JunkFeederQuery(), AdaptiveSerial());
  ASSERT_TRUE(serial.ok());
  auto concurrent =
      answerer.Answer(JunkFeederQuery(), AdaptiveConcurrentFetch());
  ASSERT_TRUE(concurrent.ok());

  EXPECT_EQ(OrderedFingerprint(concurrent->exec),
            OrderedFingerprint(serial->exec));
  EXPECT_EQ(serial->exec.fetch_report.skipped_dynamic, 2u);
  EXPECT_EQ(concurrent->exec.fetch_report.skipped_dynamic, 2u);
}

// ---------------------------------------------------------------------
// Dispatcher unit: deterministic reordering, batching, and skip
// accounting straight against a FetchScheduler.

std::unique_ptr<InMemorySource> MakePairSource(const std::string& name) {
  Relation data(Schema::MakeUnsafe({"A", "B"}));
  data.InsertUnsafe({S("a1"), S("b1")});
  data.InsertUnsafe({S("a2"), S("b2")});
  return std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
      SourceView::MakeUnsafe(name, {"A", "B"}, "bf"), std::move(data)));
}

TEST(AdaptiveDispatcherTest, ReordersByLatencyBatchesAndLearns) {
  auto slow = MakePairSource("slow");
  auto fast = MakePairSource("fast");
  auto dict = std::make_shared<ValueDictionary>();
  RuntimeOptions options;
  options.adaptive.enabled = true;
  options.latency.per_source_ms["slow"] = 100;
  options.latency.per_source_ms["fast"] = 10;
  FetchScheduler scheduler(options, dict);
  runtime::AdaptiveDispatcher dispatcher(options, &scheduler);

  testutil::RoundBuilder requests(&scheduler, dict);
  requests.Ask(slow.get(), "a1");
  requests.Ask(fast.get(), "a1");
  requests.Ask(fast.get(), "a2");
  FetchOutcomes results;
  dispatcher.ExecuteFrontier(requests.round(), nullptr, &results);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results.RowsOf(i), 1u);
  }
  // Cold scores are 1/base-latency, so both fast fetches dispatched
  // before the slow one; results still align with the caller's order.
  EXPECT_DOUBLE_EQ(results[1].start_ms, 0);
  EXPECT_GT(results[0].start_ms, results[2].start_ms);
  // Consecutive same-(source, positions) fetches merged into one
  // batched call: the second fast fetch is a discounted member.
  EXPECT_FALSE(results[1].batched);
  EXPECT_TRUE(results[2].batched);
  EXPECT_EQ(scheduler.report().batched_calls, 1u);
  // The dispatcher learned one observation per fetch, keyed by source.
  const auto& profiles = dispatcher.profiles();
  ASSERT_EQ(profiles.count("slow"), 1u);
  ASSERT_EQ(profiles.count("fast"), 1u);
  EXPECT_EQ(profiles.at("slow").observations, 1u);
  EXPECT_EQ(profiles.at("fast").observations, 2u);
}

TEST(AdaptiveDispatcherTest, SkipProbeSuppressesWithoutSourceCalls) {
  auto source = MakePairSource("v");
  auto dict = std::make_shared<ValueDictionary>();
  RuntimeOptions options;
  options.adaptive.enabled = true;
  FetchScheduler scheduler(options, dict);
  runtime::AdaptiveDispatcher dispatcher(options, &scheduler);

  testutil::RoundBuilder requests(&scheduler, dict);
  requests.Ask(source.get(), "a1");
  requests.Ask(source.get(), "a2");
  FetchOutcomes results;
  dispatcher.ExecuteFrontier(requests.round(),
                             [](std::size_t index) { return index == 0; },
                             &results);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].skipped_dynamic);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].attempts, 0u);
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(dispatcher.skipped(), 1u);
  EXPECT_EQ(dispatcher.skipped_per_source().at("v"), 1u);
  // Skipped fetches teach nothing: only the dispatched one observed.
  EXPECT_EQ(dispatcher.profiles().at("v").observations, 1u);
}

// ---------------------------------------------------------------------
// Hedging: timing-model rescue without extra source attempts, and
// exactly-once breaker accounting for hedged timeouts.

std::unique_ptr<FaultInjectingSource> MakeSpikySource(const char* name,
                                                      double spike_ms) {
  FaultSpec spec;
  spec.latency_spike_rate = 1.0;  // every call spikes, deterministically
  spec.latency_spike_ms = spike_ms;
  return std::make_unique<FaultInjectingSource>(MakePairSource(name), spec);
}

TEST(AdaptiveHedgeBreakerTest, HedgeRescuesDeadlineWithoutExtraAttempts) {
  // Base 50 ms + 500 ms spike = 550 ms against a 200 ms deadline: lost
  // without a hedge. Hedged at 100 ms the duplicate arrives at
  // 100 + 50 = 150 ms — inside the deadline — with a single Execute.
  auto source = MakeSpikySource("v", 500);
  auto dict = std::make_shared<ValueDictionary>();
  RuntimeOptions options;
  options.retry.deadline_ms = 200;
  FetchScheduler scheduler(options, dict);

  testutil::RoundBuilder hedged(&scheduler, dict);
  hedged.Ask(source.get(), "a1", /*hedge_delay_ms=*/100);
  auto results = hedged.Run();
  ASSERT_TRUE(results[0].ok());
  EXPECT_TRUE(results[0].hedged);
  EXPECT_TRUE(results[0].hedge_win);
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_EQ(results[0].timeouts, 0u);
  EXPECT_DOUBLE_EQ(results[0].duration_ms, 150);
  EXPECT_EQ(source->stats().calls, 1u);  // no second physical call
  EXPECT_EQ(scheduler.report().hedged, 1u);
  EXPECT_EQ(scheduler.report().hedge_wins, 1u);

  // The same fetch without a hedge times out.
  auto plain_source = MakeSpikySource("p", 500);
  FetchScheduler plain_scheduler(options, dict);
  testutil::RoundBuilder unhedged(&plain_scheduler, dict);
  unhedged.Ask(plain_source.get(), "a1");
  auto plain = unhedged.Run();
  EXPECT_FALSE(plain[0].ok());
  EXPECT_EQ(plain[0].timeouts, 1u);
  EXPECT_FALSE(plain[0].hedged);
}

TEST(AdaptiveHedgeBreakerTest, HedgedTimeoutCountsOnceTowardBreaker) {
  // Even hedged, 100 + 50 = 150 ms misses the 120 ms deadline: the
  // fetch fails — but it is ONE failure. With failure_threshold 2 the
  // breaker must stay closed after the first batch, trip after the
  // second, and fast-fail the third; a double-counting hedge would trip
  // it one batch early.
  auto source = MakeSpikySource("v", 500);
  auto dict = std::make_shared<ValueDictionary>();
  RuntimeOptions options;
  options.retry.deadline_ms = 120;
  options.retry.breaker.failure_threshold = 2;
  options.retry.breaker.cooldown_ms = 1e9;
  FetchScheduler scheduler(options, dict);

  testutil::RoundBuilder request(&scheduler, dict);

  request.Ask(source.get(), "a1", /*hedge_delay_ms=*/100);
  auto first = request.Run();
  EXPECT_FALSE(first[0].ok());
  EXPECT_TRUE(first[0].hedged);
  EXPECT_FALSE(first[0].hedge_win);
  EXPECT_FALSE(first[0].breaker_skipped);

  request.Ask(source.get(), "a1", /*hedge_delay_ms=*/100);
  auto second = request.Run();
  EXPECT_FALSE(second[0].ok());
  // One recorded failure so far: the breaker still admitted this fetch.
  EXPECT_FALSE(second[0].breaker_skipped);
  EXPECT_EQ(second[0].attempts, 1u);

  request.Ask(source.get(), "a1", /*hedge_delay_ms=*/100);
  auto third = request.Run();
  EXPECT_TRUE(third[0].breaker_skipped);
  EXPECT_EQ(third[0].attempts, 0u);
  EXPECT_EQ(source->stats().calls, 2u);
}

// ---------------------------------------------------------------------
// FetchGovernor × hedging: cross-query coalescing keys include the
// hedge delay, so a follower only ever inherits an outcome its own
// hedge configuration would have produced.

/// A source that blocks inside Execute until released, counting how
/// many calls physically entered — the deterministic way to hold one
/// query's fetch in the governor's in-flight window while another
/// query's identical fetch arrives.
class GateSource : public capability::Source {
 public:
  explicit GateSource(const std::string& name)
      : view_(SourceView::MakeUnsafe(name, {"A", "B"}, "bf")) {}

  const SourceView& view() const override { return view_; }

  Result<Relation> Execute(const SourceQuery& /*query*/) override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    released_cv_.wait(lock, [&] { return released_; });
    Relation rows(Schema::MakeUnsafe({"A", "B"}));
    rows.InsertUnsafe({S("a1"), S("b1")});
    return rows;
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    released_cv_.notify_all();
  }

  bool WaitForEntered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return entered_cv_.wait_for(lock, std::chrono::seconds(30),
                                [&] { return entered_ >= n; });
  }

  std::size_t entered() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entered_;
  }

 private:
  SourceView view_;
  mutable std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable released_cv_;
  std::size_t entered_ = 0;
  bool released_ = false;
};

RuntimeOptions GovernedConcurrent(FetchGovernor* governor) {
  RuntimeOptions options;
  options.concurrent = true;
  options.governor = governor;
  return options;
}

TEST(AdaptiveGovernorHedgeTest, DifferentHedgeDelaysNeverShareOutcomes) {
  GateSource gate("g");
  FetchGovernor governor;
  auto dict_a = std::make_shared<ValueDictionary>();
  auto dict_b = std::make_shared<ValueDictionary>();
  FetchScheduler scheduler_a(GovernedConcurrent(&governor), dict_a);
  FetchScheduler scheduler_b(GovernedConcurrent(&governor), dict_b);

  testutil::RoundBuilder request_a(&scheduler_a, dict_a);
  request_a.Ask(&gate, "a1", /*hedge_delay_ms=*/100);
  testutil::RoundBuilder request_b(&scheduler_b, dict_b);
  request_b.Ask(&gate, "a1", /*hedge_delay_ms=*/200);

  FetchOutcomes results_a, results_b;
  std::thread query_a([&] { results_a = request_a.Run(); });
  ASSERT_TRUE(gate.WaitForEntered(1));
  std::thread query_b([&] { results_b = request_b.Run(); });
  // The same value-level query under a DIFFERENT hedge delay must lead
  // its own source call, not follow the in-flight one.
  EXPECT_TRUE(gate.WaitForEntered(2));
  gate.Release();
  query_a.join();
  query_b.join();

  EXPECT_EQ(gate.entered(), 2u);
  ASSERT_TRUE(results_a[0].ok());
  ASSERT_TRUE(results_b[0].ok());
  EXPECT_FALSE(results_a[0].cross_coalesced);
  EXPECT_FALSE(results_b[0].cross_coalesced);
  const FetchGovernor::Stats stats = governor.stats();
  EXPECT_EQ(stats.cross_query_coalesced, 0u);
  EXPECT_EQ(stats.acquired, 2u);  // two leaders, two permits
}

TEST(AdaptiveGovernorHedgeTest, EqualHedgeDelaysStillCoalesce) {
  GateSource gate("g");
  FetchGovernor governor;
  auto dict_a = std::make_shared<ValueDictionary>();
  auto dict_b = std::make_shared<ValueDictionary>();
  FetchScheduler scheduler_a(GovernedConcurrent(&governor), dict_a);
  FetchScheduler scheduler_b(GovernedConcurrent(&governor), dict_b);

  testutil::RoundBuilder request_a(&scheduler_a, dict_a);
  request_a.Ask(&gate, "a1", /*hedge_delay_ms=*/100);
  testutil::RoundBuilder request_b(&scheduler_b, dict_b);
  request_b.Ask(&gate, "a1", /*hedge_delay_ms=*/100);

  FetchOutcomes results_a, results_b;
  std::thread query_a([&] { results_a = request_a.Run(); });
  ASSERT_TRUE(gate.WaitForEntered(1));
  std::thread query_b([&] { results_b = request_b.Run(); });
  // Identical hedge config: B registers as a follower of A's in-flight
  // call (visible in the governor stats) without touching the source.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (governor.stats().cross_query_coalesced == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(governor.stats().cross_query_coalesced, 1u);
  gate.Release();
  query_a.join();
  query_b.join();

  EXPECT_EQ(gate.entered(), 1u);
  ASSERT_TRUE(results_a[0].ok());
  ASSERT_TRUE(results_b[0].ok());
  EXPECT_EQ(results_b.RowsOf(0), 1u);
  // Exactly one of the two fetches followed; the leader held the only
  // permit (followers wait permit-free).
  EXPECT_TRUE(results_a[0].cross_coalesced !=
              results_b[0].cross_coalesced);
  const FetchGovernor::Stats stats = governor.stats();
  EXPECT_EQ(stats.acquired, 1u);
  EXPECT_EQ(stats.cross_query_coalesced, 1u);
  // The follower's scheduler still learned the outcome for its breaker
  // (a solo run would have made this call), so both report a success.
  EXPECT_EQ(scheduler_a.report().per_source.at("g").successes +
                scheduler_b.report().per_source.at("g").successes,
            2u);
}

}  // namespace
}  // namespace limcap
