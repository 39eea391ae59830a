// The observability layer's own tests, in three tiers:
//
//   1. units — Tracer span trees, counters, aggregation helpers, the
//      MetricsRegistry, and the exporters (Chrome trace_event JSON and
//      the text span tree);
//   2. the compile-time disabled-path contract — NullTracer's
//      operations are constexpr no-ops, checkable with static_assert;
//   3. the consistency contract — for every paper example (and a
//      fault-injected run) the recorded span aggregates reconcile
//      EXACTLY with EvalStats, FetchReport, and the MetricsRegistry.
//      The trace is not a parallel bookkeeping system that can drift:
//      anything it claims must equal what the execution reported.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "capability/in_memory_source.h"
#include "common/string_util.h"
#include "exec/query_answerer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paperdata/paper_examples.h"
#include "runtime/fault_injection.h"

namespace limcap::obs {
namespace {

using capability::InMemorySource;
using capability::SourceCatalog;
using exec::AnswerReport;
using exec::ExecOptions;
using exec::QueryAnswerer;
using runtime::FaultInjectingSource;
using runtime::FaultSpec;

// ---------------------------------------------------------------------------
// Tracer units
// ---------------------------------------------------------------------------

TEST(ObsTracerTest, SpansNestUnderInnermostOpen) {
  Tracer tracer;
  SpanId a = tracer.Begin("a");
  SpanId b = tracer.Begin("b");
  SpanId c = tracer.Instant("c", "leaf");
  tracer.End(b);
  SpanId d = tracer.Begin("d");
  tracer.End(d);
  tracer.End(a);
  ASSERT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.spans()[a].parent, kNoSpan);
  EXPECT_EQ(tracer.spans()[b].parent, a);
  EXPECT_EQ(tracer.spans()[c].parent, b);
  EXPECT_EQ(tracer.spans()[c].detail, "leaf");
  EXPECT_EQ(tracer.spans()[d].parent, a);
  for (const Span& span : tracer.spans()) EXPECT_FALSE(span.open);
}

TEST(ObsTracerTest, EndClosesDanglingChildren) {
  // Malformed nesting must never corrupt the tree: ending a parent
  // closes any child still open.
  Tracer tracer;
  SpanId outer = tracer.Begin("outer");
  tracer.Begin("inner");
  tracer.End(outer);
  EXPECT_FALSE(tracer.spans()[0].open);
  EXPECT_FALSE(tracer.spans()[1].open);
  // The stack is empty again: a new span is a root.
  SpanId next = tracer.Begin("next");
  tracer.End(next);
  EXPECT_EQ(tracer.spans()[next].parent, kNoSpan);
}

TEST(ObsTracerTest, CountersAccumulateAndAggregate) {
  Tracer tracer;
  SpanId a = tracer.Instant("fetch", "v1");
  tracer.Counter(a, "attempts", 2);
  tracer.Counter(a, "attempts", 1);  // accumulates into the same counter
  SpanId b = tracer.Instant("fetch", "v2");
  tracer.Counter(b, "attempts", 4);
  EXPECT_EQ(tracer.CountSpans("fetch"), 2u);
  EXPECT_EQ(tracer.CountSpans("fetch", "v1"), 1u);
  EXPECT_EQ(tracer.SumCounter("fetch", "attempts"), 7.0);
  EXPECT_EQ(tracer.SumCounter("fetch", "v2", "attempts"), 4.0);
  EXPECT_EQ(tracer.SumCounter("fetch", "missing"), 0.0);
}

TEST(ObsTracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(/*enabled=*/false);
  {
    ScopedSpan span(&tracer, "a");
    span.Counter("k", 1);
    span.SetSimulated(0, 10);
    EXPECT_EQ(span.id(), kNoSpan);
    EXPECT_EQ(span.tracer(), nullptr);
  }
  ScopedSpan null_span(nullptr, "b", "detail");
  EXPECT_TRUE(tracer.empty());
}

TEST(ObsTracerTest, SimulatedTimelineIsOptional) {
  Tracer tracer;
  SpanId plain = tracer.Instant("fetch");
  SpanId placed = tracer.Instant("fetch");
  tracer.SetSimulated(placed, 50, 100);
  EXPECT_LT(tracer.spans()[plain].sim_start_ms, 0);
  EXPECT_EQ(tracer.spans()[placed].sim_start_ms, 50);
  EXPECT_EQ(tracer.spans()[placed].sim_dur_ms, 100);
}

// ---------------------------------------------------------------------------
// The compile-time disabled path
// ---------------------------------------------------------------------------

TEST(ObsNullTracerTest, OperationsAreConstexprNoOps) {
  static_assert(!NullTracer::kEnabled);
  static_assert(!NullTracer::enabled());
  static_assert(NullTracer::Begin("a") == kNoSpan);
  static_assert(NullTracer::Instant("b", "c") == kNoSpan);
  static_assert((NullTracer::End(kNoSpan), true));
  static_assert((NullTracer::Counter(kNoSpan, "k", 1), true));
  static_assert((NullTracer::SetSimulated(kNoSpan, 0, 0), true));
  SUCCEED();
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, CountersAddAndMerge) {
  MetricsRegistry a;
  EXPECT_TRUE(a.empty());
  a.Add("x");
  a.Add("x", 2);
  EXPECT_EQ(a.Get("x"), 3.0);
  EXPECT_EQ(a.Get("never"), 0.0);
  MetricsRegistry b;
  b.Add("x", 10);
  b.Add("y", 1);
  a.Merge(b);
  EXPECT_EQ(a.Get("x"), 13.0);
  EXPECT_EQ(a.Get("y"), 1.0);
  a.Clear();
  EXPECT_TRUE(a.empty());
}

TEST(ObsMetricsTest, HistogramsTrackShape) {
  MetricsRegistry registry;
  registry.Observe("ms", 1);
  registry.Observe("ms", 3);
  registry.Observe("ms", 8);
  const MetricsRegistry::Histogram* hist = registry.FindHistogram("ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_EQ(hist->sum, 12.0);
  EXPECT_EQ(hist->min, 1.0);
  EXPECT_EQ(hist->max, 8.0);
  EXPECT_EQ(hist->mean(), 4.0);
  EXPECT_EQ(registry.FindHistogram("other"), nullptr);
}

TEST(ObsMetricsTest, RendersTextAndJson) {
  MetricsRegistry registry;
  registry.Add("eval.rounds", 17);
  registry.Observe("fetch.duration_ms", 150);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("eval.rounds"), std::string::npos);
  EXPECT_NE(text.find("17"), std::string::npos);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"fetch.duration_ms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ObsExportTest, ChromeTraceShape) {
  Tracer tracer;
  SpanId root = tracer.Begin("answer", "hybrid");
  SpanId fetch = tracer.Instant("fetch", "v1");
  tracer.Counter(fetch, "attempts", 2);
  tracer.SetSimulated(fetch, 0, 50);
  tracer.End(root);
  const std::string json = ChromeTraceJson(tracer);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"answer\""), std::string::npos);
  EXPECT_NE(json.find("\"hybrid\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\""), std::string::npos);
  // Braces and brackets balance — the cheap well-formedness check the
  // golden test backs up with a real structure comparison.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ObsExportTest, SpanTreeIndentsByDepth) {
  Tracer tracer;
  SpanId root = tracer.Begin("answer");
  SpanId child = tracer.Begin("plan");
  tracer.End(child);
  tracer.End(root);
  SpanTreeOptions options;
  options.include_wall = false;
  const std::string tree = RenderSpanTree(tracer, options);
  EXPECT_NE(tree.find("answer\n  plan\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The consistency contract
// ---------------------------------------------------------------------------

/// Asserts every clause of the span/stats reconciliation for one
/// answered query.
void ExpectTraceConsistent(const Tracer& tracer,
                           const MetricsRegistry& metrics,
                           const AnswerReport& report) {
  const datalog::EvalStats& eval = report.exec.datalog_stats;
  const runtime::FetchReport& fetch = report.exec.fetch_report;

  // Spans vs EvalStats.
  EXPECT_EQ(tracer.CountSpans("eval.round"), eval.iterations);
  EXPECT_EQ(tracer.SumCounter("eval.round", "activations"),
            double(eval.rule_activations));
  EXPECT_EQ(tracer.SumCounter("eval.round", "facts") +
                tracer.SumCounter("eval.seed", "facts"),
            double(eval.facts_derived));

  // Spans vs FetchReport, in total and per source.
  EXPECT_EQ(tracer.CountSpans("fetch.batch"), fetch.batches);
  EXPECT_EQ(tracer.SumCounter("fetch", "attempts"),
            double(fetch.total_attempts));
  EXPECT_EQ(tracer.SumCounter("fetch", "retries"),
            double(fetch.total_retries));
  EXPECT_EQ(tracer.SumCounter("fetch", "timeouts"),
            double(fetch.total_timeouts));
  EXPECT_EQ(tracer.CountSpans("fetch.coalesced"), fetch.coalesced_hits);
  for (const auto& [source, stats] : fetch.per_source) {
    EXPECT_EQ(tracer.SumCounter("fetch", source, "attempts"),
              double(stats.attempts))
        << "per-source attempts diverge for " << source;
    EXPECT_EQ(tracer.SumCounter("fetch", source, "retries"),
              double(stats.retries))
        << "per-source retries diverge for " << source;
    EXPECT_EQ(tracer.SumCounter("fetch", source, "breaker_skip"),
              double(stats.breaker_skips))
        << "per-source breaker skips diverge for " << source;
  }

  // Metrics vs both.
  EXPECT_EQ(metrics.Get(metric::kEvalRounds), double(eval.iterations));
  EXPECT_EQ(metrics.Get(metric::kEvalActivations),
            double(eval.rule_activations));
  EXPECT_EQ(metrics.Get(metric::kEvalFactsDerived),
            double(eval.facts_derived));
  EXPECT_EQ(metrics.Get(metric::kFetchBatches), double(fetch.batches));
  EXPECT_EQ(metrics.Get(metric::kFetchAttempts),
            double(fetch.total_attempts));
  EXPECT_EQ(metrics.Get(metric::kFetchRetries),
            double(fetch.total_retries));
  EXPECT_EQ(metrics.Get(metric::kFetchCoalesced),
            double(fetch.coalesced_hits));
  EXPECT_EQ(metrics.Get(metric::kFetchFailedViews),
            double(fetch.failed_views.size()));
  EXPECT_EQ(metrics.Get(metric::kExecSourceQueries),
            double(report.exec.log.total_queries()));
  EXPECT_EQ(metrics.Get(metric::kAnswerRows),
            double(report.exec.answer.size()));
  const MetricsRegistry::Histogram* rounds =
      metrics.FindHistogram(metric::kHistRoundActivations);
  if (eval.iterations > 0) {
    ASSERT_NE(rounds, nullptr);
    EXPECT_EQ(rounds->count, eval.iterations);
    EXPECT_EQ(rounds->sum, double(eval.rule_activations));
  }
}

class ObsConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(ObsConsistencyTest, PaperExampleAggregatesReconcile) {
  paperdata::PaperExample example =
      GetParam() == 21   ? paperdata::MakeExample21()
      : GetParam() == 41 ? paperdata::MakeExample41()
      : GetParam() == 51 ? paperdata::MakeExample51()
                         : paperdata::MakeExample52();
  Tracer tracer;
  MetricsRegistry metrics;
  ExecOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(example.query, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(tracer.CountSpans("answer"), 1u);
  EXPECT_EQ(tracer.CountSpans("plan"), 1u);
  ExpectTraceConsistent(tracer, metrics, *report);
}

INSTANTIATE_TEST_SUITE_P(PaperExamples, ObsConsistencyTest,
                         ::testing::Values(21, 41, 51, 52),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrCat({"Example", std::to_string(info.param)});
                         });

TEST(ObsConsistencyTest, FaultInjectedRunReconciles) {
  // Example 2.1 with v4 permanently down: the trace must account for
  // every retry and the failed view exactly as FetchReport does, and
  // the failure path must not break any reconciliation clause.
  paperdata::PaperExample example = paperdata::MakeExample21();
  SourceCatalog flaky;
  for (const auto& view : example.views) {
    auto* source = dynamic_cast<InMemorySource*>(
        example.catalog.Find(view.name()).value());
    auto copy = std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, source->data()));
    if (view.name() == "v4") {
      FaultSpec spec;
      spec.fail_first_calls = 1000;
      flaky.RegisterUnsafe(
          std::make_unique<FaultInjectingSource>(std::move(copy), spec));
    } else {
      flaky.RegisterUnsafe(std::move(copy));
    }
  }
  Tracer tracer;
  MetricsRegistry metrics;
  ExecOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.continue_on_source_error = true;
  options.runtime.retry.max_attempts = 2;
  options.runtime.retry.jitter = 0;
  QueryAnswerer answerer(&flaky, example.domains);
  auto report = answerer.Answer(example.query, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->exec.fetch_report.degraded());
  EXPECT_GT(report->exec.fetch_report.total_retries, 0u);
  ExpectTraceConsistent(tracer, metrics, *report);
  // The failed fetches are visible as fetch spans with ok=0.
  EXPECT_EQ(tracer.SumCounter("fetch", "v4", "ok"), 0.0);
}

TEST(ObsConsistencyTest, TracingNeverChangesTheAnswer) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto plain = answerer.Answer(example.query);
  Tracer tracer;
  MetricsRegistry metrics;
  ExecOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  auto traced = answerer.Answer(example.query, options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(traced.ok());
  EXPECT_TRUE(plain->exec.answer == traced->exec.answer);
  EXPECT_FALSE(tracer.empty());
}

}  // namespace
}  // namespace limcap::obs
