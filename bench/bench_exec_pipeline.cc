// End-to-end answering latency through the interned execution path:
// Mediator::Answer from user query to decoded report, one session
// dictionary from the mediator down to the sources and back.
//
// Two workloads:
//   P1 — Example 2.1 phrased as a mediator view (cd_info defined by the
//        four source joins), the paper's running example.
//   P2 — a generated 400-view chain catalog where one query walks a
//        multi-view connection, the repeated-access shape that stresses
//        per-round query construction.
//
// Each run also reports the dictionary counters so the benchmark doubles
// as a check of the single-translation invariant (post-ingest
// translations must be zero) and quantifies what lazy log rendering
// saves versus eager rendering. Output is one JSON row per measurement.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "mediator/mediator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paperdata/paper_examples.h"
#include "workload/generator.h"

#include "bench_report.h"

namespace {

using limcap::Value;
using limcap::ValueDictionary;
using limcap::mediator::Mediator;
using limcap::mediator::MediatorQuery;
using limcap::mediator::MediatorView;

int failures = 0;
limcap::benchreport::Reporter reporter("bench_exec_pipeline");

struct Timing {
  double min_us = 0;
  double mean_us = 0;
  double p50_us = 0;
};

/// Times `fn` (which answers one query and returns the report) over
/// `iters` runs after one warmup.
template <typename Fn>
Timing Measure(std::size_t iters, Fn&& fn) {
  fn();  // warmup
  std::vector<double> samples;
  samples.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  Timing timing;
  timing.min_us = samples.front();
  timing.p50_us = samples[samples.size() / 2];
  double sum = 0;
  for (double s : samples) sum += s;
  timing.mean_us = sum / samples.size();
  return timing;
}

void EmitRow(const std::string& bench, std::size_t iters,
             const Timing& timing, const limcap::exec::AnswerReport& report) {
  const auto& dict = report.exec.session_dict;
  std::printf(
      "{\"bench\": \"%s\", \"iters\": %zu, \"min_us\": %.1f, "
      "\"p50_us\": %.1f, \"mean_us\": %.1f, \"answer_rows\": %zu, "
      "\"source_queries\": %zu, \"dict_size\": %zu, "
      "\"encodes\": %llu, \"decodes\": %llu, "
      "\"post_ingest_translations\": %llu}\n",
      bench.c_str(), iters, timing.min_us, timing.p50_us, timing.mean_us,
      report.exec.answer.size(), report.exec.log.total_queries(),
      dict ? dict->size() : 0,
      dict ? (unsigned long long)dict->encode_count() : 0ull,
      dict ? (unsigned long long)dict->decode_count() : 0ull,
      (unsigned long long)report.exec.post_ingest_translations);
  reporter.AddRow(bench)
      .Set("iters", double(iters))
      .Set("min_us", timing.min_us)
      .Set("p50_us", timing.p50_us)
      .Set("mean_us", timing.mean_us)
      .Set("answer_rows", double(report.exec.answer.size()))
      .Set("source_queries", double(report.exec.log.total_queries()))
      .Set("dict_size", dict ? double(dict->size()) : 0);
  const bool single_translation = report.exec.post_ingest_translations == 0;
  reporter.Invariant(bench + ": no post-ingest translations",
                     single_translation);
  if (!single_translation) {
    std::fprintf(stderr, "FAIL: %s translated values after ingest\n",
                 bench.c_str());
    ++failures;
  }
}

void BenchExample21() {
  auto example = limcap::paperdata::MakeExample21();
  Mediator mediator(&example.catalog, example.domains);
  MediatorView cd_info;
  cd_info.name = "cd_info";
  cd_info.exported_attributes = {"Song", "Price"};
  cd_info.definitions = example.query.connections();
  if (!mediator.Define(std::move(cd_info)).ok()) {
    std::fprintf(stderr, "FAIL: cd_info definition rejected\n");
    ++failures;
    return;
  }
  MediatorQuery query;
  query.view = "cd_info";
  query.selections = {{"Song", Value::String("t1")}};
  query.outputs = {"Price"};

  constexpr std::size_t kIters = 200;
  limcap::Result<limcap::exec::AnswerReport> last =
      limcap::Status::Internal("never ran");
  Timing timing = Measure(kIters, [&] { last = mediator.Answer(query); });
  if (!last.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", last.status().ToString().c_str());
    ++failures;
    return;
  }
  if (last->exec.answer.size() != 3) {
    std::fprintf(stderr, "FAIL: expected the 3-price answer, got %zu\n",
                 last->exec.answer.size());
    ++failures;
  }
  EmitRow("example21_mediator", kIters, timing, *last);

  // Acceptance check: with tracing enabled, the same answering run must
  // yield a Chrome-loadable trace whose span aggregates reconcile
  // exactly with EvalStats and FetchReport.
  limcap::obs::Tracer tracer;
  limcap::obs::MetricsRegistry metrics;
  limcap::exec::ExecOptions traced_options;
  traced_options.tracer = &tracer;
  traced_options.metrics = &metrics;
  auto traced = mediator.Answer(query, traced_options);
  if (!traced.ok()) {
    std::fprintf(stderr, "FAIL: traced run: %s\n",
                 traced.status().ToString().c_str());
    ++failures;
    return;
  }
  const auto& eval = traced->exec.datalog_stats;
  const auto& fetch = traced->exec.fetch_report;
  const bool aggregates_match =
      tracer.CountSpans("eval.round") == eval.iterations &&
      tracer.SumCounter("eval.round", "activations") ==
          double(eval.rule_activations) &&
      tracer.CountSpans("fetch.batch") == fetch.batches &&
      tracer.SumCounter("fetch", "attempts") == double(fetch.total_attempts) &&
      tracer.SumCounter("fetch", "retries") == double(fetch.total_retries);
  reporter.Invariant("example21 trace aggregates match EvalStats/FetchReport",
                     aggregates_match);
  if (!aggregates_match) {
    std::fprintf(stderr,
                 "FAIL: example21 span aggregates diverge from stats\n");
    ++failures;
  }
  const std::string chrome = limcap::obs::ChromeTraceJson(tracer);
  const bool chrome_ok = chrome.find("\"traceEvents\"") != std::string::npos &&
                         chrome.find("\"answer\"") != std::string::npos;
  reporter.Invariant("example21 Chrome trace exported", chrome_ok);
  if (!chrome_ok) {
    std::fprintf(stderr, "FAIL: example21 Chrome trace export malformed\n");
    ++failures;
  }
  reporter.AddRow("example21_traced")
      .Set("spans", double(tracer.spans().size()))
      .Set("eval_rounds", double(eval.iterations))
      .Set("fetch_batches", double(fetch.batches))
      .Set("chrome_trace_bytes", double(chrome.size()));
}

void BenchGeneratedChain() {
  limcap::workload::CatalogSpec spec;
  spec.topology = limcap::workload::CatalogSpec::Topology::kChain;
  spec.num_views = 400;
  spec.tuples_per_view = 20;
  spec.domain_size = 12;
  spec.seed = 20260807;
  auto instance = limcap::workload::GenerateInstance(spec);

  // In a bf-chain only a walk entered at its first attribute is fully
  // queryable; probe generator seeds until one produces an answerable
  // query (deterministic: the probe order is fixed).
  limcap::workload::QuerySpec query_spec;
  query_spec.num_connections = 1;
  query_spec.views_per_connection = 4;
  limcap::Result<limcap::planner::Query> generated =
      limcap::Status::NotFound("no seed probed");
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    query_spec.seed = seed;
    auto candidate = limcap::workload::GenerateQuery(instance, query_spec);
    if (!candidate.ok()) continue;
    limcap::exec::QueryAnswerer answerer(&instance.catalog,
                                         instance.domains);
    auto probe = answerer.Answer(*candidate);
    if (probe.ok() && !probe->exec.answer.empty()) {
      generated = *candidate;
      break;
    }
  }
  if (!generated.ok()) {
    std::fprintf(stderr, "FAIL: no answerable generated query in 64 seeds\n");
    ++failures;
    return;
  }

  Mediator mediator(&instance.catalog, instance.domains);
  MediatorView view;
  view.name = "walk";
  for (const auto& input : generated->inputs()) {
    view.exported_attributes.push_back(input.attribute);
  }
  for (const auto& output : generated->outputs()) {
    view.exported_attributes.push_back(output);
  }
  view.definitions = generated->connections();
  if (!mediator.Define(std::move(view)).ok()) {
    std::fprintf(stderr, "FAIL: generated view rejected\n");
    ++failures;
    return;
  }
  MediatorQuery query;
  query.view = "walk";
  query.selections = generated->inputs();
  query.outputs = generated->outputs();

  constexpr std::size_t kIters = 50;
  limcap::Result<limcap::exec::AnswerReport> last =
      limcap::Status::Internal("never ran");
  Timing lazy = Measure(kIters, [&] { last = mediator.Answer(query); });
  if (!last.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", last.status().ToString().c_str());
    ++failures;
    return;
  }
  EmitRow("chain400_mediator", kIters, lazy, *last);

  // Acceptance check: an attached-but-disabled Tracer must cost at most
  // 5% over no tracer at all on the 400-view chain (ISSUE: the disabled
  // hot path is two branches, no allocation). Interleaved min-of-N
  // pairs cancel machine drift; the absolute floor absorbs scheduler
  // jitter on runs this short; three attempts keep a one-off stall from
  // failing the bench.
  limcap::obs::Tracer disabled(/*enabled=*/false);
  limcap::exec::ExecOptions disabled_options;
  disabled_options.tracer = &disabled;
  constexpr std::size_t kOverheadIters = 30;
  constexpr int kAttempts = 3;
  constexpr double kSlackFloorUs = 200.0;
  double base_min_us = 0, traced_min_us = 0, overhead = 0;
  bool within_budget = false;
  for (int attempt = 0; attempt < kAttempts && !within_budget; ++attempt) {
    base_min_us = 1e300;
    traced_min_us = 1e300;
    for (std::size_t i = 0; i < kOverheadIters; ++i) {
      auto start = std::chrono::steady_clock::now();
      last = mediator.Answer(query);
      auto mid = std::chrono::steady_clock::now();
      auto traced = mediator.Answer(query, disabled_options);
      auto stop = std::chrono::steady_clock::now();
      if (!last.ok() || !traced.ok()) {
        std::fprintf(stderr, "FAIL: overhead probe run failed\n");
        ++failures;
        return;
      }
      base_min_us = std::min(
          base_min_us,
          std::chrono::duration<double, std::micro>(mid - start).count());
      traced_min_us = std::min(
          traced_min_us,
          std::chrono::duration<double, std::micro>(stop - mid).count());
    }
    overhead = base_min_us > 0 ? traced_min_us / base_min_us - 1.0 : 0.0;
    within_budget = traced_min_us <= base_min_us * 1.05 + kSlackFloorUs;
  }
  if (!disabled.empty()) {
    std::fprintf(stderr, "FAIL: disabled tracer recorded spans\n");
    ++failures;
  }
  reporter.Invariant("disabled tracer recorded nothing", disabled.empty());
  std::printf("{\"bench\": \"chain400_disabled_tracer_overhead\", "
              "\"base_min_us\": %.1f, \"traced_min_us\": %.1f, "
              "\"overhead_pct\": %.2f}\n",
              base_min_us, traced_min_us, 100.0 * overhead);
  reporter.AddRow("chain400_disabled_tracer_overhead")
      .Set("base_min_us", base_min_us)
      .Set("traced_min_us", traced_min_us)
      .Set("overhead_pct", 100.0 * overhead);
  reporter.Invariant("disabled tracer overhead <= 5%", within_budget);
  if (!within_budget) {
    std::fprintf(stderr,
                 "FAIL: disabled tracer costs %.2f%% (budget 5%%)\n",
                 100.0 * overhead);
    ++failures;
  }
}

}  // namespace

int main() {
  BenchExample21();
  BenchGeneratedChain();
  reporter.SetFailures(failures);
  reporter.Write();
  if (failures != 0) {
    std::fprintf(stderr, "%d failure(s)\n", failures);
    return 1;
  }
  return 0;
}
