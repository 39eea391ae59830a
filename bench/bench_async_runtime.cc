// Simulated-makespan comparison of the asynchronous source-access
// runtime on the 400-view chain catalog: the same query answered with
//
//   serial      — one source call at a time (the legacy dispatch),
//   concurrent  — each fetch round's frontier dispatched on the thread
//                 pool under the global and per-source in-flight caps,
//   faulty      — concurrent, with every source failing each query's
//                 first attempt (retries absorb the faults).
//
// Time is the scheduler's deterministic simulated clock (50 ms base
// round trip), so the numbers are reproducible anywhere; wall-clock per
// answering run is reported alongside. Self-checks: the three runs must
// return identical answers and source-query counts, and the concurrent
// makespan must beat serial by at least 2x — the acceptance bar for the
// runtime actually overlapping a round's independent fetches.
//
// A second section measures what the binding-flow static prune
// (StaticAnalysisMode::kPrune) saves in source queries on the ungated
// Π(Q, V), on the chain and on a random topology, with decoy sources
// standing in for the reachable-but-irrelevant views real catalogs
// carry. Self-checks: pruning preserves the answer, saves >=10% of the
// fetches on at least one workload, and the analysis itself stays under
// 100 ms on the 400-view chain.
//
// A third section measures the adaptive dispatch layer
// (RuntimeOptions::adaptive): dynamic relevance skips on a decoyed join
// that static analysis cannot prune (self-check: adaptive fetches <
// static fetches with skips > 0 and the same answer), and hedged
// requests on a one-source walk under seeded latency spikes
// (self-check: the hedged run's simulated makespan beats the unhedged
// run's with at least one hedge fired and the same answer).
//
// A last section answers one wide frontier (about 24k source queries)
// with serial and with concurrent dispatch and reports the wall time of
// each, ungated (self-check: identical answers and source queries), and
// the heap allocations per source query of each, counted by the global
// operator new of alloc_counter.cc (self-check: serial dispatch makes at
// most 2.5 per query, and more than none, so a counter that stopped
// linking fails). Output is one JSON row per configuration.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "analysis/binding_flow.h"
#include "capability/catalog_text.h"
#include "capability/in_memory_source.h"
#include "common/rng.h"
#include "common/value.h"
#include "exec/query_answerer.h"
#include "planner/program_builder.h"
#include "runtime/fault_injection.h"
#include "workload/generator.h"

#include "alloc_counter.h"
#include "bench_report.h"

namespace {

using limcap::capability::InMemorySource;
using limcap::capability::SourceCatalog;

int failures = 0;
limcap::benchreport::Reporter reporter("bench_async_runtime");

/// Wide-frontier gate: serial dispatch's heap allocations per source
/// query (the two id vectors each access record keeps, plus per-round
/// and planning costs spread over ~24k queries).
constexpr double kMaxSerialAllocsPerQuery = 2.5;

struct Run {
  limcap::Result<limcap::exec::AnswerReport> report =
      limcap::Status::Internal("never ran");
  double wall_ms = 0;
  /// Heap allocations made while answering.
  std::size_t allocations = 0;
};

Run AnswerOnce(const SourceCatalog& catalog,
               const limcap::planner::DomainMap& domains,
               const limcap::planner::Query& query,
               const limcap::exec::ExecOptions& options) {
  limcap::exec::QueryAnswerer answerer(&catalog, domains);
  Run run;
  const std::size_t allocations_before =
      limcap::benchalloc::g_allocations.load(std::memory_order_relaxed);
  auto start = std::chrono::steady_clock::now();
  run.report = answerer.Answer(query, options);
  auto stop = std::chrono::steady_clock::now();
  run.allocations =
      limcap::benchalloc::g_allocations.load(std::memory_order_relaxed) -
      allocations_before;
  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return run;
}

double AllocsPerSourceQuery(const Run& run) {
  return double(run.allocations) /
         double(std::max<std::size_t>(1, run.report->exec.log.total_queries()));
}

/// Emits one row; `count_allocations` adds allocs_per_source_query.
void EmitRow(const std::string& bench, const Run& run,
             bool count_allocations = false) {
  const limcap::runtime::FetchReport& fetch =
      run.report->exec.fetch_report;
  std::printf(
      "{\"bench\": \"%s\", \"answer_rows\": %zu, \"source_queries\": %zu, "
      "\"batches\": %zu, \"attempts\": %zu, \"retries\": %zu, "
      "\"coalesced\": %zu, \"simulated_makespan_ms\": %.1f, "
      "\"simulated_sequential_ms\": %.1f, \"speedup\": %.2f, "
      "\"skipped_dynamic\": %zu, \"hedged\": %zu, \"hedge_wins\": %zu, "
      "\"degraded\": %s, \"wall_ms\": %.1f",
      bench.c_str(), run.report->exec.answer.size(),
      run.report->exec.log.total_queries(), fetch.batches,
      fetch.total_attempts, fetch.total_retries, fetch.coalesced_hits,
      fetch.simulated_makespan_ms, fetch.simulated_sequential_ms,
      fetch.SequentialSpeedup(), fetch.skipped_dynamic, fetch.hedged,
      fetch.hedge_wins, fetch.degraded() ? "true" : "false",
      run.wall_ms);
  if (count_allocations) {
    std::printf(", \"allocs_per_source_query\": %.2f",
                AllocsPerSourceQuery(run));
  }
  std::printf("}\n");
  limcap::benchreport::Reporter::Row& row = reporter.AddRow(bench);
  if (count_allocations) {
    row.Set("allocs_per_source_query", AllocsPerSourceQuery(run));
  }
  row.Set("answer_rows", double(run.report->exec.answer.size()))
      .Set("source_queries", double(run.report->exec.log.total_queries()))
      .Set("batches", double(fetch.batches))
      .Set("attempts", double(fetch.total_attempts))
      .Set("retries", double(fetch.total_retries))
      .Set("coalesced", double(fetch.coalesced_hits))
      .Set("simulated_makespan_ms", fetch.simulated_makespan_ms)
      .Set("simulated_sequential_ms", fetch.simulated_sequential_ms)
      .Set("speedup", fetch.SequentialSpeedup())
      .Set("skipped_dynamic", double(fetch.skipped_dynamic))
      .Set("hedged", double(fetch.hedged))
      .Set("hedge_wins", double(fetch.hedge_wins))
      .Set("degraded", fetch.degraded() ? "true" : "false")
      .Set("wall_ms", run.wall_ms);
}

Run AnswerUnoptimizedOnce(const SourceCatalog& catalog,
                          const limcap::planner::DomainMap& domains,
                          const limcap::planner::Query& query,
                          const limcap::exec::ExecOptions& options) {
  limcap::exec::QueryAnswerer answerer(&catalog, domains);
  Run run;
  auto start = std::chrono::steady_clock::now();
  run.report = answerer.AnswerUnoptimized(query, options);
  auto stop = std::chrono::steady_clock::now();
  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return run;
}

/// A copy of `instance`'s catalog plus `count` decoy sources, each "bf"
/// on a free-position attribute of one of `query`'s connection views (so
/// the decoy is reachable once the walk populates that domain) with a
/// fresh second attribute feeding nothing. The decoys — like every
/// catalog view outside the walk that the walk's domains unlock — are
/// fetched by the ungated unoptimized run and statically irrelevant, so
/// kPrune's channel dropping is what separates the two configurations.
SourceCatalog DecoyedCatalog(
    const limcap::workload::GeneratedInstance& instance,
    const limcap::planner::Query& query, std::size_t count) {
  SourceCatalog catalog;
  for (const auto& view : instance.views) {
    catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view,
                                   instance.full_data.at(view.name()))));
  }
  std::size_t made = 0;
  for (const std::string& name : query.connections()[0].view_names()) {
    if (made >= count) break;
    for (const auto& view : instance.views) {
      if (view.name() != name) continue;
      const auto free = view.templates()[0].FreePositions();
      if (free.empty()) break;
      const std::string bound_attr = view.schema().attribute(free[0]);
      ++made;
      auto decoy = limcap::capability::SourceView::MakeUnsafe(
          "decoy" + std::to_string(made),
          {bound_attr, "DecoyF" + std::to_string(made)}, "bf");
      limcap::relational::Relation data(decoy.schema());
      catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
          InMemorySource::MakeUnsafe(std::move(decoy), std::move(data))));
      break;
    }
  }
  return catalog;
}

/// Fetch-count savings of StaticAnalysisMode::kPrune on the full
/// Π(Q, V): ungated versus pruned unoptimized execution over the
/// decoyed catalog. Returns the fractional reduction in source queries;
/// emits one row per configuration and checks answer preservation.
double RunPruneComparison(const std::string& label,
                          const SourceCatalog& catalog,
                          const limcap::planner::DomainMap& domains,
                          const limcap::planner::Query& query) {
  limcap::exec::ExecOptions off;
  Run ungated = AnswerUnoptimizedOnce(catalog, domains, query, off);
  limcap::exec::ExecOptions prune;
  prune.static_analysis = limcap::exec::StaticAnalysisMode::kPrune;
  Run pruned = AnswerUnoptimizedOnce(catalog, domains, query, prune);
  for (const Run* run : {&ungated, &pruned}) {
    if (!run->report.ok()) {
      std::fprintf(stderr, "FAIL: %s: %s\n", label.c_str(),
                   run->report.status().ToString().c_str());
      ++failures;
      return 0;
    }
  }
  EmitRow(label + "_ungated", ungated);
  EmitRow(label + "_pruned", pruned);

  const bool answers_match =
      ungated.report->exec.answer == pruned.report->exec.answer;
  reporter.Invariant(label + ": prune preserves the answer", answers_match);
  if (!answers_match) {
    std::fprintf(stderr, "FAIL: %s: prune changed the answer\n",
                 label.c_str());
    ++failures;
  }
  const double before =
      double(ungated.report->exec.log.total_queries());
  const double after = double(pruned.report->exec.log.total_queries());
  const double savings = before > 0 ? 1.0 - after / before : 0.0;
  const std::size_t pruned_channels =
      pruned.report->analysis.binding_flow.PrunedChannels().size();
  std::printf("{\"bench\": \"%s_summary\", \"source_queries_ungated\": %.0f, "
              "\"source_queries_pruned\": %.0f, \"fetch_savings\": %.3f, "
              "\"pruned_channels\": %zu}\n",
              label.c_str(), before, after, savings, pruned_channels);
  reporter.AddRow(label + "_summary")
      .Set("source_queries_ungated", before)
      .Set("source_queries_pruned", after)
      .Set("fetch_savings", savings)
      .Set("pruned_channels", double(pruned_channels));
  return savings;
}

}  // namespace

int main() {
  limcap::workload::CatalogSpec spec;
  spec.topology = limcap::workload::CatalogSpec::Topology::kChain;
  spec.num_views = 400;
  spec.tuples_per_view = 20;
  spec.domain_size = 12;
  spec.seed = 20260807;
  auto instance = limcap::workload::GenerateInstance(spec);

  // In a bf-chain only a walk entered at its first attribute is fully
  // queryable; probe generator seeds (deterministic: the probe order is
  // fixed) and keep the answerable query with the widest fetch rounds —
  // the binding fan-out down the walk is what concurrency can overlap.
  limcap::workload::QuerySpec query_spec;
  query_spec.num_connections = 1;
  query_spec.views_per_connection = 8;
  limcap::Result<limcap::planner::Query> query =
      limcap::Status::NotFound("no seed probed");
  std::size_t best_queries = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    query_spec.seed = seed;
    auto candidate = limcap::workload::GenerateQuery(instance, query_spec);
    if (!candidate.ok()) continue;
    limcap::exec::QueryAnswerer answerer(&instance.catalog,
                                         instance.domains);
    auto probe = answerer.Answer(*candidate);
    if (probe.ok() && !probe->exec.answer.empty() &&
        probe->exec.log.total_queries() > best_queries) {
      best_queries = probe->exec.log.total_queries();
      query = *candidate;
    }
  }
  if (!query.ok()) {
    std::fprintf(stderr, "FAIL: no answerable generated query in 64 seeds\n");
    return 1;
  }

  limcap::exec::ExecOptions serial_options;
  Run serial = AnswerOnce(instance.catalog, instance.domains, *query,
                          serial_options);

  limcap::exec::ExecOptions concurrent_options;
  concurrent_options.runtime.concurrent = true;
  concurrent_options.runtime.max_in_flight = 16;
  concurrent_options.runtime.per_source_max_in_flight = 8;
  Run concurrent = AnswerOnce(instance.catalog, instance.domains, *query,
                              concurrent_options);

  // Same chain with every source failing each distinct query's first
  // attempt; one retry per fetch absorbs every fault.
  limcap::runtime::FaultSpec faults;
  faults.fail_first_per_query = 1;
  SourceCatalog flaky;
  for (const auto& view : instance.views) {
    auto inner = std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
        view, instance.full_data.at(view.name())));
    flaky.RegisterUnsafe(std::make_unique<limcap::runtime::FaultInjectingSource>(
        std::move(inner), faults));
  }
  limcap::exec::ExecOptions faulty_options = concurrent_options;
  faulty_options.continue_on_source_error = true;
  faulty_options.runtime.retry.max_attempts = 2;
  faulty_options.runtime.retry.jitter = 0;
  Run faulty = AnswerOnce(flaky, instance.domains, *query, faulty_options);

  for (const Run* run : {&serial, &concurrent, &faulty}) {
    if (!run->report.ok()) {
      std::fprintf(stderr, "FAIL: %s\n",
                   run->report.status().ToString().c_str());
      return 1;
    }
  }
  EmitRow("chain400_serial", serial);
  EmitRow("chain400_concurrent", concurrent);
  EmitRow("chain400_concurrent_faulty", faulty);

  // Self-checks.
  const bool answers_match =
      (serial.report->exec.answer == concurrent.report->exec.answer) &&
      (serial.report->exec.answer == faulty.report->exec.answer);
  reporter.Invariant("answers identical across configurations", answers_match);
  if (!answers_match) {
    std::fprintf(stderr, "FAIL: answers differ across configurations\n");
    ++failures;
  }
  const bool queries_match = serial.report->exec.log.total_queries() ==
                             concurrent.report->exec.log.total_queries();
  reporter.Invariant("serial and concurrent issue equal source queries",
                     queries_match);
  if (!queries_match) {
    std::fprintf(stderr, "FAIL: concurrent run issued a different number "
                         "of source queries\n");
    ++failures;
  }
  const bool recovered = !faulty.report->exec.fetch_report.degraded() &&
                         faulty.report->exec.fetch_report.total_retries > 0;
  reporter.Invariant("faulty run recovers via retries", recovered);
  if (!recovered) {
    std::fprintf(stderr, "FAIL: faulty run should recover via retries\n");
    ++failures;
  }
  const double serial_makespan =
      serial.report->exec.fetch_report.simulated_makespan_ms;
  const double concurrent_makespan =
      concurrent.report->exec.fetch_report.simulated_makespan_ms;
  const double speedup =
      concurrent_makespan > 0 ? serial_makespan / concurrent_makespan : 1.0;
  std::printf("{\"bench\": \"chain400_summary\", "
              "\"serial_makespan_ms\": %.1f, "
              "\"concurrent_makespan_ms\": %.1f, "
              "\"serial_over_concurrent\": %.2f}\n",
              serial_makespan, concurrent_makespan, speedup);
  reporter.AddRow("chain400_summary")
      .Set("serial_makespan_ms", serial_makespan)
      .Set("concurrent_makespan_ms", concurrent_makespan)
      .Set("serial_over_concurrent", speedup);
  reporter.Invariant("concurrent dispatch at least 2x faster than serial",
                     speedup >= 2.0);
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: concurrent dispatch only %.2fx faster (need 2x)\n",
                 speedup);
    ++failures;
  }
  // ------------------------------------------------------------------
  // Static prune: fetch-count savings of StaticAnalysisMode::kPrune on
  // the ungated Π(Q, V), chain and random topologies. The ungated
  // unoptimized run fetches every reachable catalog view (the chain
  // cascades past the walk's end; the decoys ride the walk's domains);
  // kPrune drops the statically irrelevant channels before scheduling.
  SourceCatalog chain_decoyed = DecoyedCatalog(instance, *query, 3);
  const double chain_savings = RunPruneComparison(
      "chain400_prune", chain_decoyed, instance.domains, *query);

  limcap::workload::CatalogSpec random_spec;
  random_spec.topology = limcap::workload::CatalogSpec::Topology::kRandom;
  random_spec.num_views = 8;
  random_spec.num_attributes = 7;
  random_spec.tuples_per_view = 25;
  random_spec.domain_size = 12;
  random_spec.seed = 4242;
  auto random_instance = limcap::workload::GenerateInstance(random_spec);
  limcap::workload::QuerySpec random_query_spec;
  random_query_spec.num_connections = 1;
  random_query_spec.views_per_connection = 3;
  limcap::Result<limcap::planner::Query> random_query =
      limcap::Status::NotFound("no seed probed");
  for (uint64_t seed = 1; seed <= 64 && !random_query.ok(); ++seed) {
    random_query_spec.seed = seed;
    auto candidate =
        limcap::workload::GenerateQuery(random_instance, random_query_spec);
    if (!candidate.ok()) continue;
    limcap::exec::QueryAnswerer answerer(&random_instance.catalog,
                                         random_instance.domains);
    auto probe = answerer.AnswerUnoptimized(*candidate);
    if (probe.ok() && !probe->exec.answer.empty()) random_query = *candidate;
  }
  double random_savings = 0;
  if (random_query.ok()) {
    SourceCatalog random_decoyed =
        DecoyedCatalog(random_instance, *random_query, 3);
    random_savings = RunPruneComparison(
        "random_prune", random_decoyed, random_instance.domains, *random_query);
  } else {
    std::fprintf(stderr,
                 "FAIL: no answerable random-topology query in 64 seeds\n");
    ++failures;
  }
  const double best_savings =
      chain_savings > random_savings ? chain_savings : random_savings;
  reporter.Invariant("static prune saves >=10% of source queries on at "
                     "least one workload",
                     best_savings >= 0.10);
  if (best_savings < 0.10) {
    std::fprintf(stderr,
                 "FAIL: best fetch savings %.3f below the 10%% bar\n",
                 best_savings);
    ++failures;
  }

  // Analysis cost: the binding-flow pass itself on the full 400-view
  // chain Π(Q, V) must stay under the 100 ms budget that justifies
  // running it by default.
  auto chain_program = limcap::planner::BuildProgram(*query, instance.views,
                                                     instance.domains);
  if (!chain_program.ok()) {
    std::fprintf(stderr, "FAIL: BuildProgram: %s\n",
                 chain_program.status().ToString().c_str());
    ++failures;
  } else {
    // CPU time, best of three: the budget is on the pass's cost, not on
    // scheduler luck when ctest packs this harness beside other suites.
    limcap::analysis::BindingFlowResult flow;
    double analysis_ms = 1e9;
    for (int i = 0; i < 3; ++i) {
      const std::clock_t start = std::clock();
      flow = limcap::analysis::AnalyzeBindingFlow(
          *chain_program, instance.views, instance.domains);
      const std::clock_t stop = std::clock();
      const double ms = 1000.0 * double(stop - start) / CLOCKS_PER_SEC;
      if (ms < analysis_ms) analysis_ms = ms;
    }
    std::printf("{\"bench\": \"chain400_binding_flow\", \"rules\": %zu, "
                "\"channels\": %zu, \"analysis_ms\": %.2f}\n",
                chain_program->rules().size(), flow.channels.size(),
                analysis_ms);
    reporter.AddRow("chain400_binding_flow")
        .Set("rules", double(chain_program->rules().size()))
        .Set("channels", double(flow.channels.size()))
        .Set("analysis_ms", analysis_ms);
    reporter.Invariant("binding-flow analysis under 100ms on the 400-view "
                       "chain",
                       analysis_ms <= 100.0);
    if (analysis_ms > 100.0) {
      std::fprintf(stderr,
                   "FAIL: binding-flow analysis took %.2f ms (budget 100)\n",
                   analysis_ms);
      ++failures;
    }
  }

  // ------------------------------------------------------------------
  // Adaptive dispatch, part 1: dynamic relevance beyond static pruning.
  // A two-connection join where the second connection feeds decoy Cd
  // values into the shared domain: STATICALLY every v2/x combination is
  // relevant (the channels all reach the goal), so kPrune keeps them
  // all — but at dispatch time the frozen alpha extents certify most
  // combos useless. The fetch gap between the static run and the
  // adaptive run is therefore pure runtime relevance.
  {
    constexpr std::size_t kJunk = 60;
    std::string text = "source v1(Song, Cd) [bf] { (t1, c1) }\n";
    text += "source v2(Cd, Price) [bf] { (c1, p5) }\n";
    text += "source w(Song, Cd) [bf] {";
    for (std::size_t j = 0; j < kJunk; ++j) {
      text += " (t1, j" + std::to_string(j) + ")";
    }
    text += " }\nsource x(Cd, Price) [bf] { (c1, p7) }\n";
    auto parsed = limcap::capability::ParseCatalog(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "FAIL: junk-feeder catalog: %s\n",
                   parsed.status().ToString().c_str());
      ++failures;
    } else {
      const limcap::planner::Query junk_query(
          {{"Song", limcap::Value::String("t1")}}, {"Price"},
          {limcap::planner::Connection({"v1", "v2"}),
           limcap::planner::Connection({"w", "x"})});
      const limcap::planner::DomainMap no_domains;
      limcap::exec::ExecOptions static_options;
      Run static_run = AnswerOnce(parsed->catalog, no_domains, junk_query,
                                  static_options);
      limcap::exec::ExecOptions adaptive_options;
      adaptive_options.runtime.adaptive.enabled = true;
      Run adaptive_run = AnswerOnce(parsed->catalog, no_domains, junk_query,
                                    adaptive_options);
      bool runs_ok = true;
      for (const Run* run : {&static_run, &adaptive_run}) {
        if (!run->report.ok()) {
          std::fprintf(stderr, "FAIL: junk-feeder run: %s\n",
                       run->report.status().ToString().c_str());
          ++failures;
          runs_ok = false;
        }
      }
      if (runs_ok) {
        EmitRow("junkfeeder_static", static_run);
        EmitRow("junkfeeder_adaptive", adaptive_run);
        const bool answers_match = static_run.report->exec.answer ==
                                   adaptive_run.report->exec.answer;
        reporter.Invariant("adaptive dispatch preserves the junk-feeder "
                           "answer",
                           answers_match);
        if (!answers_match) {
          std::fprintf(stderr,
                       "FAIL: adaptive dispatch changed the answer\n");
          ++failures;
        }
        const std::size_t static_fetches =
            static_run.report->exec.log.total_queries();
        const std::size_t adaptive_fetches =
            adaptive_run.report->exec.log.total_queries();
        const std::size_t skips =
            adaptive_run.report->exec.fetch_report.skipped_dynamic;
        const double savings =
            static_fetches > 0
                ? 1.0 - double(adaptive_fetches) / double(static_fetches)
                : 0.0;
        std::printf("{\"bench\": \"junkfeeder_summary\", "
                    "\"source_queries_static\": %zu, "
                    "\"source_queries_adaptive\": %zu, "
                    "\"dynamic_skips\": %zu, \"fetch_savings\": %.3f}\n",
                    static_fetches, adaptive_fetches, skips, savings);
        reporter.AddRow("junkfeeder_summary")
            .Set("source_queries_static", double(static_fetches))
            .Set("source_queries_adaptive", double(adaptive_fetches))
            .Set("dynamic_skips", double(skips))
            .Set("fetch_savings", savings);
        reporter.Invariant("dynamic relevance skips fetches static "
                           "analysis keeps",
                           skips > 0 && adaptive_fetches < static_fetches);
        if (skips == 0 || adaptive_fetches >= static_fetches) {
          std::fprintf(stderr,
                       "FAIL: adaptive dispatch saved nothing beyond "
                       "static analysis (%zu vs %zu fetches, %zu skips)\n",
                       adaptive_fetches, static_fetches, skips);
          ++failures;
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Adaptive dispatch, part 2: hedged requests under latency spikes. A
  // one-source walk (hub's rows form a linked chain over one shared
  // domain, one fetch per round) warms the per-source latency profile
  // across rounds; seeded spikes then blow individual calls past the
  // learned p95, and the hedge caps them near p95 + base. Same seeded
  // spikes both runs — hedging is the only difference.
  {
    constexpr std::size_t kHops = 100;
    limcap::runtime::FaultSpec spikes;
    spikes.latency_spike_rate = 0.03;
    spikes.latency_spike_ms = 450;
    spikes.seed = 9;
    auto spiky_catalog = [&spikes] {
      SourceCatalog catalog;
      auto hub = limcap::capability::SourceView::MakeUnsafe(
          "hub", {"K", "K2"}, "bf");
      limcap::relational::Relation rows(hub.schema());
      for (std::size_t i = 0; i < kHops; ++i) {
        rows.InsertUnsafe({limcap::Value::String("k" + std::to_string(i)),
                           limcap::Value::String("k" + std::to_string(i + 1))});
      }
      auto inner = std::make_unique<InMemorySource>(
          InMemorySource::MakeUnsafe(std::move(hub), std::move(rows)));
      catalog.RegisterUnsafe(
          std::make_unique<limcap::runtime::FaultInjectingSource>(
              std::move(inner), spikes));
      return catalog;
    };
    // Both attributes draw from one domain, so each fetched K2 re-enters
    // the frontier as next round's K.
    limcap::planner::DomainMap walk_domains;
    walk_domains.SetDomain("K", "domNode");
    walk_domains.SetDomain("K2", "domNode");
    const limcap::planner::Query walk_query(
        {{"K", limcap::Value::String("k0")}}, {"K2"},
        {limcap::planner::Connection({"hub"})});

    limcap::exec::ExecOptions unhedged_options;
    unhedged_options.runtime.adaptive.enabled = true;
    unhedged_options.runtime.adaptive.hedge = false;
    // Dynamic pruning correctly certifies the walk's tail useless (only
    // hub(k0, _) rows can reach the answer); keep it fetching anyway —
    // this section wants a long same-source call stream to warm the
    // latency profile, and measures hedging alone.
    unhedged_options.runtime.adaptive.dynamic_pruning = false;
    SourceCatalog unhedged_catalog = spiky_catalog();
    Run unhedged = AnswerOnce(unhedged_catalog, walk_domains, walk_query,
                              unhedged_options);
    limcap::exec::ExecOptions hedged_options = unhedged_options;
    hedged_options.runtime.adaptive.hedge = true;
    SourceCatalog hedged_catalog = spiky_catalog();
    Run hedged = AnswerOnce(hedged_catalog, walk_domains, walk_query,
                            hedged_options);
    bool runs_ok = true;
    for (const Run* run : {&unhedged, &hedged}) {
      if (!run->report.ok()) {
        std::fprintf(stderr, "FAIL: spiky walk run: %s\n",
                     run->report.status().ToString().c_str());
        ++failures;
        runs_ok = false;
      }
    }
    if (runs_ok) {
      EmitRow("spiky_walk_unhedged", unhedged);
      EmitRow("spiky_walk_hedged", hedged);
      const bool answers_match =
          unhedged.report->exec.answer == hedged.report->exec.answer;
      reporter.Invariant("hedging preserves the walk answer", answers_match);
      if (!answers_match) {
        std::fprintf(stderr, "FAIL: hedging changed the answer\n");
        ++failures;
      }
      const double unhedged_ms =
          unhedged.report->exec.fetch_report.simulated_makespan_ms;
      const double hedged_ms =
          hedged.report->exec.fetch_report.simulated_makespan_ms;
      const std::size_t hedge_count =
          hedged.report->exec.fetch_report.hedged;
      std::printf("{\"bench\": \"spiky_walk_summary\", "
                  "\"unhedged_makespan_ms\": %.1f, "
                  "\"hedged_makespan_ms\": %.1f, \"hedged_fetches\": %zu, "
                  "\"makespan_saved_ms\": %.1f}\n",
                  unhedged_ms, hedged_ms, hedge_count,
                  unhedged_ms - hedged_ms);
      reporter.AddRow("spiky_walk_summary")
          .Set("unhedged_makespan_ms", unhedged_ms)
          .Set("hedged_makespan_ms", hedged_ms)
          .Set("hedged_fetches", double(hedge_count))
          .Set("makespan_saved_ms", unhedged_ms - hedged_ms);
      reporter.Invariant("hedging wins makespan under latency spikes",
                         hedge_count > 0 && hedged_ms < unhedged_ms);
      if (hedge_count == 0 || hedged_ms >= unhedged_ms) {
        std::fprintf(stderr,
                     "FAIL: hedging saved nothing under spikes "
                     "(%.1f vs %.1f ms, %zu hedged)\n",
                     hedged_ms, unhedged_ms, hedge_count);
        ++failures;
      }
    }
  }

  // ------------------------------------------------------------------
  // Wide frontier: the first pool query of the perfbench wide_fetch
  // workload (a 2x2-view query on the random-topology catalog with the
  // CatalogSpec defaults, some 24k source queries, most of them in one
  // round), answered with serial and with concurrent dispatch. Reports
  // each run's wall time, with no timing gate; self-checks equal answers
  // and source-query counts.
  {
    limcap::workload::CatalogSpec wide_spec;
    wide_spec.topology = limcap::workload::CatalogSpec::Topology::kRandom;
    wide_spec.seed = 42 ^ ~uint64_t{16};
    auto wide_instance = limcap::workload::GenerateInstance(wide_spec);
    limcap::workload::QuerySpec wide_shape;
    wide_shape.num_connections = 2;
    wide_shape.views_per_connection = 2;
    limcap::Rng rng(6);
    limcap::Result<limcap::planner::Query> wide_query =
        limcap::Status::NotFound("no wide query in 64 seeds");
    const limcap::exec::QueryAnswerer wide_answerer(&wide_instance.catalog,
                                                    wide_instance.domains);
    for (int attempt = 0; attempt < 64 && !wide_query.ok(); ++attempt) {
      wide_shape.seed = rng.Next();
      auto candidate =
          limcap::workload::GenerateQuery(wide_instance, wide_shape);
      if (!candidate.ok()) continue;
      auto probe = wide_answerer.Answer(*candidate);
      if (probe.ok() && !probe->exec.answer.empty() &&
          probe->exec.log.total_queries() >= 10000) {
        wide_query = *candidate;
      }
    }
    if (!wide_query.ok()) {
      std::fprintf(stderr, "FAIL: %s\n",
                   wide_query.status().ToString().c_str());
      ++failures;
    } else {
      Run wide_serial = AnswerOnce(wide_instance.catalog,
                                   wide_instance.domains, *wide_query, {});
      limcap::exec::ExecOptions wide_concurrent_options;
      wide_concurrent_options.runtime.concurrent = true;
      Run wide_concurrent =
          AnswerOnce(wide_instance.catalog, wide_instance.domains,
                     *wide_query, wide_concurrent_options);
      if (!wide_serial.report.ok() || !wide_concurrent.report.ok()) {
        std::fprintf(stderr, "FAIL: wide frontier run failed\n");
        ++failures;
      } else {
        EmitRow("wide_frontier_serial", wide_serial, true);
        EmitRow("wide_frontier_concurrent", wide_concurrent, true);
        const double serial_allocs = AllocsPerSourceQuery(wide_serial);
        const bool allocs_ok = wide_serial.allocations > 0 &&
                               serial_allocs <= kMaxSerialAllocsPerQuery;
        reporter.Invariant(
            "wide frontier: serial dispatch allocates at most 2.5 times "
            "per source query",
            allocs_ok);
        if (!allocs_ok) {
          std::fprintf(stderr,
                       "FAIL: wide frontier serial dispatch made %zu heap "
                       "allocations, %.2f per source query (gate: more "
                       "than 0, at most %.1f)\n",
                       wide_serial.allocations, serial_allocs,
                       kMaxSerialAllocsPerQuery);
          ++failures;
        }
        const bool wide_match =
            wide_serial.report->exec.answer ==
                wide_concurrent.report->exec.answer &&
            wide_serial.report->exec.log.total_queries() ==
                wide_concurrent.report->exec.log.total_queries();
        reporter.Invariant(
            "wide frontier: serial and concurrent answers and source "
            "queries identical",
            wide_match);
        if (!wide_match) {
          std::fprintf(stderr,
                       "FAIL: wide frontier differs between serial and "
                       "concurrent dispatch\n");
          ++failures;
        }
      }
    }
  }

  reporter.SetFailures(failures);
  reporter.Write();
  if (failures != 0) {
    std::fprintf(stderr, "%d failure(s)\n", failures);
    return 1;
  }
  return 0;
}
