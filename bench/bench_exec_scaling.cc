// Source-driven evaluation scaling (the Section 3.3 loop end to end):
// wall time and source accesses as the catalog deepens (chain length)
// and widens (tuples per view), plus the optimized-vs-unoptimized and
// semi-naive-vs-naive deltas on the same workloads.

#include <benchmark/benchmark.h>

#include "common/string_util.h"
#include "exec/query_answerer.h"
#include "workload/generator.h"

namespace {

using limcap::workload::CatalogSpec;
using limcap::workload::GeneratedInstance;
using limcap::workload::GenerateInstance;

struct ChainSetup {
  GeneratedInstance instance;
  limcap::planner::Query query;
};

ChainSetup MakeChain(std::size_t views, std::size_t tuples,
                     std::size_t domain) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kChain;
  spec.num_views = views;
  spec.tuples_per_view = tuples;
  spec.domain_size = domain;
  spec.seed = 17;
  ChainSetup setup{GenerateInstance(spec), limcap::planner::Query()};
  std::vector<std::string> names;
  for (std::size_t i = 1; i <= views; ++i) {
    names.push_back(limcap::StrCat({"v", std::to_string(i)}));
  }
  setup.query = limcap::planner::Query(
      {{"A0", GeneratedInstance::DomainValue("A0", 0)}},
      {limcap::StrCat({"A", std::to_string(views)})},
      {limcap::planner::Connection(std::move(names))});
  return setup;
}

void RunChain(benchmark::State& state, bool optimized,
              limcap::datalog::Evaluator::Mode mode) {
  ChainSetup setup = MakeChain(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)),
                               static_cast<std::size_t>(state.range(1)) / 3 +
                                   2);
  limcap::exec::QueryAnswerer answerer(&setup.instance.catalog,
                                       setup.instance.domains);
  limcap::exec::ExecOptions options;
  options.mode = mode;
  double queries = 0;
  double answers = 0;
  for (auto _ : state) {
    auto report = optimized ? answerer.Answer(setup.query, options)
                            : answerer.AnswerUnoptimized(setup.query,
                                                         options);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    queries = static_cast<double>(report->exec.log.total_queries());
    answers = static_cast<double>(report->exec.answer.size());
    benchmark::DoNotOptimize(report);
  }
  state.counters["src_queries"] = queries;
  state.counters["answers"] = answers;
}

void BM_ChainOptimizedSemiNaive(benchmark::State& state) {
  RunChain(state, true, limcap::datalog::Evaluator::Mode::kSemiNaive);
}
void BM_ChainOptimizedNaive(benchmark::State& state) {
  RunChain(state, true, limcap::datalog::Evaluator::Mode::kNaive);
}
void BM_ChainUnoptimized(benchmark::State& state) {
  RunChain(state, false, limcap::datalog::Evaluator::Mode::kSemiNaive);
}

BENCHMARK(BM_ChainOptimizedSemiNaive)
    ->Args({4, 50})
    ->Args({8, 50})
    ->Args({16, 50})
    ->Args({8, 25})
    ->Args({8, 100})
    ->Args({8, 200})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ChainOptimizedNaive)
    ->Args({8, 50})
    ->Args({8, 200})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ChainUnoptimized)
    ->Args({8, 50})
    ->Args({8, 200})
    ->Unit(benchmark::kMillisecond);

/// Star catalogs with random adornments: the mixed realistic case.
void BM_StarEndToEnd(benchmark::State& state) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kStar;
  spec.num_views = static_cast<std::size_t>(state.range(0));
  spec.num_attributes = spec.num_views / 2 + 3;
  spec.tuples_per_view = 60;
  spec.domain_size = 20;
  spec.seed = 29;
  GeneratedInstance instance = GenerateInstance(spec);
  limcap::workload::QuerySpec query_spec;
  query_spec.num_connections = 3;
  query_spec.views_per_connection = 2;
  query_spec.seed = 31;
  auto query = limcap::workload::GenerateQuery(instance, query_spec);
  if (!query.ok()) {
    state.SkipWithError("no valid query");
    return;
  }
  limcap::exec::QueryAnswerer answerer(&instance.catalog, instance.domains);
  for (auto _ : state) {
    auto report = answerer.Answer(*query);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_StarEndToEnd)->Arg(8)->Arg(16)->Arg(32)->Unit(
    benchmark::kMillisecond);

}  // namespace

#include "bench_report.h"

LIMCAP_BENCHMARK_MAIN_WITH_REPORT("bench_exec_scaling")
