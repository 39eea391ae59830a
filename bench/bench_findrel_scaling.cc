// E8 — the FIND_REL algorithm (Figure 7) and its complexity.
//
// Section 5.4 analyzes FIND_REL as O(k·n²) for n catalog views and a
// connection with k attributes. limcap runs every closure over one
// ClosureIndex per query (planner/closure.h), each linear in the
// adornments, so FIND_REL costs O(k·n). We time the three stages
// (queryable-view computation, kernel computation, backward-closure) plus
// the whole algorithm on chain catalogs where the connection spans m
// views of the n-view catalog, sweeping n and m. Time per iteration
// should grow about linearly in n for fixed m (BM_FClosure, BM_BClosure,
// BM_FindRelChain/n/8), and about quadratically in m for the kernel
// stage, which runs one closure over the m-view connection per attribute
// (BM_Kernel, BM_FindRelChain/64/m). EXPERIMENTS.md E8 has measured rows.

#include <benchmark/benchmark.h>

#include "common/string_util.h"
#include "planner/find_rel.h"
#include "workload/generator.h"

namespace {

using limcap::planner::Connection;
using limcap::planner::Query;
using limcap::workload::CatalogSpec;
using limcap::workload::GeneratedInstance;
using limcap::workload::GenerateInstance;

/// A chain catalog of n views; the query's connection spans the first m.
/// With pattern "bf" and the input at A0 the connection is independent,
/// so the kernel search does maximal shrinking work (every attribute is
/// removable).
struct ChainSetup {
  GeneratedInstance instance;
  Query query;
};

ChainSetup MakeChain(std::size_t n, std::size_t m) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kChain;
  spec.num_views = n;
  spec.tuples_per_view = 1;  // data is irrelevant to the planning cost
  spec.seed = 7;
  ChainSetup setup{GenerateInstance(spec), Query()};
  std::vector<std::string> names;
  for (std::size_t i = 1; i <= m; ++i) names.push_back(limcap::StrCat({"v", std::to_string(i)}));
  setup.query = Query(
      {{"A0", GeneratedInstance::DomainValue("A0", 0)}},
      {limcap::StrCat({"A", std::to_string(m)})}, {Connection(std::move(names))});
  return setup;
}

void BM_FindRelChain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  ChainSetup setup = MakeChain(n, m);
  for (auto _ : state) {
    auto report = limcap::planner::FindRelevantViews(
        setup.query, setup.query.connections()[0], setup.instance.views);
    benchmark::DoNotOptimize(report);
  }
  state.counters["views_n"] = static_cast<double>(n);
  state.counters["conn_m"] = static_cast<double>(m);
}
BENCHMARK(BM_FindRelChain)
    ->Args({16, 8})
    ->Args({32, 8})
    ->Args({64, 8})
    ->Args({128, 8})
    ->Args({256, 8})
    ->Args({64, 16})
    ->Args({64, 32})
    ->Args({64, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_FClosure(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ChainSetup setup = MakeChain(n, std::min<std::size_t>(n, 8));
  for (auto _ : state) {
    auto closure = limcap::planner::ComputeFClosure(
        setup.query.InputAttributes(), setup.instance.views);
    benchmark::DoNotOptimize(closure);
  }
}
BENCHMARK(BM_FClosure)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMicrosecond);

void BM_Kernel(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  ChainSetup setup = MakeChain(m, m);
  std::vector<limcap::capability::SourceView> connection_views(
      setup.instance.views.begin(), setup.instance.views.begin() + m);
  for (auto _ : state) {
    auto kernel = limcap::planner::ComputeKernel(
        setup.query.InputAttributes(), connection_views);
    benchmark::DoNotOptimize(kernel);
  }
}
BENCHMARK(BM_Kernel)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Unit(
    benchmark::kMicrosecond);

void BM_BClosure(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ChainSetup setup = MakeChain(n, 4);
  // The last chain attribute backward-chains through the whole catalog —
  // the worst case for b-closure.
  std::string attribute = limcap::StrCat({"A", std::to_string(n)});
  for (auto _ : state) {
    auto closure =
        limcap::planner::ComputeBClosure(attribute, setup.instance.views);
    benchmark::DoNotOptimize(closure);
  }
}
BENCHMARK(BM_BClosure)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMicrosecond);

/// Random catalogs: the realistic mixed case, including program planning
/// end to end (AnalyzeQueryRelevance over every connection).
void BM_AnalyzeRandomCatalog(benchmark::State& state) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kRandom;
  spec.num_views = static_cast<std::size_t>(state.range(0));
  spec.num_attributes = 16;
  spec.tuples_per_view = 1;
  spec.seed = 11;
  GeneratedInstance instance = GenerateInstance(spec);
  limcap::workload::QuerySpec query_spec;
  query_spec.num_connections = 3;
  query_spec.views_per_connection = 3;
  query_spec.seed = 5;
  auto query = limcap::workload::GenerateQuery(instance, query_spec);
  if (!query.ok()) {
    state.SkipWithError("no valid query for this catalog");
    return;
  }
  for (auto _ : state) {
    auto relevance =
        limcap::planner::AnalyzeQueryRelevance(*query, instance.views);
    benchmark::DoNotOptimize(relevance);
  }
}
BENCHMARK(BM_AnalyzeRandomCatalog)->Arg(16)->Arg(64)->Arg(256)->Unit(
    benchmark::kMicrosecond);

}  // namespace

#include "bench_report.h"

LIMCAP_BENCHMARK_MAIN_WITH_REPORT("bench_findrel_scaling")
