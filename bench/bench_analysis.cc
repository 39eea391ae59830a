// The static verifier's cost, and why it is cheap enough to always run.
//
// can_fire, binding flow and cold-start reachability all read one static
// relevance fixpoint: a counter worklist over dense ids that touches each
// rule and fetch channel once per distinct body predicate or bound
// domain, so it is linear in the program even where the fixpoint is
// deepest. AnalyzeExecutability adds its greedy SIP search (O(atoms²)
// placements per rule attempt, a fixpoint of its own). We time both on
// chain catalogs of 50..400 views — where Π(Q, V) has one alpha rule,
// one fetch-domain rule chain, and one input rule per view, and every
// wave opens exactly one more channel (waves ~ n) — and, for
// perspective, the full AnalyzeProgram (all passes) and the
// source-driven evaluation of the same program. The analysis must land
// well under the evaluation time, which is what justifies always-on
// gating.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/executability.h"
#include "common/string_util.h"
#include "exec/query_answerer.h"
#include "planner/program_builder.h"
#include "workload/generator.h"

namespace {

using limcap::analysis::AnalysisOptions;
using limcap::planner::Connection;
using limcap::planner::Query;
using limcap::workload::CatalogSpec;
using limcap::workload::GeneratedInstance;
using limcap::workload::GenerateInstance;

struct ChainProgram {
  GeneratedInstance instance;
  Query query;
  limcap::datalog::Program program;
};

/// A chain of n "bf" views v1(A0,A1)..vn(A{n-1},An) with the input at A0
/// and the output at the chain's end: every view is relevant, every
/// domain rule feeds the next view, and the relevance fixpoint must
/// walk the whole chain to prove the last rule live.
ChainProgram MakeChainProgram(std::size_t n, std::size_t tuples_per_view) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kChain;
  spec.num_views = n;
  spec.tuples_per_view = tuples_per_view;
  spec.domain_size = 8;  // small domains keep the chain joins non-empty
  spec.seed = 13;
  ChainProgram setup{GenerateInstance(spec), Query(), {}};
  std::vector<std::string> names;
  for (std::size_t i = 1; i <= n; ++i) names.push_back(limcap::StrCat({"v", std::to_string(i)}));
  setup.query = Query(
      {{"A0", GeneratedInstance::DomainValue("A0", 0)}},
      {limcap::StrCat({"A", std::to_string(n)})}, {Connection(std::move(names))});
  auto program = limcap::planner::BuildProgram(setup.query,
                                               setup.instance.views,
                                               setup.instance.domains);
  if (program.ok()) setup.program = *program;
  return setup;
}

/// The executability core alone: the relevance fixpoint + SIP searches.
void BM_AnalyzeExecutability(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ChainProgram setup = MakeChainProgram(n, /*tuples_per_view=*/1);
  for (auto _ : state) {
    auto result = limcap::analysis::AnalyzeExecutability(
        setup.program, setup.instance.views, setup.instance.domains);
    benchmark::DoNotOptimize(result);
  }
  state.counters["views"] = static_cast<double>(n);
  state.counters["rules"] = static_cast<double>(setup.program.rules().size());
}
BENCHMARK(BM_AnalyzeExecutability)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// The whole verifier: safety, undeclared/singleton/reachability/arity
/// passes, executability, diagnostic rendering order.
void BM_AnalyzeProgram(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ChainProgram setup = MakeChainProgram(n, /*tuples_per_view=*/1);
  AnalysisOptions options;
  options.domains = setup.instance.domains;
  for (auto _ : state) {
    auto result = limcap::analysis::AnalyzeProgram(setup.program,
                                                   setup.instance.views,
                                                   options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["views"] = static_cast<double>(n);
}
BENCHMARK(BM_AnalyzeProgram)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// The binding-flow pass alone: the relevance fixpoint's forward and
/// backward passes over the adorned program plus certificate
/// construction. Budget: ≤100ms on the 400-view chain (asserted by the
/// reporter invariants in bench_report).
void BM_AnalyzeBindingFlow(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ChainProgram setup = MakeChainProgram(n, /*tuples_per_view=*/1);
  for (auto _ : state) {
    auto result = limcap::analysis::AnalyzeBindingFlow(
        setup.program, setup.instance.views, setup.instance.domains);
    benchmark::DoNotOptimize(result);
  }
  state.counters["views"] = static_cast<double>(n);
  state.counters["rules"] = static_cast<double>(setup.program.rules().size());
}
BENCHMARK(BM_AnalyzeBindingFlow)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// The thing the analyzer gates: actually answering the query. Run with
/// real data so the comparison is honest — analysis time should be a
/// small fraction of this.
void BM_AnswerChain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ChainProgram setup = MakeChainProgram(n, /*tuples_per_view=*/20);
  limcap::exec::QueryAnswerer answerer(&setup.instance.catalog,
                                       setup.instance.domains);
  for (auto _ : state) {
    auto report = answerer.Answer(setup.query);
    benchmark::DoNotOptimize(report);
  }
  state.counters["views"] = static_cast<double>(n);
}
BENCHMARK(BM_AnswerChain)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// The gate as users feel it: Answer with kPrune versus kOff, same data.
void BM_AnswerChainWithPruneGate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ChainProgram setup = MakeChainProgram(n, /*tuples_per_view=*/20);
  limcap::exec::QueryAnswerer answerer(&setup.instance.catalog,
                                       setup.instance.domains);
  limcap::exec::ExecOptions options;
  options.static_analysis = limcap::exec::StaticAnalysisMode::kPrune;
  for (auto _ : state) {
    auto report = answerer.Answer(setup.query, options);
    benchmark::DoNotOptimize(report);
  }
  state.counters["views"] = static_cast<double>(n);
}
BENCHMARK(BM_AnswerChainWithPruneGate)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

#include "bench_report.h"

LIMCAP_BENCHMARK_MAIN_WITH_REPORT("bench_analysis")
