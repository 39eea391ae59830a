// X4 — Datalog engine ablations: naive vs semi-naive bottom-up
// evaluation, and program-construction cost.
//
// The paper's framework rests on evaluating a recursive program; the
// engine choice dominates runtime once domains grow. We measure:
//   * transitive closure over chains and random graphs (the classic
//     recursive workload) under both strategies,
//   * evaluation of a generated Π(Q, V) over materialized EDB relations,
//   * BuildProgram cost as the catalog grows.

#include <benchmark/benchmark.h>

#include "common/string_util.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "exec/oracle.h"
#include "planner/program_builder.h"
#include "workload/generator.h"

namespace {

using limcap::Value;
using limcap::datalog::Evaluator;
using limcap::datalog::FactStore;
using limcap::workload::CatalogSpec;
using limcap::workload::GeneratedInstance;
using limcap::workload::GenerateInstance;

const char* kTransitiveClosure =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), e(Y, Z).\n";

void RunTransitiveClosure(benchmark::State& state,
                          const Evaluator::Options& options) {
  const int n = static_cast<int>(state.range(0));
  auto program = limcap::datalog::ParseProgram(kTransitiveClosure);
  limcap::datalog::EvalStats last_stats;
  for (auto _ : state) {
    state.PauseTiming();
    FactStore store;
    for (int i = 0; i < n - 1; ++i) {
      store.Insert("e", {Value::Int64(i), Value::Int64(i + 1)}).ok();
    }
    auto evaluator = Evaluator::Create(*program, &store, options);
    state.ResumeTiming();
    if (!(*evaluator)->Run().ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(store.Count("tc"));
    state.PauseTiming();
    last_stats = (*evaluator)->stats();
    state.ResumeTiming();
  }
  state.counters["derived"] = static_cast<double>(n * (n - 1) / 2);
  state.counters["probes"] = static_cast<double>(last_stats.probes);
  state.counters["activations"] =
      static_cast<double>(last_stats.rule_activations);
  state.counters["rounds"] = static_cast<double>(last_stats.iterations);
}

void BM_TransitiveClosureNaive(benchmark::State& state) {
  RunTransitiveClosure(state, {Evaluator::Mode::kNaive});
}
void BM_TransitiveClosureSemiNaive(benchmark::State& state) {
  RunTransitiveClosure(state, {Evaluator::Mode::kSemiNaive});
}
BENCHMARK(BM_TransitiveClosureNaive)->Arg(32)->Arg(64)->Arg(128)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_TransitiveClosureSemiNaive)->Arg(32)->Arg(64)->Arg(128)->Unit(
    benchmark::kMillisecond);

/// Evaluates a generated Π(Q, V) with the EDB fully materialized (the
/// pure Datalog cost, no source round-trips), both modes.
void RunPiEvaluation(benchmark::State& state, Evaluator::Mode mode) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kRandom;
  spec.num_views = 12;
  spec.num_attributes = 8;
  spec.tuples_per_view = static_cast<std::size_t>(state.range(0));
  spec.domain_size = spec.tuples_per_view / 2 + 1;
  spec.seed = 3;
  GeneratedInstance instance = GenerateInstance(spec);
  limcap::workload::QuerySpec query_spec;
  query_spec.num_connections = 2;
  query_spec.views_per_connection = 3;
  auto query = limcap::workload::GenerateQuery(instance, query_spec);
  if (!query.ok()) {
    state.SkipWithError("no valid query");
    return;
  }
  auto program = limcap::planner::BuildProgram(*query, instance.views,
                                               instance.domains);
  if (!program.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    FactStore store;
    for (const auto& [name, data] : instance.full_data) {
      for (const auto& row : data.DecodedRows()) store.Insert(name, row).ok();
    }
    auto evaluator = Evaluator::Create(*program, &store, mode);
    state.ResumeTiming();
    if (!(*evaluator)->Run().ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(store.TotalCount());
  }
}

void BM_PiEvaluationNaive(benchmark::State& state) {
  RunPiEvaluation(state, Evaluator::Mode::kNaive);
}
void BM_PiEvaluationSemiNaive(benchmark::State& state) {
  RunPiEvaluation(state, Evaluator::Mode::kSemiNaive);
}
BENCHMARK(BM_PiEvaluationNaive)->Arg(100)->Arg(400)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_PiEvaluationSemiNaive)->Arg(100)->Arg(400)->Unit(
    benchmark::kMillisecond);

void BM_BuildProgram(benchmark::State& state) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kChain;
  spec.num_views = static_cast<std::size_t>(state.range(0));
  spec.tuples_per_view = 1;
  GeneratedInstance instance = GenerateInstance(spec);
  std::vector<std::string> names;
  for (std::size_t i = 1; i <= spec.num_views; ++i) {
    names.push_back(limcap::StrCat({"v", std::to_string(i)}));
  }
  limcap::planner::Query query(
      {{"A0", GeneratedInstance::DomainValue("A0", 0)}},
      {limcap::StrCat({"A", std::to_string(spec.num_views)})},
      {limcap::planner::Connection(names)});
  for (auto _ : state) {
    auto program = limcap::planner::BuildProgram(query, instance.views,
                                                 instance.domains);
    benchmark::DoNotOptimize(program);
  }
  state.counters["rules"] =
      static_cast<double>(3 * spec.num_views + 2);  // alpha+domain+conn+fact
}
BENCHMARK(BM_BuildProgram)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMicrosecond);

/// Storage ablation backing the dictionary-encoding design choice: the
/// engine's FactStore keeps rows as vectors of 32-bit interned ids, while
/// the public Relation keeps full Values. Same workload — insert N
/// two-column string rows, then probe every distinct key — on both.
void BM_FactStoreInsertProbe(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    limcap::datalog::FactStore store;
    for (int i = 0; i < n; ++i) {
      store
          .Insert("p", {Value::String(limcap::StrCat({"key_", std::to_string(i % 500)})),
                        Value::String(limcap::StrCat({"val_", std::to_string(i)}))})
          .ok();
    }
    std::size_t hits = 0;
    for (int k = 0; k < 500; ++k) {
      limcap::ValueId id;
      if (store.dict().Lookup(Value::String(limcap::StrCat({"key_", std::to_string(k)})),
                              &id)) {
        hits += store.Probe("p", {0}, {id}, store.Count("p")).size();
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FactStoreInsertProbe)->Arg(10000)->Arg(50000)->Unit(
    benchmark::kMillisecond);

void BM_RelationInsertProbe(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    limcap::relational::Relation relation(
        limcap::relational::Schema::MakeUnsafe({"K", "V"}));
    for (int i = 0; i < n; ++i) {
      relation.InsertUnsafe({Value::String(limcap::StrCat({"key_", std::to_string(i % 500)})),
                             Value::String(limcap::StrCat({"val_", std::to_string(i)}))});
    }
    std::size_t hits = 0;
    for (int k = 0; k < 500; ++k) {
      hits += relation
                  .Probe({0}, {Value::String(limcap::StrCat({"key_", std::to_string(k)}))})
                  .size();
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RelationInsertProbe)->Arg(10000)->Arg(50000)->Unit(
    benchmark::kMillisecond);

void BM_ParseProgram(benchmark::State& state) {
  // Parser throughput on a realistic generated program rendered to text.
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kChain;
  spec.num_views = static_cast<std::size_t>(state.range(0));
  spec.tuples_per_view = 1;
  GeneratedInstance instance = GenerateInstance(spec);
  std::vector<std::string> names;
  for (std::size_t i = 1; i <= spec.num_views; ++i) {
    names.push_back(limcap::StrCat({"v", std::to_string(i)}));
  }
  limcap::planner::Query query(
      {{"A0", GeneratedInstance::DomainValue("A0", 0)}},
      {limcap::StrCat({"A", std::to_string(spec.num_views)})},
      {limcap::planner::Connection(names)});
  auto program = limcap::planner::BuildProgram(query, instance.views,
                                               instance.domains);
  std::string text = program->ToString();
  for (auto _ : state) {
    auto parsed = limcap::datalog::ParseProgram(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseProgram)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);

}  // namespace

#include "bench_report.h"

LIMCAP_BENCHMARK_MAIN_WITH_REPORT("bench_datalog_eval")
