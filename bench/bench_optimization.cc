// X2 — what the Section 5/6 optimizations save.
//
// Catalog: a 5-view bf-chain (the query's independent connection) plus m
// "distractor" views — ff-pattern views over the mid-chain attribute A2
// and a private attribute. The distractors are queryable, so the
// brute-force Π(Q, V) dutifully fetches them and chases the useless
// bindings they inject into domA2 (extra chain queries that can never
// reach the answer); FIND_REL proves the chain connection independent and
// trims every distractor. We report source queries, datalog facts, and
// wall time for:
//   full      — Π(Q, V)            (Section 3, unoptimized)
//   optimized — Π(Q, V_r) + dead-rule elimination (Section 6)
// sweeping m. Expected shape: the full program's cost grows linearly in
// m while the optimized one is flat, with identical answers.

#include <chrono>
#include <cstdio>
#include <memory>

#include "capability/in_memory_source.h"
#include "common/string_util.h"
#include "common/text_table.h"
#include "exec/query_answerer.h"
#include "workload/generator.h"

#include "bench_report.h"

namespace {

using limcap::Value;
using limcap::capability::InMemorySource;
using limcap::capability::SourceView;
using limcap::workload::CatalogSpec;
using limcap::workload::GeneratedInstance;

int failures = 0;
limcap::benchreport::Reporter reporter("bench_optimization");

struct Setup {
  GeneratedInstance instance;
  limcap::planner::Query query;
};

Setup MakeSetup(std::size_t distractors) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kChain;
  spec.num_views = 5;
  spec.tuples_per_view = 60;
  spec.domain_size = 20;
  spec.seed = 99;
  Setup setup{limcap::workload::GenerateInstance(spec),
              limcap::planner::Query(
                  {{"A0", GeneratedInstance::DomainValue("A0", 1)}}, {"A5"},
                  {limcap::planner::Connection(
                      {"v1", "v2", "v3", "v4", "v5"})})};

  // Distractors: dN(A2, ZN) [ff] with fresh values of A2 that never join
  // back to anything reachable from a0 — pure wasted work for the
  // unoptimized program.
  limcap::Rng rng(4242);
  for (std::size_t d = 0; d < distractors; ++d) {
    std::string name = limcap::StrCat({"d", std::to_string(d + 1)});
    std::string private_attribute = limcap::StrCat({"Z", std::to_string(d + 1)});
    SourceView view =
        SourceView::MakeUnsafe(name, {"A2", private_attribute}, "ff");
    limcap::relational::Relation data(view.schema());
    for (int t = 0; t < 40; ++t) {
      data.InsertUnsafe(
          {Value::String(limcap::StrCat({"junk_a2_", std::to_string(rng.Below(200))})),
           Value::String(limcap::StrCat({"z_", std::to_string(rng.Below(50))}))});
    }
    setup.instance.views.push_back(view);
    setup.instance.catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, std::move(data))));
  }
  return setup;
}

struct Measured {
  std::size_t queries;
  std::size_t facts;
  double millis;
  std::size_t answers;
};

Measured Measure(const Setup& setup, bool optimized) {
  limcap::exec::QueryAnswerer answerer(&setup.instance.catalog,
                                       setup.instance.domains);
  auto start = std::chrono::steady_clock::now();
  auto report = optimized ? answerer.Answer(setup.query)
                          : answerer.AnswerUnoptimized(setup.query);
  auto elapsed = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  if (!report.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 report.status().ToString().c_str());
    ++failures;
    return {};
  }
  return {report->exec.log.total_queries(), report->exec.store.TotalCount(),
          elapsed, report->exec.answer.size()};
}

}  // namespace

int main() {
  std::printf(
      "X2: cost of Pi(Q, V) vs the optimized program, sweeping the number\n"
      "of irrelevant 'distractor' views in the catalog. The query's\n"
      "connection is an independent 5-view chain.\n\n");
  limcap::TextTable table({"Distractors", "Full queries", "Opt queries",
                           "Full facts", "Opt facts", "Full ms", "Opt ms",
                           "Answers equal"});
  for (std::size_t m : {0u, 2u, 4u, 8u, 16u, 32u}) {
    Setup setup = MakeSetup(m);
    Measured full = Measure(setup, /*optimized=*/false);
    Measured optimized = Measure(setup, /*optimized=*/true);
    bool equal = full.answers == optimized.answers;
    if (!equal) ++failures;
    if (optimized.queries > full.queries) ++failures;
    char full_ms[32];
    char opt_ms[32];
    std::snprintf(full_ms, sizeof(full_ms), "%.2f", full.millis);
    std::snprintf(opt_ms, sizeof(opt_ms), "%.2f", optimized.millis);
    table.AddRow({std::to_string(m), std::to_string(full.queries),
                  std::to_string(optimized.queries),
                  std::to_string(full.facts),
                  std::to_string(optimized.facts), full_ms, opt_ms,
                  equal ? "yes" : "NO"});
    reporter.AddRow(limcap::StrCat({"distractors_", std::to_string(m)}))
        .Set("full_queries", double(full.queries))
        .Set("opt_queries", double(optimized.queries))
        .Set("full_facts", double(full.facts))
        .Set("opt_facts", double(optimized.facts))
        .Set("full_ms", full.millis)
        .Set("opt_ms", optimized.millis);
    reporter.Invariant(
        limcap::StrCat({"answers equal, opt <= full (", std::to_string(m), " distractors)"}),
        equal && optimized.queries <= full.queries);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("expected shape: 'Full queries' grows with distractors, "
              "'Opt queries' stays flat.\n");
  std::printf("violations: %d\n", failures);
  reporter.SetFailures(failures);
  reporter.Write();
  return failures == 0 ? 0 : 1;
}
