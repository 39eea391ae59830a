// X3 — Section 7.2: the partial-answer tradeoff.
//
// Sweeping the source-access budget on random instances, we record the
// fraction of the maximal obtainable answer retrieved. Expected shape: a
// monotone curve with diminishing returns — early accesses fill the
// domains that unlock many answers at once, the tail chases the last
// bindings.

#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "common/text_table.h"
#include "exec/query_answerer.h"
#include "workload/generator.h"

#include "bench_report.h"

namespace {

using limcap::workload::CatalogSpec;
using limcap::workload::GeneratedInstance;
using limcap::workload::GenerateInstance;
using limcap::workload::GenerateQuery;
using limcap::workload::QuerySpec;

int failures = 0;
limcap::benchreport::Reporter reporter("bench_partial_answer");

}  // namespace

int main() {
  const std::vector<std::size_t> budgets = {0, 2, 4, 8, 16, 32, 64, 128, 256};
  const std::size_t seeds = 12;

  // answers[b] accumulated across instances, plus per-instance maxima.
  std::vector<double> fraction_sum(budgets.size(), 0);
  std::size_t instances = 0;
  std::size_t maximal_queries_sum = 0;
  std::size_t maximal_answers_sum = 0;

  for (std::size_t seed = 0; seed < seeds; ++seed) {
    CatalogSpec spec;
    spec.topology = CatalogSpec::Topology::kRandom;
    spec.num_views = 10;
    spec.num_attributes = 8;
    spec.tuples_per_view = 50;
    spec.domain_size = 14;
    spec.bound_probability = 0.45;
    spec.seed = seed * 101 + 7;
    GeneratedInstance instance = GenerateInstance(spec);

    QuerySpec query_spec;
    query_spec.num_connections = 2;
    query_spec.views_per_connection = 3;
    query_spec.seed = seed * 13 + 5;
    auto query = GenerateQuery(instance, query_spec);
    if (!query.ok()) continue;

    limcap::exec::QueryAnswerer answerer(&instance.catalog,
                                         instance.domains);
    auto maximal = answerer.Answer(*query);
    if (!maximal.ok() || maximal->exec.answer.empty()) continue;
    ++instances;
    maximal_queries_sum += maximal->exec.log.total_queries();
    maximal_answers_sum += maximal->exec.answer.size();

    std::size_t previous = 0;
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      limcap::exec::ExecOptions options;
      options.max_source_queries = budgets[b];
      auto report = answerer.Answer(*query, options);
      if (!report.ok()) {
        ++failures;
        continue;
      }
      std::size_t count = report->exec.answer.size();
      if (count < previous) ++failures;  // monotonicity violated
      previous = count;
      fraction_sum[b] +=
          double(count) / double(maximal->exec.answer.size());
      // Partial answers must be subsets of the maximal answer.
      for (const auto& row : report->exec.answer.DecodedRows()) {
        if (!maximal->exec.answer.Contains(row)) ++failures;
      }
    }
  }

  std::printf("X3: partial answers under a source-access budget, averaged\n"
              "over %zu random instances (avg maximal answer %.1f tuples\n"
              "after %.1f source queries).\n\n",
              instances,
              instances ? double(maximal_answers_sum) / double(instances) : 0,
              instances ? double(maximal_queries_sum) / double(instances) : 0);
  limcap::TextTable table({"Budget", "Avg fraction of maximal answer"});
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    char fraction[32];
    std::snprintf(fraction, sizeof(fraction), "%5.1f%%",
                  instances ? 100.0 * fraction_sum[b] / double(instances)
                            : 0.0);
    table.AddRow({std::to_string(budgets[b]), fraction});
    reporter.AddRow(limcap::StrCat({"budget_", std::to_string(budgets[b])}))
        .Set("budget", double(budgets[b]))
        .Set("avg_fraction",
             instances ? fraction_sum[b] / double(instances) : 0.0);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("violations (non-monotone or non-subset): %d\n", failures);
  reporter.Invariant("partial answers monotone subsets of maximal",
                     failures == 0);
  reporter.SetFailures(failures);
  reporter.Write();
  return failures == 0 ? 0 : 1;
}
