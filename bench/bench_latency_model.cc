// Wall-clock analysis under network latencies: the evaluator's fetch
// rounds bound the achievable parallelism (queries within a round are
// independent). This harness reports estimated makespans for the paper's
// Example 2.1 and for synthetic chains/stars, under a 50 ms-per-query
// model — the integration-system argument for batching source accesses
// per round rather than issuing them one at a time.

#include <cstdio>

#include "common/text_table.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "runtime/latency_model.h"
#include "workload/generator.h"

#include "bench_report.h"

namespace {

int failures = 0;
limcap::benchreport::Reporter reporter("bench_latency_model");

void Report(limcap::TextTable* table, const char* name,
            const limcap::exec::ExecResult& exec) {
  limcap::runtime::LatencyModel model;  // 50 ms per query
  limcap::runtime::MakespanReport makespan =
      limcap::runtime::EstimateMakespan(exec.log, model);
  char sequential[32], parallel[32], per_source[32], speedup[32];
  std::snprintf(sequential, sizeof(sequential), "%.0f ms",
                makespan.sequential_ms);
  std::snprintf(parallel, sizeof(parallel), "%.0f ms", makespan.parallel_ms);
  std::snprintf(per_source, sizeof(per_source), "%.0f ms",
                makespan.per_source_serial_ms);
  std::snprintf(speedup, sizeof(speedup), "%.1fx", makespan.ParallelSpeedup());
  table->AddRow({name, std::to_string(exec.log.total_queries()),
                 std::to_string(makespan.rounds), sequential, per_source,
                 parallel, speedup});
  reporter.AddRow(name)
      .Set("queries", double(exec.log.total_queries()))
      .Set("rounds", double(makespan.rounds))
      .Set("sequential_ms", makespan.sequential_ms)
      .Set("per_source_serial_ms", makespan.per_source_serial_ms)
      .Set("parallel_ms", makespan.parallel_ms)
      .Set("speedup", makespan.ParallelSpeedup());
  const bool ordered =
      makespan.parallel_ms <= makespan.per_source_serial_ms + 1e-9 &&
      makespan.per_source_serial_ms <= makespan.sequential_ms + 1e-9;
  if (!ordered) ++failures;  // makespans must be ordered
  reporter.Invariant(std::string(name) + " makespans ordered", ordered);
}

}  // namespace

int main() {
  limcap::TextTable table({"Workload", "Queries", "Rounds", "Sequential",
                           "Per-source serial", "Fully parallel",
                           "Speedup"});

  {
    auto example = limcap::paperdata::MakeExample21();
    limcap::exec::QueryAnswerer answerer(&example.catalog, example.domains);
    auto report = answerer.Answer(example.query);
    if (report.ok()) Report(&table, "Example 2.1", report->exec);
  }

  for (std::size_t views : {4u, 8u, 16u}) {
    limcap::workload::CatalogSpec spec;
    spec.topology = limcap::workload::CatalogSpec::Topology::kChain;
    spec.num_views = views;
    spec.tuples_per_view = 60;
    spec.domain_size = 20;
    spec.seed = 7;
    auto instance = limcap::workload::GenerateInstance(spec);
    std::vector<std::string> names;
    for (std::size_t i = 1; i <= views; ++i) {
      names.push_back("v" + std::to_string(i));
    }
    limcap::planner::Query query(
        {{"A0", limcap::workload::GeneratedInstance::DomainValue("A0", 1)}},
        {"A" + std::to_string(views)},
        {limcap::planner::Connection(std::move(names))});
    limcap::exec::QueryAnswerer answerer(&instance.catalog,
                                         instance.domains);
    auto report = answerer.Answer(query);
    if (report.ok()) {
      std::string name = "chain x" + std::to_string(views);
      Report(&table, name.c_str(), report->exec);
    }
  }

  std::printf("Estimated wall-clock under 50 ms/query network latency.\n"
              "Queries within a fetch round are independent and can be "
              "issued concurrently.\n\n%s\n",
              table.ToString().c_str());
  std::printf("invariants (parallel <= per-source serial <= sequential): "
              "%s\n",
              failures == 0 ? "hold" : "VIOLATED");
  reporter.SetFailures(failures);
  reporter.Write();
  return failures == 0 ? 0 : 1;
}
