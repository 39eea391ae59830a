// limcap_shell — a command-line driver for the whole system: load a
// catalog (text format), run connection queries (the paper's notation),
// and inspect plans and traces.
//
// Usage:
//   limcap_shell <catalog-file> "<query>" [--trace] [--plan] [--baseline]
//   limcap_shell                  # runs a built-in demo (Example 2.1)
//
// Example (one command line):
//   limcap_shell music.cat
//     '<{Song = t1}, {Price}, {{v1, v3}, {v1, v4}, {v2, v3}, {v2, v4}}>'
//     --trace --plan

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "capability/catalog_text.h"
#include "exec/baseline_executor.h"
#include "exec/query_answerer.h"
#include "planner/query_parser.h"

namespace {

constexpr const char* kDemoCatalog = R"(
source v1(Song, Cd) [bf] { (t1, c1) (t2, c3) }
source v2(Song, Cd) [fb] { (t1, c4) (t2, c2) (t1, c5) }
source v3(Cd, Artist, Price) [bff] { (c1, a1, "$15") (c3, a3, "$14") }
source v4(Cd, Artist, Price) [fbf] {
  (c1, a1, "$13") (c2, a1, "$12") (c4, a3, "$10") (c5, a5, "$11")
}
)";

constexpr const char* kDemoQuery =
    "<{Song = t1}, {Price}, {{v1, v3}, {v1, v4}, {v2, v3}, {v2, v4}}>";

int Fail(const limcap::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string catalog_text;
  std::string query_text;
  bool show_trace = false;
  bool show_plan = false;
  bool run_baseline = false;

  if (argc >= 3) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open catalog file %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    catalog_text = buffer.str();
    query_text = argv[2];
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--trace") == 0) show_trace = true;
      if (std::strcmp(argv[i], "--plan") == 0) show_plan = true;
      if (std::strcmp(argv[i], "--baseline") == 0) run_baseline = true;
    }
  } else {
    std::printf("(no arguments — running the built-in Example 2.1 demo;\n"
                " usage: limcap_shell <catalog-file> \"<query>\" [--trace] "
                "[--plan] [--baseline])\n\n");
    catalog_text = kDemoCatalog;
    query_text = kDemoQuery;
    show_trace = show_plan = run_baseline = true;
  }

  auto parsed = limcap::capability::ParseCatalog(catalog_text);
  if (!parsed.ok()) return Fail(parsed.status());
  auto query = limcap::planner::ParseQuery(query_text);
  if (!query.ok()) return Fail(query.status());

  std::printf("catalog (%zu sources):\n%s\n", parsed->catalog.size(),
              parsed->catalog.ToString().c_str());
  std::printf("query: %s\n\n", query->ToString().c_str());

  limcap::exec::QueryAnswerer answerer(&parsed->catalog,
                                       limcap::planner::DomainMap());
  auto report = answerer.Answer(*query);
  if (!report.ok()) return Fail(report.status());

  if (show_plan) {
    std::printf("== relevance analysis ==\n%s\n",
                report->plan->relevance.ToString().c_str());
    std::printf("== optimized program (%zu rules; %zu removed as useless) "
                "==\n%s\n",
                report->plan->optimized_program.size(),
                report->plan->removed_rules.size(),
                report->plan->optimized_program.ToString().c_str());
  }
  if (show_trace) {
    std::printf("== source-access trace ==\n%s\n",
                report->exec.log.ToTable(/*productive_only=*/false).c_str());
  }

  std::printf("answer (%zu tuples): %s\n", report->exec.answer.size(),
              report->exec.answer.ToString().c_str());
  std::printf("source queries: %zu (%zu productive)\n",
              report->exec.log.total_queries(),
              report->exec.log.productive_queries());

  if (run_baseline) {
    limcap::exec::BaselineExecutor baseline(&parsed->catalog);
    auto per_join = baseline.Execute(*query);
    if (per_join.ok()) {
      std::printf(
          "\nper-join baseline: %zu tuples (%zu connections skipped): %s\n",
          per_join->answer.size(), per_join->skipped_connections.size(),
          per_join->answer.ToString().c_str());
    }
  }
  return 0;
}
