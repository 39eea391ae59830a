// Reproduces the paper's Example 2.1 artifacts:
//   E1 — Table 1 (the four CD sources) and the Figure 1 instance,
//   E2 — Figure 2 (the 15-rule program Π(Q, V)),
//   E3 — Table 2 (the source-query trace),
//   E4 — Table 3 (final IDB extents and the answer {$15, $13, $10}),
// plus the comparisons the paper narrates: the complete answer
// {$15, $13, $11, $10} and the per-join baseline's {$15}.
//
// The binary self-checks every artifact and exits non-zero on mismatch.

#include <cstdio>
#include <set>
#include <string>

#include "common/string_util.h"
#include "common/text_table.h"
#include "datalog/parser.h"
#include "exec/baseline_executor.h"
#include "exec/oracle.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"

#include "bench_report.h"

namespace {

using limcap::TextTable;
using limcap::Value;
using limcap::paperdata::MakeExample21;
using limcap::relational::Row;

int failures = 0;
limcap::benchreport::Reporter reporter("bench_paper_example21");

void Check(bool ok, const char* what) {
  reporter.Invariant(what, ok);
  std::printf("  [%s] %s\n", ok ? "OK" : "MISMATCH", what);
  if (!ok) ++failures;
}

std::set<Row> Rows(const limcap::relational::Relation& relation) {
  auto decoded = relation.DecodedRows();
  return std::set<Row>(decoded.begin(), decoded.end());
}

std::set<Row> Prices(std::initializer_list<const char*> prices) {
  std::set<Row> rows;
  for (const char* price : prices) rows.insert({Value::String(price)});
  return rows;
}

constexpr const char* kFigure2 =
    "ans(P) :- v1^(t1, C), v3^(C, A, P)."
    "ans(P) :- v1^(t1, C), v4^(C, A, P)."
    "ans(P) :- v2^(t1, C), v3^(C, A, P)."
    "ans(P) :- v2^(t1, C), v4^(C, A, P)."
    "v1^(S, C) :- song(S), v1(S, C)."
    "cd(C) :- song(S), v1(S, C)."
    "v2^(S, C) :- cd(C), v2(S, C)."
    "song(S) :- cd(C), v2(S, C)."
    "v3^(C, A, P) :- cd(C), v3(C, A, P)."
    "artist(A) :- cd(C), v3(C, A, P)."
    "price(P) :- cd(C), v3(C, A, P)."
    "v4^(C, A, P) :- artist(A), v4(C, A, P)."
    "cd(C) :- artist(A), v4(C, A, P)."
    "price(P) :- artist(A), v4(C, A, P)."
    "song(t1).";

}  // namespace

int main() {
  limcap::paperdata::PaperExample example = MakeExample21();

  std::printf("=== E1: Table 1 — four sources of musical CDs ===\n");
  TextTable table1({"Source", "Contents", "Must Bind"});
  for (const auto& view : example.views) {
    std::string must_bind;
    for (const std::string& attribute : view.BoundAttributes()) {
      if (!must_bind.empty()) must_bind += ", ";
      must_bind += attribute;
    }
    table1.AddRow({limcap::StrCat({"s", view.name().substr(1)}),
                   view.name() + view.schema().ToString(), must_bind});
  }
  std::printf("%s\n", table1.ToString().c_str());

  std::printf("query Q = %s\n\n", example.query.ToString().c_str());

  std::printf("=== E2: Figure 2 — the program Pi(Q, V) ===\n");
  auto plan = limcap::planner::PlanQuery(example.query, example.views,
                                         example.domains);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  auto full = limcap::planner::BuildFullProgram(example.query, example.views,
                                                example.domains);
  if (!full.ok()) {
    std::fprintf(stderr, "building Pi(Q, V) failed: %s\n",
                 full.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", full->ToString().c_str());
  Check(full->size() == 15, "program has 15 rules as in Fig. 2");
  auto golden = limcap::datalog::ParseProgram(kFigure2);
  Check(golden.ok() && *full == *golden,
        "program matches Figure 2 rule-for-rule (up to renaming)");
  Check(plan->relevance.relevant_union.size() == 4,
        "all four views are relevant (no trimming possible here)");

  std::printf("\n=== E3: Table 2 — evaluating the program ===\n");
  // Execute Figure 2's program itself (the optimized program computes the
  // same answer but elides the pure-bookkeeping price/domain rules that
  // Table 3 reports).
  limcap::exec::QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.AnswerUnoptimized(example.query);
  if (!report.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("(productive queries; the paper's Table 2 shows one valid "
              "order — ours is round-based)\n%s\n",
              report->exec.log.ToTable(/*productive_only=*/true).c_str());
  std::set<std::string> productive;
  for (const auto& record : report->exec.log.records()) {
    if (record.tuples_returned() > 0) productive.insert(record.RenderedQuery());
  }
  Check(productive == std::set<std::string>{
                          "v1(t1, C)", "v1(t2, C)", "v2(S, c2)", "v2(S, c4)",
                          "v3(c1, A, P)", "v3(c3, A, P)", "v4(C, a1, P)",
                          "v4(C, a3, P)"},
        "the 8 productive source queries are exactly Table 2's");
  std::printf("  (total queries incl. unproductive probes: %zu)\n",
              report->exec.log.total_queries());

  std::printf("\n=== E4: Table 3 — results of the program ===\n");
  TextTable table3({"IDB", "Results"});
  for (const char* predicate :
       {"v1^", "v2^", "v3^", "v4^", "song", "cd", "artist", "price", "ans"}) {
    std::string rendered;
    for (const auto& row : report->exec.store.Facts(predicate)) {
      if (!rendered.empty()) rendered += " ";
      rendered += limcap::relational::RowToString(
          report->exec.store.Decode(row));
    }
    table3.AddRow({predicate, rendered});
  }
  std::printf("%s\n", table3.ToString().c_str());

  Check(Rows(report->exec.answer) == Prices({"$15", "$13", "$10"}),
        "obtainable answer is {$15, $13, $10}");

  auto complete = limcap::exec::CompleteAnswer(example.query, example.catalog);
  Check(complete.ok() &&
            Rows(*complete) == Prices({"$15", "$13", "$11", "$10"}),
        "complete answer is {$15, $13, $11, $10} ($11 unobtainable)");

  limcap::exec::BaselineExecutor baseline(&example.catalog);
  auto per_join = baseline.Execute(example.query);
  Check(per_join.ok() && Rows(per_join->answer) == Prices({"$15"}),
        "per-join baseline ([10,14,16]) obtains only {$15}");
  Check(per_join.ok() && per_join->skipped_connections.size() == 3,
        "baseline skips 3 of the 4 joins as inexecutable");

  std::printf("\n%s\n", failures == 0
                            ? "Example 2.1 reproduced exactly."
                            : "MISMATCHES FOUND — see above.");
  reporter.SetFailures(failures);
  reporter.Write();
  return failures == 0 ? 0 : 1;
}
