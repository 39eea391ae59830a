// Reproduces the paper's Example 4.1 artifacts:
//   E5 — Figures 3 and 4: the five-view catalog and the 15-rule program;
//        the independence analysis (T1 independent, T2 not);
//   E9 — Figure 8: the optimized program (9 rules) after FIND_REL
//        trimming (drops v5's rules) and useless-rule removal (drops
//        domB, domD, v4^, domE), with the answer preserved.
//
// Self-checking; exits non-zero on mismatch.

#include <cstdio>
#include <set>

#include "datalog/parser.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "planner/closure.h"

#include "bench_report.h"

namespace {

using limcap::Value;
using limcap::paperdata::MakeExample41;
using limcap::relational::Row;

int failures = 0;
limcap::benchreport::Reporter reporter("bench_paper_example41");

void Check(bool ok, const char* what) {
  reporter.Invariant(what, ok);
  std::printf("  [%s] %s\n", ok ? "OK" : "MISMATCH", what);
  if (!ok) ++failures;
}

constexpr const char* kFigure4 =
    "ans(D) :- v1^(a0, C), v3^(C, D)."
    "ans(D) :- v2^(a0, B, C), v3^(C, D)."
    "v1^(A, C) :- domA(A), v1(A, C)."
    "domC(C) :- domA(A), v1(A, C)."
    "v2^(A, B, C) :- domC(C), v2(A, B, C)."
    "domA(A) :- domC(C), v2(A, B, C)."
    "domB(B) :- domC(C), v2(A, B, C)."
    "v3^(C, D) :- domC(C), v3(C, D)."
    "domD(D) :- domC(C), v3(C, D)."
    "v4^(C, E) :- v4(C, E)."
    "domC(C) :- v4(C, E)."
    "domE(E) :- v4(C, E)."
    "v5^(E, F) :- domE(E), v5(E, F)."
    "domF(F) :- domE(E), v5(E, F)."
    "domA(a0).";

constexpr const char* kFigure8 =
    "ans(D) :- v1^(a0, C), v3^(C, D)."
    "ans(D) :- v2^(a0, B, C), v3^(C, D)."
    "v1^(A, C) :- domA(A), v1(A, C)."
    "domC(C) :- domA(A), v1(A, C)."
    "v2^(A, B, C) :- domC(C), v2(A, B, C)."
    "domA(A) :- domC(C), v2(A, B, C)."
    "v3^(C, D) :- domC(C), v3(C, D)."
    "domC(C) :- v4(C, E)."
    "domA(a0).";

}  // namespace

int main() {
  limcap::paperdata::PaperExample example = MakeExample41();

  std::printf("=== E5: Figure 3 — the source views of Example 4.1 ===\n%s\n",
              example.catalog.ToString().c_str());
  std::printf("query Q = %s\n\n", example.query.ToString().c_str());

  // Independence analysis (Section 4).
  auto views_named = [&](std::initializer_list<const char*> names) {
    std::vector<limcap::capability::SourceView> out;
    for (const char* name : names) {
      for (const auto& view : example.views) {
        if (view.name() == name) out.push_back(view);
      }
    }
    return out;
  };
  bool t1_independent =
      limcap::planner::IsIndependent({"A"}, views_named({"v1", "v3"}));
  bool t2_independent =
      limcap::planner::IsIndependent({"A"}, views_named({"v2", "v3"}));
  Check(t1_independent, "T1 = {v1, v3} is independent (Theorem 4.1 applies)");
  Check(!t2_independent, "T2 = {v2, v3} is not independent");

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
  std::printf("\n=== E5: Figure 4 — Pi(Q, V), %zu rules ===\n%s\n",
              full->size(), full->ToString().c_str());
  auto fig4 = limcap::datalog::ParseProgram(kFigure4);
  Check(fig4.ok() && *full == *fig4,
        "program matches Figure 4 rule-for-rule");

  std::printf("\n=== E9: Figure 8 — the optimized program, %zu rules ===\n%s\n",
              plan->optimized_program.size(),
              plan->optimized_program.ToString().c_str());
  auto fig8 = limcap::datalog::ParseProgram(kFigure8);
  Check(fig8.ok() && plan->optimized_program == *fig8,
        "optimized program matches Figure 8 rule-for-rule");
  Check(plan->relevance.relevant_union ==
            std::set<std::string>{"v1", "v2", "v3", "v4"},
        "V_r = {v1, v2, v3, v4}: v5 trimmed by FIND_REL");
  Check(plan->removed_rules.size() == 4,
        "4 useless rules removed (domB, domD, v4^, domE)");

  // The optimization preserves the answer and saves source accesses.
  limcap::exec::QueryAnswerer answerer(&example.catalog, example.domains);
  auto optimized = answerer.Answer(example.query);
  auto unoptimized = answerer.AnswerUnoptimized(example.query);
  if (!optimized.ok() || !unoptimized.ok()) {
    std::fprintf(stderr, "execution failed\n");
    return 1;
  }
  Check(optimized->exec.answer == unoptimized->exec.answer,
        "optimized and unoptimized programs compute the same answer");
  Check(optimized->exec.log.QueriesTo("v5") == 0 &&
            unoptimized->exec.log.QueriesTo("v5") > 0,
        "only the unoptimized program wastes queries on v5");
  std::printf(
      "\nsource queries: optimized %zu vs unoptimized %zu; answer %s\n",
      optimized->exec.log.total_queries(),
      unoptimized->exec.log.total_queries(),
      optimized->exec.answer.ToString().c_str());

  std::printf("\n%s\n", failures == 0 ? "Example 4.1 reproduced exactly."
                                      : "MISMATCHES FOUND — see above.");
  reporter.SetFailures(failures);
  reporter.Write();
  return failures == 0 ? 0 : 1;
}
