// A tour of the paper's planning theory on its own worked examples:
// forward-closures, independence (Section 4), kernels, BF-chains,
// backward-closures, FIND_REL (Section 5), and program optimization
// (Section 6) — with every intermediate printed, the way a mediator
// would explain its plan.

#include <cstdio>

#include "paperdata/paper_examples.h"
#include "planner/closure.h"
#include "planner/find_rel.h"
#include "planner/program_optimizer.h"

namespace {

using limcap::paperdata::MakeExample41;
using limcap::paperdata::MakeExample51;
using limcap::paperdata::MakeExample52;
using limcap::paperdata::PaperExample;
using limcap::planner::AttributeSet;

std::string SetText(const AttributeSet& set) {
  std::string out = "{";
  for (const std::string& item : set) {
    if (out.size() > 1) out += ", ";
    out += item;
  }
  return out + "}";
}

void Tour(const char* title, PaperExample example) {
  std::printf("==================== %s ====================\n", title);
  std::printf("sources:\n%s", example.catalog.ToString().c_str());
  std::printf("query: %s\n\n", example.query.ToString().c_str());

  auto plan = limcap::planner::PlanQuery(example.query, example.views,
                                         example.domains);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().ToString().c_str());
    return;
  }

  for (const auto& connection : example.query.connections()) {
    auto report = limcap::planner::FindRelevantViews(
        example.query, connection, example.views, example.domains);
    if (!report.ok()) continue;
    std::printf("-- FIND_REL for connection %s --\n%s",
                connection.ToString().c_str(), report->ToString().c_str());
    if (!report->kernel.empty()) {
      // Show every kernel (Lemma 5.3: all share one backward-closure).
      std::vector<limcap::capability::SourceView> views;
      for (const std::string& name : connection.view_names()) {
        for (const auto& view : example.views) {
          if (view.name() == name) views.push_back(view);
        }
      }
      auto kernels = limcap::planner::AllKernels(
          example.query.InputAttributes(), views);
      std::printf("all kernels:");
      for (const AttributeSet& kernel : kernels) {
        std::printf(" %s", SetText(kernel).c_str());
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  auto full = limcap::planner::BuildFullProgram(example.query, example.views,
                                                example.domains);
  if (!full.ok()) {
    std::fprintf(stderr, "building Pi(Q, V) failed: %s\n",
                 full.status().ToString().c_str());
    return;
  }
  std::printf("Pi(Q, V)   — %zu rules:\n%s\n", full->size(),
              full->ToString().c_str());
  std::printf("Pi(Q, V_r) — %zu rules (after FIND_REL trimming)\n",
              plan->relevant_program.size());
  std::printf("optimized  — %zu rules (after useless-rule removal):\n%s\n",
              plan->optimized_program.size(),
              plan->optimized_program.ToString().c_str());
  std::printf("removed as useless:\n");
  for (const auto& rule : plan->removed_rules) {
    std::printf("  %s\n", rule.ToString().c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Tour("Example 4.1 (Figures 3, 4, 8)", MakeExample41());
  Tour("Example 5.1 (Figure 5)", MakeExample51());
  Tour("Example 5.2 (Figure 6, multiple kernels)", MakeExample52());
  return 0;
}
