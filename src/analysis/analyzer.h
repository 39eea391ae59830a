#ifndef LIMCAP_ANALYSIS_ANALYZER_H_
#define LIMCAP_ANALYSIS_ANALYZER_H_

#include <string>
#include <vector>

#include "analysis/binding_flow.h"
#include "analysis/diagnostics.h"
#include "analysis/executability.h"
#include "capability/source_view.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "planner/domain_map.h"

namespace limcap::analysis {

/// Which passes AnalyzeProgram runs and how.
struct AnalysisOptions {
  /// The goal predicate for reachability (LC006). Predicates named
  /// `<goal>$...` (the builder's tagged per-connection goals) count as
  /// goals too.
  std::string goal_predicate = "ans";
  /// The attribute -> domain-predicate mapping the program was built
  /// with; the executability analysis mirrors the evaluator's use of it.
  planner::DomainMap domains;
  ExecutabilityOptions executability;
  /// The binding-flow pass (LC030-LC032) is opt-in: `limcap_lint --deep`
  /// and the execution gate enable it; plain lint output stays stable.
  bool check_binding_flow = false;
};

/// Everything the analyzer found.
struct AnalysisResult {
  /// All diagnostics, sorted by (rule, atom, code).
  DiagnosticBag diagnostics;
  /// Per-rule executability verdicts.
  ExecutabilityResult executability;
  /// Binding-flow channel verdicts (empty when the pass was disabled).
  BindingFlowResult binding_flow;
  bool binding_flow_ran = false;

  bool ok() const { return !diagnostics.has_errors(); }
};

/// The static program verifier: checks a (typically planner-produced)
/// Datalog program against the source catalog *before execution*.
/// Runs, in order:
///
///   * safety: arity consistency (LC001), range restriction (LC002),
///     ground facts (LC003) — shared with datalog::CheckSafety;
///   * declaration hygiene: undeclared body predicates (LC004),
///     singleton variables (LC005);
///   * reachability: rules the goal cannot reach (LC006, cross-checking
///     Section 6's RemoveUselessRules) and a recursion note (LC007);
///   * catalog conformance: view-atom arity (LC010);
///   * adorned executability (LC020-LC023): see
///     analysis/executability.h.
///
/// `views` is the source catalog (only views the program mentions
/// matter); `source_map` (optional) makes diagnostics point at source
/// lines.
AnalysisResult AnalyzeProgram(const datalog::Program& program,
                              const std::vector<capability::SourceView>& views,
                              const AnalysisOptions& options = {},
                              const datalog::ProgramSourceMap* source_map =
                                  nullptr);

}  // namespace limcap::analysis

#endif  // LIMCAP_ANALYSIS_ANALYZER_H_
