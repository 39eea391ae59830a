#ifndef LIMCAP_ANALYSIS_LINT_H_
#define LIMCAP_ANALYSIS_LINT_H_

#include <string>

#include "analysis/analyzer.h"
#include "common/result.h"
#include "datalog/ast.h"
#include "planner/program_builder.h"

namespace limcap::analysis {

/// One lint run over textual inputs — the library behind `limcap_lint`,
/// shared with the golden-file tests. Exactly one of three modes:
///
///   * catalog only: cold-start reachability over the catalog's views —
///     which sources could ever be queried with no query inputs at all;
///   * catalog + program: analyze a hand-written Datalog program against
///     the catalog (parser source map gives diagnostics line numbers);
///   * catalog + query: build the full Π(Q, V) for the connection query
///     and analyze it (the pre-optimization program — never-fire
///     findings show what Section 6 would prune).
struct LintRequest {
  /// Catalog text for capability::ParseCatalog. Required.
  std::string catalog_text;
  /// Datalog program text; mutually exclusive with `query_text`.
  std::string program_text;
  bool has_program = false;
  /// Connection-query text for planner::ParseQuery.
  std::string query_text;
  bool has_query = false;
  /// Analyzer knobs (goal predicate, domains).
  AnalysisOptions options;
  /// Builder knobs for query mode.
  planner::BuilderOptions builder;
  /// Render machine-readable JSON instead of text.
  bool json = false;
  /// `--deep`: also run the binding-flow pass (LC030-LC032) and append
  /// the per-channel certificate dump to the rendered report. No effect
  /// in catalog-only mode (binding flow needs a program).
  bool deep = false;
};

struct LintReport {
  /// Diagnostics plus executability verdicts.
  AnalysisResult analysis;
  /// The analyzed program (empty in catalog-only mode).
  datalog::Program program;
  /// The report, rendered per LintRequest::json.
  std::string rendered;

  bool ok() const { return analysis.ok(); }
};

/// Runs one lint. Returns an error Status only when the *inputs* are
/// unusable (unparsable catalog/program/query, both program and query
/// given, invalid query); findings about a well-formed program are
/// diagnostics in the report, never a Status.
Result<LintReport> Lint(const LintRequest& request);

}  // namespace limcap::analysis

#endif  // LIMCAP_ANALYSIS_LINT_H_
