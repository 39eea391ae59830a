#ifndef LIMCAP_EXEC_EXPLAIN_H_
#define LIMCAP_EXEC_EXPLAIN_H_

#include <string>

#include "common/result.h"
#include "exec/query_answerer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/query.h"

namespace limcap::exec {

/// One explain run over textual inputs — the library behind
/// `limcap_explain`, shared with the golden-file tests. Parses the
/// catalog and the connection query, answers the query with tracing and
/// metrics attached, and renders the whole story: why each view is
/// relevant (the FIND_REL kernels and closures), the optimized program,
/// the execution timeline, and the reconciled per-source metrics.
struct ExplainRequest {
  /// Catalog text for capability::ParseCatalog. Required.
  std::string catalog_text;
  /// Connection-query text for planner::ParseQuery. Required.
  std::string query_text;
  /// Optional source-access runtime config (runtime/runtime_config.h);
  /// empty keeps `options.runtime` as given.
  std::string runtime_text;
  /// Execution knobs (goal predicate, static analysis, budgets). The
  /// tracer/metrics fields are ignored — Explain attaches its own.
  ExecOptions options;
  /// Include wall-clock numbers in the rendered timeline. Off makes the
  /// report deterministic (simulated times and counters only), which is
  /// what the golden tests pin.
  bool include_timing = true;
};

struct ExplainReport {
  /// The full answer: plan, analysis, execution.
  AnswerReport answer;
  /// The parsed query (echoed into the report header).
  planner::Query query;
  /// The recorded span tree and the per-query metrics.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  /// The rendered text report.
  std::string rendered;
  /// The span tree as Chrome trace_event JSON (chrome://tracing,
  /// Perfetto).
  std::string chrome_trace;
};

/// Runs one explain. Returns an error Status only when the inputs are
/// unusable (unparsable catalog/query/runtime config, invalid query) or
/// the execution itself fails; a degraded (partial) answer is still a
/// report.
Result<ExplainReport> Explain(const ExplainRequest& request);

/// Everything the text renderer reads, decoupled from how the answer was
/// produced — Explain() feeds it a live run, the replay path
/// (src/replay/) feeds it a run reconstructed from a captured artifact,
/// and both render byte-identically given equal inputs. All pointers are
/// non-owning and must outlive the call.
struct ExplainRenderInputs {
  const AnswerReport* answer = nullptr;
  const planner::Query* query = nullptr;
  /// Catalog views in registration order (for the binding-flow section).
  const std::vector<capability::SourceView>* views = nullptr;
  const planner::DomainMap* domains = nullptr;
  /// The answer's builder options: the goal predicate, and what
  /// Π(Q, V) is rebuilt with for the "full program" count.
  planner::BuilderOptions builder;
  planner::PlanCache::Stats cache_stats;
  const obs::Tracer* tracer = nullptr;
  const obs::MetricsRegistry* metrics = nullptr;
  /// Include wall-clock numbers in the timeline (golden tests pin the
  /// deterministic form with this off).
  bool include_timing = true;
  /// Whether the run used the runtime-adaptive dispatch layer; drives
  /// the "Adaptive dispatch" section (which renders "off" otherwise).
  bool adaptive = false;
  /// Rendered verbatim before the Query section; empty renders nothing.
  /// The replay path puts its "Replay" section (manifest echo, recorded
  /// vs. replayed fingerprints) here.
  std::string preamble;
};

/// Renders the full report text: Query, Relevance, Optimized program,
/// Binding flow, Plan cache, Execution, Timeline, Metrics, Answer.
std::string RenderExplainText(const ExplainRenderInputs& inputs);

}  // namespace limcap::exec

#endif  // LIMCAP_EXEC_EXPLAIN_H_
