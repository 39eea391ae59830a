#include "exec/explain.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "analysis/binding_flow.h"
#include "analysis/dynamic_relevance.h"
#include "capability/catalog_fingerprint.h"
#include "common/text_table.h"
#include "capability/catalog_text.h"
#include "obs/export.h"
#include "planner/plan_cache.h"
#include "planner/query_parser.h"
#include "runtime/runtime_config.h"

namespace limcap::exec {

namespace {

void Section(std::ostringstream& out, const char* title) {
  out << "== " << title << " ==\n";
}

void RenderRelevance(const planner::PlanResult& plan,
                     std::ostringstream& out) {
  Section(out, "Relevance (FIND_REL)");
  out << plan.relevance.ToString();
  for (const planner::Connection& connection :
       plan.relevance.queryable_connections) {
    out << "-- connection " << connection.ToString() << " --\n"
        << plan.relevance.reports.at(connection.ToString()).ToString();
  }
  out << "\n";
}

void RenderProgram(const ExplainRenderInputs& inputs,
                   std::ostringstream& out) {
  const planner::PlanResult& plan = *inputs.answer->plan;
  // The answer never builds Π(Q, V); build it here for its size.
  Result<datalog::Program> full = planner::BuildFullProgram(
      *inputs.query, *inputs.views, *inputs.domains, inputs.builder);
  Section(out, "Optimized program");
  out << plan.optimized_program.size() << " rule(s); Section 6 removed "
      << plan.removed_rules.size() << " of "
      << plan.relevant_program.size() << " (full program: "
      << (full.ok() ? std::to_string(full->size())
                    : full.status().ToString())
      << ")\n"
      << plan.optimized_program.ToString();
  if (!plan.removed_rules.empty()) {
    out << "removed as useless:\n";
    for (const datalog::Rule& rule : plan.removed_rules) {
      out << "  " << rule.ToString() << "\n";
    }
  }
  out << "\n";
}

void RenderBindingFlow(const planner::PlanResult& plan,
                       const std::vector<capability::SourceView>& views,
                       const planner::DomainMap& domains,
                       const std::string& goal, std::ostringstream& out) {
  // Run the binding-flow pass on the optimized program here (instead of
  // relying on the answer's gate mode) so the section renders under
  // every StaticAnalysisMode, including kOff.
  Section(out, "Binding flow");
  analysis::BindingFlowOptions options;
  options.goal_predicate = goal;
  out << analysis::RenderBindingFlowText(analysis::AnalyzeBindingFlow(
             plan.optimized_program, views, domains, options))
      << "\n";
}

void RenderPlanCache(const AnswerReport& answer,
                     const planner::PlanCache::Stats& stats,
                     std::ostringstream& out) {
  Section(out, "Plan cache");
  if (!answer.cache.attempted) {
    out << "not consulted\n\n";
    return;
  }
  out << (answer.cache.hit ? "hit" : "miss") << "  catalog fingerprint: "
      << capability::FingerprintToString(answer.cache.catalog_fingerprint)
      << "  key: "
      << capability::FingerprintToString(answer.cache.key_fingerprint)
      << "\nsignature: " << answer.cache.signature << "\nstate: "
      << stats.size << "/" << stats.capacity << " entries  hits " << stats.hits
      << "  misses " << stats.misses << "  inserts " << stats.inserts
      << "  evictions " << stats.evictions << "\n\n";
}

void RenderExecution(const AnswerReport& answer, std::ostringstream& out) {
  const ExecResult& exec = answer.exec;
  Section(out, "Execution");
  out << "fetch-eval rounds: " << exec.rounds
      << "  source queries: " << exec.log.total_queries()
      << "  facts derived: " << exec.datalog_stats.facts_derived
      << (exec.budget_exhausted ? "  [budget exhausted: partial answer]"
                                : "")
      << "\n";
  if (answer.analysis_ran) {
    out << "static analysis: " << answer.analysis.diagnostics.size()
        << " diagnostic(s), " << answer.analysis.diagnostics.errors()
        << " error(s)\n";
  }
  out << exec.log.ToTable(/*productive_only=*/false);
  out << exec.fetch_report.ToString() << "\n";
}

std::string Ms(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", ms);
  return buffer;
}

void RenderAdaptive(const AnswerReport& answer, bool adaptive,
                    std::ostringstream& out) {
  Section(out, "Adaptive dispatch");
  if (!adaptive) {
    out << "off\n\n";
    return;
  }
  const ExecResult& exec = answer.exec;
  const runtime::FetchReport& fetch = exec.fetch_report;
  out << "skipped (dynamic relevance): " << fetch.skipped_dynamic
      << "  hedged: " << fetch.hedged << " (" << fetch.hedge_wins
      << " rescued)  batched: " << fetch.batched_calls << "\n";
  if (!exec.skip_certificates.empty()) {
    out << analysis::RenderSkipCertificates(exec.skip_certificates);
  }
  if (!exec.adaptive_profiles.empty()) {
    TextTable table({"Source", "Fetches", "EWMA ms", "p95 ms", "Rows",
                     "Fail rate", "Score"});
    for (const auto& [source, profile] : exec.adaptive_profiles) {
      char fail[32];
      std::snprintf(fail, sizeof(fail), "%.2f", profile.failure_rate);
      char score[32];
      std::snprintf(score, sizeof(score), "%.3f", profile.Score());
      table.AddRow({source, std::to_string(profile.observations),
                    Ms(profile.ewma_latency_ms),
                    Ms(profile.LatencyQuantileMs(0.95)),
                    Ms(profile.ewma_rows), fail, score});
    }
    out << table.ToString();
  }
  out << "\n";
}

}  // namespace

std::string RenderExplainText(const ExplainRenderInputs& inputs) {
  std::ostringstream out;
  out << inputs.preamble;
  Section(out, "Query");
  out << inputs.query->ToString() << "\n\n";
  RenderRelevance(*inputs.answer->plan, out);
  RenderProgram(inputs, out);
  RenderBindingFlow(*inputs.answer->plan, *inputs.views, *inputs.domains,
                    inputs.builder.goal_predicate, out);
  RenderPlanCache(*inputs.answer, inputs.cache_stats, out);
  RenderExecution(*inputs.answer, out);
  RenderAdaptive(*inputs.answer, inputs.adaptive, out);

  Section(out, "Timeline");
  obs::SpanTreeOptions tree_options;
  tree_options.include_wall = inputs.include_timing;
  out << obs::RenderSpanTree(*inputs.tracer, tree_options) << "\n";

  Section(out, "Metrics");
  out << inputs.metrics->RenderText() << "\n";

  Section(out, "Answer");
  out << inputs.answer->exec.answer.size() << " row(s): "
      << inputs.answer->exec.answer.ToString() << "\n";
  if (inputs.answer->exec.fetch_report.degraded()) {
    out << "WARNING: partial answer — failed views: ";
    for (const std::string& view :
         inputs.answer->exec.fetch_report.failed_views) {
      out << view << " ";
    }
    out << "\n";
  }
  return out.str();
}

Result<ExplainReport> Explain(const ExplainRequest& request) {
  LIMCAP_ASSIGN_OR_RETURN(capability::ParsedCatalog parsed,
                          capability::ParseCatalog(request.catalog_text));
  LIMCAP_ASSIGN_OR_RETURN(planner::Query query,
                          planner::ParseQuery(request.query_text));

  ExplainReport report;
  report.query = std::move(query);

  ExecOptions options = request.options;
  if (!request.runtime_text.empty()) {
    // The config file has no adaptive stanza; an explicitly requested
    // adaptive mode (--adaptive) survives the config load.
    const runtime::AdaptiveOptions adaptive = options.runtime.adaptive;
    LIMCAP_ASSIGN_OR_RETURN(
        options.runtime, runtime::ParseRuntimeConfig(request.runtime_text));
    if (adaptive.enabled) options.runtime.adaptive = adaptive;
  }
  options.tracer = &report.tracer;
  options.metrics = &report.metrics;

  // One-shot cache so the report always carries the key the answer would
  // cache under (an explain run itself is always a cold miss).
  planner::PlanCache local_cache;
  if (options.plan_cache == nullptr) options.plan_cache = &local_cache;

  {
    // Answer in a scope of its own so every span is closed before the
    // exporters run.
    QueryAnswerer answerer(&parsed.catalog, planner::DomainMap());
    LIMCAP_ASSIGN_OR_RETURN(report.answer,
                            answerer.Answer(report.query, options));
  }
  const std::vector<capability::SourceView>& views = parsed.catalog.Views();
  const planner::DomainMap domains;
  ExplainRenderInputs render;
  render.answer = &report.answer;
  render.query = &report.query;
  render.views = &views;
  render.domains = &domains;
  render.builder = options.builder;
  render.cache_stats = options.plan_cache->stats();
  render.tracer = &report.tracer;
  render.metrics = &report.metrics;
  render.include_timing = request.include_timing;
  render.adaptive = options.runtime.adaptive.enabled;
  report.rendered = RenderExplainText(render);
  report.chrome_trace = obs::ChromeTraceJson(report.tracer);
  return report;
}

}  // namespace limcap::exec
