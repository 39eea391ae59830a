#include "exec/query_answerer.h"

#include "exec/bind_join.h"
#include "planner/closure.h"

namespace limcap::exec {

namespace {

/// Plan-shape counters, recorded once per PlanQuery on every answer path.
void RecordPlanMetrics(const planner::PlanResult& plan,
                       obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->Add(obs::metric::kPlanConnectionsQueryable,
               double(plan.relevance.queryable_connections.size()));
  metrics->Add(obs::metric::kPlanConnectionsDropped,
               double(plan.relevance.dropped_connections.size()));
  metrics->Add(obs::metric::kPlanRelevantViews,
               double(plan.relevance.relevant_union.size()));
  metrics->Add(obs::metric::kPlanRulesRemoved,
               double(plan.removed_rules.size()));
}

/// The gate mode as the plan-cache config tag: the gate is the one exec
/// knob that changes the compiled artifact (kPrune rewrites the program,
/// kWarn attaches verdicts), so plans compiled under different modes must
/// not share a cache key.
std::string_view StaticAnalysisModeTag(StaticAnalysisMode mode) {
  switch (mode) {
    case StaticAnalysisMode::kOff:
      return "off";
    case StaticAnalysisMode::kWarn:
      return "warn";
    case StaticAnalysisMode::kReject:
      return "reject";
    case StaticAnalysisMode::kPrune:
      return "prune";
  }
  return "off";
}

/// The execution options a path hands its evaluator: under kPrune, the
/// gate's (or a warm cache hit's replayed) binding-flow verdicts become
/// the evaluator's pruned-channel list, so statically irrelevant fetch
/// channels are never scheduled. Other modes execute unchanged.
ExecOptions WithStaticPrunes(const ExecOptions& options,
                             const AnswerReport& report) {
  ExecOptions out = options;
  if (options.static_analysis == StaticAnalysisMode::kPrune &&
      report.analysis_ran && report.analysis.binding_flow_ran) {
    out.pruned_channels = report.analysis.binding_flow.PrunedChannels();
  }
  return out;
}

}  // namespace

void AnnotateDegradedConnections(
    const std::vector<planner::Connection>& connections,
    runtime::FetchReport* report) {
  report->degraded_connections.clear();
  if (report->failed_views.empty()) return;
  for (const planner::Connection& connection : connections) {
    for (const std::string& name : connection.view_names()) {
      if (report->failed_views.count(name) != 0) {
        report->degraded_connections.push_back(connection.ToString());
        break;
      }
    }
  }
}

Result<datalog::Program> ApplyStaticAnalysisGate(
    const datalog::Program& program,
    const std::vector<capability::SourceView>& views,
    const planner::DomainMap& domains, const ExecOptions& options,
    AnswerReport* report) {
  if (options.static_analysis == StaticAnalysisMode::kOff) return program;
  obs::ScopedSpan gate_span(options.tracer, "analysis.gate");
  analysis::AnalysisOptions analysis_options;
  analysis_options.goal_predicate = options.builder.goal_predicate;
  analysis_options.domains = domains;
  report->analysis = analysis::AnalyzeProgram(program, views,
                                              analysis_options);
  report->analysis_ran = true;
  {
    // The binding-flow pass runs under its own span so the timeline
    // separates the channel-relevance fixpoint from the older passes.
    // Its LC030-LC032 findings are warnings/notes, so kReject semantics
    // are unchanged; under kPrune its verdicts drop the statically
    // irrelevant channels before scheduling (see below).
    obs::ScopedSpan flow_span(options.tracer, "analysis.binding_flow");
    analysis::BindingFlowOptions flow_options;
    flow_options.goal_predicate = options.builder.goal_predicate;
    report->analysis.binding_flow =
        analysis::AnalyzeBindingFlow(program, views, domains, flow_options);
    report->analysis.binding_flow_ran = true;
    analysis::AppendBindingFlowDiagnostics(
        program, report->analysis.binding_flow, nullptr,
        &report->analysis.diagnostics);
    report->analysis.diagnostics.Sort();
    flow_span.Counter(
        "prunable_channels",
        double(report->analysis.binding_flow.PrunedChannels().size()));
  }
  gate_span.Counter("diagnostics",
                    double(report->analysis.diagnostics.size()));
  if (options.metrics != nullptr) {
    options.metrics->Add(obs::metric::kAnalysisDiagnostics,
                         double(report->analysis.diagnostics.size()));
  }
  if (options.static_analysis == StaticAnalysisMode::kReject &&
      report->analysis.diagnostics.has_errors()) {
    return Status::CapabilityViolation(
        "static analysis rejected the program:\n" +
        report->analysis.diagnostics.RenderText());
  }
  if (options.static_analysis == StaticAnalysisMode::kPrune) {
    return analysis::PruneNeverFiringRules(program,
                                           report->analysis.executability);
  }
  return program;
}

Result<AnswerReport> QueryAnswerer::Answer(const planner::Query& query,
                                           const ExecOptions& options) const {
  // Validate before the context interns the query's inputs, so a
  // rejected query leaves a caller-supplied dictionary untouched.
  LIMCAP_RETURN_NOT_OK(query.Validate(*catalog_, domains_));
  QueryContext context(options, query);
  return Answer(query, context);
}

Result<AnswerReport> QueryAnswerer::Answer(const planner::Query& query,
                                           QueryContext& context) const {
  LIMCAP_RETURN_NOT_OK(query.Validate(*catalog_, domains_));
  const ExecOptions& session_options = context.options();
  obs::ScopedSpan answer_span(session_options.tracer, "answer");
  AnswerReport report;

  // Warm path: look the (catalog fingerprint, query signature) key up
  // before planning. A hit replays the compiled artifact — the plan, the
  // analysis verdicts, and the post-gate executable program — and goes
  // straight to execution. The session dictionary was already seeded with
  // the query's input constants above, in the same order as on the cold
  // path, so execution proceeds over an identically-evolving dictionary
  // and the warm answer is bit-identical to the cold one.
  std::shared_ptr<const planner::CachedPlan> cached;
  planner::QuerySignature signature;
  if (session_options.plan_cache != nullptr) {
    obs::ScopedSpan lookup_span(session_options.tracer, "plan.cache_lookup");
    LIMCAP_ASSIGN_OR_RETURN(
        signature,
        planner::MakeQuerySignature(
            query, *catalog_, domains_, session_options.builder,
            StaticAnalysisModeTag(session_options.static_analysis)));
    report.cache.attempted = true;
    report.cache.catalog_fingerprint = catalog_->fingerprint();
    report.cache.key_fingerprint = signature.hash;
    report.cache.signature = signature.canonical;
    cached = session_options.plan_cache->Lookup(
        report.cache.catalog_fingerprint, signature);
    report.cache.hit = cached != nullptr;
    lookup_span.Counter("hit", report.cache.hit ? 1 : 0);
    if (session_options.metrics != nullptr) {
      session_options.metrics->Add(report.cache.hit
                                       ? obs::metric::kPlanCacheHits
                                       : obs::metric::kPlanCacheMisses);
    }
  }

  datalog::Program program;
  if (cached != nullptr) {
    report.plan = cached->plan;
    program = cached->executable_program;
    RecordPlanMetrics(report.plan, session_options.metrics);
    if (cached->analysis_ran) {
      report.analysis = *std::static_pointer_cast<const analysis::AnalysisResult>(
          cached->verdicts);
      report.analysis_ran = true;
      // Mirror the gate's accounting so warm and cold answers report the
      // same metrics.
      if (session_options.metrics != nullptr) {
        session_options.metrics->Add(
            obs::metric::kAnalysisDiagnostics,
            double(report.analysis.diagnostics.size()));
      }
    }
  } else {
    // One snapshot of the catalog serves both planning and the gate.
    const std::vector<capability::SourceView> views = catalog_->Views();
    LIMCAP_ASSIGN_OR_RETURN(
        report.plan, planner::PlanQuery(query, views, domains_,
                                        session_options.builder, {},
                                        session_options.tracer));
    RecordPlanMetrics(report.plan, session_options.metrics);
    LIMCAP_ASSIGN_OR_RETURN(
        program, ApplyStaticAnalysisGate(report.plan.optimized_program, views,
                                         domains_, session_options, &report));
    // Publish the artifact. kReject failures never reach this point (the
    // gate returned the error above), so rejections are re-diagnosed —
    // and re-reported — on every attempt.
    if (report.cache.attempted) {
      auto entry = std::make_shared<planner::CachedPlan>();
      entry->plan = report.plan;
      entry->executable_program = program;
      entry->analysis_ran = report.analysis_ran;
      if (report.analysis_ran) {
        entry->verdicts =
            std::make_shared<const analysis::AnalysisResult>(report.analysis);
      }
      entry->catalog_fingerprint = report.cache.catalog_fingerprint;
      entry->signature = signature;
      uint64_t evictions_before =
          session_options.plan_cache->stats().evictions;
      session_options.plan_cache->Insert(std::move(entry));
      if (session_options.metrics != nullptr) {
        uint64_t evicted = session_options.plan_cache->stats().evictions -
                           evictions_before;
        if (evicted > 0) {
          session_options.metrics->Add(obs::metric::kPlanCacheEvictions,
                                       double(evicted));
        }
      }
    }
  }

  const ExecOptions exec_options = WithStaticPrunes(session_options, report);
  SourceDrivenEvaluator evaluator(catalog_, domains_, exec_options);
  LIMCAP_ASSIGN_OR_RETURN(report.exec, evaluator.Execute(program, query));
  AnnotateDegradedConnections(report.plan.relevance.queryable_connections,
                              &report.exec.fetch_report);
  return report;
}

Result<AnswerReport> QueryAnswerer::AnswerHybrid(
    const planner::Query& query, const ExecOptions& options) const {
  LIMCAP_RETURN_NOT_OK(query.Validate(*catalog_, domains_));
  QueryContext context(options, query);
  const ExecOptions& session_options = context.options();
  const ValueDictionaryPtr& dict = session_options.session_dict;
  obs::ScopedSpan answer_span(session_options.tracer, "answer", "hybrid");
  AnswerReport report;
  LIMCAP_ASSIGN_OR_RETURN(
      report.plan, planner::PlanQuery(query, catalog_->Views(), domains_,
                                      session_options.builder, {},
                                      session_options.tracer));
  RecordPlanMetrics(report.plan, session_options.metrics);

  // Partition the queryable connections by (attribute-level)
  // independence.
  std::vector<planner::Connection> independent;
  std::vector<planner::Connection> dependent;
  std::map<std::string, std::vector<std::string>> sequences;
  for (const planner::Connection& connection :
       report.plan.relevance.queryable_connections) {
    std::vector<capability::SourceView> views;
    for (const std::string& name : connection.view_names()) {
      LIMCAP_ASSIGN_OR_RETURN(const capability::SourceView* view,
                              catalog_->FindView(name));
      views.push_back(*view);
    }
    auto sequence =
        planner::ExecutableSequence(query.InputAttributes(), views);
    if (sequence.ok()) {
      sequences.emplace(connection.ToString(), *sequence);
      independent.push_back(connection);
    } else {
      dependent.push_back(connection);
    }
  }

  // Datalog part for the dependent connections.
  if (!dependent.empty()) {
    planner::Query sub(query.inputs(), query.outputs(), dependent);
    LIMCAP_ASSIGN_OR_RETURN(
        planner::PlanResult subplan,
        planner::PlanQuery(sub, catalog_->Views(), domains_,
                           session_options.builder, {},
                           session_options.tracer));
    // The gate covers the Datalog part; the bind-join part below runs
    // sequences ExecutableSequence already proved executable.
    LIMCAP_ASSIGN_OR_RETURN(
        datalog::Program program,
        ApplyStaticAnalysisGate(subplan.optimized_program, catalog_->Views(),
                                domains_, session_options, &report));
    const ExecOptions exec_options =
        WithStaticPrunes(session_options, report);
    SourceDrivenEvaluator evaluator(catalog_, domains_, exec_options);
    LIMCAP_ASSIGN_OR_RETURN(report.exec, evaluator.Execute(program, sub));
    AnnotateDegradedConnections(dependent, &report.exec.fetch_report);
  } else {
    LIMCAP_ASSIGN_OR_RETURN(relational::Schema out_schema,
                            relational::Schema::Make(query.outputs()));
    report.exec.answer = relational::Relation(std::move(out_schema), dict);
    report.exec.session_dict = dict;
  }

  // Bind-join part for the independent connections, per input
  // combination (Theorem 4.1: this retrieves their complete answers).
  std::map<std::string, std::vector<Value>> input_values;
  for (const planner::InputAssignment& input : query.inputs()) {
    input_values[input.attribute].push_back(input.value);
  }
  std::vector<std::pair<std::string, std::vector<Value>>> choices(
      input_values.begin(), input_values.end());
  for (const planner::Connection& connection : independent) {
    const std::vector<std::string>& sequence =
        sequences.at(connection.ToString());
    std::vector<std::size_t> pick(choices.size(), 0);
    while (true) {
      std::map<std::string, Value> combo;
      for (std::size_t i = 0; i < choices.size(); ++i) {
        combo.emplace(choices[i].first, choices[i].second[pick[i]]);
      }
      LIMCAP_RETURN_NOT_OK(
          ExecuteBindJoinChain(*catalog_, sequence, combo, query.outputs(),
                               &report.exec.log, &report.exec.answer));
      std::size_t i = 0;
      for (; i < pick.size(); ++i) {
        if (++pick[i] < choices[i].second.size()) break;
        pick[i] = 0;
      }
      if (i == pick.size()) break;
    }
  }
  return report;
}

Result<AnswerReport> QueryAnswerer::AnswerWithCache(
    const planner::Query& query,
    const std::map<std::string, relational::Relation>& cached,
    const ExecOptions& options) const {
  LIMCAP_RETURN_NOT_OK(query.Validate(*catalog_, domains_));
  QueryContext context(options, query);
  const ExecOptions& session_options = context.options();
  obs::ScopedSpan answer_span(session_options.tracer, "answer", "cached");
  AnswerReport report;
  // Cached views seed their attributes' domains, which can make views —
  // and whole connections — queryable that a cold start would drop.
  capability::AttributeSet seeded;
  for (const auto& [name, tuples] : cached) {
    if (tuples.empty()) continue;
    LIMCAP_ASSIGN_OR_RETURN(const capability::SourceView* view,
                            catalog_->FindView(name));
    capability::AttributeSet attrs = view->Attributes();
    seeded.insert(attrs.begin(), attrs.end());
  }
  LIMCAP_ASSIGN_OR_RETURN(
      report.plan, planner::PlanQuery(query, catalog_->Views(), domains_,
                                      session_options.builder, seeded,
                                      session_options.tracer));
  RecordPlanMetrics(report.plan, session_options.metrics);
  // Fold the cached tuples into the optimized program as fact rules
  // (Section 7.1). Facts only add derivations, so the relevance analysis
  // computed without them stays sound.
  datalog::Program program = report.plan.optimized_program;
  for (const auto& [name, tuples] : cached) {
    LIMCAP_ASSIGN_OR_RETURN(const capability::SourceView* view,
                            catalog_->FindView(name));
    for (const relational::Row& row : tuples.DecodedRows()) {
      LIMCAP_RETURN_NOT_OK(planner::AddCachedTupleRules(
          *view, row, domains_, session_options.builder, &program));
    }
  }
  // Gate after folding the cached facts in: they seed domains, so rules
  // a cold-start analysis would call dead may fire here.
  LIMCAP_ASSIGN_OR_RETURN(
      program, ApplyStaticAnalysisGate(program, catalog_->Views(), domains_,
                                       session_options, &report));
  const ExecOptions exec_options = WithStaticPrunes(session_options, report);
  SourceDrivenEvaluator evaluator(catalog_, domains_, exec_options);
  LIMCAP_ASSIGN_OR_RETURN(report.exec, evaluator.Execute(program, query));
  AnnotateDegradedConnections(report.plan.relevance.queryable_connections,
                              &report.exec.fetch_report);
  return report;
}

Result<AnswerReport> QueryAnswerer::AnswerUnoptimized(
    const planner::Query& query, const ExecOptions& options) const {
  LIMCAP_RETURN_NOT_OK(query.Validate(*catalog_, domains_));
  QueryContext context(options, query);
  const ExecOptions& session_options = context.options();
  obs::ScopedSpan answer_span(session_options.tracer, "answer",
                              "unoptimized");
  AnswerReport report;
  LIMCAP_ASSIGN_OR_RETURN(
      report.plan, planner::PlanQuery(query, catalog_->Views(), domains_,
                                      session_options.builder, {},
                                      session_options.tracer));
  RecordPlanMetrics(report.plan, session_options.metrics);
  LIMCAP_ASSIGN_OR_RETURN(
      datalog::Program program,
      ApplyStaticAnalysisGate(report.plan.full_program, catalog_->Views(),
                              domains_, session_options, &report));
  const ExecOptions exec_options = WithStaticPrunes(session_options, report);
  SourceDrivenEvaluator evaluator(catalog_, domains_, exec_options);
  LIMCAP_ASSIGN_OR_RETURN(report.exec, evaluator.Execute(program, query));
  AnnotateDegradedConnections(report.plan.relevance.queryable_connections,
                              &report.exec.fetch_report);
  return report;
}

Result<std::map<std::string, relational::Relation>> PerConnectionAnswers(
    const ExecResult& exec,
    const std::vector<planner::Connection>& connections,
    const planner::Query& query, const planner::BuilderOptions& options) {
  LIMCAP_ASSIGN_OR_RETURN(relational::Schema out_schema,
                          relational::Schema::Make(query.outputs()));
  std::map<std::string, relational::Relation> per_connection;
  for (std::size_t k = 0; k < connections.size(); ++k) {
    std::string predicate =
        options.goal_predicate + "$c" + std::to_string(k);
    LIMCAP_ASSIGN_OR_RETURN(relational::Relation answers,
                            exec.store.ToRelation(predicate, out_schema));
    per_connection.emplace(connections[k].ToString(), std::move(answers));
  }
  return per_connection;
}

}  // namespace limcap::exec
