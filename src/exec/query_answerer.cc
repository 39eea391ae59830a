#include "exec/query_answerer.h"

namespace limcap::exec {

namespace {

/// Plan-shape counters, recorded once per answer, warm or cold.
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

/// The plan-cache config tag: the gate mode, which is the one exec knob
/// that changes the compiled artifact (kPrune rewrites the program, kWarn
/// attaches verdicts), plus the program variant. Plans compiled under
/// different modes or variants must not share a cache key; the optimized
/// variant's tag is the bare mode.
std::string_view PlanCacheConfigTag(StaticAnalysisMode mode,
                                    bool full_program) {
  switch (mode) {
    case StaticAnalysisMode::kOff:
      return full_program ? "off/full" : "off";
    case StaticAnalysisMode::kWarn:
      return full_program ? "warn/full" : "warn";
    case StaticAnalysisMode::kReject:
      return full_program ? "reject/full" : "reject";
    case StaticAnalysisMode::kPrune:
      return full_program ? "prune/full" : "prune";
  }
  return full_program ? "off/full" : "off";
}

/// Fills `report->degraded_connections` with the ToString() of every
/// connection that traverses a failed view (Section 7.2 partial-answer
/// semantics): the execution's answer is sound, but those connections may
/// be under-answered.
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

}  // namespace

Result<datalog::Program> ApplyStaticAnalysisGate(
    const datalog::Program& program,
    const std::vector<capability::SourceView>& views,
    const planner::DomainMap& domains, const ExecOptions& options,
    AnswerReport* report) {
  if (options.static_analysis == StaticAnalysisMode::kOff) return program;
  obs::ScopedSpan gate_span(options.tracer, "analysis.gate");
  // One analysis, one relevance fixpoint: LC030-LC032 are warnings and
  // notes, so kReject semantics are unchanged; under kPrune the rules that
  // never fire are dropped here and the statically irrelevant channels
  // before scheduling (see RunPipeline).
  analysis::AnalysisOptions analysis_options;
  analysis_options.goal_predicate = options.builder.goal_predicate;
  analysis_options.domains = domains;
  analysis_options.check_binding_flow = true;
  report->analysis =
      analysis::AnalyzeProgram(program, views, analysis_options);
  report->analysis_ran = true;
  gate_span.Counter("diagnostics",
                    double(report->analysis.diagnostics.size()));
  gate_span.Counter(
      "prunable_channels",
      double(report->analysis.binding_flow.PrunedChannels().size()));
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
  obs::ScopedSpan answer_span(context.options().tracer, "answer");
  return RunPipeline(query, context, /*full_program=*/false, nullptr);
}

Result<AnswerReport> QueryAnswerer::Answer(const planner::Query& query,
                                           QueryContext& context) const {
  LIMCAP_RETURN_NOT_OK(query.Validate(*catalog_, domains_));
  obs::ScopedSpan answer_span(context.options().tracer, "answer");
  return RunPipeline(query, context, /*full_program=*/false, nullptr);
}

Result<AnswerReport> QueryAnswerer::AnswerUnoptimized(
    const planner::Query& query, const ExecOptions& options) const {
  LIMCAP_RETURN_NOT_OK(query.Validate(*catalog_, domains_));
  QueryContext context(options, query);
  obs::ScopedSpan answer_span(context.options().tracer, "answer",
                              "unoptimized");
  return RunPipeline(query, context, /*full_program=*/true, nullptr);
}

Result<AnswerReport> QueryAnswerer::AnswerWithCache(
    const planner::Query& query,
    const std::map<std::string, relational::Relation>& cached,
    const ExecOptions& options) const {
  LIMCAP_RETURN_NOT_OK(query.Validate(*catalog_, domains_));
  QueryContext context(options, query);
  obs::ScopedSpan answer_span(context.options().tracer, "answer", "cached");
  return RunPipeline(query, context, /*full_program=*/false, &cached);
}

Result<AnswerReport> QueryAnswerer::RunPipeline(
    const planner::Query& query, QueryContext& context, bool full_program,
    const std::map<std::string, relational::Relation>* cached) const {
  const ExecOptions& session_options = context.options();
  AnswerReport report;

  // Warm path: look the (catalog fingerprint, query signature) key up
  // before planning. A hit replays the compiled artifact — the plan, the
  // analysis verdicts, and the post-gate executable program — and goes
  // straight to execution. The session dictionary was already seeded with
  // the query's input constants when the context was built, in the same
  // order as on the cold path, so execution proceeds over an
  // identically-evolving dictionary and the warm answer is bit-identical
  // to the cold one. Section 7.1 tuples are compiled into the program, so
  // an answer given them never uses the cache.
  planner::PlanCache* plan_cache =
      cached == nullptr ? session_options.plan_cache : nullptr;
  std::shared_ptr<const planner::CachedPlan> hit;
  planner::QuerySignature signature;
  if (plan_cache != nullptr) {
    obs::ScopedSpan lookup_span(session_options.tracer, "plan.cache_lookup");
    LIMCAP_ASSIGN_OR_RETURN(
        signature,
        planner::MakeQuerySignature(
            query, *catalog_, domains_, session_options.builder,
            PlanCacheConfigTag(session_options.static_analysis,
                               full_program)));
    report.cache.attempted = true;
    report.cache.catalog_fingerprint = catalog_->fingerprint();
    report.cache.key_fingerprint = signature.hash;
    report.cache.signature = signature.canonical;
    hit = plan_cache->Lookup(report.cache.catalog_fingerprint, signature);
    report.cache.hit = hit != nullptr;
    lookup_span.Counter("hit", report.cache.hit ? 1 : 0);
    if (session_options.metrics != nullptr) {
      session_options.metrics->Add(report.cache.hit
                                       ? obs::metric::kPlanCacheHits
                                       : obs::metric::kPlanCacheMisses);
    }
  }

  // The program to execute, and its compiled form: the hit's, or the
  // gate's output below, compiled once when it is published (`published`
  // keeps it alive through execution, even if the cache evicts it).
  // Null `compiled`: execution compiles the program itself.
  datalog::Program gated;
  const datalog::Program* program = &gated;
  std::shared_ptr<const datalog::CompiledProgram> compiled;
  std::shared_ptr<planner::CachedPlan> published;
  if (hit != nullptr) {
    report.plan = hit->plan;
    program = &hit->executable_program;
    compiled = hit->compiled;
    RecordPlanMetrics(*report.plan, session_options.metrics);
    if (hit->analysis_ran) {
      report.analysis =
          *std::static_pointer_cast<const analysis::AnalysisResult>(
              hit->verdicts);
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
    // Cached views seed their attributes' domains, which can make views —
    // and whole connections — queryable that a cold start would drop.
    capability::AttributeSet seeded;
    if (cached != nullptr) {
      for (const auto& [name, tuples] : *cached) {
        if (tuples.empty()) continue;
        LIMCAP_ASSIGN_OR_RETURN(const capability::SourceView* view,
                                catalog_->FindView(name));
        capability::AttributeSet attrs = view->Attributes();
        seeded.insert(attrs.begin(), attrs.end());
      }
    }
    // The catalog's views, by reference, serve planning, Π(Q, V) and the
    // gate (the catalog does not change during an answer).
    const std::vector<capability::SourceView>& views = catalog_->Views();
    LIMCAP_ASSIGN_OR_RETURN(
        planner::PlanResult planned,
        planner::PlanQuery(query, views, domains_, session_options.builder,
                           seeded, session_options.tracer));
    report.plan =
        std::make_shared<const planner::PlanResult>(std::move(planned));
    RecordPlanMetrics(*report.plan, session_options.metrics);
    const datalog::Program* chosen = &report.plan->optimized_program;
    datalog::Program full;
    if (full_program) {
      LIMCAP_ASSIGN_OR_RETURN(
          full, planner::BuildFullProgram(query, views, domains_,
                                          session_options.builder,
                                          session_options.tracer));
      chosen = &full;
    }
    // Fold the cached tuples in as fact rules (Section 7.1). Facts only
    // add derivations, so the relevance analysis computed without them
    // stays sound; the gate runs after, because the facts seed domains
    // and rules a cold-start analysis would call dead may fire here.
    datalog::Program with_tuples;
    if (cached != nullptr) {
      with_tuples = *chosen;
      for (const auto& [name, tuples] : *cached) {
        LIMCAP_ASSIGN_OR_RETURN(const capability::SourceView* view,
                                catalog_->FindView(name));
        for (const relational::Row& row : tuples.DecodedRows()) {
          LIMCAP_RETURN_NOT_OK(planner::AddCachedTupleRules(
              *view, row, domains_, session_options.builder, &with_tuples));
        }
      }
      chosen = &with_tuples;
    }
    LIMCAP_ASSIGN_OR_RETURN(gated,
                            ApplyStaticAnalysisGate(*chosen, views, domains_,
                                                    session_options, &report));
    // Publish the artifact. kReject failures never reach this point (the
    // gate returned the error above), so rejections are re-diagnosed —
    // and re-reported — on every attempt. A capacity-0 cache would drop
    // the entry, so none is built for it.
    if (plan_cache != nullptr && plan_cache->capacity() > 0) {
      published = std::make_shared<planner::CachedPlan>();
      // Compiled against a fresh store over this answer's dictionary,
      // which holds only the query's inputs so far: exactly the state the
      // execution below, and every warm answer of this key, binds from.
      datalog::FactStore fresh(session_options.session_dict);
      LIMCAP_ASSIGN_OR_RETURN(published->compiled,
                              datalog::Evaluator::Compile(gated, &fresh));
      published->plan = report.plan;
      published->executable_program = std::move(gated);
      published->analysis_ran = report.analysis_ran;
      if (report.analysis_ran) {
        published->verdicts =
            std::make_shared<const analysis::AnalysisResult>(report.analysis);
      }
      published->catalog_fingerprint = report.cache.catalog_fingerprint;
      published->signature = std::move(signature);
      program = &published->executable_program;
      compiled = published->compiled;
      uint64_t evictions_before = plan_cache->stats().evictions;
      plan_cache->Insert(published);
      if (session_options.metrics != nullptr) {
        uint64_t evicted = plan_cache->stats().evictions - evictions_before;
        if (evicted > 0) {
          session_options.metrics->Add(obs::metric::kPlanCacheEvictions,
                                       double(evicted));
        }
      }
    }
  }

  // Under kPrune, the gate's (or a warm hit's replayed) binding-flow
  // verdicts become the evaluator's pruned-channel list, so statically
  // irrelevant fetch channels are never scheduled. Other modes execute
  // unchanged.
  ExecOptions exec_options = session_options;
  if (session_options.static_analysis == StaticAnalysisMode::kPrune &&
      report.analysis_ran && report.analysis.binding_flow_ran) {
    exec_options.pruned_channels =
        report.analysis.binding_flow.PrunedChannels();
  }
  SourceDrivenEvaluator evaluator(catalog_, domains_, std::move(exec_options));
  LIMCAP_ASSIGN_OR_RETURN(report.exec,
                          evaluator.Execute(*program, std::move(compiled),
                                            query));
  AnnotateDegradedConnections(report.plan->relevance.queryable_connections,
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
